"""Saturation benchmark: worker-count sweep over the sharded serving stack.

Drives a saturating workload through :class:`repro.serve.Server` at every
worker count in ``WORKER_SWEEP`` (1, 2, 4), recording for each point the
synchronous batch throughput, the async single-request throughput, the
p50/p99 request latency of the dynamic-batcher path (read from a
:class:`repro.obs.metrics.Histogram`, the shared quantile path), and the
admission shed rate.  Each worker count's server is started once and warmed
with one untimed full-size ``predict``, so every timed chunk size is already
bound; then ``SWEEP_ROUNDS`` rounds each time every worker count once, and
the multi-worker scaling over the single-worker baseline is the median of
the rounds' ratios, asserted against ``SCALING_FLOOR``.  A single shot of
the 1-worker point swung by 2x on a 2-core host.  The sweep, with every
round, the host's cores and BLAS threads and its CPU steal share over the
rounds, is appended to ``BENCH_serve.json`` at the repository root (run
history, like ``BENCH_runtime.json``).  Every configuration pins one BLAS
thread per worker, so the comparison isolates process-level sharding from
library threading.

The scaling assertion needs real hardware parallelism: on a single-core host
(CI sandboxes, cgroup-limited containers) the sweep is still recorded but
the floor is skipped — the slow CI suite runs on multi-core runners where it
is enforced for the largest sweep point the core count supports.

Slow-marked: saturation runs take tens of seconds; the fast suite covers the
serving layer's correctness (including SIGKILL fault injection and shed
semantics) in ``tests/test_serve.py``.
"""

import contextlib
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import OFSCIL, OFSCILConfig
from repro.obs.metrics import Histogram
from repro.report import append_keyed_bench_record, cpu_jiffies, \
    host_record, load_keyed_bench, steal_share
from repro.serve import Server, ServerOverloaded

pytestmark = pytest.mark.slow

BACKBONE = "mobilenetv2_x4_tiny"
WORKER_SWEEP = (1, 2, 4)
SCALING_FLOOR = 1.5
#: Timed rounds; each runs every worker count once, and the floor judges
#: the median of the rounds' scaling ratios.
SWEEP_ROUNDS = 15
SATURATION_SAMPLES = 768
ASYNC_REQUESTS = 256
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
#: Request-latency buckets, 1 ms to 60 s, each about 10% wider than the
#: last: the default time buckets are 2-2.5x wide around the sweep's
#: 50-250 ms latencies, so its quantiles would land on bucket edges.
LATENCY_BUCKETS_S = tuple(np.geomspace(1e-3, 60.0, 120))


@pytest.fixture(scope="module")
def bench_model():
    model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                 seed=0)
    model.freeze_feature_extractor()
    rng = np.random.default_rng(0)
    shots = rng.standard_normal((40, 3, 16, 16)).astype(np.float32)
    for class_id in range(8):
        model.learn_class(shots[class_id * 5:(class_id + 1) * 5], class_id)
    return model


def _tracing_off_cost_s(iterations: int = 50_000) -> float:
    """Per-request cost of the tracing-off telemetry path, measured directly.

    One serving request with tracing disabled pays: the sampling draw
    (``start_trace`` returning ``None``), the admission counters, and the
    dispatch/latency instruments.  A single request never pays the full
    dispatch set (those are per *batch*), so charging all of them per
    request overestimates — the guard is conservative.  Measuring the
    instrument path in a tight loop, instead of diffing two noisy
    end-to-end runs, keeps the 2% assertion stable on loaded CI hosts.
    """
    from repro.obs.trace import Tracer
    from repro.serve.stats import ServeStats

    tracer = Tracer(sample_rate=0.0)
    stats = ServeStats()
    start = time.perf_counter()
    for _ in range(iterations):
        tracer.start_trace("server.submit")
        stats.observe_submit(3)
        stats.observe_dispatch(8)
        stats.observe_batch_latency(0.004)
    return (time.perf_counter() - start) / iterations


def _timed_round(server, images: np.ndarray) -> dict:
    """Time one round on a warmed server: sync throughput + async latency."""
    start = time.perf_counter()
    server.predict(images)
    sync_rate = images.shape[0] / (time.perf_counter() - start)

    # Dynamic batcher under a saturating single-sample request flood;
    # per-request latency is submit -> done-callback (the callback runs
    # at resolution time, so waiting on future N does not inflate the
    # measurement of future N+1).  Requests the admission controller
    # sheds under the flood are counted, not fatal — the shed rate is
    # part of the recorded saturation profile.
    completions = [None] * ASYNC_REQUESTS

    def _stamp(index):
        return lambda future: completions.__setitem__(
            index, time.perf_counter())

    start = time.perf_counter()
    submitted = []
    for index, image in enumerate(images[:ASYNC_REQUESTS]):
        began = time.perf_counter()
        try:
            future = server.submit(image)
        except ServerOverloaded:
            continue
        future.add_done_callback(_stamp(index))
        submitted.append((index, began, future))
    for _, _, future in submitted:
        future.result(timeout=300)
    async_elapsed = time.perf_counter() - start
    latencies = Histogram("sweep.request_latency_s", LATENCY_BUCKETS_S)
    for index, began, _ in submitted:
        latencies.observe(completions[index] - began)
    return {
        "sync_samples_per_s": round(sync_rate, 1),
        "async_samples_per_s": round(len(submitted) / async_elapsed, 1),
        "latency_p50_ms": round(latencies.quantile(0.50) * 1e3, 2),
        "latency_p99_ms": round(latencies.quantile(0.99) * 1e3, 2),
    }


def _sweep_point(num_workers: int, rounds: list, report: dict) -> dict:
    """One worker count: the median of its rounds, and every round."""
    assert max(report["batch_size_histogram"]) > 1, (
        f"no dynamic batching at {num_workers} workers: "
        f"{report['batch_size_histogram']}")
    point = {"workers": num_workers}
    for key in rounds[0]:
        point[key] = statistics.median(figures[key] for figures in rounds)
    point.update(requests_shed=report["requests_shed"],
                 shed_rate=round(report["shed_rate"], 4), rounds=rounds)
    return point


def test_worker_sweep_scaling_beats_single_worker(bench_model):
    cores = len(os.sched_getaffinity(0))
    rng = np.random.default_rng(1)
    images = rng.standard_normal(
        (SATURATION_SAMPLES, 3, 16, 16)).astype(np.float32)
    reference = bench_model.runtime_predictor().predict(images[:128])

    with contextlib.ExitStack() as stack:
        servers = {}
        for workers in WORKER_SWEEP:
            server = stack.enter_context(Server(bench_model,
                                                num_workers=workers))
            server.predict(images)     # untimed: binds every timed chunk size
            servers[workers] = server
        # Sanity: sharding must not change results before we time anything.
        np.testing.assert_array_equal(servers[2].predict(images[:128]),
                                      reference)
        before = cpu_jiffies()
        rounds = [{workers: _timed_round(servers[workers], images)
                   for workers in WORKER_SWEEP}
                  for _ in range(SWEEP_ROUNDS)]
        after = cpu_jiffies()
        sweep = [_sweep_point(workers, [figures[workers]
                                        for figures in rounds],
                              servers[workers].stats.as_dict())
                 for workers in WORKER_SWEEP]

    single_rate = sweep[0]["sync_samples_per_s"]
    # Enforce the floor at the largest sweep point the host can actually
    # parallelise; wider points are still recorded for trend tracking.
    enforceable = [point for point in sweep[1:] if point["workers"] <= cores]
    best = max(enforceable or sweep[1:],
               key=lambda point: point["sync_samples_per_s"])
    ratios = [figures[best["workers"]]["sync_samples_per_s"]
              / figures[1]["sync_samples_per_s"] for figures in rounds]
    scaling = statistics.median(ratios)

    # Tracing-off telemetry overhead, as a fraction of the *fastest*
    # measured per-request service time of the sweep (fastest = the most
    # overhead-sensitive point).
    fastest_async = max(point["async_samples_per_s"] for point in sweep)
    obs_overhead = _tracing_off_cost_s() * fastest_async

    record = {
        "backbone": BACKBONE,
        **host_record(),
        "saturation_samples": SATURATION_SAMPLES,
        "async_requests": ASYNC_REQUESTS,
        "sweep_rounds": SWEEP_ROUNDS,
        "sweep": sweep,
        "single_worker_samples_per_s": single_rate,
        "multi_worker_samples_per_s": best["sync_samples_per_s"],
        "multi_workers": best["workers"],
        "scaling": round(scaling, 2),
        "scaling_repeats": [round(ratio, 3) for ratio in ratios],
        "scaling_floor": SCALING_FLOOR,
        "scaling_enforced": cores >= 2 and bool(enforceable),
        "steal_share": steal_share(before, after),
        "obs_overhead": round(obs_overhead, 5),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    append_keyed_bench_record(BENCH_PATH, "worker_sweep", record)

    assert obs_overhead < 0.02, (
        f"tracing-off telemetry costs {obs_overhead * 100:.2f}% of the "
        f"fastest per-request service time (budget: 2%)")

    if cores < 2:
        pytest.skip(f"only {cores} core(s) available: multi-worker scaling "
                    f"cannot beat a single worker without hardware "
                    f"parallelism (measured {scaling:.2f}x; recorded in "
                    f"{BENCH_PATH.name})")
    assert scaling >= SCALING_FLOOR, (
        f"{best['workers']}-worker serving is a median {scaling:.2f}x a "
        f"single worker over {SWEEP_ROUNDS} rounds (required >= "
        f"{SCALING_FLOOR}x on {cores} cores); see {BENCH_PATH}")


def test_serve_bench_record_is_written_and_valid(bench_model):
    # File-order dependency, mirroring test_runtime_perf: guards the
    # BENCH_serve.json artefact contract.
    data = load_keyed_bench(BENCH_PATH)["worker_sweep"]
    record = data["latest"]
    assert record["backbone"] == BACKBONE
    assert [point["workers"] for point in record["sweep"]] \
        == list(WORKER_SWEEP)
    for point in record["sweep"]:
        assert point["sync_samples_per_s"] > 0
        assert point["async_samples_per_s"] > 0
        assert 0 < point["latency_p50_ms"] <= point["latency_p99_ms"]
        assert 0.0 <= point["shed_rate"] <= 1.0
    assert record["single_worker_samples_per_s"] > 0
    assert record["multi_worker_samples_per_s"] > 0
    assert 0.0 <= record["obs_overhead"] < 0.02
    assert data["history"] and data["history"][-1] == record
