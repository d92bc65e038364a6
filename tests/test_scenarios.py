"""Scenario harness: seeded loadgen, chaos primitives, and the serving
bugs the matrix flushed out.

Three layers of coverage:

1. **Loadgen determinism** — the same seed must reproduce an identical op
   schedule bit-for-bit (the whole point of trace-driven scenarios is that
   ``--seed N`` replays a failure exactly).
2. **Chaos primitives** — the frame-corruption injector is bounded and
   surgical, and the controller's faults are acked through the real FIFO.
3. **Regressions** — targeted pins for the bugs the scenarios originally
   flushed out: compounding scatter timeouts, broadcast racing worker
   death, the sticky SLO gate (EMA never decayed + approximate admission),
   trace loss on close, and the shape-poisoned batcher — plus the
   per-scenario latency-floor gate and the full scenario matrix itself
   (recovery scenarios included) as a pytest-visible gate.
"""

import time

import numpy as np
import pytest

from repro.obs.trace import JsonlSpanExporter, read_jsonl_spans
from repro.report import append_keyed_bench_record, load_keyed_bench
from repro.scenarios import (
    ARRIVALS,
    ChaosController,
    ChaosInjector,
    SCENARIOS,
    generate_workload,
    run_scenario,
)
from repro.scenarios.loadgen import OP_KINDS
from repro.scenarios.runner import (
    LATENCY_FLOOR_MIN_HISTORY,
    ScenarioFailure,
    apply_latency_floor,
    build_model,
    latency_floor_ms,
)
from repro.serve import Server, ServerOverloaded, snapshot_prototypes
from repro.serve.stats import ServeStats


# ---------------------------------------------------------------------------
# Loadgen: determinism and op-mix shape
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_same_seed_reproduces_identical_schedule(self):
        kwargs = dict(num_ops=64, arrival="bursty", rate_hz=200.0,
                      sync_fraction=0.2, malformed_fraction=0.1,
                      oversized_fraction=0.05, learn_bursts=2)
        first = generate_workload("determinism", 7, **kwargs)
        second = generate_workload("determinism", 7, **kwargs)
        assert first.ops == second.ops          # frozen Ops compare by value
        assert first.summary() == second.summary()

    def test_different_seeds_differ(self):
        first = generate_workload("seeds", 0, num_ops=40, arrival="poisson")
        second = generate_workload("seeds", 1, num_ops=40, arrival="poisson")
        assert first.ops != second.ops

    def test_op_mix_ordering_and_learn_splice(self):
        workload = generate_workload(
            "mix", 3, num_ops=60, arrival="diurnal", rate_hz=300.0,
            sync_fraction=0.25, malformed_fraction=0.1, learn_bursts=3,
            first_learn_class=11)
        times = [op.at_s for op in workload.ops]
        assert times == sorted(times) and times[0] >= 0.0
        counts = workload.counts()
        assert set(counts) <= set(OP_KINDS)
        assert counts["learn"] == 3
        assert sorted(op.index for op in workload.ops
                      if op.kind == "learn") == [11, 12, 13]
        assert counts["predict"] + counts["submit"] > 0

    @pytest.mark.parametrize("arrival", sorted(ARRIVALS))
    def test_arrival_generators_deterministic_and_sorted(self, arrival):
        times = ARRIVALS[arrival](np.random.default_rng(5), 50, 100.0)
        again = ARRIVALS[arrival](np.random.default_rng(5), 50, 100.0)
        assert len(times) == 50
        assert np.array_equal(times, again)
        assert np.all(np.diff(times) >= 0.0) and times[0] >= 0.0


# ---------------------------------------------------------------------------
# Chaos injector: bounded, surgical frame corruption
# ---------------------------------------------------------------------------
class TestChaosInjector:
    @staticmethod
    def ok_frame(ticket):
        return (ticket, 0, True, ("__inline__", b"payload"))

    def test_disarmed_passes_everything_through(self):
        injector = ChaosInjector()
        frame = self.ok_frame(1)
        assert injector.on_result(0, frame) is frame
        assert injector.corrupted == 0

    def test_corruption_bounded_and_typed_shape(self):
        injector = ChaosInjector(max_corruptions=2)
        injector.arm()
        out = [injector.on_result(0, self.ok_frame(i)) for i in range(5)]
        assert injector.corrupted == 2
        corrupted = [frame for i, frame in enumerate(out)
                     if frame != self.ok_frame(i)]
        assert len(corrupted) == 2
        for ticket, worker_id, ok, packed in corrupted:
            assert ok is True and packed[0] == "__shm__"
        # The surviving frames are untouched objects, not copies.
        assert out[2:] == [self.ok_frame(i) for i in range(2, 5)]

    def test_error_frames_and_foreign_workers_pass_through(self):
        injector = ChaosInjector(max_corruptions=5)
        injector.arm(worker=1)
        error_frame = (9, 1, False, ("__inline__", b"boom"))
        assert injector.on_result(1, error_frame) is error_frame
        other_worker = self.ok_frame(3)
        assert injector.on_result(0, other_worker) is other_worker
        injector.disarm()
        disarmed = self.ok_frame(4)
        assert injector.on_result(1, disarmed) is disarmed
        assert injector.corrupted == 0

    def test_rejects_useless_budget(self):
        with pytest.raises(ValueError, match="max_corruptions"):
            ChaosInjector(max_corruptions=0)


# ---------------------------------------------------------------------------
# Regressions for the bugs the scenarios flushed out
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario_model():
    return build_model(seed=0)


def test_scatter_and_broadcast_survive_worker_death(scenario_model):
    """Satellites 1+2: scatter re-dispatches a dead shard's chunks under
    one shared deadline, and broadcast tolerates partial completion."""
    model, shots = scenario_model
    reference = model.runtime_predictor()
    # Respawn off: this test pins the *degraded-pool* contract (the corpse
    # stays dead and its absence is visible); the supervised-respawn
    # lifecycle is pinned by tests/test_serve_recovery.py.
    server = Server(model, num_workers=2, micro_batch=8, max_respawns=0)
    try:
        queries = np.random.default_rng(21).standard_normal(
            (24, 3, 16, 16)).astype(np.float32)
        server.predict(queries[:8])              # warm both replicas
        ChaosController(server).kill_worker(1)
        # scatter: the corpse's chunks re-dispatch to the survivor and the
        # answer stays bit-identical (one shared deadline, not per-chunk).
        started = time.monotonic()
        features = server.engine.scatter("backbone", queries, timeout=60.0)
        assert time.monotonic() - started < 60.0
        np.testing.assert_array_equal(
            features, reference.extract_backbone_features(queries))
        # broadcast: partial completion is the normal degraded answer —
        # the corpse is omitted, the survivors' acks are reported by index.
        answered = server.engine.broadcast("ping", timeout=30.0)
        assert sorted(answered) == [0]
        assert server.engine.live_workers == [0]
        assert server.stats_dict()["dead_workers"] == [1]
        # ... which keeps the prototype-sync path alive on a degraded pool.
        acked = server.engine.set_prototypes(
            snapshot_prototypes(model.memory), timeout=30.0)
        assert sorted(acked) == [0]
    finally:
        server.close()


def test_admission_counter_is_exact_and_released(scenario_model):
    """Satellite 3b: admission tracks real outstanding requests — no
    approximate qsize overshoot, and completion releases the slot."""
    model, shots = scenario_model
    expected = model.runtime_predictor().predict(shots)
    server = Server(model, num_workers=1, max_pending=2)
    try:
        assert server.outstanding == 0
        first = server.submit(shots[0])
        second = server.submit(shots[1])
        with pytest.raises(ServerOverloaded, match="admission queue"):
            server.submit(shots[2])
        assert server.outstanding == 2
        assert int(first.result(timeout=120.0)) == int(expected[0])
        assert int(second.result(timeout=120.0)) == int(expected[1])
        deadline = time.monotonic() + 30.0
        while server.outstanding and time.monotonic() < deadline:
            time.sleep(0.01)                     # done-callback is async
        assert server.outstanding == 0
        # The freed slots re-admit: the gate is a counter, not a ratchet.
        assert int(server.submit(shots[2]).result(timeout=120.0)) \
            == int(expected[2])
    finally:
        server.close()


def test_sticky_slo_gate_unsticks_after_idle_decay():
    """Satellite 3a: a stale latency EMA decays instead of shedding an
    idle server forever."""
    stats = ServeStats(ema_halflife_s=0.05)
    for _ in range(5):
        stats.observe_batch_latency(1.0)
    inflated = stats.ema_batch_latency_s
    assert inflated > 0.5
    time.sleep(0.3)            # > one-half-life grace + several half-lives
    assert stats.ema_batch_latency_s < 0.1 * inflated
    # A fresh observation blends from the *decayed* value, not the stale
    # peak — a single fast batch must not resurrect the old estimate.
    stats.observe_batch_latency(0.001)
    assert stats.ema_batch_latency_s < 0.1 * inflated


def test_batcher_isolates_mixed_shapes(scenario_model):
    """A mis-shaped neighbour must not poison a coalesced batch: requests
    group by shape, and each answers exactly like a solo submission."""
    model, shots = scenario_model
    reference = model.runtime_predictor()
    big = np.random.default_rng(31).standard_normal(
        (4, 3, 32, 32)).astype(np.float32)
    server = Server(model, num_workers=1)
    try:
        futures = []
        for i in range(4):                     # interleave the two shapes
            futures.append(("small", i, server.submit(shots[i])))
            futures.append(("big", i, server.submit(big[i])))
        small_expected = reference.predict(shots[:4])
        big_expected = reference.predict(big)
        for shape, i, future in futures:
            label = future.result(timeout=120.0)
            expected = small_expected if shape == "small" else big_expected
            assert int(label) == int(expected[i]), (shape, i)
    finally:
        server.close()


def test_server_close_flushes_trace_spans(tmp_path, scenario_model):
    """Satellite 4: ``Server.close()`` flushes the Jsonl exporter — the
    tail of the trace must not die in a buffered file handle."""
    model, shots = scenario_model
    trace_path = tmp_path / "spans.jsonl"
    server = Server(model, num_workers=1, trace_sample=1.0,
                    trace_exporter=JsonlSpanExporter(trace_path))
    try:
        futures = [server.submit(shots[i]) for i in range(4)]
        for future in futures:
            future.result(timeout=120.0)
    finally:
        server.close()                          # no explicit flush() call
    spans = read_jsonl_spans(trace_path)
    roots = [span for span in spans if span.get("parent_id") is None]
    assert len(roots) >= 4


# ---------------------------------------------------------------------------
# Keyed bench records (BENCH_scenarios.json format)
# ---------------------------------------------------------------------------
def test_keyed_bench_roundtrip_and_limit(tmp_path):
    path = tmp_path / "BENCH_scenarios.json"
    assert load_keyed_bench(path) == {}
    for i in range(4):
        append_keyed_bench_record(path, "kill_shard", {"run": i}, limit=3)
    append_keyed_bench_record(path, "hang_shard", {"run": 0}, limit=3)
    data = load_keyed_bench(path)
    assert sorted(data) == ["hang_shard", "kill_shard"]
    assert data["kill_shard"]["latest"] == {"run": 3}
    assert [entry["run"] for entry in data["kill_shard"]["history"]] \
        == [1, 2, 3]
    assert data["hang_shard"]["history"] == [{"run": 0}]


# ---------------------------------------------------------------------------
# Per-scenario latency floors
# ---------------------------------------------------------------------------
def trend_entry(p50):
    return {"counters": {"batch_latency_p50_ms": p50}}


class TestLatencyFloors:
    def test_floor_arms_only_with_enough_positive_history(self):
        history = [trend_entry(2.0), trend_entry(4.0)]
        assert latency_floor_ms(history) is None       # below min history
        history.append(trend_entry(3.0))
        assert latency_floor_ms(history) == pytest.approx(15.0)  # 5x median
        # Zero/absent/malformed readings never count toward arming.
        padded = [trend_entry(0.0), {"counters": {}}, {"no": "counters"},
                  "junk", trend_entry(True)] + history[:2]
        assert latency_floor_ms(padded) is None

    def test_median_resists_one_slow_outlier(self):
        history = [trend_entry(2.0)] * 4 + [trend_entry(200.0)]
        assert latency_floor_ms(history) == pytest.approx(10.0)

    def test_gate_passes_annotates_and_fails(self):
        history = [trend_entry(2.0)] * LATENCY_FLOOR_MIN_HISTORY
        passing = trend_entry(9.9)
        apply_latency_floor("kill_shard", passing, history)
        assert passing["latency_floor"] == {
            "armed": True, "limit_ms": 10.0, "p50_ms": 9.9}
        with pytest.raises(ScenarioFailure, match="latency floor violated"):
            apply_latency_floor("kill_shard", trend_entry(10.1), history)
        # Unarmed trends annotate but never gate.
        young = trend_entry(1000.0)
        apply_latency_floor("kill_shard", young, history[:1])
        assert young["latency_floor"] == {"armed": False}
        # A record with no measurable p50 passes: absence of a measurement
        # is not a regression (e.g. restart_replay's second server).
        unmeasured = {"counters": {}}
        apply_latency_floor("kill_shard", unmeasured, history)
        assert unmeasured["latency_floor"]["p50_ms"] is None


# ---------------------------------------------------------------------------
# The scenario matrix itself, as a pytest-visible gate
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    record = run_scenario(name, seed=0)
    assert record["ok"] is True
    assert record["scenario"] == name
    assert record["num_checks"] >= 10
    assert record["counters"]["samples"] > 0
