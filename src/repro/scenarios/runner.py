"""Scenario harness: drive seeded workloads + chaos against a live Server.

Every scenario follows the same contract:

1. build a fresh learned model and a 2-worker :class:`Server` from the
   scenario seed (deterministic: same seed, same model bits);
2. drive a :mod:`generated workload <repro.scenarios.loadgen>` and/or a
   scripted fault sequence (:mod:`repro.scenarios.chaos`) against it;
3. assert **degraded-but-correct** behaviour: every answered request is
   *bit-identical* to the single-process reference predictor, every
   unanswered request fails with a *typed* error
   (:class:`~repro.serve.sharded.RemoteWorkerError` /
   :class:`~repro.serve.sharded.WorkerDiedError` /
   :class:`~repro.serve.server.ServerOverloaded`) — never a hang, never
   silently wrong bits — and the stats/trace surfaces stay coherent;
4. record the outcome into ``BENCH_scenarios.json`` (a
   ``{"latest", "history"}`` trend per scenario, see
   :func:`repro.report.bench.append_keyed_bench_record`).

A failed check raises :class:`ScenarioFailure` naming the scenario and the
check; ``python -m repro.scenarios --seed N`` reproduces any failure
exactly.

The scenario matrix (one entry per chaos mode the serving stack claims to
survive):

====================  ======================================================
scenario              what it proves
====================  ======================================================
``steady_poisson``    mixed sync/async + learn bursts + malformed and
                      oversized requests under Poisson load: full parity,
                      typed rejections, coherent trace export
``burst_admission``   concurrent bursty overload: the admission cap is
                      exact (never overshoots), shedding is typed, and the
                      SLO gate un-sticks once the latency EMA decays
``kill_shard``        SIGKILL with respawn disabled: survivors keep
                      answering bit-identically, in-flight work fails
                      typed, sync scatter re-dispatches the corpse's chunks
``hang_shard``        SIGSTOP (wedged-but-alive): one shared scatter
                      deadline (no per-chunk compounding), broadcasts
                      tolerate the mute shard, SIGCONT heals
``slow_shard``        one slow replica under diurnal load: slow is not
                      wrong — all answers exact, chaos visible in stats
``corrupt_frames``    corrupted result frames: bounded typed failures,
                      no collector crash, full parity after
``ring_exhaustion``   result ring permanently full: the pickle fallback
                      carries all traffic bit-identically
``kill_recover``      SIGKILL with the supervisor on: the full worker
                      count is restored within a bounded window, the
                      respawned shard answers bit-identically (prototype
                      resync proven by targeted submits), and the
                      recovery latency lands in the bench record
``crash_loop``        every respawned incarnation is killed again: the
                      crash-loop budget gives the shard up with typed
                      errors and coherent stats, survivors unaffected
``sigstop_escalation``  SIGSTOP under hang detection: the heartbeat-silent
                      shard is escalated, SIGKILLed, respawned, and
                      rejoins with full parity
``restart_replay``    learn_class churn (including one mid-crash) into a
                      write-ahead journal, full restart, journal replay:
                      the restored server is bit-identical
====================  ======================================================

Besides its checks, every matrix run is also a latency regression gate:
once a scenario's recorded trend carries :data:`LATENCY_FLOOR_MIN_HISTORY`
history entries with a positive batch-latency p50, the scenario's *latency
floor* arms — a new record whose p50 exceeds
:data:`LATENCY_FLOOR_MULTIPLIER` x the historical median fails the run
(see :func:`apply_latency_floor`).
"""

from __future__ import annotations

import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core import OFSCIL, OFSCILConfig
from ..obs.trace import JsonlSpanExporter, read_jsonl_spans
from ..report.bench import append_keyed_bench_record, load_keyed_bench
from ..serve import (
    BackoffSchedule,
    RemoteWorkerError,
    Server,
    ServerOverloaded,
    WorkerDiedError,
)
from .chaos import ChaosController, ChaosInjector
from .loadgen import Workload, generate_workload

BACKBONE = "mobilenetv2_x4_tiny"
BASE_CLASSES = 6
SHOTS_PER_CLASS = 5
IMAGE_SHAPE = (3, 16, 16)

#: Default artefact file (repository root), one ``{"latest","history"}``
#: trend per scenario name.
DEFAULT_BENCH_PATH = \
    Path(__file__).resolve().parents[3] / "BENCH_scenarios.json"

#: Where ``restart_replay`` writes its learn_class journal (repository
#: root, gitignored).  Left on disk after the run on purpose: CI uploads
#: it as an artifact so a failed replay can be re-examined offline.
DEFAULT_JOURNAL_PATH = \
    Path(__file__).resolve().parents[3] / "scenario_learn_journal.bin"

#: Generous single-request deadline: scenarios run on arbitrarily loaded
#: CI machines, so correctness checks never race the scheduler.
RESULT_TIMEOUT_S = 120.0

#: Bounded recovery window the supervised-respawn scenarios hold the
#: engine to: detection + backoff + interpreter spawn + replica restore +
#: prototype resync must all fit, even on a loaded CI machine.
RECOVERY_WINDOW_S = 60.0

#: History entries with a positive batch-latency p50 a scenario's trend
#: needs before its latency floor arms — fewer and the median is noise.
LATENCY_FLOOR_MIN_HISTORY = 3

#: Armed latency limit as a multiple of the historical median p50.  Loose
#: by design: the gate exists to catch order-of-magnitude serving
#: regressions (a lost fast path, an accidental sync wait), not scheduler
#: jitter on shared CI machines.
LATENCY_FLOOR_MULTIPLIER = 5.0

#: Fast, deterministic respawn backoff for the recovery scenarios: real
#: deployments want the default quarter-second-doubling schedule, a
#: scenario wants recovery (or crash-loop exhaustion) inside seconds.
def _fast_backoff(seed: int) -> BackoffSchedule:
    return BackoffSchedule(base_s=0.05, cap_s=0.1, jitter=0.0,
                           seed=seed)


class ScenarioFailure(AssertionError):
    """A scenario's degraded-but-correct contract was violated."""


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------
def build_model(seed: int):
    """A frozen model with BASE_CLASSES learned from deterministic shots
    (the same recipe the serving test suite uses)."""
    model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                 seed=seed)
    model.freeze_feature_extractor()
    rng = np.random.default_rng(seed + 42)
    shots = rng.standard_normal(
        (BASE_CLASSES * SHOTS_PER_CLASS, *IMAGE_SHAPE)).astype(np.float32)
    for class_id in range(BASE_CLASSES):
        start = class_id * SHOTS_PER_CLASS
        model.learn_class(shots[start:start + SHOTS_PER_CLASS], class_id)
    return model, shots


def learn_shots_for(class_id: int) -> np.ndarray:
    """Deterministic novel-class shots keyed by the class id alone, so the
    driver and any replaying verifier materialise identical bits."""
    rng = np.random.default_rng(10_000 + class_id)
    return rng.standard_normal(
        (SHOTS_PER_CLASS, *IMAGE_SHAPE)).astype(np.float32)


class ScenarioRun:
    """One scenario's server, query pools, and check bookkeeping."""

    def __init__(self, name: str, seed: int, **server_kwargs):
        self.name = name
        self.seed = seed
        self.checks: List[str] = []
        self.model, self.shots = build_model(seed)
        rng = np.random.default_rng(seed + 17)
        self.queries = rng.standard_normal(
            (24, *IMAGE_SHAPE)).astype(np.float32)
        # A shape the compiled stack genuinely rejects: the backbone is
        # spatially shape-agnostic, but a wrong channel count cannot pass
        # the first conv — the typed-error path, not a silent answer.
        self.malformed_image = rng.standard_normal(
            (4, 16, 16)).astype(np.float32)
        # A legitimate batch big enough to overflow a scenario-shrunk ring
        # slot: it must still answer correctly through the pickle fallback.
        self.oversized_batch = rng.standard_normal(
            (32, *IMAGE_SHAPE)).astype(np.float32)
        kwargs = dict(num_workers=2)
        kwargs.update(server_kwargs)
        self.server = Server(self.model, **kwargs)
        self.chaos = ChaosController(self.server)

    # ------------------------------------------------------------------
    def reference(self):
        """A fresh single-process predictor over the *current* model state
        — the ground truth every served answer must match bit-for-bit."""
        return self.model.runtime_predictor()

    def check(self, condition: bool, label: str) -> None:
        if not condition:
            raise ScenarioFailure(f"[{self.name}] FAILED: {label}")
        self.checks.append(label)

    def parity_sweep(self, label: str = "final parity sweep") -> None:
        """Bit-for-bit sweep: served predict + backbone features against
        the single-process reference."""
        reference = self.reference()
        self.check(
            np.array_equal(self.server.predict(self.queries),
                           reference.predict(self.queries)),
            f"{label}: predict bitwise")
        self.check(
            np.array_equal(
                self.server.extract_backbone_features(self.queries[:8]),
                reference.extract_backbone_features(self.queries[:8])),
            f"{label}: backbone features bitwise")

    def coherent_stats(self) -> dict:
        """Invariants the stats surface must satisfy in *any* state."""
        report = self.server.stats_dict()
        self.check(report["samples"] >= report["batches_dispatched"],
                   "stats: samples cover dispatched batches")
        self.check(0.0 <= report["shed_rate"] <= 1.0,
                   "stats: shed rate within [0, 1]")
        self.check(report["ema_batch_latency_s"] >= 0.0,
                   "stats: latency EMA non-negative")
        self.check(all(count >= 0
                       for count in report["inflight_per_worker"]),
                   "stats: in-flight counts non-negative")
        self.check(
            set(report["dead_workers"]).issubset(
                range(report["num_workers"])),
            "stats: dead-worker ids valid")
        self.check(len(report["workers"]) == report["num_workers"],
                   "stats: one record per worker")
        return report

    def counters(self) -> dict:
        report = self.server.stats.as_dict()
        return {
            "single_requests": report["single_requests"],
            "batch_requests": report["batch_requests"],
            "samples": report["samples"],
            "batches_dispatched": report["batches_dispatched"],
            "requests_shed": report["requests_shed"],
            "batch_latency_p50_ms": report["batch_latency_p50_ms"],
            "batch_latency_p99_ms": report["batch_latency_p99_ms"],
        }

    def close(self) -> None:
        self.chaos.heal(timeout=30.0)
        self.server.close()


# ---------------------------------------------------------------------------
# Workload driver
# ---------------------------------------------------------------------------
def drive_workload(run: ScenarioRun, workload: Workload,
                   time_scale: float = 1.0) -> dict:
    """Execute a workload schedule against the run's server.

    Async ops enqueue through :meth:`Server.submit`; sync ops (``predict``,
    ``oversized``, ``learn``) run on a small thread pool so they do not
    stall the arrival schedule — which also makes concurrent sync callers a
    standing part of every scenario.  Returns the raw per-op outcomes for
    the scenario to assert on.
    """
    server = run.server
    pool = run.shots
    async_ops: List[tuple] = []        # (op, future)
    sync_ops: List[tuple] = []         # (op, thread-future)
    sheds = 0
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=3,
                            thread_name_prefix="scenario-sync") as executor:
        for op in workload.ops:
            delay = op.at_s * time_scale - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            try:
                if op.kind == "submit":
                    image = pool[op.index % len(pool)]
                    async_ops.append((op, server.submit(image)))
                elif op.kind == "malformed":
                    async_ops.append(
                        (op, server.submit(run.malformed_image)))
                elif op.kind == "predict":
                    image = pool[op.index % len(pool)][None]
                    sync_ops.append(
                        (op, executor.submit(server.predict, image)))
                elif op.kind == "oversized":
                    sync_ops.append(
                        (op, executor.submit(server.predict,
                                             run.oversized_batch)))
                elif op.kind == "learn":
                    sync_ops.append(
                        (op, executor.submit(server.learn_class,
                                             learn_shots_for(op.index),
                                             op.index)))
                else:  # pragma: no cover - loadgen only emits known kinds
                    raise ValueError(f"unknown op kind {op.kind!r}")
            except ServerOverloaded:
                sheds += 1
    outcomes = {"sheds": sheds, "async": [], "sync": []}
    for op, future in async_ops:
        try:
            outcomes["async"].append(
                (op, future.result(timeout=RESULT_TIMEOUT_S), None))
        except Exception as exc:  # noqa: BLE001 - classified by scenario
            outcomes["async"].append((op, None, exc))
    for op, future in sync_ops:
        try:
            outcomes["sync"].append(
                (op, future.result(timeout=RESULT_TIMEOUT_S), None))
        except Exception as exc:  # noqa: BLE001
            outcomes["sync"].append((op, None, exc))
    return outcomes


def _split_outcomes(outcomes: dict, kind: str) -> tuple:
    """(successes, failures) of one op kind from a driver outcome dict."""
    channel = "async" if kind in ("submit", "malformed") else "sync"
    entries = [entry for entry in outcomes[channel]
               if entry[0].kind == kind]
    successes = [entry for entry in entries if entry[2] is None]
    failures = [entry for entry in entries if entry[2] is not None]
    return successes, failures


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def scenario_steady_poisson(seed: int) -> dict:
    """Mixed traffic under Poisson load, tracing on: parity + typed
    rejections for malformed/oversized + coherent trace export."""
    trace_path = Path(tempfile.mkdtemp(prefix="repro-scn-")) / "trace.jsonl"
    # slot_bytes is shrunk so the oversized sync batches overflow a ring
    # slot and exercise the inline-pickle fallback under live load.
    run = ScenarioRun("steady_poisson", seed, trace_sample=1.0,
                      trace_exporter=JsonlSpanExporter(trace_path),
                      slot_bytes=65536)
    try:
        expected = run.reference().predict(run.shots)
        # Phase 1 — version-stable exact labels for a deterministic slice.
        futures = [run.server.submit(run.shots[i]) for i in range(12)]
        labels = [future.result(timeout=RESULT_TIMEOUT_S)
                  for future in futures]
        run.check(labels == [int(label) for label in expected[:12]],
                  "pre-churn async labels match reference bitwise")
        # Phase 2 — the generated mixed workload (learn bursts included).
        workload = generate_workload(
            "steady_poisson", seed, num_ops=48, arrival="poisson",
            rate_hz=120.0, sync_fraction=0.15, malformed_fraction=0.08,
            oversized_fraction=0.06, learn_bursts=2,
            first_learn_class=BASE_CLASSES, query_pool=len(run.shots))
        outcomes = drive_workload(run, workload)
        run.check(outcomes["sheds"] == 0,
                  "no shedding below the admission limits")
        submits, submit_failures = _split_outcomes(outcomes, "submit")
        run.check(not submit_failures,
                  "every well-formed async submit answered")
        valid_ids = set(range(BASE_CLASSES + 2))
        run.check(all(int(label) in valid_ids for _, label, _ in submits),
                  "async labels within the learned class-id set")
        malformed_ok, malformed_failed = _split_outcomes(outcomes,
                                                         "malformed")
        run.check(not malformed_ok and all(
            isinstance(exc, RemoteWorkerError)
            for _, _, exc in malformed_failed),
            "malformed submits fail with typed RemoteWorkerError")
        oversized_ok, oversized_failed = _split_outcomes(outcomes,
                                                         "oversized")
        run.check(not oversized_failed and all(
            int(label) in valid_ids
            for _, labels, _ in oversized_ok for label in labels),
            "oversized batches answer via the ring-overflow fallback")
        learns, learn_failures = _split_outcomes(outcomes, "learn")
        run.check(len(learns) == 2 and not learn_failures,
                  "both learn bursts applied")
        run.parity_sweep("post-churn")
        report = run.coherent_stats()
        run.check(report["prototype_broadcasts"] >= 1,
                  "learn bursts broadcast prototypes")
        run.check(report["dead_workers"] == [],
                  "malformed traffic kills requests, not workers")
        counters = run.counters()
        workload_summary = workload.summary()
    finally:
        run.close()
    # The trace file is complete only because close() flushed the exporter.
    spans = read_jsonl_spans(trace_path)
    roots = [span for span in spans if span.get("parent_id") is None]
    span_ids = {span["span_id"] for span in spans}
    orphans = [span for span in spans
               if span.get("parent_id") is not None
               and span["parent_id"] not in span_ids]
    run.check(len(roots) >= 12, "traced roots exported for async submits")
    run.check(not orphans, "every exported span parents into the trace")
    return {"workload": workload_summary, "counters": counters,
            "checks": run.checks}


def scenario_burst_admission(seed: int) -> dict:
    """Concurrent bursty overload: exact admission cap, typed shedding,
    and EMA decay un-sticking the SLO gate."""
    run = ScenarioRun("burst_admission", seed, max_pending=8,
                      ema_halflife_s=0.3)
    try:
        expected = run.reference().predict(run.shots)
        accepted: List[tuple] = []
        sheds: List[Exception] = []
        peak = {"outstanding": 0}
        stop_sampling = threading.Event()

        def sample_outstanding() -> None:
            while not stop_sampling.is_set():
                peak["outstanding"] = max(peak["outstanding"],
                                          run.server.outstanding)
                time.sleep(0.0005)

        def flood(thread_id: int) -> None:
            for i in range(25):
                index = (thread_id * 25 + i) % len(run.shots)
                try:
                    future = run.server.submit(run.shots[index])
                except ServerOverloaded as exc:
                    sheds.append(exc)
                else:
                    accepted.append((index, future))

        sampler = threading.Thread(target=sample_outstanding, daemon=True)
        sampler.start()
        threads = [threading.Thread(target=flood, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_sampling.set()
        sampler.join(timeout=5.0)
        run.check(peak["outstanding"] <= 8,
                  "outstanding requests never exceed the admission cap")
        run.check(len(sheds) > 0, "the burst was shed, not queued")
        run.check(all(isinstance(exc, ServerOverloaded) for exc in sheds),
                  "every rejection is a typed ServerOverloaded")
        for index, future in accepted:
            label = future.result(timeout=RESULT_TIMEOUT_S)
            run.check(int(label) == int(expected[index]),
                      f"accepted request {index} answered bitwise")
        # Sticky-shed regression: a stale run of 1s latency readings must
        # decay instead of shedding the now-idle server forever.
        run.server.latency_slo_s = 0.25
        for _ in range(10):
            run.server.stats.observe_batch_latency(1.0)
        try:
            run.server.submit(run.shots[0])
            raise ScenarioFailure("[burst_admission] FAILED: stale latency "
                                  "EMA did not trip the SLO gate")
        except ServerOverloaded:
            run.checks.append("stale latency EMA trips the SLO gate")
        time.sleep(1.2)                   # > grace + 2 half-lives at 0.3s
        label = run.server.submit(
            run.shots[0]).result(timeout=RESULT_TIMEOUT_S)
        run.check(int(label) == int(expected[0]),
                  "SLO gate re-admits once the stale EMA decays")
        run.server.latency_slo_s = None
        report = run.coherent_stats()
        run.check(report["requests_shed"] == len(sheds) + 1,
                  "shed accounting matches the observed rejections")
        counters = run.counters()
    finally:
        run.close()
    return {"workload": {"name": "burst_admission", "num_ops": 100,
                         "arrival": "concurrent-flood"},
            "counters": counters, "checks": run.checks}


def scenario_kill_shard(seed: int) -> dict:
    """SIGKILL one shard mid-stream: survivors answer bit-identically,
    the corpse's in-flight work fails typed, scatter re-dispatches.

    Respawn is explicitly disabled (``max_respawns=0``): this scenario
    pins the *degraded* contract — a dead shard stays dead and the pool
    keeps serving around it.  ``kill_recover`` covers the supervised
    respawn path."""
    run = ScenarioRun("kill_shard", seed, max_respawns=0)
    try:
        expected = run.reference().predict(run.shots)
        run.server.predict(run.queries[:8])          # warm both replicas
        futures: List[tuple] = []
        for i in range(30):
            if i == 8:
                run.chaos.kill_worker(1)
            index = i % len(run.shots)
            futures.append((index, run.server.submit(run.shots[index])))
            time.sleep(0.005)
        successes = 0
        for index, future in futures:
            try:
                label = future.result(timeout=RESULT_TIMEOUT_S)
            except RemoteWorkerError:
                continue          # typed: the corpse took it down
            successes += 1
            run.check(int(label) == int(expected[index]),
                      f"post-kill async answer {index} bitwise")
        run.check(successes >= 10,
                  "the surviving shard kept answering the stream")
        started = time.monotonic()
        run.parity_sweep("degraded pool")
        run.check(time.monotonic() - started < 60.0,
                  "degraded sync predict completes promptly")
        report = run.coherent_stats()
        run.check(report["dead_workers"] == [1],
                  "stats name exactly the killed shard")
        run.check(report["live_workers"] == [0],
                  "stats keep the survivor live")
        counters = run.counters()
    finally:
        run.close()
    return {"workload": {"name": "kill_shard", "num_ops": 30,
                         "arrival": "paced-stream"},
            "counters": counters, "checks": run.checks}


def scenario_hang_shard(seed: int) -> dict:
    """SIGSTOP one shard: shared scatter deadline (no compounding),
    partial broadcast, async rerouting, SIGCONT heals completely."""
    run = ScenarioRun("hang_shard", seed, micro_batch=8)
    try:
        run.server.predict(run.queries)              # warm both replicas
        run.chaos.hang_worker(0)
        deadline_s = 4.0
        started = time.monotonic()
        try:
            run.server.engine.scatter("backbone", run.queries,
                                      timeout=deadline_s)
            raise ScenarioFailure("[hang_shard] FAILED: scatter over a "
                                  "hung shard did not time out")
        except TimeoutError:
            elapsed = time.monotonic() - started
            run.check(elapsed < 2.0 * deadline_s,
                      "scatter respects one shared deadline "
                      f"({elapsed:.1f}s for {deadline_s:.1f}s budget)")
        # Broadcast tolerates the mute shard and reports who answered.
        answered = run.server.engine.broadcast("ping", timeout=2.0)
        run.check(sorted(answered) == [1],
                  "broadcast returns the answering shard and omits the "
                  "hung one")
        # Async traffic reroutes around the hung shard (its in-flight
        # count stays elevated, so least-loaded routing avoids it).
        expected = run.reference().predict(run.shots)
        futures = [(i, run.server.submit(run.shots[i])) for i in range(8)]
        for index, future in futures:
            label = future.result(timeout=RESULT_TIMEOUT_S)
            run.check(int(label) == int(expected[index]),
                      f"rerouted async answer {index} bitwise")
        run.chaos.resume_worker(0)
        time.sleep(0.2)                  # let the woken shard drain
        run.parity_sweep("post-heal")
        report = run.coherent_stats()
        run.check(report["dead_workers"] == [],
                  "a hung-then-resumed shard is never declared dead")
        counters = run.counters()
    finally:
        run.close()
    return {"workload": {"name": "hang_shard", "num_ops": 8,
                         "arrival": "scripted"},
            "counters": counters, "checks": run.checks}


def scenario_slow_shard(seed: int) -> dict:
    """One slow replica under diurnal load: slow is not wrong."""
    run = ScenarioRun("slow_shard", seed)
    try:
        run.server.predict(run.queries[:8])          # warm both replicas
        acked = run.chaos.slow_shard(1, slow_s=0.03)
        run.check(acked.get("slow_s") == 0.03, "slow shard acked the fault")
        workload = generate_workload(
            "slow_shard", seed, num_ops=30, arrival="diurnal",
            rate_hz=120.0, sync_fraction=0.2, learn_bursts=1,
            first_learn_class=BASE_CLASSES, query_pool=len(run.shots))
        outcomes = drive_workload(run, workload)
        submits, submit_failures = _split_outcomes(outcomes, "submit")
        run.check(not submit_failures and outcomes["sheds"] == 0,
                  "every request answered despite the slow shard")
        valid_ids = set(range(BASE_CLASSES + 1))
        run.check(all(int(label) in valid_ids for _, label, _ in submits),
                  "slow-shard labels within the learned class-id set")
        records = run.server.worker_stats()
        run.check(records[1].get("chaos", {}).get("slow_s") == 0.03,
                  "worker stats expose the active chaos settings")
        run.parity_sweep("slow shard active")
        run.chaos.heal()
        records = run.server.worker_stats()
        run.check(not records[1].get("chaos", {}).get("slow_s"),
                  "heal clears the slow-shard fault")
        run.coherent_stats()
        counters = run.counters()
        workload_summary = workload.summary()
    finally:
        run.close()
    return {"workload": workload_summary, "counters": counters,
            "checks": run.checks}


def scenario_corrupt_frames(seed: int) -> dict:
    """Corrupted result frames fail their requests typed — bounded blast
    radius, no collector crash, full parity afterwards."""
    injector = ChaosInjector(max_corruptions=2)
    run = ScenarioRun("corrupt_frames", seed, chaos=injector)
    try:
        expected = run.reference().predict(run.shots)
        run.server.predict(run.queries[:8])          # warm, uncorrupted
        injector.arm()
        failures: List[Exception] = []
        for i in range(10):
            try:
                label = run.server.submit(
                    run.shots[i]).result(timeout=RESULT_TIMEOUT_S)
            except RemoteWorkerError as exc:
                failures.append(exc)
            else:
                run.check(int(label) == int(expected[i]),
                          f"uncorrupted answer {i} bitwise")
        injector.disarm()
        run.check(len(failures) == injector.corrupted == 2,
                  "exactly the corrupted frames failed their requests")
        run.check(all("undecodable result" in str(exc)
                      for exc in failures),
                  "corrupted frames degrade to typed undecodable errors")
        run.parity_sweep("post-corruption")
        report = run.coherent_stats()
        run.check(report["dead_workers"] == [],
                  "frame corruption kills requests, not workers")
        counters = run.counters()
    finally:
        run.close()
    return {"workload": {"name": "corrupt_frames", "num_ops": 10,
                         "arrival": "sequential"},
            "counters": counters, "checks": run.checks}


def scenario_ring_exhaustion(seed: int) -> dict:
    """Result rings permanently full: every reply takes the pickle
    fallback and stays bit-identical."""
    run = ScenarioRun("ring_exhaustion", seed)
    try:
        run.server.predict(run.queries[:8])          # warm both replicas
        for worker in run.server.engine.live_workers:
            acked = run.chaos.exhaust_result_ring(worker, on=True)
            run.check(acked.get("exhaust_result_ring") is True,
                      f"worker {worker} acked ring exhaustion")
        workload = generate_workload(
            "ring_exhaustion", seed, num_ops=30, arrival="bursty",
            rate_hz=200.0, sync_fraction=0.3, query_pool=len(run.shots))
        outcomes = drive_workload(run, workload)
        expected = run.reference().predict(run.shots)
        submits, submit_failures = _split_outcomes(outcomes, "submit")
        run.check(not submit_failures and outcomes["sheds"] == 0,
                  "every request answered through the pickle fallback")
        run.check(all(int(label) == int(expected[op.index % len(run.shots)])
                      for op, label, _ in submits),
                  "fallback-path async labels match reference bitwise")
        run.parity_sweep("ring exhausted")
        records = run.server.worker_stats()
        run.check(all(record.get("chaos", {}).get("exhaust_result_ring")
                      for record in records),
                  "worker stats expose the ring-exhaustion fault")
        run.chaos.heal()
        run.parity_sweep("post-heal")
        run.coherent_stats()
        counters = run.counters()
        workload_summary = workload.summary()
    finally:
        run.close()
    return {"workload": workload_summary, "counters": counters,
            "checks": run.checks}


def await_recovery(engine, worker: int, old_pid: int,
                   deadline_s: float = RECOVERY_WINDOW_S,
                   label: str = "recovery") -> float:
    """Block until ``worker`` of a :class:`~repro.serve.ShardedEngine` is
    live again under a *new* pid; returns the observed wall-clock recovery
    time.  Polls every 20 ms: a loop without a sleep would compete for the
    GIL and a core with the supervisor and the child it waits for.  Raises
    :class:`ScenarioFailure` if the bounded window elapses first — an
    unbounded wait would turn a respawn bug into a hung CI job."""
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        if (worker in engine.live_workers
                and engine.worker_pids[worker] != old_pid):
            return time.monotonic() - started
        time.sleep(0.02)
    raise ScenarioFailure(
        f"[{label}] FAILED: worker {worker} not respawned within "
        f"{deadline_s:.0f}s (live={engine.live_workers}, "
        f"gave_up={engine.gave_up_workers})")


def scenario_kill_recover(seed: int) -> dict:
    """SIGKILL with the supervisor on: the pool self-heals.

    The full worker count must come back within :data:`RECOVERY_WINDOW_S`,
    the respawned shard must hold the *current* prototype state (proven by
    a targeted submit, which least-loaded routing could otherwise dodge),
    post-recovery answers must be bit-identical, and the measured recovery
    latency must land in the stats surface and the bench record."""
    run = ScenarioRun("kill_recover", seed, watchdog_interval_s=0.05,
                      respawn_backoff=_fast_backoff(seed))
    try:
        expected = run.reference().predict(run.shots)
        run.server.predict(run.queries[:8])          # warm both replicas
        old_pid = run.server.engine.worker_pids[1]
        run.chaos.kill_worker(1)
        recovered_s = await_recovery(run.server.engine, 1, old_pid,
                                     label=run.name)
        run.check(recovered_s < RECOVERY_WINDOW_S,
                  "full worker count restored within the bounded window "
                  f"({recovered_s:.2f}s)")
        run.check(run.server.engine.worker_pids[1] != old_pid,
                  "the respawned shard is a fresh process")
        run.check(sorted(run.server.engine.live_workers) == [0, 1],
                  "routing rejoined the respawned shard")
        run.check(run.server.engine.restart_counts == [0, 1],
                  "exactly the killed shard restarted, exactly once")
        # Targeted submit at the respawned shard: least-loaded routing
        # could answer everything from the survivor, so parity alone would
        # not prove the replacement resynced its prototype replica.
        labels = run.server.engine.submit(
            "predict", (run.shots[:6], None),
            worker=1).result(timeout=RESULT_TIMEOUT_S)
        run.check(np.array_equal(labels, expected[:6]),
                  "targeted answers from the respawned shard bitwise "
                  "(prototype state resynced)")
        run.parity_sweep("post-recovery")
        report = run.coherent_stats()
        run.check(report["dead_workers"] == [],
                  "no shard left dead after recovery")
        run.check(report["worker_restarts"] == 1,
                  "stats count exactly one supervised restart")
        run.check(report["worker_failures"] == 1,
                  "stats count exactly one worker failure")
        run.check(report["gave_up_workers"] == [],
                  "one kill leaves the crash-loop budget intact")
        latency = report["last_recovery_latency_s"]
        run.check(latency is not None and 0.0 < latency < RECOVERY_WINDOW_S,
                  "recovery latency measured and within the window")
        counters = run.counters()
        counters["recovery_latency_s"] = round(float(latency), 3)
        counters["worker_restarts"] = report["worker_restarts"]
    finally:
        run.close()
    return {"workload": {"name": "kill_recover", "num_ops": 8,
                         "arrival": "scripted"},
            "counters": counters, "checks": run.checks}


def scenario_crash_loop(seed: int) -> dict:
    """Kill every respawned incarnation: the crash-loop budget holds.

    After ``max_respawns`` respawns inside the reset window the shard must
    degrade permanently — typed :class:`WorkerDiedError` on targeted work,
    no further spawn attempts, survivors bit-identical, stats coherent."""
    max_respawns = 2
    run = ScenarioRun("crash_loop", seed, watchdog_interval_s=0.05,
                      max_respawns=max_respawns,
                      respawn_backoff=_fast_backoff(seed))
    try:
        run.server.predict(run.queries[:8])          # warm both replicas
        engine = run.server.engine
        kills = 0
        seen_pids = {engine.worker_pids[0]}
        deadline = time.monotonic() + RECOVERY_WINDOW_S
        # Kill worker 0's every incarnation the moment it rejoins; the
        # supervisor burns its budget and must then stop trying.
        while 0 not in engine.gave_up_workers:
            if time.monotonic() > deadline:
                raise ScenarioFailure(
                    "[crash_loop] FAILED: budget never exhausted "
                    f"(kills={kills}, restarts={engine.restart_counts})")
            if 0 in engine.live_workers:
                seen_pids.add(engine.worker_pids[0])
                try:
                    run.chaos.kill_worker(0)
                    kills += 1
                except ProcessLookupError:
                    pass                 # lost the race; it is already dead
            time.sleep(0.02)
        run.check(engine.gave_up_workers == [0],
                  "the crash-looping shard — and only it — was given up")
        run.check(engine.restart_counts[0] <= max_respawns,
                  "respawns never exceeded the crash-loop budget")
        run.check(len(seen_pids) == engine.restart_counts[0] + 1,
                  "every incarnation was a distinct process")
        # The budget is terminal: the corpse must stay down.
        settle_restarts = engine.restart_counts[0]
        time.sleep(0.5)
        run.check(engine.restart_counts[0] == settle_restarts
                  and 0 not in engine.live_workers,
                  "no further respawn attempts after giving up")
        try:
            engine.submit("ping", None, worker=0).result(timeout=5.0)
            raise ScenarioFailure("[crash_loop] FAILED: targeted work at "
                                  "the given-up shard did not fail")
        except WorkerDiedError:
            run.checks.append("targeted work at the given-up shard fails "
                              "with typed WorkerDiedError")
        run.parity_sweep("survivor after crash loop")
        report = run.coherent_stats()
        run.check(report["dead_workers"] == [0],
                  "stats keep naming the given-up shard dead")
        run.check(report["live_workers"] == [1],
                  "the survivor stays live through the crash loop")
        run.check(report["gave_up_workers"] == [0],
                  "stats expose the exhausted crash-loop budget")
        run.check(report["respawns_abandoned"] == 1,
                  "stats count exactly one abandoned respawn")
        run.check(report["worker_failures"] >= max_respawns + 1,
                  "every kill surfaced as a worker failure")
        counters = run.counters()
        counters["kills"] = kills
        counters["worker_restarts"] = report["worker_restarts"]
    finally:
        run.close()
    return {"workload": {"name": "crash_loop", "num_ops": 8,
                         "arrival": "scripted"},
            "counters": counters, "checks": run.checks}


def scenario_sigstop_escalation(seed: int) -> dict:
    """SIGSTOP under hang detection: silence is failure.

    A SIGSTOPped shard passes ``is_alive()`` forever; only its heartbeat
    goes quiet.  With ``hang_silence_s`` armed the watchdog must escalate
    the mute shard to the failure path — SIGKILL, respawn, resync — and
    the pool must return to full strength with full parity."""
    run = ScenarioRun("sigstop_escalation", seed, watchdog_interval_s=0.05,
                      hang_silence_s=1.0,
                      respawn_backoff=_fast_backoff(seed))
    try:
        expected = run.reference().predict(run.shots)
        run.server.predict(run.queries[:8])          # warm both replicas
        old_pid = run.server.engine.worker_pids[0]
        run.chaos.hang_worker(0)
        recovered_s = await_recovery(run.server.engine, 0, old_pid,
                                     label=run.name)
        run.check(recovered_s < RECOVERY_WINDOW_S,
                  "hung shard escalated and respawned within the window "
                  f"({recovered_s:.2f}s)")
        run.check(recovered_s > 0.5,
                  "escalation waited out the silence threshold "
                  "(no hair-trigger on a merely busy shard)")
        run.check(run.server.engine.worker_pids[0] != old_pid,
                  "the SIGSTOPped process was replaced, not resumed")
        run.check(sorted(run.server.engine.live_workers) == [0, 1],
                  "routing rejoined the escalated shard")
        labels = run.server.engine.submit(
            "predict", (run.shots[:6], None),
            worker=0).result(timeout=RESULT_TIMEOUT_S)
        run.check(np.array_equal(labels, expected[:6]),
                  "targeted answers from the escalated shard bitwise")
        run.parity_sweep("post-escalation")
        report = run.coherent_stats()
        run.check(report["hang_escalations"] == 1,
                  "stats count exactly one hang escalation")
        run.check(report["worker_restarts"] == 1,
                  "the escalation fed the one supervised restart")
        run.check(report["dead_workers"] == [],
                  "no shard left dead after escalation")
        counters = run.counters()
        counters["recovery_latency_s"] = report["last_recovery_latency_s"]
        counters["hang_escalations"] = report["hang_escalations"]
    finally:
        run.close()
    return {"workload": {"name": "sigstop_escalation", "num_ops": 8,
                         "arrival": "scripted"},
            "counters": counters, "checks": run.checks}


def scenario_restart_replay(seed: int) -> dict:
    """learn_class churn + crash + full restart: the journal restores bits.

    Learned classes are journalled write-ahead (fsync-always), one shard is
    SIGKILLed mid-churn so at least one append races a recovery, the server
    is torn down completely, and a *fresh* server over a fresh base model
    replays the journal — prototype matrix, class ids, memory version, and
    served predictions must all come back bit-identical.  The journal file
    stays on disk (gitignored; CI uploads it as an artifact)."""
    journal_path = DEFAULT_JOURNAL_PATH
    journal_path.unlink(missing_ok=True)
    learned = [BASE_CLASSES + i for i in range(4)]
    run = ScenarioRun("restart_replay", seed, journal_path=journal_path,
                      journal_fsync="always", watchdog_interval_s=0.05,
                      respawn_backoff=_fast_backoff(seed))
    try:
        run.server.predict(run.queries[:8])          # warm both replicas
        for class_id in learned[:3]:
            run.server.learn_class(learn_shots_for(class_id), class_id)
        expected = run.reference().predict(run.shots)
        run.check(np.array_equal(run.server.predict(run.shots), expected),
                  "pre-crash parity over the journalled classes")
        old_pid = run.server.engine.worker_pids[1]
        run.chaos.kill_worker(1)
        # Learn while the supervisor is mid-recovery: the append and the
        # respawned shard's resync must not step on each other.
        run.server.learn_class(learn_shots_for(learned[3]), learned[3])
        await_recovery(run.server.engine, 1, old_pid, label=run.name)
        run.parity_sweep("post-crash, pre-restart")
        memory = run.model.memory
        saved_matrix, saved_ids = memory.prototype_matrix()
        saved_matrix = saved_matrix.copy()
        saved_version = memory.version
        saved_predictions = run.server.predict(run.queries)
        counters = run.counters()
    finally:
        run.close()
    run.check(journal_path.exists() and journal_path.stat().st_size > 0,
              "the journal survived server shutdown")
    # Full restart: fresh base model (same seed, none of the journalled
    # classes), fresh server, replay.
    model, _ = build_model(seed)
    restored = Server(model, num_workers=2)
    try:
        applied = restored.restore(journal_path)
        run.check(applied == len(learned),
                  "replay applied exactly the journalled learn events")
        matrix, ids = model.memory.prototype_matrix()
        run.check(list(ids) == list(saved_ids),
                  "restored class-id set identical")
        run.check(np.array_equal(matrix, saved_matrix),
                  "restored prototype matrix bit-identical")
        run.check(model.memory.version == saved_version,
                  "restored memory version identical")
        run.check(
            np.array_equal(restored.predict(run.queries), saved_predictions),
            "served predictions after restore bit-identical to pre-restart")
        run.check(all(record["prototype_version"] == model.memory.version
                      for record in restored.worker_stats()),
                  "restore resynced every worker to the restored version")
        run.check(applied == restored.restore(journal_path) + applied,
                  "replay is idempotent (a second restore applies nothing)")
    finally:
        restored.close()
    counters["journal_bytes"] = journal_path.stat().st_size
    counters["records_applied"] = applied
    return {"workload": {"name": "restart_replay",
                         "num_ops": len(learned), "arrival": "scripted"},
            "counters": counters, "checks": run.checks}


#: name -> scenario callable (runs the scenario, returns its record body).
SCENARIOS: Dict[str, Callable[[int], dict]] = {
    "steady_poisson": scenario_steady_poisson,
    "burst_admission": scenario_burst_admission,
    "kill_shard": scenario_kill_shard,
    "hang_shard": scenario_hang_shard,
    "slow_shard": scenario_slow_shard,
    "corrupt_frames": scenario_corrupt_frames,
    "ring_exhaustion": scenario_ring_exhaustion,
    "kill_recover": scenario_kill_recover,
    "crash_loop": scenario_crash_loop,
    "sigstop_escalation": scenario_sigstop_escalation,
    "restart_replay": scenario_restart_replay,
}


# ---------------------------------------------------------------------------
# Latency floors
# ---------------------------------------------------------------------------
def latency_floor_ms(history,
                     min_history: int = LATENCY_FLOOR_MIN_HISTORY,
                     multiplier: float = LATENCY_FLOOR_MULTIPLIER):
    """The armed latency limit (ms) for one scenario's recorded trend.

    Returns ``None`` — the floor is *unarmed* — until at least
    ``min_history`` history entries carry a positive
    ``counters.batch_latency_p50_ms`` (scenarios that do not measure
    batch latency, malformed entries, and zero-sample histograms all
    leave the trend unarmed rather than producing a garbage limit).
    Armed, the limit is ``multiplier`` times the median of those
    readings: the median is robust to the occasional slow-CI outlier a
    mean would let poison the baseline.
    """
    samples = []
    for entry in history:
        if not isinstance(entry, dict):
            continue
        counters = entry.get("counters")
        if not isinstance(counters, dict):
            continue
        p50 = counters.get("batch_latency_p50_ms")
        if isinstance(p50, (int, float)) and not isinstance(p50, bool) \
                and p50 > 0:
            samples.append(float(p50))
    if len(samples) < min_history:
        return None
    return multiplier * float(np.median(samples))


def apply_latency_floor(name: str, record: dict, history) -> None:
    """Gate one fresh scenario record against its armed latency floor.

    Annotates ``record["latency_floor"]`` with the gate's verdict (so the
    bench trend shows when the floor armed and what it held the run to)
    and raises :class:`ScenarioFailure` when the new record's p50 exceeds
    the limit.  A record without a measurable p50 passes — absence of a
    measurement is not a regression.
    """
    limit = latency_floor_ms(history)
    if limit is None:
        record["latency_floor"] = {"armed": False}
        return
    p50 = record.get("counters", {}).get("batch_latency_p50_ms")
    measured = (isinstance(p50, (int, float))
                and not isinstance(p50, bool) and p50 > 0)
    verdict = {"armed": True, "limit_ms": round(limit, 3),
               "p50_ms": round(float(p50), 3) if measured else None}
    record["latency_floor"] = verdict
    if measured and p50 > limit:
        raise ScenarioFailure(
            f"[{name}] FAILED: latency floor violated — batch p50 "
            f"{p50:.3f}ms exceeds {limit:.3f}ms "
            f"({LATENCY_FLOOR_MULTIPLIER:.0f}x the median of the last "
            f"{len(history)} recorded runs)")


# ---------------------------------------------------------------------------
# Entrypoints
# ---------------------------------------------------------------------------
def run_scenario(name: str, seed: int = 0) -> dict:
    """Run one scenario; raises :class:`ScenarioFailure` on any violated
    check, returns its bench record on success."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {sorted(SCENARIOS)}")
    started = time.monotonic()
    body = SCENARIOS[name](seed)
    return {"scenario": name, "seed": seed, "ok": True,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "elapsed_s": round(time.monotonic() - started, 3),
            "num_checks": len(body.get("checks", [])), **body}


def run_matrix(seed: int = 0, names: Optional[List[str]] = None,
               bench_path=DEFAULT_BENCH_PATH,
               write_bench: bool = True,
               progress: Optional[Callable[[str], None]] = None
               ) -> List[dict]:
    """Run the scenario matrix; record each scenario's result trend.

    Fails fast: the first :class:`ScenarioFailure` propagates (the run is
    a correctness gate, not a survey).  On success every scenario has
    appended one record to its ``{"latest","history"}`` trend in
    ``bench_path``.

    When writing bench records, each scenario's fresh record is also held
    to its armed latency floor (:func:`apply_latency_floor`) against the
    trend recorded *before* this run — a passing-but-5x-slower scenario is
    a failure, not a data point.
    """
    records = []
    trends = load_keyed_bench(bench_path) if write_bench else {}
    for name in names if names is not None else list(SCENARIOS):
        if progress is not None:
            progress(f"scenario {name} (seed {seed}) ...")
        record = run_scenario(name, seed)
        if write_bench:
            apply_latency_floor(
                name, record, trends.get(name, {}).get("history", []))
            append_keyed_bench_record(bench_path, name, record)
        if progress is not None:
            progress(f"  ok: {record['num_checks']} checks, "
                     f"{record['elapsed_s']:.1f}s")
        records.append(record)
    return records
