"""Telemetry subsystem: metrics registry, tracing, plan profiler, propagation.

The cross-process tests are the acceptance criterion of the observability
PR: a single traced ``model.serve(2)`` request must produce a fully
parented span tree spanning the coordinator and worker processes —
``server.submit → batcher.coalesce → shard.dispatch → worker.execute →
engine.*.run`` — through *both* transport paths (shared-memory rings and
the pickle fallback), and a SIGKILLed worker must leave its span in the
tree marked ``failed`` instead of silently truncating the trace.
"""

import os
import pickle
import queue as queue_module
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import OFSCIL, OFSCILConfig
from repro.obs import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    MetricsRegistry,
    PlanProfiler,
    Tracer,
    quantile_from_counts,
    read_jsonl_spans,
    span_tree,
)
from repro.obs import trace as obs_trace
from repro.runtime.predictor import BatchedPredictor
from repro.serve import RemoteWorkerError, ShardedEngine, snapshot_model
from repro.serve.stats import ServeStats
from repro.serve.transport import pack_payload, payload_trace, unpack_payload
from repro.serve.worker import worker_main

BACKBONE = "mobilenetv2_x4_tiny"
IMAGE_SHAPE = (3, 16, 16)


def make_learned_model(seed: int = 0, base_classes: int = 4):
    model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                 seed=seed)
    model.freeze_feature_extractor()
    rng = np.random.default_rng(42)
    shots = rng.standard_normal(
        (base_classes * 4, *IMAGE_SHAPE)).astype(np.float32)
    for class_id in range(base_classes):
        model.learn_class(shots[class_id * 4:(class_id + 1) * 4], class_id)
    return model, shots


@pytest.fixture(scope="module")
def learned():
    return make_learned_model()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestQuantile:
    def test_known_values_interpolate_within_bucket(self):
        # 10 observations in (1, 2], nothing elsewhere: the median sits at
        # rank 5 of 10 -> halfway through the bucket.
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 10, 0, 0]                  # + overflow bucket
        assert quantile_from_counts(bounds, counts, 0.5) \
            == pytest.approx(1.5)
        assert quantile_from_counts(bounds, counts, 1.0) \
            == pytest.approx(2.0)

    def test_known_values_across_buckets(self):
        bounds = (1.0, 2.0, 4.0)
        counts = [4, 4, 2, 0]
        # rank 0.9 * 10 = 9 -> 1 into the 2-count (2, 4] bucket -> 3.0
        assert quantile_from_counts(bounds, counts, 0.9) \
            == pytest.approx(3.0)
        # rank 2 of 10 inside the first bucket (0, 1] -> 0.5
        assert quantile_from_counts(bounds, counts, 0.2) \
            == pytest.approx(0.5)

    def test_overflow_and_empty_clamp(self):
        bounds = (1.0, 2.0)
        assert quantile_from_counts(bounds, [0, 0, 5], 0.5) == 2.0
        assert quantile_from_counts(bounds, [0, 0, 0], 0.5) == 0.0

    def test_fraction_is_clamped(self):
        bounds = (1.0,)
        assert quantile_from_counts(bounds, [3, 0], 1.5) == 1.0
        assert quantile_from_counts(bounds, [3, 0], -0.5) == 0.0


class TestInstruments:
    def test_counter_merges_across_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.requests")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counter.inc(5)
        assert counter.value == 4005

    def test_gauge_set_max_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.depth")
        gauge.set(3)
        gauge.set_max(10)
        gauge.set_max(7)                        # lower: keeps the max
        assert gauge.value == 10
        state = {"bytes": 123}
        lazy = registry.gauge("test.bytes", fn=lambda: state["bytes"])
        state["bytes"] = 456                    # read at scrape, not at set
        assert lazy.value == 456

    def test_histogram_counts_sum_and_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.latency", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(2.605)
        assert hist.counts() == [1, 2, 1, 1]    # last = overflow
        # p100 lands in the overflow bucket -> clamps to the last bound.
        assert hist.quantile(1.0) == 1.0

    def test_int_histogram_is_exact(self):
        registry = MetricsRegistry()
        sizes = registry.int_histogram("test.batch_size")
        for value in (1, 1, 8, 8, 8, 3):
            sizes.observe(value)
        assert sizes.as_dict() == {1: 2, 8: 3, 3: 1}

    def test_registry_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("a")
        scrape = registry.scrape()
        assert scrape["a"] == {"type": "counter", "value": 0}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_sampling_gates_only_the_root(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace("root") is None
        tracer.end_span(None)                   # unsampled end is a no-op

        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        assert root is not None and root.parent_id is None
        child = tracer.start_span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_remote_context_parents_across_processes(self):
        tracer = Tracer(sample_rate=1.0, process="worker-3")
        span = tracer.start_span("worker.execute", ctx=("t" * 16, "s" * 16))
        assert (span.trace_id, span.parent_id) == ("t" * 16, "s" * 16)
        assert span.process == "worker-3"

    def test_end_span_exports_status_and_error(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(sample_rate=1.0, exporter=exporter)
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (record,) = exporter.spans
        assert record["status"] == "error"
        assert "ValueError: boom" in record["error"]
        assert record["duration_s"] >= 0.0

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sample_rate=1.0, exporter=JsonlSpanExporter(path))
        root = tracer.start_trace("root")
        tracer.end_span(tracer.start_span("child", parent=root))
        tracer.end_span(root)
        tracer.flush()          # the exporter buffers; flushing is the API
        spans = read_jsonl_spans(path)
        assert [span["name"] for span in spans] == ["child", "root"]
        tree = span_tree(spans)
        assert [span["name"] for span in tree[root.span_id]] == ["child"]

    def test_jsonl_exporter_buffers_until_flush_and_survives_close(
            self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path)
        tracer = Tracer(sample_rate=1.0, exporter=exporter)
        tracer.end_span(tracer.start_trace("tail"))
        # The span sits in the stdio buffer: without the close-time flush
        # this is precisely the trace loss the server shutdown used to hit.
        assert not path.exists() or read_jsonl_spans(path) == []
        tracer.close()
        assert [span["name"] for span in read_jsonl_spans(path)] == ["tail"]
        tracer.close()                                        # idempotent
        tracer.end_span(tracer.start_trace("late"))           # reopens
        tracer.flush()
        names = [span["name"] for span in read_jsonl_spans(path)]
        assert names == ["tail", "late"]

    def test_ambient_span_nests_and_is_inert_without_activation(self):
        with obs_trace.ambient_span("engine.run") as span:
            assert span is None                 # nothing ambient: no-op
        exporter = InMemorySpanExporter()
        tracer = Tracer(sample_rate=1.0, exporter=exporter)
        parent = tracer.start_trace("worker.execute")
        token = obs_trace.activate(tracer, parent)
        try:
            with obs_trace.ambient_span("engine.run",
                                        attrs_fn=lambda: {"samples": 4}):
                pass
        finally:
            obs_trace.deactivate(token)
        (record,) = exporter.spans
        assert record["parent_id"] == parent.span_id
        assert record["attrs"] == {"samples": 4}

    def test_adopt_merges_foreign_spans(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter=exporter)
        tracer.adopt([{"name": "worker.execute", "trace_id": "t"},
                      "not-a-span"])
        assert [span["name"] for span in exporter.spans] \
            == ["worker.execute"]


# ---------------------------------------------------------------------------
# Transport trace field
# ---------------------------------------------------------------------------
class TestTransportTraceField:
    def test_untraced_frames_are_bit_identical_to_pre_trace_format(self):
        payload = np.arange(6, dtype=np.float32)
        frame = pack_payload(None, payload)
        assert len(frame) == 2                  # no trailing trace field
        assert payload_trace(frame) is None
        assert payload_trace(payload) is None   # raw payloads probe safely

    @pytest.mark.parametrize("payload", [
        np.arange(6, dtype=np.float32),                       # -> shm
        (np.arange(6, dtype=np.float32), [1, 2]),             # -> shm tuple
        {"stats": 1},                                         # -> inline
    ])
    def test_trace_rides_every_frame_kind_and_unpack_ignores_it(self, payload):
        from repro.serve.transport import SlotRing
        ctx = ("t" * 16, "s" * 16)
        ring = SlotRing(slots=2, slot_bytes=1024)
        try:
            frame = pack_payload(ring, payload, trace=ctx)
            assert payload_trace(frame) == ctx
            unpacked, held = unpack_payload(ring, frame, copy=True)
            assert not held
            if isinstance(payload, tuple):
                np.testing.assert_array_equal(unpacked[0], payload[0])
                assert unpacked[1:] == tuple(payload[1:])
            elif isinstance(payload, np.ndarray):
                np.testing.assert_array_equal(unpacked, payload)
            else:
                assert unpacked == payload
        finally:
            ring.close()

    def test_pickle_fallback_carries_trace_identically(self):
        ctx = ("t" * 16, "s" * 16)
        frame = pack_payload(None, np.arange(4, dtype=np.float32), trace=ctx)
        assert frame[0] == "__inline__"
        assert payload_trace(frame) == ctx


# ---------------------------------------------------------------------------
# Plan profiler
# ---------------------------------------------------------------------------
class TestPlanProfiler:
    def test_profiled_execution_is_bit_identical_and_counts_steps(
            self, learned):
        model, shots = learned
        queries = shots[:6]
        baseline = BatchedPredictor(model, micro_batch=4).embed(queries)
        profiled = BatchedPredictor(model, micro_batch=4, profile=True)
        np.testing.assert_array_equal(profiled.embed(queries), baseline)

        rows = profiled.profiler.rows()
        backbone_plan = profiled.backbone_engine.plan.name
        fcr_plan = profiled.fcr_engine.plan.name
        assert {row["plan"] for row in rows} == {backbone_plan, fcr_plan}
        backbone_rows = [row for row in rows if row["plan"] == backbone_plan]
        assert len(backbone_rows) \
            == len(profiled.backbone_engine.plan.steps)
        # 6 samples / micro_batch 4 = 2 chunks through every step.
        assert all(row["calls"] == 2 for row in backbone_rows)
        assert all(row["bytes_moved"] > 0 for row in backbone_rows)
        assert "profile" in profiled.runtime_stats()
        table = profiled.profiler.table()
        assert "conv" in table

    def test_empty_profiler_table(self):
        assert "no steps recorded" in PlanProfiler().table()

    def test_by_op_shares_sum_to_one(self, learned):
        model, shots = learned
        predictor = BatchedPredictor(model, micro_batch=4, profile=True)
        predictor.embed(shots[:4])
        shares = [agg["share"] for agg in predictor.profiler.by_op()]
        assert sum(shares) == pytest.approx(1.0)

    def test_table_separates_depthwise_steps(self, learned):
        model, shots = learned
        predictor = BatchedPredictor(model, micro_batch=4, profile=True)
        predictor.embed(shots[:4])
        profiler = predictor.profiler
        table = profiler.table()
        # Step names print relative to their plan, in aligned columns.
        header = table.splitlines()[1]
        dw_line = next(line for line in table.splitlines()
                       if " blocks.0.dw " in line)
        assert dw_line.index("blocks.0.dw") == header.index("name")
        plan_name = predictor.backbone_engine.plan.name
        assert f"{plan_name}.blocks" not in table
        # The nine depthwise convolutions aggregate apart from the GEMM ones.
        kinds = {agg["op"]: agg for agg in profiler.by_op()}
        assert kinds["depthwise"]["steps"] == 9
        assert all(row["op"] == "conv" for row in profiler.rows()
                   if row["kind"] == "depthwise")
        assert sum(agg["share"] for agg in kinds.values()) \
            == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# ServeStats on the registry
# ---------------------------------------------------------------------------
class TestServeStats:
    def test_instruments_are_registered_under_serve_names(self):
        stats = ServeStats()
        names = stats.registry.names()
        for expected in ("serve.requests_total", "serve.shed_total",
                         "serve.batch_latency_s", "serve.batch_size",
                         "serve.queue_depth", "serve.max_queue_depth"):
            assert expected in names

    def test_as_dict_keeps_the_legacy_surface(self):
        stats = ServeStats()
        stats.observe_submit(3)
        stats.observe_dispatch(8)
        stats.observe_batch_request(16)
        stats.observe_shed()
        stats.observe_broadcast()
        stats.observe_batch_latency(0.004)
        report = stats.as_dict()
        assert report["single_requests"] == 1
        assert report["batch_requests"] == 1
        assert report["samples"] == 24
        assert report["batches_dispatched"] == 1
        assert report["batch_size_histogram"] == {8: 1}
        assert report["max_queue_depth"] == 3
        assert report["prototype_broadcasts"] == 1
        assert report["requests_shed"] == 1
        assert report["shed_rate"] == pytest.approx(0.5)
        assert report["ema_batch_latency_s"] == pytest.approx(0.004)
        assert report["batch_latency_p50_ms"] > 0

    def test_percentiles_use_the_shared_quantile_helper(self):
        from repro.serve.stats import BATCH_LATENCY_BUCKETS
        stats = ServeStats()
        for latency in (0.002, 0.002, 0.002, 0.002):
            stats.observe_batch_latency(latency)
        percentiles = stats.batch_latency_percentiles_ms()
        expected = quantile_from_counts(
            BATCH_LATENCY_BUCKETS, [4 if bound == 0.0025 else 0
                                    for bound in (*BATCH_LATENCY_BUCKETS,
                                                  None)], 0.5) * 1e3
        assert percentiles["p50"] == pytest.approx(expected)
        assert percentiles["p99"] >= percentiles["p50"]


# ---------------------------------------------------------------------------
# Cross-process trace propagation (the tentpole acceptance tests)
# ---------------------------------------------------------------------------
class TestTracePropagation:
    @pytest.mark.parametrize("use_shared_memory", [True, False],
                             ids=["shm-ring", "pickle-fallback"])
    def test_traced_request_yields_full_parented_tree(
            self, learned, tmp_path, use_shared_memory):
        model, shots = learned
        path = tmp_path / "trace.jsonl"
        with model.serve(2, trace_sample=1.0,
                         trace_exporter=JsonlSpanExporter(path),
                         use_shared_memory=use_shared_memory) as server:
            label = server.predict_one(shots[0], timeout=60)
            # Tracing must not perturb numerics: same answer as the local
            # predictor, bit for bit.
            assert label == int(model.runtime_predictor()
                                .predict(shots[:1])[0])

        spans = read_jsonl_spans(path)
        by_name = {span["name"]: span for span in spans}
        root = by_name["server.submit"]
        assert root["parent_id"] is None
        assert root["process"] == "coordinator"
        coalesce = by_name["batcher.coalesce"]
        dispatch = by_name["shard.dispatch"]
        execute = by_name["worker.execute"]
        assert coalesce["parent_id"] == root["span_id"]
        assert dispatch["parent_id"] == coalesce["span_id"]
        assert execute["parent_id"] == dispatch["span_id"]
        assert execute["process"].startswith("worker-")
        # The engines nest under worker.execute via the ambient span; the
        # predict work item runs backbone then FCR.
        engine_spans = [span for span in spans
                        if span["name"].startswith("engine.")]
        assert {span["name"] for span in engine_spans} \
            == {"engine.backbone.run", "engine.fcr.run"}
        for span in engine_spans:
            assert span["parent_id"] == execute["span_id"]
            assert span["process"] == execute["process"]
        # One trace id threads the whole tree, and every span is parented.
        assert {span["trace_id"] for span in spans} == {root["trace_id"]}
        assert all(span["status"] == "ok" for span in spans)
        ids = {span["span_id"] for span in spans}
        assert all(span["parent_id"] in ids for span in spans
                   if span["parent_id"] is not None)

    def test_untraced_server_exports_nothing(self, learned, tmp_path):
        model, shots = learned
        path = tmp_path / "trace.jsonl"
        with model.serve(1, trace_exporter=JsonlSpanExporter(path)) as server:
            server.predict_one(shots[0], timeout=60)
        assert not path.exists()                # sample_rate 0: no spans

    def test_sigkilled_worker_leaves_synthetic_failed_span(self, learned):
        # A worker that dies mid-request can never report its span; the
        # engine's watchdog must close the trace tree with a synthetic
        # worker.execute marked "failed" when it fails the doomed ticket.
        model, _shots = learned
        exporter = InMemorySpanExporter()
        tracer = Tracer(sample_rate=1.0, exporter=exporter)
        snapshot = snapshot_model(model, micro_batch=8)
        with ShardedEngine(snapshot, num_workers=2,
                           watchdog_interval_s=0.05,
                           tracer=tracer) as engine:
            victim = engine._table.workers[0].process
            # A stopped worker is alive and routable (hang detection is off
            # by default), so the traced item is pending on it for sure
            # before the kill.
            os.kill(victim.pid, signal.SIGSTOP)
            ctx = ("t" * 16, "s" * 16)
            future = engine.submit(
                "backbone", np.zeros((4, *IMAGE_SHAPE), np.float32),
                worker=0, trace_ctx=ctx)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            with pytest.raises(RemoteWorkerError):
                future.result(timeout=30)
            deadline = time.monotonic() + 10
            while not exporter.spans and time.monotonic() < deadline:
                time.sleep(0.01)
        (record,) = exporter.spans
        assert record["name"] == "worker.execute"
        assert record["status"] == "failed"
        assert (record["trace_id"], record["parent_id"]) == ctx
        assert record["attrs"]["synthetic"] is True
        assert "died" in record["error"]

    def test_worker_error_ships_error_span_in_result_frame(self, learned):
        # The worker main loop is queue-generic; run it on an in-process
        # thread with plain queues and hand-packed trace contexts to pin
        # the span payloads of both the success and the error result frame.
        model, shots = learned
        snapshot = snapshot_model(model, micro_batch=4)
        requests: "queue_module.Queue" = queue_module.Queue()
        results: "queue_module.Queue" = queue_module.Queue()
        requests.put(pickle.dumps(snapshot))
        worker = threading.Thread(target=worker_main,
                                  args=(0, requests, results))
        worker.start()
        try:
            ok_ctx = ("a" * 16, "b" * 16)
            requests.put(("backbone", 0,
                          pack_payload(None, shots[:2], trace=ok_ctx)))
            _, _, ok, packed = results.get(timeout=60)
            assert ok
            shipped = payload_trace(packed)["spans"]
            execute = next(span for span in shipped
                           if span["name"] == "worker.execute")
            assert execute["status"] == "ok"
            assert (execute["trace_id"], execute["parent_id"]) == ok_ctx
            assert any(span["name"] == "engine.backbone.run"
                       and span["parent_id"] == execute["span_id"]
                       for span in shipped)

            bad = np.zeros((2, 5, 16, 16), dtype=np.float32)  # bad channels
            err_ctx = ("c" * 16, "d" * 16)
            requests.put(("backbone", 1,
                          pack_payload(None, bad, trace=err_ctx)))
            _, _, ok, packed = results.get(timeout=60)
            assert not ok
            shipped = payload_trace(packed)["spans"]
            execute = next(span for span in shipped
                           if span["name"] == "worker.execute")
            assert execute["status"] == "error"
            assert "ValueError" in execute["error"]
            assert (execute["trace_id"], execute["parent_id"]) == err_ctx

            # Untraced items keep the pre-trace frame shape entirely.
            requests.put(("backbone", 2, shots[:2]))
            _, _, ok, packed = results.get(timeout=60)
            assert ok and payload_trace(packed) is None
            assert len(packed) == 2
        finally:
            requests.put(("shutdown", -1, None))
            worker.join(timeout=30)


# ---------------------------------------------------------------------------
# Satellite: timing knobs are constructor parameters
# ---------------------------------------------------------------------------
class TestTimingKnobs:
    def test_watchdog_interval_is_validated_and_stored(self, learned):
        model, _ = learned
        snapshot = snapshot_model(model, micro_batch=8)
        with pytest.raises(ValueError, match="watchdog_interval_s"):
            ShardedEngine(snapshot, num_workers=1, watchdog_interval_s=0.0)

    def test_server_stats_timeout_is_a_parameter(self, learned):
        model, _ = learned
        with model.serve(1, stats_timeout_s=3.5,
                         watchdog_interval_s=0.1) as server:
            assert server.stats_timeout_s == 3.5
            assert server.engine.watchdog_interval_s == 0.1
            records = server.worker_stats()
            assert len(records) == 1 and "metrics" in records[0]
            report = server.stats_dict()
            assert "metrics" in report
            assert "serve.requests_total" in report["metrics"]
