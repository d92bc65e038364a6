"""Serving statistics served from the :mod:`repro.obs` metrics registry.

Every counter the server exposes is a named instrument in a per-server
:class:`~repro.obs.metrics.MetricsRegistry`:

==================================  ========================================
instrument                          meaning
==================================  ========================================
``serve.requests_total``            single-sample submits admitted
``serve.batch_requests_total``      synchronous batch API calls
``serve.samples_total``             samples served (both paths)
``serve.batches_dispatched_total``  coalesced batches handed to the engine
``serve.shed_total``                submits rejected by admission control
``serve.broadcasts_total``          prototype broadcasts to the workers
``serve.queue_depth``               admission-queue depth at last submit
``serve.max_queue_depth``           peak admission-queue depth
``serve.batch_latency_s``           dispatch→resolution latency histogram
``serve.batch_size``                exact coalesced-batch-size histogram
``serve.worker_failures_total``     shards declared failed by the watchdog
``serve.worker_restarts_total``     supervisor respawns that rejoined
``serve.hang_escalations_total``    heartbeat-silent shards SIGKILLed
``serve.respawns_abandoned_total``  shards given up after the crash budget
``serve.recovery_latency_s``        failure-detected→serving-again histogram
==================================  ========================================

The batch-latency percentiles come from the fixed-bucket histogram through
the shared quantile helper (:func:`repro.obs.metrics.quantile_from_counts`)
— the former hand-rolled sorted-sample window is gone, so the stats surface
and any registry scrape can never disagree about what p50/p99 means.

The EMA batch-latency estimate survives as plain state: it is the admission
controller's *control signal* (read per submit, smoothed by
:data:`EMA_ALPHA`), not a reporting metric.  It **decays while idle**: after
a grace of one half-life with no completed batch, the estimate halves every
:data:`DEFAULT_EMA_HALFLIFE_S` seconds.  Without the decay a transient slow
burst was sticky — the SLO gate kept shedding on the stale estimate, no new
batch ever completed to refresh it, and a now-healthy server shed forever.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry

#: Smoothing factor of the exponential moving average the admission
#: controller's SLO estimate reads (higher = reacts faster to load shifts).
EMA_ALPHA = 0.2

#: Default idle half-life of the EMA batch-latency estimate: after one
#: half-life with no completed batch the estimate starts halving per
#: half-life, so a stale slow-burst reading cannot shed a healthy server
#: forever (the shedding itself starves the EMA of fresh observations).
DEFAULT_EMA_HALFLIFE_S = 2.0

#: Bucket upper bounds (seconds) of ``serve.batch_latency_s``: geometric
#: from 1 ms to 60 s, resolving the dynamic batcher's typical single-digit
#: millisecond dispatch latencies without wasting buckets on the far tail.
BATCH_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Bucket upper bounds (seconds) of ``serve.recovery_latency_s``: recovery
#: spans watchdog detection through backoff, respawn (interpreter startup +
#: replica restore) and prototype resync — tenths of a second to minutes.
RECOVERY_LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


class ServeStats:
    """Instrumented counters for one :class:`~repro.serve.server.Server`.

    The ``serve.batch_size`` histogram is the dynamic batcher's report card:
    a saturating workload should pile mass at ``max_batch``, a trickle of
    single requests should sit at 1, each dispatched as soon as it arrives
    at an idle shard.
    ``serve.shed_total`` against admitted requests is the overload report
    card.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 ema_halflife_s: float = DEFAULT_EMA_HALFLIFE_S):
        if ema_halflife_s <= 0:
            raise ValueError("ema_halflife_s must be positive")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ema_halflife_s = float(ema_halflife_s)
        self._requests = self.registry.counter("serve.requests_total")
        self._batch_requests = self.registry.counter(
            "serve.batch_requests_total")
        self._samples = self.registry.counter("serve.samples_total")
        self._batches = self.registry.counter(
            "serve.batches_dispatched_total")
        self._shed = self.registry.counter("serve.shed_total")
        self._broadcasts = self.registry.counter("serve.broadcasts_total")
        self._queue_depth = self.registry.gauge("serve.queue_depth")
        self._max_queue_depth = self.registry.gauge("serve.max_queue_depth")
        self._batch_latency = self.registry.histogram(
            "serve.batch_latency_s", BATCH_LATENCY_BUCKETS)
        self._batch_sizes = self.registry.int_histogram("serve.batch_size")
        self._worker_failures = self.registry.counter(
            "serve.worker_failures_total")
        self._worker_restarts = self.registry.counter(
            "serve.worker_restarts_total")
        self._hang_escalations = self.registry.counter(
            "serve.hang_escalations_total")
        self._respawns_abandoned = self.registry.counter(
            "serve.respawns_abandoned_total")
        self._recovery_latency = self.registry.histogram(
            "serve.recovery_latency_s", RECOVERY_LATENCY_BUCKETS)
        self._last_recovery_latency_s: Optional[float] = None
        self.started_at = time.perf_counter()
        self._ema_lock = threading.Lock()
        self._ema_batch_latency_s = 0.0
        self._ema_updated_at: Optional[float] = None

    # ------------------------------------------------------------------
    def observe_submit(self, queue_depth: int) -> None:
        self._requests.inc()
        self._queue_depth.set(queue_depth)
        self._max_queue_depth.set_max(queue_depth)

    def observe_batch_request(self, num_samples: int) -> None:
        self._batch_requests.inc()
        self._samples.inc(num_samples)

    def observe_dispatch(self, batch_size: int) -> None:
        self._batches.inc()
        self._samples.inc(batch_size)
        self._batch_sizes.observe(batch_size)

    def observe_broadcast(self) -> None:
        self._broadcasts.inc()

    def observe_shed(self) -> None:
        self._shed.inc()

    def observe_recovery_event(self, event: dict) -> None:
        """Instrument one engine recovery lifecycle event (the server wires
        this as the engine's ``recovery_listener``).  Unknown event kinds
        are ignored so the stats layer never constrains the engine."""
        kind = event.get("event")
        if kind == "worker_failed":
            self._worker_failures.inc()
        elif kind == "hang_escalated":
            self._hang_escalations.inc()
        elif kind == "gave_up":
            self._respawns_abandoned.inc()
        elif kind == "respawned":
            self._worker_restarts.inc()
            latency = event.get("recovery_latency_s")
            if latency is not None:
                self._recovery_latency.observe(float(latency))
                with self._ema_lock:
                    self._last_recovery_latency_s = float(latency)

    def observe_batch_latency(self, seconds: float) -> None:
        self._batch_latency.observe(seconds)
        now = time.monotonic()
        with self._ema_lock:
            current = self._decayed_ema_locked(now)
            if current <= 0.0:
                self._ema_batch_latency_s = seconds
            else:
                self._ema_batch_latency_s = (
                    EMA_ALPHA * seconds + (1.0 - EMA_ALPHA) * current)
            self._ema_updated_at = now

    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started_at

    @property
    def samples_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self._samples.value / elapsed if elapsed > 0 else 0.0

    def _decayed_ema_locked(self, now: float) -> float:
        """The EMA after idle decay: the raw value for up to one half-life
        since the last completed batch (so a *serving* server reads the
        plain EMA), then halving per half-life of further idleness."""
        if self._ema_batch_latency_s <= 0.0 or self._ema_updated_at is None:
            return self._ema_batch_latency_s
        idle = now - self._ema_updated_at - self.ema_halflife_s
        if idle <= 0.0:
            return self._ema_batch_latency_s
        return self._ema_batch_latency_s * 0.5 ** (idle / self.ema_halflife_s)

    @property
    def ema_batch_latency_s(self) -> float:
        with self._ema_lock:
            return self._decayed_ema_locked(time.monotonic())

    @property
    def shed_rate(self) -> float:
        """Fraction of submit attempts rejected by admission control."""
        shed = self._shed.value
        attempts = self._requests.value + shed
        return shed / attempts if attempts else 0.0

    def batch_latency_percentiles_ms(self) -> Dict[str, float]:
        """p50/p99 of the batch-latency histogram (shared quantile math)."""
        return {"p50": self._batch_latency.quantile(0.50) * 1e3,
                "p99": self._batch_latency.quantile(0.99) * 1e3}

    def scrape(self) -> Dict[str, dict]:
        """Raw instrument scrape of this server's registry."""
        return self.registry.scrape()

    def as_dict(self) -> dict:
        percentiles = self.batch_latency_percentiles_ms()
        requests = int(self._requests.value)
        shed = int(self._shed.value)
        attempts = requests + shed
        return {
            "single_requests": requests,
            "batch_requests": int(self._batch_requests.value),
            "samples": int(self._samples.value),
            "batches_dispatched": int(self._batches.value),
            "batch_size_histogram": self._batch_sizes.as_dict(),
            "max_queue_depth": int(self._max_queue_depth.value),
            "prototype_broadcasts": int(self._broadcasts.value),
            "requests_shed": shed,
            "shed_rate": shed / attempts if attempts else 0.0,
            "batch_latency_p50_ms": round(percentiles["p50"], 3),
            "batch_latency_p99_ms": round(percentiles["p99"], 3),
            "ema_batch_latency_s": self.ema_batch_latency_s,
            "elapsed_s": self.elapsed_s,
            "samples_per_s": self.samples_per_s,
            "worker_failures": int(self._worker_failures.value),
            "worker_restarts": int(self._worker_restarts.value),
            "hang_escalations": int(self._hang_escalations.value),
            "respawns_abandoned": int(self._respawns_abandoned.value),
            "last_recovery_latency_s": self._last_recovery_latency_s,
        }
