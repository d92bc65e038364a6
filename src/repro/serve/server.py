"""Dynamic-batching, sharded serving front-end for an O-FSCIL model.

:class:`Server` sits on top of a :class:`~repro.serve.sharded.ShardedEngine`
and exposes the deploy-time API of the model — ``predict`` /
``similarities`` / ``learn_class`` — backed by a pool of worker processes:

* **Synchronous batch path** — whole query batches are split at the same
  micro-batch boundaries the single-process engine uses and round-robinned
  over the shards.  Workers run the conv-heavy backbone; the FCR projection
  and the prototype GEMM run once on the coordinator through the model's own
  :class:`~repro.runtime.BatchedPredictor`.  Backbone kernels are bitwise
  per-sample stable, so ``Server.predict`` matches ``BatchedPredictor.predict``
  *bit-for-bit* regardless of shard count or chunking — sharding is a pure
  throughput decision, never an accuracy one.
* **Asynchronous single-sample path** — :meth:`submit` hands one image to
  the work-conserving dynamic batcher: it coalesces requests only while
  every live shard is busy, so batch size follows load, not a timer, and
  dispatches each batch to the least-loaded live shard, where the full
  replica (backbone + FCR + prototype state) answers in a single hop.
  Admission control bounds the damage of overload: a bounded request queue
  plus an optional latency SLO shed excess traffic with a typed
  :class:`ServerOverloaded` instead of queueing unboundedly, and a
  per-shard in-flight budget backpressures the batcher so no single
  shard's queue grows without bound.
* **Fault tolerance** — the engine's liveness watchdog detects a dead (or,
  with ``hang_silence_s``, heartbeat-silent) worker process, fails that
  shard's pending futures fast with
  :class:`~repro.serve.sharded.RemoteWorkerError`, and routing steers new
  batches around the corpse while the engine's supervisor respawns it with
  backoff, resyncs its prototype state, and rejoins it — up to a
  ``max_respawns`` crash-loop budget, past which the shard degrades
  permanently.  Surviving shards keep answering ``predict``, ``submit``
  and ``stats`` throughout.  With ``journal_path`` set, every
  ``learn_class`` is write-ahead journalled and :meth:`Server.restore`
  rebuilds the exact explicit memory after a full restart.
* **Online learning** — :meth:`learn_class` embeds the shots through the
  shards, updates the coordinator's explicit memory, and broadcasts the new
  prototype state to every worker; staleness is tracked through the
  memory's ``version`` counter, so a broadcast happens only when the memory
  actually changed.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..obs.trace import Span, Tracer
from .journal import DEFAULT_FSYNC_INTERVAL_S, LearnJournal, replay
from .sharded import (
    DEFAULT_MAX_RESPAWNS,
    DEFAULT_RESPAWN_RESET_S,
    DEFAULT_START_METHOD,
    WATCHDOG_INTERVAL_S,
    ShardedEngine,
)
from .snapshot import snapshot_model, snapshot_prototypes
from .stats import DEFAULT_EMA_HALFLIFE_S, ServeStats
from .transport import DEFAULT_RING_SLOTS, DEFAULT_SLOT_BYTES

#: Default shared deadline for one stats collection (see ``stats_timeout_s``
#: on :class:`Server`).
DEFAULT_STATS_TIMEOUT_S = 10.0

#: Default admission cap, in queued single-sample requests per worker, as a
#: multiple of ``max_batch`` (i.e. roughly how many coalesced batches per
#: shard may wait before new submits are shed).
DEFAULT_ADMISSION_BATCHES_PER_WORKER = 8

#: Dispatched-but-unresolved batches per shard at which the batcher
#: backpressures: a full batch waits until some live shard is below it.
DEFAULT_MAX_INFLIGHT_BATCHES = 4


class ServerClosedError(RuntimeError):
    """The server was closed; raised by new submits and used to fail any
    request still queued at ``close()`` time."""


class ServerOverloaded(RuntimeError):
    """Typed load-shedding rejection: the admission queue is full or the
    estimated queueing delay exceeds the latency SLO.  Callers should back
    off and retry; the alternative — queueing unboundedly — turns overload
    into unbounded latency for *every* request."""


@dataclass
class _PendingRequest:
    image: np.ndarray
    future: Future
    #: root ``server.submit`` span when this request won the sampling draw
    span: Optional[Span] = None


def _resolve_quietly(future: Future, result=None, exception=None) -> None:
    """Complete a request future without ever raising at the resolver.

    A future a client cancelled or that was already failed by ``close()``
    must not take down the batcher thread or an engine callback.
    """
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class Server:
    """Serve one O-FSCIL model from a pool of sharded worker replicas."""

    def __init__(self, model, num_workers: int = 2,
                 micro_batch: Optional[int] = None,
                 max_batch: Optional[int] = None,
                 start_method: str = DEFAULT_START_METHOD,
                 blas_threads_per_worker: Optional[int] = 1,
                 max_pending: Optional[int] = None,
                 latency_slo_s: Optional[float] = None,
                 use_shared_memory: bool = True,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 trace_sample: float = 0.0,
                 trace_exporter=None,
                 stats_timeout_s: float = DEFAULT_STATS_TIMEOUT_S,
                 watchdog_interval_s: float = WATCHDOG_INTERVAL_S,
                 ema_halflife_s: float = DEFAULT_EMA_HALFLIFE_S,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_backoff=None,
                 respawn_reset_s: float = DEFAULT_RESPAWN_RESET_S,
                 hang_silence_s: Optional[float] = None,
                 journal_path=None,
                 journal_fsync: str = "always",
                 journal_fsync_interval_s: float = DEFAULT_FSYNC_INTERVAL_S,
                 chaos=None):
        """Args beyond the model/pool shape:

        max_pending: admission cap on *outstanding* (admitted, unresolved)
            single-sample requests; submits beyond it raise
            :class:`ServerOverloaded`.  The count is exact — an atomic
            counter incremented at admission and released when the
            request's future resolves — so concurrent submits cannot
            overshoot the cap the way the old approximate ``qsize`` check
            could.  Defaults to ``DEFAULT_ADMISSION_BATCHES_PER_WORKER *
            max_batch * num_workers``.
        latency_slo_s: optional latency SLO for the async path.  When the
            estimated queueing delay (queued batches plus in-flight batches,
            times the observed batch latency) exceeds it, submits are shed
            with :class:`ServerOverloaded` instead of waiting it out.
        use_shared_memory: route tensor payloads through the shared-memory
            ring transport (on by default; off forces the pickle fallback —
            results are bit-identical either way).
        ring_slots / slot_bytes: shape of each worker's shared-memory rings
            (payloads that do not fit take the pickle fallback); scenario
            runs shrink ``slot_bytes`` to exercise the overflow path under
            load.
        trace_sample: fraction of :meth:`submit` requests to trace end to
            end (0.0, the default, disables tracing entirely: an unsampled
            request pays one comparison and the wire format is identical to
            the untraced one).
        trace_exporter: span sink for sampled requests, e.g. a
            :class:`~repro.obs.trace.JsonlSpanExporter`; defaults to an
            in-memory buffer on the server's tracer.
        stats_timeout_s: shared deadline for one stats collection across
            all shards (see :meth:`worker_stats`).
        watchdog_interval_s: poll interval of the engine's liveness
            watchdog.
        ema_halflife_s: idle half-life of the SLO latency estimate (see
            :mod:`repro.serve.stats` — a stale slow-burst reading decays
            instead of shedding a healthy server forever).
        max_respawns: per-shard crash-loop budget of the engine's
            supervisor — how many times a failed worker is respawned
            (within ``respawn_reset_s`` of uptime) before the shard is
            given up into permanent degraded mode.  0 disables respawn:
            the pre-supervisor behaviour, typed errors at the corpse and
            survivors serving.
        respawn_backoff: optional
            :class:`~repro.serve.backoff.BackoffSchedule` waited out
            before each respawn attempt (capped exponential with jitter
            by default).
        respawn_reset_s: uptime after which a shard's crash-loop attempt
            counter resets (only rapid death cycles burn the budget).
        hang_silence_s: optional heartbeat-silence threshold; a worker
            whose heartbeat stops advancing this long while still alive by
            ``is_alive()`` (SIGSTOP, swap death) is SIGKILLed and handed
            to the respawn path.  ``None`` (default) disables hang
            detection.
        journal_path: optional path of a write-ahead ``learn_class``
            journal (see :mod:`repro.serve.journal`): every learned class
            is durably appended *before* the in-memory update, and
            :meth:`restore` replays the file into a fresh server's memory
            bit-for-bit.  ``None`` (default) keeps learning memory-only.
        journal_fsync: journal durability policy — ``"always"`` (default;
            every ``learn_class`` survives power loss), ``"interval"``
            (fsync at most once per ``journal_fsync_interval_s``), or
            ``"never"`` (survives process death, not power loss).
        chaos: optional fault-injection hook forwarded to the engine (see
            :class:`~repro.serve.sharded.ShardedEngine` and
            :mod:`repro.scenarios.chaos`).
        """
        self.model = model
        self.predictor = model.runtime_predictor()
        self.micro_batch = micro_batch or self.predictor.micro_batch
        self.tracer = Tracer(sample_rate=trace_sample,
                             exporter=trace_exporter, process="coordinator")
        self.stats_timeout_s = stats_timeout_s
        self.stats = ServeStats(ema_halflife_s=ema_halflife_s)
        # The journal opens before the engine: learn_class durability must
        # not depend on how far pool startup got.
        self.journal = LearnJournal(
            journal_path, fsync=journal_fsync,
            fsync_interval_s=journal_fsync_interval_s) \
            if journal_path is not None else None
        snapshot = snapshot_model(model, micro_batch=self.micro_batch)
        try:
            self.engine = ShardedEngine(
                snapshot, num_workers=num_workers, start_method=start_method,
                blas_threads_per_worker=blas_threads_per_worker,
                use_shared_memory=use_shared_memory,
                ring_slots=ring_slots, slot_bytes=slot_bytes,
                watchdog_interval_s=watchdog_interval_s,
                max_respawns=max_respawns, respawn_backoff=respawn_backoff,
                respawn_reset_s=respawn_reset_s,
                hang_silence_s=hang_silence_s,
                recovery_listener=self.stats.observe_recovery_event,
                tracer=self.tracer, chaos=chaos)
        except BaseException:
            # The engine closed what it started; close what this server did.
            if self.journal is not None:
                self.journal.close()
            self.tracer.close()
            raise
        self.max_batch = max_batch or self.micro_batch
        self.max_pending = max_pending if max_pending is not None \
            else (DEFAULT_ADMISSION_BATCHES_PER_WORKER * self.max_batch
                  * num_workers)
        self.latency_slo_s = latency_slo_s
        self._proto_version = snapshot.prototypes.version
        self._proto_lock = threading.Lock()
        # The coordinator-side predictor (FCR projection + prototype GEMM)
        # is one single-process engine stack; concurrent sync callers must
        # not run it in parallel — its arena slots and buffer caches are
        # per-engine, and two interleaved run() calls would scribble over
        # each other's live slots (a bug the scenario harness flushed out:
        # concurrent Server.predict returned corrupted features).  The conv
        # backbone — the heavy part — still fans out over the shards.
        self._predictor_lock = threading.Lock()
        # Exact admission accounting: admitted-but-unresolved submits.
        # qsize() is documented approximate and misses dispatched batches,
        # so concurrent submits could overshoot max_pending.
        self._admission_lock = threading.Lock()
        self._outstanding = 0
        self._requests: "queue.Queue[_PendingRequest]" = queue.Queue()
        self._stop = threading.Event()
        # Serialises submit() against close() so no request can slip into the
        # queue after the close-time drain and hang its caller forever.
        self._lifecycle_lock = threading.Lock()
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="repro-serve-batcher",
                                         daemon=True)
        self._batcher.start()

    # ------------------------------------------------------------------
    # Prototype synchronisation
    # ------------------------------------------------------------------
    def sync_prototypes(self, force: bool = False) -> int:
        """Broadcast the memory's prototype state to every worker.

        No-op while ``ExplicitMemory.version`` matches the last broadcast
        version, so calling this on every request is cheap.
        """
        with self._proto_lock:
            version = self.model.memory.version
            if force or version != self._proto_version:
                state = snapshot_prototypes(self.model.memory)
                self.engine.set_prototypes(state)
                self._proto_version = state.version
                self.stats.observe_broadcast()
            return self._proto_version

    # ------------------------------------------------------------------
    # Synchronous batch API (bit-for-bit with BatchedPredictor)
    # ------------------------------------------------------------------
    def extract_backbone_features(self, images: np.ndarray) -> np.ndarray:
        """Images -> ``theta_a``, scattered over the worker shards."""
        return self.engine.scatter("backbone", images)

    def embed(self, images: np.ndarray) -> np.ndarray:
        """Images -> ``theta_p`` (backbone on shards, FCR on coordinator)."""
        features = self.extract_backbone_features(images)
        with self._predictor_lock:
            return self.predictor.project(features)

    def predict(self, images: np.ndarray,
                class_ids: Optional[Iterable[int]] = None) -> np.ndarray:
        """Classify a batch; bit-for-bit equal to ``BatchedPredictor.predict``.

        Safe to call from concurrent client threads: the scattered backbone
        runs in parallel across shards, the coordinator's FCR + prototype
        GEMM serialise on the predictor lock.
        """
        features = self.embed(images)
        self.stats.observe_batch_request(features.shape[0])
        with self._predictor_lock:
            return self.predictor.predict_features(features, class_ids)

    def similarities(self, images: np.ndarray,
                     class_ids: Optional[Iterable[int]] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Similarity scores with the model's ReLU sharpening applied."""
        features = self.embed(images)
        self.stats.observe_batch_request(features.shape[0])
        with self._predictor_lock:
            sims, ids = self.predictor.similarities_from_features(features,
                                                                  class_ids)
        if getattr(self.model.config, "relu_sharpening", False):
            sims = np.maximum(sims, 0.0)
        return sims, ids

    def accuracy(self, dataset,
                 class_ids: Optional[Iterable[int]] = None) -> float:
        if len(dataset) == 0:
            return float("nan")
        predictions = self.predict(dataset.images, class_ids)
        return float((predictions == dataset.labels).mean())

    # ------------------------------------------------------------------
    # Online learning
    # ------------------------------------------------------------------
    def learn_class(self, images: np.ndarray, class_id: int) -> np.ndarray:
        """Learn one class from its shots and broadcast the new prototypes.

        Mirrors ``OFSCIL.learn_class`` exactly (same feature path, same
        activation-memory update), then pushes the refreshed prototype state
        to every worker replica.

        With a journal configured, the projected features are appended to it
        *before* the in-memory update (write-ahead): a crash at any later
        point — including mid-broadcast — leaves a journal from which
        :meth:`restore` rebuilds the exact post-update memory, and a crash
        before the append leaves memory and journal consistently without
        the class.
        """
        theta_a = self.extract_backbone_features(
            np.asarray(images, dtype=np.float32))
        with self._predictor_lock:
            theta_p = self.predictor.project(theta_a)
            if self.journal is not None:
                self.journal.append(int(class_id), theta_p,
                                    self.model.memory.version + 1)
            prototype = self.model.memory.update_class(int(class_id), theta_p)
        self.model.activation_memory[int(class_id)] = \
            theta_a.mean(axis=0).astype(np.float32)
        self.sync_prototypes()
        return prototype

    def restore(self, path=None) -> int:
        """Replay a ``learn_class`` journal into this server's memory.

        Applies every journal record the memory has not seen (replay is
        idempotent: records at or below the current version are skipped),
        re-running the identical ``update_class`` arithmetic on the
        identical float32 feature bits — prototypes, per-class counts and
        version all match the pre-crash memory bit-for-bit.  Finishes with
        a forced prototype broadcast so every worker replica serves the
        restored state.

        ``path`` defaults to this server's own journal; passing an explicit
        path restores from a previous incarnation's journal into a server
        that journals elsewhere (or not at all).

        The journal covers the :class:`ExplicitMemory` only — predictions
        depend on nothing else.  The activation-memory side channel (raw
        ``theta_a`` means, used by fine-tuning) is not journalled, since it
        is not reconstructible from the projected features.

        Returns the number of records applied.
        """
        if path is None:
            if self.journal is None:
                raise ValueError("no journal to restore from: the server "
                                 "has no journal_path and none was given")
            path = self.journal.path
        with self._predictor_lock:
            applied = replay(path, self.model.memory)
        self.sync_prototypes(force=True)
        return len(applied)

    # ------------------------------------------------------------------
    # Asynchronous single-sample API (dynamic batching)
    # ------------------------------------------------------------------
    def _estimated_wait_s(self, outstanding: int) -> float:
        """Predicted queueing delay for a request admitted now: every
        admitted-but-unresolved request ahead of it (queued *or* already
        dispatched — the outstanding counter covers both, so in-flight
        batches are no longer double-counted on top of queue depth),
        converted to batches, spread over the live shards, times the
        observed per-batch latency.  Zero until a first batch latency
        exists — the SLO gate never sheds on a cold server.  Counting the
        backlog in full batches holds whenever the gate can fire: such a
        backlog keeps every live shard busy, and then the batcher fills its
        batches."""
        batch_latency = self.stats.ema_batch_latency_s
        if batch_latency <= 0.0:
            return 0.0
        batches_ahead = -(-(outstanding + 1) // self.max_batch)
        live = max(1, len(self.engine.live_workers))
        return batches_ahead / live * batch_latency

    def _release_admission(self, _done: Future) -> None:
        with self._admission_lock:
            self._outstanding -= 1

    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one query image; resolves to its predicted class id.

        While some live shard has nothing in flight, the request leaves at
        once with the same-shape requests already queued; only while every
        live shard is busy does the batcher wait for more (up to
        ``max_batch``).  Each batch is answered end-to-end by one shard.

        Raises:
            ServerOverloaded: ``max_pending`` requests are already
                outstanding (admitted, future unresolved), or
                ``latency_slo_s`` is set and the estimated queueing delay
                exceeds it.  The request was NOT enqueued; the caller
                should back off.
            ServerClosedError: the server is closed.
        """
        if self._stop.is_set():
            raise ServerClosedError("server is closed")
        self.sync_prototypes()
        # Admission is decided and accounted under one lock on an exact
        # outstanding-request counter.  The old check read qsize() —
        # documented approximate, blind to requests the batcher had already
        # drained but not resolved — so a burst of concurrent submits could
        # overshoot max_pending arbitrarily.  The counter is released by the
        # future's done callback, whoever resolves it.
        with self._admission_lock:
            outstanding = self._outstanding
            error: Optional[ServerOverloaded] = None
            if outstanding >= self.max_pending:
                error = ServerOverloaded(
                    f"admission queue is full ({outstanding} >= "
                    f"{self.max_pending} outstanding requests)")
            elif self.latency_slo_s is not None:
                estimate = self._estimated_wait_s(outstanding)
                if estimate > self.latency_slo_s:
                    error = ServerOverloaded(
                        f"estimated queueing delay {estimate * 1e3:.1f} ms "
                        f"exceeds the {self.latency_slo_s * 1e3:.1f} ms SLO")
            if error is None:
                self._outstanding = outstanding + 1
        if error is not None:
            self.stats.observe_shed()
            raise error
        try:
            future: Future = Future()
            future.set_running_or_notify_cancel()   # cancel() never races us
            # The root span covers the whole request lifetime — admission to
            # resolved future — and is ended by the future's done callback,
            # whichever thread resolves it.
            span = self.tracer.start_trace("server.submit",
                                           attrs={"queue_depth": outstanding})
            request = _PendingRequest(np.asarray(image, dtype=np.float32),
                                      future, span)
            if span is not None:
                def finish_root(done: Future, span=span) -> None:
                    error = done.exception()
                    if error is not None:
                        self.tracer.end_span(span, status="error",
                                             error=f"{type(error).__name__}: "
                                                   f"{error}")
                    else:
                        self.tracer.end_span(span)
                future.add_done_callback(finish_root)
            with self._lifecycle_lock:
                if self._stop.is_set():
                    raise ServerClosedError("server is closed")
                self._requests.put(request)
        except BaseException:
            # Not enqueued — nothing will ever resolve the future, so the
            # admission slot must be handed back here.
            with self._admission_lock:
                self._outstanding -= 1
            raise
        future.add_done_callback(self._release_admission)
        self.stats.observe_submit(outstanding + 1)
        return request.future

    def predict_one(self, image: np.ndarray, timeout: float = 120.0) -> int:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(image).result(timeout=timeout)

    def _batch_loop(self) -> None:
        carry: Optional[_PendingRequest] = None
        while not self._stop.is_set():
            if carry is not None:
                first, carry = carry, None
            else:
                try:
                    first = self._requests.get(timeout=0.05)
                except queue.Empty:
                    continue
            batch = [first]
            shape = first.image.shape
            coalesce_started = time.time()
            # Work-conserving close: with a live shard idle, take only what
            # is already queued; wait for arrivals only while every live
            # shard is busy, until the batch fills or a shard goes idle.
            while len(batch) < self.max_batch and not self._stop.is_set():
                idle = self.engine.min_live_inflight() == 0
                try:
                    request = (self._requests.get_nowait() if idle
                               else self._requests.get(timeout=0.001))
                except queue.Empty:
                    if idle:
                        break
                    continue
                if request.image.shape != shape:
                    # A mis-shaped request must not poison the batch it
                    # happened to coalesce with: np.stack over mixed shapes
                    # raised in the batcher and failed every innocent
                    # neighbour.  Close this batch and start the next one
                    # from the odd request — dispatched alone, a genuinely
                    # malformed shape gets its own typed error from the
                    # shard and fails only its sender.
                    carry = request
                    break
                batch.append(request)
            # Backpressure: while every live shard is at its in-flight
            # budget, hold the batch instead of piling more work onto the
            # engine (admission control upstream bounds how much can wait
            # here).  A pool with no live shards falls straight through —
            # the dispatch then fails the batch with the engine's typed
            # error instead of spinning.
            while (not self._stop.is_set()
                   and self.engine.live_workers
                   and self.engine.min_live_inflight()
                   >= DEFAULT_MAX_INFLIGHT_BATCHES):
                time.sleep(0.001)
            if self._stop.is_set():
                if carry is not None:
                    batch.append(carry)
                for request in batch:
                    _resolve_quietly(request.future,
                                     exception=ServerClosedError(
                                         "server closed"))
                return
            self._dispatch(batch, coalesce_started)
        if carry is not None:            # stop flag won the top-of-loop race
            _resolve_quietly(carry.future,
                             exception=ServerClosedError("server closed"))

    def _dispatch(self, batch: List[_PendingRequest],
                  coalesce_started: Optional[float] = None) -> None:
        self.stats.observe_dispatch(len(batch))
        dispatched_at = time.monotonic()
        # A coalesced batch can hold several traced requests but gets one
        # execution; the batch-level spans parent under the first traced
        # request's root (the batch's other traces keep their root span and
        # its timings — their execution is shared by construction).
        traced = next((request.span for request in batch
                       if request.span is not None), None)
        dispatch_span = None
        if traced is not None:
            coalesce_span = self.tracer.start_span(
                "batcher.coalesce", parent=traced,
                start_s=coalesce_started,
                attrs={"batch_size": len(batch)})
            dispatch_span = self.tracer.start_span("shard.dispatch",
                                                   parent=coalesce_span)
            self.tracer.end_span(coalesce_span)
        try:
            images = np.stack([request.image for request in batch])
            future = self.engine.submit(
                "predict", (images, None),
                trace_ctx=dispatch_span.context
                if dispatch_span is not None else None)
        except Exception as exc:  # noqa: BLE001 - fail the whole batch
            self.tracer.end_span(dispatch_span, status="error",
                                 error=f"{type(exc).__name__}: {exc}")
            for request in batch:
                request.future.set_exception(exc)
            return

        def resolve(done: Future, batch=batch) -> None:
            try:
                labels = done.result()
            except Exception as exc:  # noqa: BLE001
                self.tracer.end_span(dispatch_span, status="error",
                                     error=f"{type(exc).__name__}: {exc}")
                for request in batch:
                    _resolve_quietly(request.future, exception=exc)
                return
            self.tracer.end_span(dispatch_span)
            self.stats.observe_batch_latency(
                time.monotonic() - dispatched_at)
            for request, label in zip(batch, labels):
                _resolve_quietly(request.future, result=int(label))

        future.add_done_callback(resolve)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.engine.num_workers

    @property
    def outstanding(self) -> int:
        """Admitted single-sample requests whose futures are unresolved —
        the exact quantity ``max_pending`` caps."""
        with self._admission_lock:
            return self._outstanding

    def worker_stats(self, timeout: Optional[float] = None) -> List[dict]:
        """Per-worker replica statistics under a shared deadline.

        The deadline (``stats_timeout_s``, a constructor parameter) bounds
        the whole collection: past it, shards that have not answered degrade
        to flagged records and the caller gets partial stats instead of an
        exception (or a two-minute hang on the default work timeout).  Stats
        items queue FIFO behind pending work, so a saturated-but-healthy
        shard can legitimately miss this budget — that is why only shards
        whose *process is gone* count as dead in :meth:`stats_dict`; a
        missed-deadline shard with ``alive=True`` merely has stale stats.
        """
        return self.engine.stats(timeout=timeout if timeout is not None
                                 else self.stats_timeout_s)

    def stats_dict(self, timeout: Optional[float] = None) -> dict:
        """Server counters plus per-worker replica statistics.

        ``cache_bytes`` / ``arena_peak_bytes`` aggregate the worker
        replicas' buffer-cache footprint and planned-arena footprint (see
        :class:`~repro.runtime.optimizer.MemoryPlan`), so memory regressions
        in the compiled runtime surface in the serving stats.  A shard that
        dies or errors mid-collection degrades to a flagged entry in
        ``workers`` rather than aborting the whole call; the aggregates
        then cover the answering shards.  ``dead_workers`` lists only
        shards whose process is actually gone — a live shard that missed
        the stats deadline (e.g. behind a deep work queue) keeps
        ``alive=True`` in its flagged record and lands in
        ``stale_workers`` instead, marking the aggregates as incomplete.
        """
        report = self.stats.as_dict()
        report["num_workers"] = self.num_workers
        report["live_workers"] = self.engine.live_workers
        report["restart_counts"] = self.engine.restart_counts
        report["gave_up_workers"] = self.engine.gave_up_workers
        report["inflight_per_worker"] = self.engine.inflight_per_worker()
        report["max_pending"] = self.max_pending
        report["latency_slo_s"] = self.latency_slo_s
        report["prototype_version"] = self._proto_version
        workers = self.worker_stats(timeout=timeout)
        report["workers"] = workers
        report["dead_workers"] = [record["worker_id"] for record in workers
                                  if "error" in record
                                  and not record.get("alive", False)]
        # Shards that are alive but missed the deadline: their counters are
        # missing from the aggregates below, so the report says explicitly
        # which shards the sums do NOT cover (a degraded collection must
        # not read as a genuine memory drop).
        report["stale_workers"] = [record["worker_id"] for record in workers
                                   if "error" in record
                                   and record.get("alive", False)]
        report["cache_bytes"] = sum(record.get("cache_bytes", 0)
                                    for record in workers)
        report["arena_peak_bytes"] = sum(record.get("arena_peak_bytes", 0)
                                         for record in workers)
        report["metrics"] = self.stats.scrape()
        return report

    def close(self, timeout: float = 10.0) -> None:
        with self._lifecycle_lock:
            if self._stop.is_set():
                return
            self._stop.set()
        self._batcher.join(timeout=timeout)
        closed = ServerClosedError("server closed with requests pending")
        while True:                      # fail whatever never got dispatched
            try:
                request = self._requests.get_nowait()
            except queue.Empty:
                break
            _resolve_quietly(request.future, exception=closed)
        # Engine close fails any dispatched-but-unresolved batch with
        # EngineClosedError, which the resolve callbacks forward to the
        # per-request futures — nothing a caller holds can block forever.
        self.engine.close(timeout=timeout)
        # Journal after the engine: no learn_class can be in flight once
        # the pool is down, so the final fsync covers every applied update.
        if self.journal is not None:
            self.journal.close()
        # Flush and close the span exporter last: spans for the failing
        # futures above are ended by their done callbacks, and a buffered
        # JSONL exporter that is never flushed silently loses the tail of
        # the trace — exactly the spans covering the shutdown.
        self.tracer.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
