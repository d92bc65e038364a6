"""Multiprocessing worker pool executing micro-batches on model replicas.

:class:`ShardedEngine` owns N worker processes, each holding a model replica
restored from a picklable :class:`~repro.serve.snapshot.ModelSnapshot` (its
own compiled plans, its own buffer caches).  Each shard has its own request
queue, result queue and pair of :class:`~repro.serve.transport.SlotRing`
shared-memory rings: control queues carry small pickled frames (tickets,
slot descriptors, error strings), tensors cross the process boundary as
zero-copy NumPy views.  Nothing is shared between shards, so no lock exists
that a hard-killed worker (OOM, SIGKILL) could die holding — a dead shard's
failure domain is exactly its own channels.

**Lifecycle.**  Each shard is one :class:`WorkerRecord` in one ``state``:
``spawning`` (the supervisor builds a fresh process and channels),
``resyncing`` (the process restores its replica and is sent the latest
prototype state; targeted submits reach it, routing and broadcasts do
not), ``live`` (routable), ``backoff`` (failed; a respawn is due),
``gave_up`` (more than ``max_respawns`` crashes within ``respawn_reset_s``
of uptime; terminal) or ``closed``.  Every state change goes through one
function, :meth:`WorkerTable.transition`, called under the engine lock.  It
maps ``(state, event)`` to the next state plus a list of actions — fail the
shard's pending futures, reclaim its ring slots, kill, spawn, resync, shut
down, emit a recovery event — that the thread which fed the event runs
after releasing the lock.  The table touches no process, queue or ring.

* ``died`` (the watchdog found the process gone) and ``hang`` (alive by
  ``is_alive()``, heartbeat silent past the opt-in ``hang_silence_s``:
  SIGSTOP, swap death) take a ``resyncing`` or ``live`` shard, and
  ``failed`` (a spawn raised; a resync failed or outlived
  ``startup_timeout``) a ``spawning`` or ``resyncing`` one, to ``backoff``
  or ``gave_up``: its pending futures fail fast with
  :class:`WorkerDiedError`, its slots are reclaimed, and one crash is
  charged against the budget.  The backoff is capped exponential and
  jittered (:class:`~repro.serve.backoff.BackoffSchedule`), so a correlated
  multi-shard crash does not respawn in lockstep.
* ``due`` (the backoff elapsed) spawns: fresh queues and rings, since a
  corpse may have died mid-write, and a fresh process.  ``spawned`` starts
  the resync; ``resynced(version)`` below the latest version (a broadcast
  raced the resync) re-sends, at the latest it makes the shard ``live``.
* ``close`` moves every shard to ``closed``; a ``died`` after it fails the
  leftovers with :class:`EngineClosedError`.

Events carry the incarnation (``epoch``) they are about, so a late event
about a corpse cannot touch its replacement.  ``tests/test_serve_lifecycle``
checks after every scripted event that every future resolves exactly once,
that nothing routes to a shard that is not ``live``, that each shard's
acked prototype version only grows (and a shard goes live only at the
latest), and that the respawn budget holds.

Startup runs the same path: every shard starts in ``spawning``.  Worker
processes receive only small handles as arguments; the snapshot follows
over the request queue after ``start()``, so a worker that dies while
bootstrapping (a ``__main__`` that cannot be re-imported) arrives as
``died`` within ``startup_timeout`` instead of blocking ``start()`` on a
pipe nobody reads, and the failed startup closes everything it started.

Workers default to the ``spawn`` start method: it exercises the snapshot's
picklability end-to-end (``fork`` would silently inherit live state) and
sidesteps fork-after-BLAS hazards.  BLAS threading inside each worker is
pinned to one thread by default so that process-level sharding, not library
threading, owns the parallelism.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import queue as queue_module
import threading
import time
from concurrent.futures import Future, InvalidStateError
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from .backoff import BackoffSchedule
from .snapshot import ModelSnapshot, PrototypeState
from .transport import (
    DEFAULT_RING_SLOTS,
    DEFAULT_SLOT_BYTES,
    SlotRing,
    pack_payload,
    payload_trace,
    unpack_payload,
)
from .worker import worker_main

DEFAULT_NUM_WORKERS = 2
DEFAULT_TIMEOUT = 120.0
DEFAULT_START_METHOD = "spawn"

#: Default poll interval of the liveness watchdog (overridable per engine via
#: ``watchdog_interval_s``).  Bounds how long a dead shard's pending futures
#: can linger before failing with :class:`RemoteWorkerError` — milliseconds,
#: not the two-minute request timeout.
WATCHDOG_INTERVAL_S = 0.2

#: Default per-worker crash-loop budget: how many times the supervisor
#: respawns a shard (within one ``respawn_reset_s`` uptime window) before
#: giving up into degraded mode.  0 disables respawn entirely.
DEFAULT_MAX_RESPAWNS = 2

#: A worker that stays up this long has its crash-loop attempt counter
#: reset: only *rapid* death cycles count against the budget, a shard that
#: served for a minute and then hit a one-off OOM deserves a fresh budget.
DEFAULT_RESPAWN_RESET_S = 30.0

#: Poll interval of the supervisor thread waiting out respawn backoffs.
_SUPERVISOR_POLL_S = 0.02

#: Heartbeat-silence grace before the first stamp: a spawning worker pays
#: interpreter startup + replica restore before its heartbeat thread runs,
#: which must not read as a hang (the effective threshold is the larger of
#: this and ``hang_silence_s``).
_STARTUP_HEARTBEAT_GRACE_S = 10.0

#: Poll interval of the per-worker collector threads (they must notice
#: ``close()`` even when their worker will never answer again).
_COLLECT_POLL_S = 0.1

#: Environment knobs that cap BLAS/OpenMP threading inside worker processes.
_BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")

SPAWNING = "spawning"
RESYNCING = "resyncing"
LIVE = "live"
BACKOFF = "backoff"
GAVE_UP = "gave_up"
CLOSED = "closed"

#: States whose process runs: the watchdog watches them and targeted
#: submits reach them.
_RUNNING = (RESYNCING, LIVE)


class RemoteWorkerError(RuntimeError):
    """An exception raised inside (or by the death of) a worker process."""


class WorkerDiedError(RemoteWorkerError):
    """The worker *process* backing a request is gone (crash, SIGKILL, torn
    channel) — as opposed to a worker-side exception forwarded through
    :class:`RemoteWorkerError`.  The distinction matters for retries: a dead
    shard's work can be re-dispatched to a survivor, while a genuine
    exception (bad payload) would fail identically anywhere."""


class EngineClosedError(RuntimeError):
    """The engine was closed; raised by new submits and used to fail any
    request still in flight at ``close()`` time, so callers never block on
    a closed pool."""


#: What waiting on a resync can raise; the table has taken the failure
#: by the time the waiter sees one.
_RESYNC_ERRORS = (RemoteWorkerError, EngineClosedError, TimeoutError)


@contextmanager
def _blas_threads_env(threads: Optional[int]):
    """Temporarily pin BLAS thread env vars so started children inherit them."""
    if threads is None:
        yield
        return
    saved = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    os.environ.update({name: str(threads) for name in _BLAS_ENV_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class WorkerRecord:
    """Everything the engine holds for one shard.

    The lifecycle fields (``state`` to ``version``) are written only by
    :meth:`WorkerTable.transition`.  ``pending`` belongs to the per-request
    bookkeeping (submit adds, the collector pops, a failure takes it all)
    and ``heartbeat_seen`` to the watchdog's per-tick bookkeeping.  The
    channel fields hold the current incarnation; the spawn path replaces
    them while the shard is ``spawning``, when nothing else reads them.
    """

    def __init__(self, index: int, now: float):
        self.index = index
        self.state = SPAWNING
        #: Incarnation number; an event about an older one is ignored.
        self.epoch = 0
        #: Crashes charged within the current reset window.
        self.attempts = 0
        #: Respawns that rejoined routing.
        self.restarts = 0
        self.spawned_at = now
        #: First failure of the current outage: recovery latency spans
        #: detection to serving again, across every backoff and retry.
        self.failed_at: Optional[float] = None
        #: Monotonic time the backoff ends.
        self.due: Optional[float] = None
        #: Highest prototype version the shard acked to a resync.
        self.version = -1
        #: ticket -> (future, (trace context, wall start) or None).
        self.pending: Dict[int, Tuple[Future, Optional[tuple]]] = {}
        #: Last heartbeat stamp the watchdog saw and when it changed.
        self.heartbeat_seen: Tuple[int, float] = (0, now)
        self.process = None
        self.request_queue = self.result_queue = None
        self.request_ring = self.result_ring = None
        #: Shared counter the worker stamps from a dedicated thread.
        self.heartbeat = None
        self.collector: Optional[threading.Thread] = None


class WorkerTable:
    """The lifecycle table of a pool's shards (see the module docstring).

    Pure bookkeeping, used under the engine lock: routing reads the records
    and :meth:`transition` writes their lifecycle.  Nothing here touches a
    process, queue or ring, so a test drives the table with scripted events
    and a fake clock.
    """

    def __init__(self, num_workers: int, prototypes: PrototypeState,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 backoff: Optional[BackoffSchedule] = None,
                 reset_s: float = DEFAULT_RESPAWN_RESET_S,
                 now: float = 0.0):
        self.workers = [WorkerRecord(index, now)
                        for index in range(num_workers)]
        #: Newest prototype state pushed through ``set_prototypes``; a
        #: resync sends it, and a shard goes live only once it acked it.
        self.prototypes = prototypes
        self.max_respawns = max_respawns
        self.backoff = backoff if backoff is not None else BackoffSchedule()
        self.reset_s = reset_s

    def live(self) -> List[int]:
        return [worker.index for worker in self.workers
                if worker.state == LIVE]

    def route(self, offset: int) -> Optional[int]:
        """The live shard with the fewest pending items, ties broken
        round-robin from ``offset``; ``None`` when no shard is live."""
        live = self.live()
        if not live:
            return None
        count = len(self.workers)
        return min(live, key=lambda index: (
            len(self.workers[index].pending), (index - offset) % count))

    def transition(self, index: int, event: str, now: float,
                   epoch: Optional[int] = None, version: int = -1,
                   reason: str = "", silence_s: float = 0.0) -> List[tuple]:
        """Apply ``event`` to shard ``index`` at monotonic time ``now``;
        returns the actions to run once the lock is released.

        ``epoch`` names the incarnation the event is about (``None``: the
        current one); ``version`` is a ``resynced`` ack, ``reason`` the
        failure text and ``silence_s`` a ``hang``'s heartbeat silence.
        """
        worker = self.workers[index]
        state = worker.state
        if epoch is not None and epoch != worker.epoch:
            return []
        if state == CLOSED:
            if event == "died":
                return [("fail", self._take(worker), EngineClosedError(
                    "engine closed with requests in flight"))]
            return [("kill",)] if event == "spawned" else []
        if event == "close":
            worker.state = CLOSED
            if state == SPAWNING:       # a started process serves nothing
                return [("kill",)]
            return [("shutdown",)] if state in _RUNNING else []
        if event == "due" and state == BACKOFF and now >= worker.due:
            worker.state = SPAWNING
            worker.epoch += 1
            worker.due = None
            return [("spawn", worker.epoch)]
        if event == "spawned" and state == SPAWNING:
            worker.state = RESYNCING
            worker.spawned_at = now
            return [("resync", worker.epoch)]
        if event == "resynced" and state == RESYNCING:
            worker.version = max(worker.version, version)
            if version < self.prototypes.version:
                return [("resync", worker.epoch)]
            worker.state = LIVE
            if worker.failed_at is None:     # first start, not a recovery
                return []
            worker.restarts += 1
            latency = now - worker.failed_at
            worker.failed_at = None
            return [_emit("respawned", index, attempt=worker.attempts,
                          recovery_latency_s=latency)]
        if not (event in ("died", "hang") and state in _RUNNING
                or event == "failed" and state in (SPAWNING, RESYNCING)):
            return []
        actions: List[tuple] = []
        if event == "hang":
            actions.append(_emit("hang_escalated", index, silence_s=silence_s))
        if state == SPAWNING:               # no process was started
            actions.append(_emit("respawn_failed", index,
                                 attempt=worker.attempts, reason=reason))
        else:
            if event != "died":
                # SIGKILL reaches even a SIGSTOPped process.
                actions.append(("kill",))
            # The worker was the only reader of its request ring and the
            # only writer of its result ring: both are reclaimed whole.
            actions += [("fail", self._take(worker), WorkerDiedError(reason)),
                        ("reclaim",), _emit("worker_failed", index,
                                            reason=reason)]
        if worker.failed_at is None:
            worker.failed_at = now
        if now - worker.spawned_at > self.reset_s:
            # The incarnation was stably up: a fresh outage, not the next
            # lap of a crash loop.
            worker.attempts = 0
        worker.attempts += 1
        if worker.attempts > self.max_respawns:
            worker.state = GAVE_UP
            worker.failed_at = None
            actions.append(_emit("gave_up", index,
                                 attempts=worker.attempts - 1,
                                 max_respawns=self.max_respawns))
        else:
            worker.state = BACKOFF
            delay = self.backoff.delay(worker.attempts)
            worker.due = now + delay
            actions.append(_emit("respawn_scheduled", index,
                                 attempt=worker.attempts, delay_s=delay))
        return actions

    @staticmethod
    def _take(worker: WorkerRecord) -> dict:
        doomed, worker.pending = worker.pending, {}
        return doomed


def _emit(event: str, worker: int, **fields) -> tuple:
    """The action that delivers one recovery event to the listener."""
    return ("emit", {"event": event, "worker": worker, **fields})


class ShardedEngine:
    """A pool of worker processes serving replicas of one model snapshot."""

    def __init__(self, snapshot: ModelSnapshot,
                 num_workers: int = DEFAULT_NUM_WORKERS,
                 start_method: str = DEFAULT_START_METHOD,
                 blas_threads_per_worker: Optional[int] = 1,
                 startup_timeout: float = DEFAULT_TIMEOUT,
                 use_shared_memory: bool = True,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 watchdog_interval_s: float = WATCHDOG_INTERVAL_S,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_backoff: Optional[BackoffSchedule] = None,
                 respawn_reset_s: float = DEFAULT_RESPAWN_RESET_S,
                 hang_silence_s: Optional[float] = None,
                 recovery_listener=None,
                 tracer=None, chaos=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if watchdog_interval_s <= 0:
            raise ValueError("watchdog_interval_s must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if hang_silence_s is not None and hang_silence_s <= 0:
            raise ValueError("hang_silence_s must be positive (None to "
                             "disable hang detection)")
        self.snapshot = snapshot
        self.micro_batch = snapshot.micro_batch
        self.watchdog_interval_s = watchdog_interval_s
        self.hang_silence_s = hang_silence_s
        #: Optional callable receiving one dict per recovery lifecycle event
        #: (``worker_failed`` / ``respawn_scheduled`` / ``hang_escalated`` /
        #: ``respawn_failed`` / ``respawned`` / ``gave_up``) — the server
        #: wires its stats instruments here; exceptions it raises are
        #: swallowed.  Events arrive from the engine's own threads after the
        #: state change they report, so a caller that sees the shard live
        #: may not have its ``respawned`` event yet.
        self._recovery_listener = recovery_listener
        #: Optional :class:`~repro.obs.trace.Tracer`: the adoption point for
        #: spans shipped back from workers, and the author of the synthetic
        #: ``worker.execute`` spans of requests whose worker died on them.
        self.tracer = tracer
        #: Optional fault-injection hook (see :mod:`repro.scenarios.chaos`):
        #: an object whose ``on_result(worker_index, item)`` may mutate or
        #: replace a result frame before the collector decodes it —
        #: modelling a shard that ships corrupted frames.  ``None`` (the
        #: default) costs one attribute check per result.
        self._chaos = chaos
        self._context = mp.get_context(start_method)
        self._use_shared_memory = use_shared_memory
        self._ring_slots = ring_slots
        self._slot_bytes = slot_bytes
        self._blas_threads = blas_threads_per_worker
        self._startup_timeout = startup_timeout
        self._table = WorkerTable(num_workers, snapshot.prototypes,
                                  max_respawns, respawn_backoff,
                                  respawn_reset_s, time.monotonic())
        self._lock = threading.Lock()
        self._tickets = itertools.count()
        self._round_robin = itertools.count()
        self._closed = False
        self._stop = threading.Event()
        self._watchdog = threading.Thread(target=self._watch,
                                          name="repro-serve-watchdog",
                                          daemon=True)
        self._supervisor = threading.Thread(target=self._supervise,
                                            name="repro-serve-supervisor",
                                            daemon=True)
        # Block until every worker imported, restored its replica and acked
        # the prototypes (spawn pays the interpreter startup here, not on
        # the first request).  The processes boot in parallel; the resyncs
        # share one deadline.  A pool that cannot bring up *every* worker is
        # a startup failure, not a degraded pool.
        try:
            self._watchdog.start()
            with _blas_threads_env(blas_threads_per_worker):
                for index in range(num_workers):
                    self._start_worker(index)
            deadline = time.monotonic() + startup_timeout
            for index in range(num_workers):
                self._apply(index, "spawned", epoch=0,
                            timeout=max(0.0, deadline - time.monotonic()))
            self._supervisor.start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._table.workers)

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the worker processes (the chaos layer's signal
        targets; a dead worker keeps reporting its last pid)."""
        return [worker.process.pid for worker in self._table.workers]

    @property
    def live_workers(self) -> List[int]:
        """Indices of shards that are routable (state ``live``; a resyncing
        replica exists but must not answer client traffic until it holds
        the current prototypes)."""
        with self._lock:
            return self._table.live()

    @property
    def restart_counts(self) -> List[int]:
        """Completed supervisor respawns (rejoined and serving) per shard."""
        with self._lock:
            return [worker.restarts for worker in self._table.workers]

    @property
    def gave_up_workers(self) -> List[int]:
        """Shards whose crash-loop budget is exhausted — permanently
        degraded; the supervisor will not touch them again."""
        with self._lock:
            return [worker.index for worker in self._table.workers
                    if worker.state == GAVE_UP]

    def inflight_per_worker(self) -> List[int]:
        """Outstanding (submitted, unresolved) work items per shard."""
        with self._lock:
            return [len(worker.pending) for worker in self._table.workers]

    def min_live_inflight(self) -> int:
        """Smallest in-flight count among live shards (0 when none live —
        the next dispatch then fails with the watchdog's typed error
        instead of waiting forever for budget that cannot free up)."""
        with self._lock:
            counts = [len(self._table.workers[index].pending)
                      for index in self._table.live()]
        return min(counts) if counts else 0

    # ------------------------------------------------------------------
    # Lifecycle: events in, actions out
    # ------------------------------------------------------------------
    def _apply(self, index: int, event: str,
               timeout: Optional[float] = None, **data) -> None:
        """Feed one event to the table, then run its actions unlocked.

        The handles the actions act on are read under the same lock as the
        transition, so a kill or reclaim reaches the incarnation the event
        was about even if the supervisor replaces it meanwhile.
        """
        worker = self._table.workers[index]
        with self._lock:
            actions = self._table.transition(index, event, time.monotonic(),
                                             **data)
            process, request_queue = worker.process, worker.request_queue
            rings = (worker.request_ring, worker.result_ring)
        for action in actions:
            kind = action[0]
            if kind == "emit" and self._recovery_listener is not None:
                try:
                    self._recovery_listener(dict(action[1]))
                except Exception:  # noqa: BLE001 - listener bugs stay theirs
                    pass
            elif kind == "fail":
                self._fail_futures(index, action[1], action[2])
            elif kind == "reclaim":
                for ring in rings:
                    if ring is not None:
                        ring.reclaim_all()
            elif kind == "kill" and process is not None:
                process.kill()
            elif kind == "shutdown":
                try:
                    request_queue.put(("shutdown", -1,
                                       pack_payload(None, None)))
                except (OSError, ValueError):
                    pass
            elif kind == "spawn":
                self._respawn(index, action[1])
            elif kind == "resync":
                self._resync(index, action[1], timeout)

    def _fail_futures(self, index: int, doomed: dict,
                      error: BaseException) -> None:
        # A worker that died mid-request can never report its span; close
        # the trace tree anyway with a synthetic ``worker.execute`` marked
        # failed, spanning submit-to-death.
        if self.tracer is not None and isinstance(error, WorkerDiedError):
            for _, trace in doomed.values():
                if trace is not None:
                    ctx, started = trace
                    self.tracer.record_span(
                        "worker.execute", ctx=ctx, start_s=started,
                        status="failed", error=str(error),
                        attrs={"worker": index, "synthetic": True})
        for future, _ in doomed.values():
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass

    def _start_worker(self, index: int) -> None:
        """Give shard ``index`` fresh queues, rings, heartbeat, process and
        collector; the caller then feeds ``spawned``.

        The process gets only small handles as arguments; the pickled
        snapshot follows over its request queue once it runs.  Whatever
        this call created is released again if it raises.
        """
        worker = self._table.workers[index]
        self._retire(worker)
        try:
            worker.request_queue = self._context.Queue()
            worker.result_queue = self._context.Queue()
            if self._use_shared_memory:
                worker.request_ring = SlotRing(self._ring_slots,
                                               self._slot_bytes)
                worker.result_ring = SlotRing(self._ring_slots,
                                              self._slot_bytes)
            # 'Q' (unsigned 64-bit) never wraps at ~20 stamps/s; lock-free
            # is safe because the worker's heartbeat thread is the only
            # writer.
            worker.heartbeat = self._context.Value("Q", 0, lock=False)
            process = self._context.Process(
                target=worker_main,
                args=(index, worker.request_queue, worker.result_queue,
                      worker.request_ring and worker.request_ring.spec(),
                      worker.result_ring and worker.result_ring.spec(),
                      worker.heartbeat),
                daemon=True, name=f"repro-serve-worker-{index}")
            process.start()
        except BaseException:
            self._retire(worker)
            raise
        worker.process = process
        # Pickled here and shipped through the request ring when it fits:
        # pickled by the queue's feeder thread instead, each start left
        # about 0.3 MB resident in that thread's allocator arena.
        snapshot = np.frombuffer(pickle.dumps(self.snapshot), np.uint8)
        worker.request_queue.put(pack_payload(worker.request_ring, snapshot))
        worker.heartbeat_seen = (0, time.monotonic())
        worker.collector = threading.Thread(
            target=self._collect,
            args=(index, worker.result_queue, worker.result_ring),
            name=f"repro-serve-collector-{index}", daemon=True)
        worker.collector.start()

    def _retire(self, worker: WorkerRecord) -> None:
        """Release a finished incarnation's channels and collector (its
        process handle stays, so a dead shard keeps reporting its pid).

        Frames its worker never read are taken back before the request
        queue closes: one larger than the pipe buffer (an inline snapshot
        or batch) would otherwise leave the queue's feeder thread blocked
        for good.
        """
        process = worker.process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - SIGKILL straggler
                process.kill()
                process.join(timeout=5.0)
        if worker.request_queue is not None:
            try:
                while True:
                    worker.request_queue.get_nowait()
            except (queue_module.Empty, OSError, EOFError, ValueError):
                pass
        for channel in (worker.request_queue, worker.result_queue):
            if channel is not None:
                channel.close()
                channel.cancel_join_thread()
        # The collector leaves once its queue is closed; it may still be
        # copying out of the result ring until then.
        if worker.collector is not None:
            worker.collector.join(timeout=5.0)
        for ring in (worker.request_ring, worker.result_ring):
            if ring is not None:
                ring.close()
        worker.request_queue = worker.result_queue = None
        worker.request_ring = worker.result_ring = None
        worker.collector = None

    def _respawn(self, index: int, epoch: int) -> None:
        """The ``spawn`` action: a fresh incarnation, then its resync."""
        try:
            with _blas_threads_env(self._blas_threads):
                self._start_worker(index)
        except Exception as exc:  # noqa: BLE001 - spawn itself failed
            self._apply(index, "failed", epoch=epoch,
                        reason=f"worker {index} respawn failed "
                               f"({type(exc).__name__}: {exc})")
            return
        self._apply(index, "spawned", epoch=epoch,
                    timeout=self._startup_timeout)

    def _resync(self, index: int, epoch: int, timeout: float) -> None:
        """The ``resync`` action: send the latest prototype state and feed
        the ack, or feed ``failed`` and re-raise."""
        with self._lock:
            state = self._table.prototypes
        try:
            version = self.submit("set_prototypes", state,
                                  worker=index).result(timeout=timeout)
        except _RESYNC_ERRORS as exc:
            self._apply(index, "failed", epoch=epoch,
                        reason=f"worker {index} failed its resync "
                               f"({type(exc).__name__}: {exc})")
            raise
        self._apply(index, "resynced", epoch=epoch, version=version,
                    timeout=timeout)

    # ------------------------------------------------------------------
    # Collector / watchdog / supervisor threads
    # ------------------------------------------------------------------
    def _collect(self, index: int, result_queue, ring) -> None:
        """Drain one incarnation's result queue into its pending futures.

        Strictly per-worker: a shard that dies mid-write can corrupt or
        silence only its *own* channel; every other collector keeps
        resolving its shard's replies.
        """
        worker = self._table.workers[index]
        while not self._stop.is_set():
            try:
                item = result_queue.get(timeout=_COLLECT_POLL_S)
            except queue_module.Empty:
                continue
            except (EOFError, OSError, ValueError):
                # Channel torn down under us: engine close, or a respawn
                # retiring this incarnation (ValueError is what a closed
                # Queue raises).
                break
            if self._chaos is not None:
                # Fault injection: the hook may return a corrupted frame
                # (modelling a shard shipping garbage); a hook that raises
                # is treated as a no-op so the collector never dies to it.
                try:
                    item = self._chaos.on_result(index, item)
                except Exception:  # noqa: BLE001 - chaos must not kill us
                    pass
            try:
                ticket, worker_id, ok, packed = item
            except (TypeError, ValueError):  # truncated frame from a corpse
                continue
            with self._lock:
                entry = worker.pending.pop(ticket, None)
            if entry is None:                # e.g. the shutdown ack
                continue
            future = entry[0]
            # Spans the worker finished for this item ride the result frame;
            # adopt them into the coordinator's export stream so one file
            # holds the whole cross-process trace.
            if self.tracer is not None:
                shipped = payload_trace(packed)
                if isinstance(shipped, dict):
                    self.tracer.adopt(shipped.get("spans", ()))
            # The collector must survive anything a caller did to the future
            # (a cancelled/raced future must not kill the loop and hang every
            # later request on this shard).
            try:
                # Copy-out + slot free happen here, in one place, so the
                # caller's future owns plain arrays with no lifetime tie to
                # the ring.
                payload, _ = unpack_payload(ring, packed, copy=True)
                if ok:
                    future.set_result(payload)
                else:
                    future.set_exception(
                        RemoteWorkerError(f"worker {worker_id}: {payload}"))
            except InvalidStateError:
                pass
            except Exception as exc:  # noqa: BLE001 - defensive: bad frame
                try:
                    future.set_exception(RemoteWorkerError(
                        f"worker {worker_id}: undecodable result "
                        f"({type(exc).__name__}: {exc})"))
                except InvalidStateError:
                    pass

    def _watch(self) -> None:
        """Liveness watchdog: feed ``died`` for a running shard whose
        process is gone and, with ``hang_silence_s`` set, ``hang`` for one
        whose heartbeat stopped advancing for longer than that."""
        while not self._stop.wait(self.watchdog_interval_s):
            if self._closed:
                return
            for worker in self._table.workers:
                with self._lock:
                    if worker.state not in _RUNNING:
                        continue
                    epoch, process = worker.epoch, worker.process
                    heartbeat = worker.heartbeat
                index = worker.index
                if not process.is_alive():
                    self._apply(index, "died", epoch=epoch,
                                reason=f"worker {index} process died "
                                       f"(exit code {process.exitcode})")
                    continue
                now = time.monotonic()
                stamp = int(heartbeat.value)
                last_stamp, changed_at = worker.heartbeat_seen
                if stamp != last_stamp:
                    worker.heartbeat_seen = (stamp, now)
                    continue
                if self.hang_silence_s is None:
                    continue
                # Before the first stamp the worker is still importing and
                # restoring its replica: give it the startup grace.
                threshold = self.hang_silence_s if stamp else \
                    max(self.hang_silence_s, _STARTUP_HEARTBEAT_GRACE_S)
                silence = now - changed_at
                if silence > threshold:
                    self._apply(index, "hang", epoch=epoch, silence_s=silence,
                                reason=f"worker {index} heartbeat silent for "
                                       f"{silence:.2f}s (> {threshold:g}s): "
                                       f"alive by is_alive() but not making "
                                       f"progress; escalated with SIGKILL")

    def _supervise(self) -> None:
        """Supervisor thread: feed ``due`` once a backoff has elapsed; the
        respawn and resync it triggers run here, one shard at a time."""
        while not self._stop.wait(_SUPERVISOR_POLL_S):
            if self._closed:
                return
            now = time.monotonic()
            with self._lock:
                due = [(worker.index, worker.epoch)
                       for worker in self._table.workers
                       if worker.state == BACKOFF and worker.due <= now]
            for index, epoch in due:
                try:
                    self._apply(index, "due", epoch=epoch)
                except _RESYNC_ERRORS:
                    pass            # the table already took the failure

    # ------------------------------------------------------------------
    def submit(self, kind: str, payload=None,
               worker: Optional[int] = None,
               trace_ctx: Optional[tuple] = None) -> Future:
        """Enqueue one work item; returns a future for its result.

        With no explicit ``worker``, the item is routed to the live shard
        with the fewest outstanding items (ties broken round-robin), so a
        dead shard is simply never chosen.  Targeting a shard whose process
        is not running (failed, respawning, given up) raises
        :class:`WorkerDiedError` immediately.

        ``trace_ctx`` — a ``(trace_id, span_id)`` pair of the sampled parent
        span — rides the request's control frame to the worker, whose
        execution spans come back attached to the result frame.  ``None``
        (the overwhelmingly common case) leaves the frame bit-identical to
        the pre-trace format.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        future: Future = Future()
        # Mark the future running immediately: cancel() then always returns
        # False, so the collector's set_result cannot race a cancellation.
        future.set_running_or_notify_cancel()
        trace = None if trace_ctx is None else (tuple(trace_ctx), time.time())
        with self._lock:
            if worker is None:
                index = self._table.route(next(self._round_robin))
                if index is None:
                    raise RemoteWorkerError("no live workers left in the "
                                            "pool")
            elif self._table.workers[worker].state in _RUNNING:
                index = worker
            else:
                raise WorkerDiedError(f"worker {worker} is dead "
                                      f"({self._table.workers[worker].state})")
            record = self._table.workers[index]
            # Registered under the same lock a failure takes the shard's
            # pending table under: the ticket is failed with the rest, or
            # the shard was still running when it was sent.
            ticket = next(self._tickets)
            record.pending[ticket] = (future, trace)
            request_queue, ring = record.request_queue, record.request_ring
        packed = pack_payload(ring, payload,
                              trace=None if trace is None else trace[0])
        try:
            request_queue.put((kind, ticket, packed))
        except (OSError, ValueError) as exc:
            with self._lock:
                entry = record.pending.pop(ticket, None)
            if entry is not None:
                future.set_exception(WorkerDiedError(
                    f"worker {index}: request channel closed ({exc})"))
        return future

    def scatter(self, kind: str, images: np.ndarray,
                timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        """Split ``images`` into micro-batches, spread them over the live
        shards, and reassemble the results in submission order.

        The chunking replicates :meth:`InferenceEngine.run` exactly (same
        ``micro_batch`` boundaries), so per-chunk results are bit-identical
        to the single-process engine's regardless of which shard — or how
        many shards — served each chunk.

        ``timeout`` is one *shared* deadline for the whole batch, not a
        per-chunk budget: the old per-chunk ``future.result(timeout=...)``
        let an N-chunk batch over a wedged shard wait up to N x timeout.
        A chunk whose shard *dies* mid-flight (:class:`WorkerDiedError`,
        never a worker-side exception) is re-dispatched to a surviving
        shard instead of failing the whole batch — results stay
        bit-identical because any shard computes the same chunk bits.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim == 3:
            images = images[None]
        if images.shape[0] == 0:
            raise ValueError("cannot scatter an empty batch")
        deadline = time.monotonic() + timeout
        chunks = [np.ascontiguousarray(images[start:start + self.micro_batch])
                  for start in range(0, images.shape[0], self.micro_batch)]
        futures = [self.submit(kind, chunk) for chunk in chunks]
        outputs: List[Optional[np.ndarray]] = [None] * len(chunks)
        for position, future in enumerate(futures):
            redispatches = 0
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"scatter({kind!r}) exceeded its shared {timeout:g}s "
                        f"deadline with chunk {position}/{len(chunks)} "
                        f"unresolved")
                try:
                    outputs[position] = future.result(timeout=remaining)
                    break
                except WorkerDiedError:
                    # Every retry implies another dead shard, so the retry
                    # count is naturally bounded by the pool size; the
                    # explicit cap guards against a miscounting bug turning
                    # into an infinite loop.
                    redispatches += 1
                    if redispatches > self.num_workers:
                        raise
                    # submit raises RemoteWorkerError("no live workers...")
                    # once the whole pool is gone.
                    future = self.submit(kind, chunks[position])
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def broadcast(self, kind: str, payload=None,
                  timeout: float = DEFAULT_TIMEOUT,
                  require_all: bool = False) -> Dict[int, object]:
        """Send one work item to every *live* worker under one shared
        deadline; returns ``{shard_index: result}`` for the shards that
        answered.

        A shard that dies between the liveness snapshot and its reply — or
        that never answers within the deadline — is simply omitted from the
        result instead of failing the whole broadcast, so one corpse cannot
        wedge e.g. a prototype sync for every healthy shard.  The mapping
        keys report exactly which shards answered.  Raises
        :class:`RemoteWorkerError` only when *no* shard answered, or on the
        first failure when ``require_all`` is set.
        """
        indices = self.live_workers
        if not indices:
            raise RemoteWorkerError("no live workers left in the pool")
        deadline = time.monotonic() + timeout
        futures: Dict[int, Future] = {}
        failures: Dict[int, str] = {}
        for index in indices:
            try:
                futures[index] = self.submit(kind, payload, worker=index)
            except RemoteWorkerError as exc:   # died since the snapshot
                if require_all:
                    raise
                failures[index] = f"{type(exc).__name__}: {exc}"
        results: Dict[int, object] = {}
        for index, future in futures.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                results[index] = future.result(timeout=remaining)
            except (RemoteWorkerError, TimeoutError) as exc:
                if require_all:
                    raise
                # The future is deliberately left pending on a timeout: a
                # slow-but-alive shard still applies the (FIFO-queued) item
                # when it gets there, and the watchdog or close() fails the
                # future if the shard is actually gone.
                failures[index] = f"{type(exc).__name__}: {exc}"
        if not results:
            raise RemoteWorkerError(
                f"broadcast {kind!r} reached no shard: {failures}")
        return results

    def set_prototypes(self, state: PrototypeState,
                       timeout: float = DEFAULT_TIMEOUT) -> Dict[int, int]:
        """Broadcast a prototype state; returns ``{shard: acked version}``
        for every shard that answered (see :meth:`broadcast` — a shard
        dying mid-broadcast is omitted, not fatal, so ``sync_prototypes``
        during a ``learn_class`` storm can never wedge serving).

        Request queues are FIFO per worker, so every answering shard has
        executed all previously enqueued items and every later item sees
        the new prototypes.  Prototype states are control frames: they
        cross as pickle, never through the tensor rings.

        The state becomes the table's latest *before* the broadcast takes
        its live set.  A shard that goes live earlier is in that set; one
        that acks its resync later acks an older version than the table's
        latest and is re-sent this state — it rejoins with these prototypes
        either way.
        """
        with self._lock:
            if state.version >= self._table.prototypes.version:
                self._table.prototypes = state
        return self.broadcast("set_prototypes", state, timeout=timeout)

    def stats(self, timeout: float = DEFAULT_TIMEOUT) -> List[dict]:
        """Per-worker replica statistics, degraded per shard on failure.

        A worker that errors (``RemoteWorkerError``) or never answers (a
        dead or wedged process runs into the deadline) must not abort the
        whole stats collection — operators need the surviving shards'
        counters most exactly when one shard is down.  The failed shard is
        reported as a record carrying ``error`` (and ``alive`` from the
        process handle) instead of its counters.  ``timeout`` is a *shared*
        deadline across all shards, not per shard, so a pool with several
        wedged workers still answers within one budget; shards whose
        process is not running are flagged immediately, without enqueueing
        work items no consumer will ever pop.
        """
        deadline = time.monotonic() + timeout
        workers = self._table.workers
        records: List[Optional[dict]] = [None] * len(workers)
        futures = {}
        with self._lock:
            running = [worker.state in _RUNNING for worker in workers]
        for index, worker in enumerate(workers):
            if running[index] and worker.process.is_alive():
                try:
                    futures[index] = self.submit("stats", None, worker=index)
                    continue
                except WorkerDiedError:        # failed since the read above
                    pass
            records[index] = {"worker_id": index,
                              "error": "worker process is not alive",
                              "alive": False}
        for index, future in futures.items():
            try:
                remaining = max(0.0, deadline - time.monotonic())
                records[index] = future.result(timeout=remaining)
            except Exception as exc:  # noqa: BLE001 - degrade per shard
                records[index] = {
                    "worker_id": index,
                    "error": f"{type(exc).__name__}: {exc}",
                    "alive": workers[index].process.is_alive(),
                }
                # A future that will never resolve (dead worker) must not
                # linger in the pending table until close().
                self._discard_future(future)
        # Coordinator-side recovery annotations: visible on healthy and
        # degraded records alike, so operators can tell "this shard died
        # once and was respawned" from "this shard never blinked" — and the
        # heartbeat age doubles as the hang-detection signal surfaced.
        now = time.monotonic()
        with self._lock:
            for worker, record in zip(workers, records):
                if not isinstance(record, dict):   # a corrupted reply
                    continue
                record["restarts"] = worker.restarts
                record["gave_up"] = worker.state == GAVE_UP
                record["resyncing"] = worker.state == RESYNCING
                record["heartbeat_age_s"] = now - worker.heartbeat_seen[1]
        return records

    def _discard_future(self, future: Future) -> None:
        """Drop one future from the pending tables by identity."""
        with self._lock:
            for worker in self._table.workers:
                for ticket, (pending, _) in list(worker.pending.items()):
                    if pending is future:
                        del worker.pending[ticket]
                        return

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut down workers and the coordinator threads; idempotent.

        Running shards answer what they already hold before the shutdown
        frame; any request still unresolved once the pool is down —
        stranded by a terminated worker — is failed with
        :class:`EngineClosedError`, so no caller ever blocks on a closed
        engine.
        """
        if self._closed:
            return
        self._closed = True
        workers = self._table.workers
        for worker in workers:
            self._apply(worker.index, "close")
        for worker in workers:
            if worker.process is not None:
                worker.process.join(timeout=timeout)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
        self._stop.set()
        if self._watchdog.is_alive():
            self._watchdog.join(timeout=5.0)
        for worker in workers:
            self._apply(worker.index, "died")
        # Joined after the pending sweep: a supervisor blocked mid-resync on
        # a future is released by the sweep, not by a timeout.
        if self._supervisor.is_alive():
            self._supervisor.join(timeout=5.0)
        for worker in workers:
            self._retire(worker)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close(timeout=1.0)
        except Exception:
            pass
