"""Sharded multi-worker serving on top of the batched inference runtime.

:mod:`repro.runtime` compiles a model into flat op plans and serves it from
one process; this package scales that out to a pool of worker processes:

* :mod:`repro.serve.snapshot` — freezes compiled plans and prototype state
  into fully picklable, module-ref-free snapshots that can cross process
  boundaries (opaque fallbacks are inlined or rejected with an explicit
  :class:`PlanSerializationError`);
* :mod:`repro.serve.transport` — :class:`SlotRing`, the zero-copy
  shared-memory ring transport: tensor payloads cross process boundaries
  as slot-accounted NumPy views, pickle is reserved for control frames
  (and is the automatic fallback for oversized payloads or a full ring);
* :mod:`repro.serve.sharded` — :class:`ShardedEngine`, a multiprocessing
  worker pool where each worker owns a plan replica plus its own buffer
  cache and a fully private channel pair (request/result queues + rings) —
  no shared lock a killed worker could poison — supervised by a liveness
  watchdog that fails a dead shard's futures fast and routes around it,
  and a supervisor that respawns the shard with backoff
  (:mod:`repro.serve.backoff`), resyncs its state, and rejoins it (up to a
  crash-loop budget); heartbeat-silent shards (SIGSTOP, livelock) are
  escalated to the same path, and every state change of a shard goes
  through one transition table;
* :mod:`repro.serve.journal` — :class:`LearnJournal`, the write-ahead
  ``learn_class`` log: checksummed append-only records replayed by
  :meth:`Server.restore` so online-learned classes survive a full server
  restart bit-for-bit;
* :mod:`repro.serve.server` — :class:`Server`, the dynamic batcher: it
  hands single-sample requests to an idle shard at once and coalesces them
  only while every live shard is busy (batch size follows load, no timer),
  dispatches micro-batches to the least-loaded live shard, sheds overload
  with a typed :class:`ServerOverloaded` (bounded admission queue +
  optional latency SLO), and keeps worker prototype replicas in sync with
  the explicit memory through its ``version`` counter.

Typical use::

    from repro.serve import Server

    with Server(model, num_workers=4) as server:   # or model.serve(4)
        labels = server.predict(images)            # == BatchedPredictor, bit-for-bit
        server.learn_class(shots, class_id=42)     # broadcast to every worker
        future = server.submit(image)              # dynamic-batched single query
        print(server.stats_dict())
"""

from .backoff import BackoffSchedule
from .journal import (
    JournalCorruptError,
    JournalError,
    JournalReplayError,
    LearnJournal,
)
from .server import (
    Server,
    ServerClosedError,
    ServerOverloaded,
)
from .sharded import (
    DEFAULT_MAX_RESPAWNS,
    DEFAULT_NUM_WORKERS,
    DEFAULT_START_METHOD,
    EngineClosedError,
    RemoteWorkerError,
    ShardedEngine,
    WorkerDiedError,
)
from .snapshot import (
    ModelSnapshot,
    PlanSerializationError,
    PlanSnapshot,
    PrototypeState,
    snapshot_model,
    snapshot_plan,
    snapshot_prototypes,
)
from .stats import ServeStats
from .transport import SlotRing

__all__ = [
    "Server",
    "ServerClosedError",
    "ServerOverloaded",
    "ShardedEngine",
    "RemoteWorkerError",
    "WorkerDiedError",
    "EngineClosedError",
    "DEFAULT_NUM_WORKERS",
    "DEFAULT_START_METHOD",
    "DEFAULT_MAX_RESPAWNS",
    "BackoffSchedule",
    "LearnJournal",
    "JournalError",
    "JournalCorruptError",
    "JournalReplayError",
    "ModelSnapshot",
    "PlanSnapshot",
    "PrototypeState",
    "PlanSerializationError",
    "snapshot_plan",
    "snapshot_model",
    "snapshot_prototypes",
    "ServeStats",
    "SlotRing",
]
