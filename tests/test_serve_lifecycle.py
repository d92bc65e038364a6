"""The serving worker lifecycle table, driven event by event in one thread.

:class:`~repro.serve.sharded.WorkerTable` maps ``(state, event)`` to the
next state plus a list of actions, and touches no process, queue or ring.
:class:`Harness` plays the engine's threads against it with a fake clock —
client submits and their replies, the watchdog's ``died`` and ``hang``, the
supervisor's ``due``, ``spawned``, resync acks and ``failed``,
``set_prototypes`` and ``close`` — runs the returned actions the way the
engine does, and checks after every event that:

1. every future resolves exactly once: it is pending in exactly one
   running (or closing) shard, or it was resolved once;
2. nothing routes to a shard that is not ``live``;
3. each shard's acked prototype version only grows, and a shard becomes
   ``live`` only on an ack at the latest version;
4. the respawn budget holds: within one reset window a shard is respawned
   at most ``max_respawns`` times, and it is given up exactly when its
   failures exceed that.

The scripted interleavings are the ones a process-level test cannot pin
down: a failure during the resync, a broadcast during a respawn, ``close``
during the backoff, a death during the spawn, and double failures.
"""

import itertools

import numpy as np
import pytest

from repro.serve.backoff import BackoffSchedule
from repro.serve.sharded import (
    BACKOFF,
    CLOSED,
    GAVE_UP,
    LIVE,
    RESYNCING,
    SPAWNING,
    EngineClosedError,
    WorkerDiedError,
    WorkerTable,
)
from repro.serve.snapshot import PrototypeState

MAX_RESPAWNS = 2
RESET_S = 30.0
#: Failure events, as the engine's threads feed them.
FAILURES = ("worker_failed", "respawn_failed")


def prototypes(version: int) -> PrototypeState:
    return PrototypeState(matrix_normed=np.eye(2, dtype=np.float32),
                          ids=np.arange(2, dtype=np.int64), version=version)


class FakeFuture:
    """Records every resolution (an engine future raises on the second)."""

    def __init__(self):
        self.resolutions = []

    def set_result(self, value) -> None:
        self.resolutions.append(value)

    def set_exception(self, error) -> None:
        self.resolutions.append(error)


class Harness:
    """A :class:`WorkerTable` plus the engine's side of every action."""

    def __init__(self, num_workers: int = 2, max_respawns: int = MAX_RESPAWNS,
                 start: bool = True):
        self.now = 0.0
        self.table = WorkerTable(
            num_workers, prototypes(0), max_respawns=max_respawns,
            backoff=BackoffSchedule(base_s=1.0, cap_s=4.0, jitter=0.0),
            reset_s=RESET_S, now=self.now)
        self.futures = []
        self.tickets = itertools.count()
        self.events = []
        self.kills = []
        #: Spawn actions and failure events per shard in the reset window.
        self.spawns = [0] * num_workers
        self.failures = [0] * num_workers
        #: index -> (resync future, version sent) awaiting its ack.
        self.resyncs = {}
        if start:
            for index in range(num_workers):
                self.feed(index, "spawned", epoch=0)
                self.ack(index)

    @property
    def workers(self):
        return self.table.workers

    def state(self, index: int) -> str:
        return self.workers[index].state

    # -- the engine's threads ------------------------------------------
    def feed(self, index: int, event: str, **data) -> list:
        worker = self.workers[index]
        before = [(other.state, other.version) for other in self.workers]
        if (event in ("died", "hang", "failed")
                and self.now - worker.spawned_at > RESET_S):
            self.spawns[index] = self.failures[index] = 0
        actions = self.table.transition(index, event, self.now, **data)
        for action in actions:
            kind = action[0]
            if kind == "fail":
                for future, _ in action[1].values():
                    future.set_exception(action[2])
            elif kind == "emit":
                self.events.append(action[1])
                if action[1]["event"] in FAILURES:
                    self.failures[index] += 1
            elif kind == "spawn":
                self.spawns[index] += 1
            elif kind == "resync":
                # The engine's resync is a targeted submit of the latest
                # prototype state.
                self.resyncs[index] = (self.register(index),
                                       self.table.prototypes.version)
            elif kind == "kill":
                self.kills.append(index)
        self.check(before, index, event, data)
        return actions

    def register(self, index: int) -> FakeFuture:
        future = FakeFuture()
        self.workers[index].pending[next(self.tickets)] = (future, None)
        self.futures.append(future)
        return future

    def submit(self, offset: int = 0):
        """A client request: routed, or ``None`` with no live shard."""
        index = self.table.route(offset)
        return None if index is None else (index, self.register(index))

    def reply(self, index: int, future=None, value=None) -> None:
        """The collector resolves one of the shard's pending futures."""
        pending = self.workers[index].pending
        ticket = next(ticket for ticket, (held, _) in pending.items()
                      if future is None or held is future)
        pending.pop(ticket)[0].set_result(value)
        self.check()

    def ack(self, index: int, version=None) -> list:
        """The shard answers its resync; ``version`` overrides the ack."""
        future, sent = self.resyncs.pop(index)
        acked = sent if version is None else version
        self.reply(index, future, acked)
        return self.feed(index, "resynced", epoch=self.workers[index].epoch,
                         version=acked)

    def fail(self, index: int, event: str = "died") -> list:
        return self.feed(index, event, epoch=self.workers[index].epoch,
                         reason=f"worker {index} {event}", silence_s=1.0)

    def respawn(self, index: int) -> None:
        """The supervisor: wait out the backoff, spawn, start the resync."""
        self.now = self.workers[index].due
        self.feed(index, "due", epoch=self.workers[index].epoch)
        assert self.state(index) == SPAWNING
        self.feed(index, "spawned", epoch=self.workers[index].epoch)
        assert self.state(index) == RESYNCING

    def recover(self, index: int) -> None:
        self.respawn(index)
        while index in self.resyncs:
            self.ack(index)
        assert self.state(index) == LIVE

    def set_prototypes(self, version: int) -> None:
        """The engine's ``set_prototypes``: the latest state moves under the
        lock, then the broadcast reaches the live shards."""
        self.table.prototypes = prototypes(version)
        for index in self.table.live():
            self.reply(index, self.register(index), version)

    def close(self) -> None:
        """``close()``: every shard closes, running ones answer what they
        can, then the sweep fails what is left."""
        for index in range(len(self.workers)):
            self.feed(index, "close")
        for index in range(len(self.workers)):
            self.feed(index, "died")
        assert all(len(future.resolutions) == 1 for future in self.futures)

    def kinds(self, index=None) -> list:
        return [event["event"] for event in self.events
                if index is None or event["worker"] == index]

    # -- the invariants ------------------------------------------------
    def check(self, before=None, index=None, event=None, data=None) -> None:
        held = [future for worker in self.workers
                for future, _ in worker.pending.values()]
        for future in self.futures:
            assert len(future.resolutions) + held.count(future) == 1
        for worker in self.workers:
            if worker.state not in (RESYNCING, LIVE, CLOSED):
                assert not worker.pending, \
                    f"shard {worker.index} is {worker.state} with futures"
        assert all(self.state(live) == LIVE for live in self.table.live())
        for offset in range(len(self.workers)):
            routed = self.table.route(offset)
            assert routed is None or self.state(routed) == LIVE
        for position, worker in enumerate(self.workers):
            assert self.spawns[position] <= self.table.max_respawns
            exhausted = self.failures[position] > self.table.max_respawns
            if worker.state != CLOSED:
                assert exhausted == (worker.state == GAVE_UP)
        if before is None:
            return
        for worker, (state, version) in zip(self.workers, before):
            assert worker.version >= version, "acked version went down"
        if before[index][0] != LIVE and self.state(index) == LIVE:
            assert event == "resynced"
            assert data["version"] >= self.table.prototypes.version


# ---------------------------------------------------------------------------
# Single transitions
# ---------------------------------------------------------------------------
def test_startup_and_clean_recovery_event_order():
    harness = Harness()
    assert harness.table.live() == [0, 1]
    assert harness.events == []                 # a first start is no recovery
    first = harness.submit(offset=1)
    assert first[0] == 1
    harness.fail(1)
    assert isinstance(first[1].resolutions[0], WorkerDiedError)
    assert harness.state(1) == BACKOFF and harness.workers[1].due == 1.0
    assert harness.submit(offset=1)[0] == 0
    harness.recover(1)
    assert harness.kinds() == ["worker_failed", "respawn_scheduled",
                               "respawned"]
    assert harness.events[-1]["recovery_latency_s"] == 1.0
    assert [worker.restarts for worker in harness.workers] == [0, 1]
    harness.close()


def test_hang_kills_before_failing():
    harness = Harness()
    actions = harness.fail(0, "hang")
    assert [action[0] for action in actions] == [
        "emit", "kill", "fail", "reclaim", "emit", "emit"]
    assert harness.kinds() == ["hang_escalated", "worker_failed",
                               "respawn_scheduled"]
    harness.recover(0)
    harness.close()


def test_stale_lower_ack_neither_lowers_the_version_nor_goes_live():
    harness = Harness()
    harness.set_prototypes(3)
    harness.fail(1)
    harness.recover(1)
    assert harness.workers[1].version == 3
    harness.fail(1)
    harness.respawn(1)
    harness.ack(1, version=0)                   # the snapshot's version
    assert harness.state(1) == RESYNCING
    assert harness.workers[1].version == 3
    harness.ack(1)
    assert harness.state(1) == LIVE
    harness.close()


def test_stable_worker_gets_a_fresh_budget():
    harness = Harness(max_respawns=1)
    harness.fail(0)
    harness.recover(0)
    harness.now += RESET_S + 1.0                 # stably up since
    harness.fail(0)
    assert harness.state(0) == BACKOFF
    assert harness.workers[0].attempts == 1
    harness.recover(0)
    harness.fail(0)                              # a rapid second crash
    assert harness.state(0) == GAVE_UP
    harness.close()


@pytest.mark.parametrize("failure", ["died", "hang", "failed_spawn",
                                     "failed_resync"])
def test_crash_loop_gives_up_after_the_budget(failure):
    harness = Harness()
    harness.fail(0)
    while harness.state(0) == BACKOFF:
        if failure == "failed_spawn":
            harness.now = harness.workers[0].due
            harness.feed(0, "due", epoch=harness.workers[0].epoch)
            harness.fail(0, "failed")
            continue
        harness.respawn(0)
        if failure == "failed_resync":
            harness.fail(0, "failed")            # the resync timed out
        else:
            harness.ack(0)
            harness.fail(0, failure)
    assert harness.state(0) == GAVE_UP
    assert harness.spawns[0] == MAX_RESPAWNS
    assert harness.kinds(0)[-1] == "gave_up"
    assert harness.events[-1]["attempts"] == MAX_RESPAWNS
    harness.now += 100.0
    assert harness.feed(0, "due", epoch=harness.workers[0].epoch) == []
    assert harness.state(0) == GAVE_UP
    harness.close()


def test_max_respawns_zero_gives_up_at_once():
    harness = Harness(max_respawns=0)
    harness.fail(1)
    assert harness.state(1) == GAVE_UP
    assert harness.kinds() == ["worker_failed", "gave_up"]
    harness.close()


# ---------------------------------------------------------------------------
# Interleavings
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("failure", ["died", "hang", "failed"])
def test_failure_during_resync(failure):
    harness = Harness()
    harness.fail(1)
    harness.respawn(1)
    resync, _ = harness.resyncs.pop(1)
    queued = [harness.submit(offset) for offset in range(4)]
    assert {index for index, _ in queued} == {0}
    harness.fail(1, failure)
    assert isinstance(resync.resolutions[0], WorkerDiedError)
    assert harness.state(1) == BACKOFF
    assert harness.kinds(1)[-2:] == ["worker_failed", "respawn_scheduled"]
    assert (1 in harness.kills) == (failure != "died")
    # The supervisor's wait on the resync then fails too; the table has
    # already taken the failure and must not charge it twice.
    attempts = harness.workers[1].attempts
    assert harness.feed(1, "failed", epoch=harness.workers[1].epoch - 1) == []
    assert harness.feed(1, "failed", epoch=harness.workers[1].epoch) == []
    assert harness.workers[1].attempts == attempts
    harness.recover(1)
    assert harness.workers[1].restarts == 1
    harness.close()


def test_broadcast_during_respawn_resends_before_going_live():
    harness = Harness()
    harness.fail(1)
    harness.respawn(1)                           # resync sends version 0
    harness.set_prototypes(1)                    # reaches shard 0 only
    assert harness.ack(1) == [("resync", harness.workers[1].epoch)]
    assert harness.state(1) == RESYNCING
    assert harness.resyncs[1][1] == 1
    harness.ack(1)
    assert harness.state(1) == LIVE and harness.workers[1].version == 1
    harness.close()


def test_broadcast_after_rejoin_reaches_the_shard():
    harness = Harness()
    harness.fail(1)
    harness.recover(1)
    harness.set_prototypes(2)
    assert harness.table.live() == [0, 1]
    harness.close()


def test_close_during_backoff_spawns_nothing():
    harness = Harness()
    inflight = [harness.submit(offset) for offset in range(3)]
    harness.fail(1)
    assert harness.state(1) == BACKOFF
    for index in range(2):
        harness.feed(index, "close")
    assert harness.state(1) == CLOSED
    harness.now += 100.0
    assert harness.feed(1, "due", epoch=harness.workers[1].epoch) == []
    assert harness.spawns == [0, 0]
    harness.reply(0)                             # answered before shutdown
    harness.feed(0, "died")                      # the close-time sweep
    harness.feed(1, "died")
    errors = [future.resolutions[0] for _, future in inflight
              if isinstance(future.resolutions[0], Exception)]
    assert errors and all(isinstance(error, (WorkerDiedError,
                                             EngineClosedError))
                          for error in errors)
    assert all(len(future.resolutions) == 1 for future in harness.futures)


def test_close_during_spawn_kills_the_fresh_process():
    harness = Harness()
    harness.fail(1)
    harness.now = harness.workers[1].due
    harness.feed(1, "due", epoch=harness.workers[1].epoch)
    assert harness.feed(1, "close") == [("kill",)]
    assert harness.feed(1, "spawned", epoch=harness.workers[1].epoch) \
        == [("kill",)]
    harness.feed(0, "close")
    harness.close()


def test_spawn_that_raises_reports_before_rescheduling():
    harness = Harness()
    harness.fail(1)
    harness.now = harness.workers[1].due
    harness.feed(1, "due", epoch=harness.workers[1].epoch)
    actions = harness.fail(1, "failed")
    assert [action[0] for action in actions] == ["emit", "emit"]
    assert harness.kinds()[-2:] == ["respawn_failed", "respawn_scheduled"]
    harness.recover(1)
    harness.close()


def test_death_while_bootstrapping_fails_startup_resync():
    harness = Harness(num_workers=1, start=False)
    harness.feed(0, "spawned", epoch=0)
    resync, _ = harness.resyncs.pop(0)
    assert harness.table.live() == []
    assert harness.submit() is None
    harness.fail(0)
    assert isinstance(resync.resolutions[0], WorkerDiedError)
    assert harness.kinds() == ["worker_failed", "respawn_scheduled"]
    harness.close()


def test_double_failure_of_one_shard_is_charged_once():
    harness = Harness()
    harness.fail(1)
    epoch = harness.workers[1].epoch
    for event in ("died", "hang", "failed"):
        assert harness.feed(1, event, epoch=epoch, reason="again") == []
    assert harness.workers[1].attempts == 1
    harness.recover(1)
    # A late report about the corpse cannot fail its replacement.
    assert harness.feed(1, "died", epoch=epoch, reason="late") == []
    assert harness.state(1) == LIVE
    harness.close()


def test_double_failure_of_both_shards():
    harness = Harness()
    inflight = [harness.submit(offset) for offset in range(4)]
    harness.fail(0)
    harness.fail(1, "hang")
    assert harness.submit() is None
    assert all(future.resolutions for _, future in inflight)
    harness.recover(1)
    assert harness.submit()[0] == 1
    harness.recover(0)
    assert harness.table.live() == [0, 1]
    harness.close()
