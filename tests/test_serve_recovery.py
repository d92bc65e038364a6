"""Self-healing serving: supervised respawn, hang escalation, journal.

Three layers, cheapest first:

1. **Backoff schedule** — pure math, deterministic under a seed, so the
   supervisor's waits are assertable numbers instead of sleep-and-hope.
2. **learn_class journal** — file-level round-trips, torn-tail tolerance,
   mid-file corruption detection, and bit-exact replay into a fresh
   :class:`ExplicitMemory`.
3. **Live recovery** (spawned workers) — SIGKILL → respawn → resync →
   rejoin, the crash-loop budget's typed give-up, SIGSTOP heartbeat
   escalation, ``max_respawns=0`` preserving the old degraded mode, and
   learn → crash → restore bit parity through a real server.

The process-spawning tests use a fast zero-jitter backoff and a tight
watchdog so recovery completes in tens of milliseconds of supervisor time;
the generous deadlines only bound CI-machine scheduling noise.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.explicit_memory import ExplicitMemory
from repro.serve import (
    BackoffSchedule,
    JournalCorruptError,
    JournalError,
    JournalReplayError,
    LearnJournal,
    RemoteWorkerError,
    Server,
    WorkerDiedError,
    snapshot_model,
)
from repro.serve.journal import MAGIC, read_journal, replay
from repro.serve.sharded import ShardedEngine

from test_serve import IMAGE_SHAPE, make_learned_model

#: Wall-clock bound on one supervised recovery in these tests (fast
#: backoff + spawn + replica restore + resync), generous for loaded CI.
RECOVERY_DEADLINE_S = 60.0


def fast_backoff(seed: int = 0) -> BackoffSchedule:
    return BackoffSchedule(base_s=0.05, cap_s=0.1, jitter=0.0, seed=seed)


def await_recovery(engine, worker: int, old_pid: int,
                   deadline_s: float = RECOVERY_DEADLINE_S) -> float:
    """Poll until ``worker`` is live under a new pid; returns elapsed."""
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        if (worker in engine.live_workers
                and engine.worker_pids[worker] != old_pid):
            return time.monotonic() - started
    raise AssertionError(
        f"worker {worker} not respawned within {deadline_s}s "
        f"(live={engine.live_workers}, gave_up={engine.gave_up_workers})")


# ---------------------------------------------------------------------------
# Backoff schedule (pure math)
# ---------------------------------------------------------------------------
class TestBackoffSchedule:
    def test_zero_jitter_is_exact_capped_exponential(self):
        schedule = BackoffSchedule(base_s=0.25, cap_s=5.0, multiplier=2.0,
                                   jitter=0.0)
        assert [schedule.delay(n) for n in range(1, 7)] \
            == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0]
        assert schedule.delay(100) == 5.0          # cap is a hard ceiling

    def test_seeded_schedules_are_deterministic(self):
        first = BackoffSchedule(seed=7)
        second = BackoffSchedule(seed=7)
        delays = [first.delay(n) for n in range(1, 9)]
        assert delays == [second.delay(n) for n in range(1, 9)]
        # A different seed draws different jitter for at least one attempt.
        third = BackoffSchedule(seed=8)
        assert delays != [third.delay(n) for n in range(1, 9)]

    def test_jitter_only_pulls_down_and_respects_floor(self):
        schedule = BackoffSchedule(base_s=1.0, cap_s=1.0, jitter=0.5, seed=3)
        for _ in range(200):
            delay = schedule.delay(1)
            assert 0.5 <= delay <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="base_s"):
            BackoffSchedule(base_s=0.0)
        with pytest.raises(ValueError, match="cap_s"):
            BackoffSchedule(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError, match="multiplier"):
            BackoffSchedule(multiplier=0.9)
        with pytest.raises(ValueError, match="jitter"):
            BackoffSchedule(jitter=1.0)
        with pytest.raises(ValueError, match="1-based"):
            BackoffSchedule().delay(0)


# ---------------------------------------------------------------------------
# learn_class journal (file-level, no processes)
# ---------------------------------------------------------------------------
def journal_features(class_id: int, dim: int = 6,
                     rows: int = 3) -> np.ndarray:
    rng = np.random.default_rng(500 + class_id)
    return rng.standard_normal((rows, dim)).astype(np.float32)


def write_journal(path, num_classes: int = 3, dim: int = 6,
                  fsync: str = "never") -> ExplicitMemory:
    """Journal ``num_classes`` updates write-ahead while applying them to a
    reference memory, exactly like ``Server.learn_class`` does."""
    memory = ExplicitMemory(dim=dim)
    with LearnJournal(path, fsync=fsync) as journal:
        for class_id in range(num_classes):
            features = journal_features(class_id, dim=dim)
            journal.append(class_id, features, memory.version + 1)
            memory.update_class(class_id, features)
    return memory


class TestJournal:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=4)
        records = list(read_journal(path))
        assert [record.class_id for record in records] == [0, 1, 2, 3]
        assert [record.version for record in records] == [1, 2, 3, 4]
        for record in records:
            np.testing.assert_array_equal(
                record.features, journal_features(record.class_id))
            assert record.features.dtype == np.float32

    def test_replay_reconstructs_memory_bit_for_bit(self, tmp_path):
        path = tmp_path / "learn.journal"
        original = write_journal(path, num_classes=4)
        restored = ExplicitMemory(dim=6)
        applied = replay(path, restored)
        assert len(applied) == 4
        assert restored.version == original.version
        assert restored._counts == original._counts
        matrix, ids = restored.prototype_matrix()
        ref_matrix, ref_ids = original.prototype_matrix()
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(matrix, ref_matrix)

    def test_replay_is_idempotent_and_resumes_partially(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=3)
        memory = ExplicitMemory(dim=6)
        # A memory already holding the first update skips it and applies
        # the rest — the respawned-mid-broadcast case.
        memory.update_class(0, journal_features(0))
        applied = replay(path, memory)
        assert [record.class_id for record in applied] == [1, 2]
        # A second replay applies nothing at all.
        assert replay(path, memory) == []

    def test_replay_version_gap_is_typed(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=2)
        stale = ExplicitMemory(dim=6)
        stale._version = -3                 # journal starts at v1: gap
        with pytest.raises(JournalReplayError, match="cannot follow"):
            replay(path, stale)

    def test_torn_tail_is_discarded_silently(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=3)
        intact = path.read_bytes()
        # Crash mid-append: truncate into the final record's payload.
        path.write_bytes(intact[:-7])
        records = list(read_journal(path))
        assert [record.class_id for record in records] == [0, 1]
        # The torn journal still replays the intact prefix.
        memory = ExplicitMemory(dim=6)
        assert len(replay(path, memory)) == 2

    def test_midfile_corruption_is_typed(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=3)
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 12] ^= 0xFF       # flip a byte in record 0
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="checksum"):
            list(read_journal(path))

    def test_missing_magic_is_typed(self, tmp_path):
        path = tmp_path / "not-a-journal.bin"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(JournalCorruptError, match="magic"):
            list(read_journal(path))
        # Opening a corrupt file for append fails at open, not at restore.
        with pytest.raises(JournalCorruptError):
            LearnJournal(path)

    def test_reopen_appends_and_preserves_records(self, tmp_path):
        path = tmp_path / "learn.journal"
        write_journal(path, num_classes=2)
        with LearnJournal(path) as journal:
            journal.append(7, journal_features(7), 3)
        assert [record.class_id for record in read_journal(path)] \
            == [0, 1, 7]

    def test_fsync_policies_and_closed_writes(self, tmp_path):
        for policy in ("always", "interval", "never"):
            path = tmp_path / f"{policy}.journal"
            with LearnJournal(path, fsync=policy) as journal:
                journal.append(0, journal_features(0), 1)
            assert len(list(read_journal(path))) == 1
        with pytest.raises(ValueError, match="fsync"):
            LearnJournal(tmp_path / "x.journal", fsync="sometimes")
        journal = LearnJournal(tmp_path / "closed.journal")
        journal.close()
        journal.close()                     # idempotent
        with pytest.raises(JournalError, match="closed"):
            journal.append(0, journal_features(0), 1)


# ---------------------------------------------------------------------------
# Live recovery (spawned workers)
# ---------------------------------------------------------------------------
class TestSupervisedRespawn:
    def test_sigkill_respawns_resyncs_and_rejoins(self):
        model, shots = make_learned_model(seed=10)
        expected = model.runtime_predictor().predict(shots)
        with Server(model, num_workers=2, watchdog_interval_s=0.05,
                    respawn_backoff=fast_backoff()) as server:
            server.predict(shots[:8])              # warm both replicas
            engine = server.engine
            old_pid = engine.worker_pids[1]
            os.kill(old_pid, signal.SIGKILL)
            await_recovery(engine, 1, old_pid)
            assert sorted(engine.live_workers) == [0, 1]
            assert engine.restart_counts == [0, 1]
            assert engine.gave_up_workers == []
            # Targeted work proves the replacement resynced its prototype
            # replica (routing parity alone could hide an empty replica).
            labels = engine.submit("predict", (shots[:6], None),
                                   worker=1).result(timeout=60.0)
            np.testing.assert_array_equal(labels, expected[:6])
            report = server.stats_dict(timeout=10.0)
            assert report["dead_workers"] == []
            assert report["worker_failures"] == 1
            assert report["worker_restarts"] == 1
            assert report["restart_counts"] == [0, 1]
            latency = report["last_recovery_latency_s"]
            assert latency is not None and 0.0 < latency < 60.0

    def test_crash_loop_budget_gives_up_with_typed_errors(self):
        # The crash-loop regression pin: kill every incarnation of worker 0
        # and the supervisor must stop at max_respawns, leave the shard
        # terminally dead with coherent stats, and keep the survivor exact.
        model, shots = make_learned_model(seed=10)
        expected = model.runtime_predictor().predict(shots)
        with Server(model, num_workers=2, watchdog_interval_s=0.05,
                    max_respawns=1, respawn_backoff=fast_backoff()) as server:
            engine = server.engine
            server.predict(shots[:8])
            deadline = time.monotonic() + RECOVERY_DEADLINE_S
            while 0 not in engine.gave_up_workers:
                assert time.monotonic() < deadline, \
                    f"budget never exhausted: {engine.restart_counts}"
                if 0 in engine.live_workers:
                    try:
                        os.kill(engine.worker_pids[0], signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.02)
            assert engine.gave_up_workers == [0]
            assert engine.restart_counts[0] <= 1
            with pytest.raises(WorkerDiedError, match="dead"):
                engine.submit("ping", None, worker=0)
            np.testing.assert_array_equal(server.predict(shots), expected)
            report = server.stats_dict(timeout=10.0)
            assert report["gave_up_workers"] == [0]
            assert report["dead_workers"] == [0]
            assert report["live_workers"] == [1]
            assert report["respawns_abandoned"] == 1
            assert report["worker_failures"] >= 2

    def test_hang_escalation_replaces_sigstopped_worker(self):
        model, shots = make_learned_model(seed=10)
        expected = model.runtime_predictor().predict(shots)
        with Server(model, num_workers=2, watchdog_interval_s=0.05,
                    hang_silence_s=0.5,
                    respawn_backoff=fast_backoff()) as server:
            engine = server.engine
            server.predict(shots[:8])
            old_pid = engine.worker_pids[0]
            os.kill(old_pid, signal.SIGSTOP)
            try:
                elapsed = await_recovery(engine, 0, old_pid)
            finally:
                # The corpse was SIGKILLed by escalation; a stray SIGCONT
                # to a recycled pid is harmless, an un-CONTed survivor on a
                # failed test would wedge close().
                for pid in engine.worker_pids:
                    try:
                        os.kill(pid, signal.SIGCONT)
                    except (ProcessLookupError, PermissionError):
                        pass
            assert elapsed > 0.4            # waited out the silence window
            labels = engine.submit("predict", (shots[:6], None),
                                   worker=0).result(timeout=60.0)
            np.testing.assert_array_equal(labels, expected[:6])
            report = server.stats_dict(timeout=10.0)
            assert report["hang_escalations"] == 1
            assert report["worker_restarts"] == 1
            assert report["dead_workers"] == []

    def test_max_respawns_zero_preserves_degraded_mode(self):
        # The pre-supervisor contract, now opt-in: a killed shard stays
        # dead, nothing respawns, survivors serve around the corpse.
        model, shots = make_learned_model(seed=10)
        expected = model.runtime_predictor().predict(shots)
        with Server(model, num_workers=2, watchdog_interval_s=0.05,
                    max_respawns=0) as server:
            engine = server.engine
            server.predict(shots[:8])
            os.kill(engine.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while 0 in engine.live_workers:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            time.sleep(0.5)                 # a respawn would land in here
            assert engine.live_workers == [1]
            assert engine.restart_counts == [0, 0]
            assert engine.gave_up_workers == [0]
            with pytest.raises(RemoteWorkerError, match="dead"):
                engine.submit("ping", None, worker=0)
            np.testing.assert_array_equal(server.predict(shots), expected)
            assert server.stats_dict(timeout=10.0)["worker_restarts"] == 0

    def test_recovery_events_reach_the_listener_in_order(self):
        # The engine's recovery lifecycle is observable: a listener sees
        # failure -> scheduled -> respawned for a single clean recovery.
        model, _ = make_learned_model(seed=10)
        events = []
        engine = ShardedEngine(snapshot_model(model), num_workers=1,
                               watchdog_interval_s=0.05,
                               respawn_backoff=fast_backoff(),
                               recovery_listener=events.append)
        try:
            engine.submit("ping", None).result(timeout=60.0)
            old_pid = engine.worker_pids[0]
            os.kill(old_pid, signal.SIGKILL)
            await_recovery(engine, 0, old_pid)
            # The supervisor thread emits ``respawned`` after it has made
            # the shard routable, so the event can land after the poll
            # above returns: wait for all three within the same deadline.
            deadline = time.monotonic() + RECOVERY_DEADLINE_S
            while len(events) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            kinds = [event["event"] for event in events]
            assert kinds == ["worker_failed", "respawn_scheduled",
                             "respawned"]
            assert events[0]["worker"] == 0
            assert events[-1]["recovery_latency_s"] > 0.0
            engine.submit("ping", None).result(timeout=60.0)
        finally:
            engine.close()


class TestJournalThroughServer:
    def test_learn_crash_restore_bit_parity(self, tmp_path):
        # End to end: journalled learns (one racing a worker crash), full
        # teardown, fresh server restored from the journal alone.
        journal_path = tmp_path / "server.journal"
        model, shots = make_learned_model(seed=10)
        rng = np.random.default_rng(23)
        queries = rng.standard_normal((20, *IMAGE_SHAPE)).astype(np.float32)
        novel = {6: rng.standard_normal((5, *IMAGE_SHAPE)).astype(np.float32),
                 7: rng.standard_normal((5, *IMAGE_SHAPE)).astype(np.float32)}
        with Server(model, num_workers=2, watchdog_interval_s=0.05,
                    respawn_backoff=fast_backoff(),
                    journal_path=journal_path) as server:
            server.predict(queries[:8])
            server.learn_class(novel[6], 6)
            old_pid = server.engine.worker_pids[0]
            os.kill(old_pid, signal.SIGKILL)
            server.learn_class(novel[7], 7)     # races the respawn
            await_recovery(server.engine, 0, old_pid)
            saved_matrix, saved_ids = model.memory.prototype_matrix()
            saved_matrix = saved_matrix.copy()
            saved_version = model.memory.version
            saved_counts = dict(model.memory._counts)
            saved_predictions = server.predict(queries)
        twin, _ = make_learned_model(seed=10)
        with Server(twin, num_workers=1) as restored:
            assert restored.restore(journal_path) == 2
            matrix, ids = twin.memory.prototype_matrix()
            np.testing.assert_array_equal(ids, saved_ids)
            np.testing.assert_array_equal(matrix, saved_matrix)
            assert twin.memory.version == saved_version
            assert dict(twin.memory._counts) == saved_counts
            np.testing.assert_array_equal(restored.predict(queries),
                                          saved_predictions)
            # restore() resynced the workers: served answers above came
            # from replicas at the restored version.
            versions = [record["prototype_version"]
                        for record in restored.worker_stats()]
            assert versions == [twin.memory.version]
