"""Self-healing serving: supervised respawn, hang escalation, journal.

Three layers, cheapest first:

1. **Backoff schedule** — pure math, deterministic under a seed, so the
   supervisor's waits are assertable numbers instead of sleep-and-hope.
2. **learn_class journal** — file-level round-trips, torn-tail tolerance,
   mid-file corruption detection, and bit-exact replay into a fresh
   :class:`ExplicitMemory`.
3. **Live recovery** (spawned workers) — ``max_respawns=0`` preserving the
   old degraded mode, the recovery events of one clean respawn, and a
   worker that dies while bootstrapping failing startup with a typed error
   instead of a hang.  The other recovery behaviours run once each as
   scenarios (``tests/test_scenarios.py``).

The process-spawning tests use a fast zero-jitter backoff and a tight
watchdog so recovery completes in tens of milliseconds of supervisor time;
the generous deadlines only bound CI-machine scheduling noise.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
    snapshot_model,
)
from repro.scenarios.runner import RECOVERY_WINDOW_S, await_recovery
from repro.serve.journal import MAGIC, read_journal, replay
from repro.serve.sharded import ShardedEngine

from test_serve import make_learned_model

#: ``src/`` of this checkout, for the subprocess that imports ``repro``.
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def fast_backoff(seed: int = 0) -> BackoffSchedule:
    return BackoffSchedule(base_s=0.05, cap_s=0.1, jitter=0.0, seed=seed)


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
# SIGKILL respawn, the crash-loop budget, SIGSTOP escalation and journal
# replay through a live server are checked once each, by the kill_recover,
# crash_loop, sigstop_escalation and restart_replay scenarios
# (tests/test_scenarios.py); the transitions behind them are enumerated in
# tests/test_serve_lifecycle.py.
class TestSupervisedRespawn:
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
            deadline = time.monotonic() + RECOVERY_WINDOW_S
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


#: A script that builds a one-worker server with no ``__main__`` guard.
#: Fed to ``python -`` it cannot work under ``spawn``: the worker cannot
#: re-import ``<stdin>`` and dies while bootstrapping.  The parent must
#: raise a typed error promptly, and release every thread and
#: shared-memory segment it started, instead of hanging.  Without shared
#: memory the snapshot is an inline frame larger than the pipe buffer, so
#: its queue's feeder thread is left blocked unless startup drains it.
STDIN_SERVER_SCRIPT = """
import sys
import threading

from repro.core import OFSCIL, OFSCILConfig
from repro.serve import Server

model = OFSCIL.from_registry("mobilenetv2_x4_tiny",
                             OFSCILConfig(backbone="mobilenetv2_x4_tiny"))
try:
    Server(model, num_workers=1, use_shared_memory={shared_memory})
finally:
    others = [thread for thread in threading.enumerate()
              if thread is not threading.main_thread()]
    for thread in others:
        thread.join(timeout=5.0)
    print("threads left:", sorted(thread.name for thread in others
                                  if thread.is_alive()), file=sys.stderr)
"""


class TestStartupFailure:
    @pytest.mark.parametrize("shared_memory", [True, False])
    def test_worker_dying_at_bootstrap_fails_startup_with_typed_error(
            self, tmp_path, shared_memory):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        try:
            result = subprocess.run(
                [sys.executable, "-"],
                input=STDIN_SERVER_SCRIPT.format(shared_memory=shared_memory),
                capture_output=True, text=True, timeout=60, cwd=tmp_path,
                env=env)
        except subprocess.TimeoutExpired:
            pytest.fail("Server startup hung on a worker that died while "
                        "bootstrapping")
        assert result.returncode != 0
        assert ("WorkerDiedError" in result.stderr
                or "RemoteWorkerError" in result.stderr), result.stderr
        assert "threads left: []" in result.stderr, result.stderr
        leaks = [line for line in result.stderr.splitlines()
                 if "resource_tracker" in line and "shared_memory" in line]
        assert leaks == [], result.stderr
