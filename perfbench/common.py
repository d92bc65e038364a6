"""Pieces shared by the workloads: inputs, percentiles, layer timers and the
open-loop query generator.

Everything here lives on the benchmark side of the public API: layers are
timed by wrapping their public callables on the objects the benchmark owns,
never by editing the program.
"""

from __future__ import annotations

import functools
import queue
import statistics
import sys
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data import build_synthetic_fscil

#: The paper's deployed MobileNetV2 x4 stride plan, at the laptop resolution.
BACKBONE = "mobilenetv2_x4_tiny"
#: Weight seed of the float32 model; the program is fixed, only inputs vary.
MODEL_SEED = 7
#: Images per class in every evaluation query set.
QUERIES_PER_CLASS = 16
SHOTS = 5

#: Untimed work each run does before its timed phases, so lazy set-up and
#: the host's own ramp-up after idling are not measured.
WARMUP_S = 2.0

#: Latency limit of ``max_rate_within_slo``: a query answered later than
#: this after it was due (or shed, or failed) misses.
LATENCY_LIMIT_MS = 100.0
#: Share of a rung's queries that must meet the limit.
SLO_SHARE = 0.99
#: A rung whose last quarter waits this much longer (median) than its first
#: quarter has a growing backlog, whatever its tail says.
BACKLOG_GROWTH_MS = 0.25 * LATENCY_LIMIT_MS
#: The rungs below the knee run as this many interleaved segments.  Their
#: percentiles are medians over segments: a burst of noise on a shared host
#: moves one segment, not the run's figure.
SEGMENTS = 8
#: A run whose generator sent later than this (p99 over the rungs below the
#: knee) measured its own lateness, not the system: it is marked invalid.
#: A thread waiting for the interpreter lock may wait one switch interval,
#: so the bound is two of them.
MAX_LAG_P99_MS = 2 * sys.getswitchinterval() * 1e3


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@dataclass
class FSCILInputs:
    """The seeded inputs of one run: the FSCIL protocol plus a query pool."""

    base_shots: List[np.ndarray]           # 5 shots for each base class
    sessions: List[tuple]                  # [(class_ids, [shots per class])]
    query_sets: List[tuple]                # [(images, seen class ids)] per session
    query_pool: np.ndarray                 # single-image queries, shuffled
    per_class_test: Dict[int, np.ndarray]  # test images of every class
    rng: np.random.Generator


def make_inputs(seed: int) -> FSCILInputs:
    """60 base classes + 8 sessions of 5-way 5-shot, all drawn from ``seed``."""
    bench = build_synthetic_fscil("laptop", seed=seed,
                                  test_per_class=QUERIES_PER_CLASS)
    rng = np.random.default_rng(seed)
    base = bench.base_train
    base_shots = []
    for class_id in bench.protocol.session_classes(0):
        indices = np.flatnonzero(base.labels == class_id)
        base_shots.append(base.images[rng.choice(indices, SHOTS,
                                                 replace=False)])
    sessions = []
    for session in bench.sessions:
        support = session.support
        shots = [support.images[support.labels == c]
                 for c in session.class_ids]
        sessions.append(([int(c) for c in session.class_ids], shots))
    query_sets = []
    for index in range(bench.protocol.num_sessions + 1):
        test = bench.test_upto(index)
        query_sets.append((test.images,
                           set(int(c) for c in
                               bench.protocol.seen_classes(index))))
    per_class = {int(c): bench.test.images[bench.test.labels == c]
                 for c in np.unique(bench.test.labels)}
    pool = bench.test.images[rng.permutation(len(bench.test))]
    return FSCILInputs(base_shots, sessions, query_sets,
                       np.ascontiguousarray(pool), per_class, rng)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def warm_up(step: Callable[[], object], seconds: float = WARMUP_S) -> None:
    """Repeat ``step`` untimed for ``seconds``."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        step()


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def floor_ms(seconds: Sequence[float]) -> float:
    """The fastest call, in ms.

    On a shared host the speed of a core swings by tens of percent, for
    stretches that can last a whole run, so a run's median depends on the
    mix.  No stretch makes a call faster than the program is, and a learn
    waits on nothing else at best, so the fastest of a few hundred is its
    cost without that interference.
    """
    return float(np.min(seconds)) * 1e3 if len(seconds) else 0.0


def tail_percentile(count: int) -> float:
    """Highest of p99/p90/p50 that has at least ten samples beyond it."""
    for q in (99.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def summarize_ms(seconds: Sequence[float]) -> dict:
    """Median, the supported tail percentile and the count, in ms."""
    values = np.asarray(seconds, dtype=np.float64) * 1e3
    tail = tail_percentile(len(values))
    return {"n": int(len(values)), "p50": percentile(values, 50),
            f"p{tail:g}": percentile(values, tail)}


# ---------------------------------------------------------------------------
# Layer timers (traced runs only)
# ---------------------------------------------------------------------------
class Timer:
    """Durations of every call to one wrapped public callable."""

    def __init__(self):
        self._lock = threading.Lock()
        self.durations: List[float] = []
        self.samples = 0

    def wrap(self, fn: Callable, count_samples: bool = False) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.durations.append(elapsed)
                    if count_samples:
                        self.samples += len(args[0])
        return timed

    def attach(self, owner, name: str, count_samples: bool = False) -> None:
        """Shadow ``owner.name`` with a timed instance attribute."""
        setattr(owner, name, self.wrap(getattr(owner, name), count_samples))

    @property
    def calls(self) -> int:
        return len(self.durations)

    def busy_ms(self, start: int = 0, stop: Optional[int] = None) -> float:
        return float(sum(self.durations[start:stop])) * 1e3

    def p50_ms(self) -> float:
        return percentile(self.durations, 50) * 1e3


# ---------------------------------------------------------------------------
# Open-loop query generator
# ---------------------------------------------------------------------------
class Shed(Exception):
    """Raised by a ``send`` callable when the system refused the query."""


@dataclass
class Rung:
    """One ladder step: a Poisson stream at ``rate`` for ``seconds``."""

    name: str
    rate: float
    seconds: float
    due: np.ndarray = field(default=None, repr=False)
    ready: np.ndarray = field(default=None, repr=False)
    sent: np.ndarray = field(default=None, repr=False)
    done: np.ndarray = field(default=None, repr=False)
    admit: np.ndarray = field(default=None, repr=False)
    labels: np.ndarray = field(default=None, repr=False)
    #: 0 pending, 1 answered, 2 shed, 3 failed
    status: np.ndarray = field(default=None, repr=False)

    OK, SHED, FAILED = 1, 2, 3

    def latencies_s(self) -> np.ndarray:
        """Answer time minus due time of every answered query."""
        ok = self.status == self.OK
        return self.done[ok] - self.due[ok]

    def lag_s(self) -> np.ndarray:
        """The generator's own lateness: send time minus the later of the
        due time and the return of the previous send."""
        return self.sent - self.ready

    def blocked_s(self) -> np.ndarray:
        """Time each send started late because the previous one blocked."""
        return self.ready - self.due

    def within_limit_count(self) -> int:
        return int(np.sum(self.latencies_s() * 1e3 <= LATENCY_LIMIT_MS))

    def backlog_growing(self) -> bool:
        ok = np.flatnonzero(self.status == self.OK)
        if len(ok) < 8:
            return True
        latency = (self.done - self.due)[ok] * 1e3
        quarter = len(ok) // 4
        return bool(np.median(latency[-quarter:]) -
                    np.median(latency[:quarter]) > BACKLOG_GROWTH_MS)

    def meets_slo(self) -> bool:
        attempted = len(self.due)
        return (attempted > 0
                and self.within_limit_count() >= SLO_SHARE * attempted
                and not self.backlog_growing())

    def report(self) -> dict:
        counts = {name: int(np.sum(self.status == code)) for name, code in
                  (("answered", self.OK), ("shed", self.SHED),
                   ("failed", self.FAILED))}
        return {"rate": self.rate, "seconds": self.seconds,
                "attempted": int(len(self.due)), **counts,
                "latency_ms": summarize_ms(self.latencies_s()),
                "lag_ms": summarize_ms(self.lag_s()),
                "blocked_ms": summarize_ms(self.blocked_s()),
                "admit_us_p50": percentile(self.admit, 50) * 1e6,
                "within_limit": self.within_limit_count(),
                "meets_slo": self.meets_slo()}


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson stream, cut at ``seconds``."""
    count = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < seconds]


def run_rung(rung: Rung, rng: np.random.Generator,
             send: Callable[[int], Future],
             drain_timeout_s: float = 60.0) -> None:
    """Send one rung on schedule from the calling thread.

    ``send(i)`` hands query ``i`` to the system and returns a future without
    waiting for the answer (or raises :class:`Shed`).  The generator never
    waits on replies: when it falls behind it sends at once, and the lateness
    shows as lag.  Every query is timed from when it was due.
    """
    offsets = poisson_schedule(rng, rung.rate, rung.seconds)
    count = len(offsets)
    rung.sent = np.zeros(count)
    rung.done = np.full(count, np.nan)
    rung.admit = np.zeros(count)
    rung.labels = np.full(count, -1, dtype=np.int64)
    rung.status = np.zeros(count, dtype=np.int8)
    futures = []

    def finish(index: int, future: Future) -> None:
        rung.done[index] = time.perf_counter()
        if future.exception() is not None:
            rung.status[index] = Rung.FAILED
        else:
            rung.labels[index] = future.result()
            rung.status[index] = Rung.OK

    start = time.perf_counter() + 0.005
    rung.due = start + offsets
    rung.ready = rung.due.copy()
    returned = start
    for index in range(count):
        # A send that blocks inside the system (e.g. ``Server.submit`` behind
        # a prototype broadcast) delays the next one; that delay is the
        # system's and shows in latency, which runs from the due time.  Only
        # lateness beyond it is the generator's own lag.
        rung.ready[index] = max(rung.due[index], returned)
        delay = rung.due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        rung.sent[index] = sent
        try:
            future = send(index)
        except Shed:
            rung.status[index] = Rung.SHED
            continue
        except Exception:  # noqa: BLE001 - counted, the stream goes on
            rung.status[index] = Rung.FAILED
            continue
        finally:
            returned = time.perf_counter()
        rung.admit[index] = returned - sent
        future.add_done_callback(functools.partial(finish, index))
        futures.append(future)
    _, pending = wait(futures, timeout=drain_timeout_s)
    for future in pending:
        future.cancel()
    rung.status[rung.status == 0] = Rung.FAILED


class Device:
    """One serial inference thread answering single-image queries in FIFO
    order: the on-device caller of the offline workloads."""

    def __init__(self, answer: Callable[[np.ndarray], int]):
        self._answer = answer
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._loop,
                                         name="perfbench-device")
        self._thread.start()

    def send(self, image: np.ndarray) -> Future:
        future: Future = Future()
        self._queue.put((image, future))
        return future

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            image, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(self._answer(image))
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                future.set_exception(exc)

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("device thread did not stop")


def ladder_plan(ladder, seconds: float, cycled: Sequence[str]):
    """Rungs in run order: the ``cycled`` rungs (those below the knee) as
    :data:`SEGMENTS` interleaved segments, then every other rung once.
    ``ladder`` holds ``(name, rate, share of seconds)`` triples."""
    rates = {name: (rate, share * seconds) for name, rate, share in ladder}
    first = [Rung(name, rates[name][0], rates[name][1] / SEGMENTS)
             for _ in range(SEGMENTS) for name in cycled]
    rest = [Rung(name, rate, share * seconds)
            for name, rate, share in ladder if name not in cycled]
    return first, rest


def by_name(rungs: Sequence[Rung]) -> Dict[str, List[Rung]]:
    groups: Dict[str, List[Rung]] = {}
    for rung in rungs:
        groups.setdefault(rung.name, []).append(rung)
    return groups


def _latencies_ms(segments: Sequence[Rung]) -> np.ndarray:
    return np.concatenate([rung.latencies_s() for rung in segments]) * 1e3


def ladder_metrics(rungs: Sequence[Rung], low: str, high: str) -> dict:
    """The query metrics of a finished ladder.

    Percentiles of the cycled rungs are medians over their segments; the
    p99 tails pool every segment so that ten samples lie beyond them.
    """
    groups = by_name(rungs)

    def segment_median(name: str, q: float) -> float:
        return statistics.median(percentile(rung.latencies_s() * 1e3, q)
                                 for rung in groups[name])

    best_rate, max_rate = -1.0, 0.0
    for segments in groups.values():
        attempted = sum(len(rung.due) for rung in segments)
        within = sum(rung.within_limit_count() for rung in segments)
        meets = (attempted > 0 and within >= SLO_SHARE * attempted
                 and not any(rung.backlog_growing() for rung in segments))
        if meets and segments[0].rate > best_rate:
            # Goodput of the highest rung that meets the limit: queries per
            # second of schedule actually answered within it.
            best_rate = segments[0].rate
            max_rate = within / sum(rung.seconds for rung in segments)

    return {
        "submit_ms_p50.low": segment_median(low, 50),
        "submit_ms_p90.low": segment_median(low, 90),
        "submit_ms_p99.low": percentile(_latencies_ms(groups[low]), 99),
        "submit_ms_p50.high": segment_median(high, 50),
        "submit_ms_p90.high": segment_median(high, 90),
        "submit_ms_p99.high": percentile(_latencies_ms(groups[high]), 99),
        "max_rate_within_slo": max_rate,
    }


def generator_lag_ms_p99(rungs: Sequence[Rung]) -> float:
    lags = np.concatenate([rung.lag_s() for rung in rungs]) * 1e3
    return percentile(lags, 99)
