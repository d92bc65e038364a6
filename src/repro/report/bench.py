"""Benchmark artefact files with an append-only run history per key.

The perf-regression harnesses (``tests/test_runtime_perf.py``,
``tests/test_serve_perf.py``) and the scenario matrix record their
measurements in JSON files at the repository root.  Each file holds one
bounded trend per record kind (a bench section or a scenario), so the bench
trajectory across commits stays visible::

    {
      "<key>": {
        "latest":  {...most recent record...},
        "history": [{...oldest...}, ..., {...most recent...}]
      },
      ...
    }
"""

from __future__ import annotations

import ctypes
import json
import os
from pathlib import Path
from typing import Optional

#: Default cap on retained history entries per key.
DEFAULT_HISTORY_LIMIT = 100


def load_keyed_bench(path) -> dict:
    """Read a bench file: ``{key: {"latest", "history"}}``.

    Missing or unreadable files normalise to ``{}``.  Non-dict keys and
    history entries are dropped, a missing ``latest`` is the last history
    entry, and a missing ``history`` is empty, so callers never branch on
    a half-written file.
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except (ValueError, OSError):
        return {}
    if not isinstance(data, dict):
        return {}
    keyed = {}
    for key, entry in data.items():
        if not isinstance(entry, dict):
            continue
        history = [item for item in entry.get("history", [])
                   if isinstance(item, dict)]
        latest = entry.get("latest") or (history[-1] if history else None)
        keyed[key] = {"latest": latest, "history": history}
    return keyed


def append_keyed_bench_record(path, key: str, record: dict,
                              limit: Optional[int] = DEFAULT_HISTORY_LIMIT
                              ) -> dict:
    """Append ``record`` under ``key`` in the bench file at ``path``.

    Args:
        path: JSON file location (created if missing).
        key: the trend the record belongs to (a bench section or a
            scenario name); the other keys are kept as they are.
        record: the new measurement; becomes the key's ``latest`` and its
            last ``history`` entry.
        limit: maximum history entries to retain per key (oldest dropped
            first); ``None`` keeps everything.

    Returns the whole file's data.
    """
    data = load_keyed_bench(path)
    entry = data.setdefault(key, {"latest": None, "history": []})
    entry["history"].append(record)
    if limit is not None and len(entry["history"]) > limit:
        # NB: a plain [-limit:] slice would keep everything at limit=0.
        entry["history"] = entry["history"][-limit:] if limit > 0 else []
    entry["latest"] = record
    Path(path).write_text(json.dumps(data, indent=2) + "\n")
    return data


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS NumPy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_record() -> dict:
    """The host's usable cores and BLAS threads, for a bench record.

    A throughput ratio means little without the parallelism it ran with.
    ``perfbench/run.py`` records the same two numbers through its own copy
    of :func:`blas_threads`.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count()
    return {"cores": cores, "blas_threads": blas_threads()}


def cpu_jiffies() -> Optional[tuple]:
    """``(total, steal)`` of the ``cpu`` line of ``/proc/stat``, or None.

    Guest time is already counted in user time, so the total is the sum of
    the first eight fields; steal is the eighth.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7]


def steal_share(before, after) -> Optional[float]:
    """Share of the host's CPU time the hypervisor stole between two
    :func:`cpu_jiffies` reads: a slow repeat can then be told from a slow
    host."""
    if before is None or after is None or after[0] <= before[0]:
        return None
    return round((after[1] - before[1]) / (after[0] - before[0]), 4)
