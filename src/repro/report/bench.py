"""Benchmark artefact files with an append-only run history.

The perf-regression harnesses (``tests/test_runtime_perf.py``,
``tests/test_serve_perf.py``) record their measurements in JSON files at the
repository root.  Overwriting a single record on every run made the bench
trajectory invisible; :func:`append_bench_record` keeps a bounded history
instead::

    {
      "latest":  {...most recent record...},
      "history": [{...oldest...}, ..., {...most recent...}]
    }

Legacy single-record files (the pre-history format) are migrated in place:
the old record becomes the first history entry.
"""

from __future__ import annotations

import ctypes
import json
import os
from pathlib import Path
from typing import Optional

#: Default cap on retained history entries per bench file.
DEFAULT_HISTORY_LIMIT = 100


def load_bench(path) -> dict:
    """Read a bench file into ``{"latest": ..., "history": [...]}`` form.

    Missing, unreadable, or legacy files normalise into the same shape so
    callers never branch on the on-disk format.
    """
    path = Path(path)
    if not path.exists():
        return {"latest": None, "history": []}
    try:
        data = json.loads(path.read_text())
    except (ValueError, OSError):
        return {"latest": None, "history": []}
    if not isinstance(data, dict):
        return {"latest": None, "history": []}
    if "history" in data:
        history = [entry for entry in data.get("history", [])
                   if isinstance(entry, dict)]
        latest = data.get("latest") or (history[-1] if history else None)
        return {"latest": latest, "history": history}
    if data:                               # legacy single-record file
        return {"latest": data, "history": [data]}
    return {"latest": None, "history": []}


def append_bench_record(path, record: dict,
                        limit: Optional[int] = DEFAULT_HISTORY_LIMIT) -> dict:
    """Append ``record`` to the bench file at ``path`` and return the data.

    Args:
        path: JSON file location (created if missing).
        record: the new measurement; becomes ``latest`` and the last
            ``history`` entry.
        limit: maximum history entries to retain (oldest dropped first);
            ``None`` keeps everything.
    """
    data = load_bench(path)
    data["history"].append(record)
    if limit is not None and len(data["history"]) > limit:
        # NB: a plain [-limit:] slice would keep everything at limit=0.
        data["history"] = data["history"][-limit:] if limit > 0 else []
    data["latest"] = record
    Path(path).write_text(json.dumps(data, indent=2) + "\n")
    return data


def load_keyed_bench(path) -> dict:
    """Read a *keyed* bench file: ``{key: {"latest", "history"}}``.

    The multi-trend variant used by ``BENCH_scenarios.json``, where each
    scenario keeps its own independent trend in one file.  Missing or
    unreadable files normalise to ``{}``; malformed per-key entries
    normalise the same way :func:`load_bench` does.
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
    """Append ``record`` under ``key`` in a keyed bench file.

    Same semantics as :func:`append_bench_record`, but the file holds one
    ``{"latest", "history"}`` trend per key, so e.g. every scenario in a
    matrix run accumulates its own history side by side.
    """
    data = load_keyed_bench(path)
    entry = data.setdefault(key, {"latest": None, "history": []})
    entry["history"].append(record)
    if limit is not None and len(entry["history"]) > limit:
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
