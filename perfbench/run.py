"""Benchmark of the O-FSCIL system: online class learning, evaluation against
the grown explicit memory, and serving with learning beside the queries.

Run from the repository root::

    python3 perfbench/run.py --workload offline_f32 --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``offline_f32``  - FSCIL protocol + single-image query ladder on one
  in-process float32 ``BatchedPredictor`` (see ``offline.py``);
* ``offline_int8`` - the same on the int8 conformance model;
* ``serve_mixed``  - a two-worker ``Server``: open-loop submits over a rate
  ladder, a journalled learn stream beside them, then synchronous batches
  (see ``serving.py``).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps each
layer's public calls from the outside and prints the per-layer metrics, the
stage-sum checks and the traced end-to-end numbers (``traced.*``).  Output
checks run outside the timed regions; a failed check exits with code 1.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, host included,
is written to ``perfbench/results/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("offline_f32", "offline_int8", "serve_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads():
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


def git_commit():
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(args, result):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "engine_threads": result["report"].get("engine_threads"),
        "num_workers": result["report"].get("num_workers"),
        "git_commit": git_commit(),
        "seed": args.seed,
    }


def import_seconds(paths, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the benchmark's
    modules (and through them numpy and repro): the process-start share of
    set-up, measured in child processes that each run to completion."""
    code = ("import sys; sys.path[:0] = %r; import offline, serving" %
            [str(path) for path in paths])
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def child_pids() -> list:
    """Pids of every live or unreaped process whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process this one started, so none outlives it.

    Server workers are closed by the workload itself; this catches what a
    failed run left behind, and multiprocessing's resource tracker, which
    otherwise lingers until it notices that its parent has exited.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # Queues and shared memory of closed servers release their semaphores
    # and segments in finalizers, which must run while the tracker is up.
    gc.collect()
    util._exit_function()
    # Closing the tracker's pipe makes it exit; the call waits for it.
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    for pid in child_pids():
        try:
            while time.monotonic() < deadline:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
                time.sleep(0.01)
            else:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from a full checkout of the repository "
              "(src/repro and BENCHMARK.json are required)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # The int8 workload builds its model with the conformance recipe of the
    # golden fixtures, so both always describe the same model.
    paths = [HERE, ROOT / "src", ROOT / "tests"]
    sys.path[1:1] = [str(path) for path in paths[1:]]
    import common
    import offline
    import serving

    import_s = import_seconds(paths)
    RESULTS.mkdir(exist_ok=True)
    trace = bool(args.trace)
    inputs = common.make_inputs(args.seed)
    if args.workload == "serve_mixed":
        result = serving.run(inputs, args.seconds, trace, RESULTS)
    else:
        mode = "int8" if args.workload == "offline_int8" else "float32"
        result = offline.run(mode, inputs, args.seconds, trace)

    e2e = dict(result["metrics"])
    # Set-up runs from process start: interpreter start and imports, then
    # model build, compile (and quantize, or snapshot and spawn) to the
    # first answer, each the median of several repeats.
    e2e["setup_s"] += import_s
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        # Figures too unsteady for an end-to-end bound (the p99 tails) are
        # reported per layer under their own names.
        values = {**e2e, **result["layer"]}
        values.update({f"traced.{name}": value for name, value in e2e.items()})
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    # A layer a workload never calls did no work: its figures read 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    valid = result["lag_ms_p99"] <= common.MAX_LAG_P99_MS
    correct = all(result["checks"].values())
    # Failed, shed and wrong answers against operations attempted.
    error_rate = (result["failed"] + result.get("shed", 0)) \
        / result["attempted"]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": trace,
        "host": host_record(args, result), "import_s": import_s,
        "valid": valid, "lag_ms_p99": result["lag_ms_p99"],
        "checks": result["checks"], "error_rate": error_rate,
        "attempted": result["attempted"], "failed": result["failed"],
        "end_to_end": e2e, "per_layer": result["layer"],
        "detail": result["report"],
    }
    untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
    if trace and untraced.exists():
        base = json.loads(untraced.read_text())["end_to_end"]
        record["trace_overhead"] = {name: e2e[name] - base[name]
                                    for name in e2e if name in base}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    for name, check in result["checks"].items():
        print(f"check {name}: {'ok' if check else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {error_rate:.6g} (failed + shed + wrong, "
          f"of {result['attempted']} attempted)")
    for name, delta in record.get("trace_overhead", {}).items():
        print(f"trace overhead {name}: {delta:+.6g}")
    if not valid:
        print(f"perfbench: INVALID run - the generator fell behind by "
              f"{result['lag_ms_p99']:.2f} ms at p99 (bound "
              f"{common.MAX_LAG_P99_MS} ms)", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
