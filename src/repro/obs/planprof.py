"""Opt-in per-op profiling of compiled plan execution.

A :class:`PlanProfiler` hangs off :meth:`InferencePlan.execute
<repro.runtime.plan.InferencePlan.execute>` (plumbed through
:class:`~repro.runtime.engine.InferenceEngine` and
:class:`~repro.runtime.BatchedPredictor`): every executed step records its
wall time into a per-step fixed-bucket histogram and its bytes moved
(inputs read + output written) into a per-step counter — all
:mod:`repro.obs.metrics` instruments, so recording is lock-free per thread
and safe under the engine's chunk thread pool.

With no profiler attached the executor pays a single ``is not None`` test
per step; profiling is strictly opt-in (``plan_stats --profile``, or
``BatchedPredictor(..., profile=True)``), because a per-step
``perf_counter`` pair is real overhead on microsecond kernels.

The profile surfaces as a per-op table (:meth:`PlanProfiler.table`): one row
per plan step in execution order, named relative to its plan (e.g.
``blocks.3.dw``), plus an aggregate per op kind.  The kind is the op,
except that convolutions the depthwise kernel runs (one input channel per
group, see :attr:`Step.kind <repro.runtime.plan.Step.kind>`) aggregate as
``depthwise``, apart from the GEMM convolutions.  Those depthwise steps and
the conv epilogues after the GEMMs run in the C kernels of
:mod:`repro.runtime.native` when that library loads and in NumPy when it
does not, so the table times whichever path ran; ``plan_stats`` prints
which one (``native_kernels``).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

#: Per-step wall-time buckets (seconds): compiled steps run from a few
#: microseconds (requantize on a tiny map) to tens of milliseconds (a fat
#: im2col GEMM), so the grid is geometric from 10 us to 1 s.
STEP_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0)


class PlanProfiler:
    """Accumulates per-step wall time and bytes moved for one plan scope.

    One profiler may serve several engines (e.g. a predictor's backbone and
    FCR plans): steps are keyed by ``(plan_name, step_index)``, and the
    instruments live in the profiler's :class:`MetricsRegistry` under
    ``plan.<plan>.<index>.<op>.{seconds,bytes}``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: (plan, index) -> (op, name, seconds-histogram, bytes-counter,
        #: calls-counter, kind)
        self._steps: Dict[Tuple[str, int], tuple] = {}
        self._order: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    def record(self, plan_name: str, index: int, op: str, name: str,
               seconds: float, bytes_moved: int, kind: str) -> None:
        key = (plan_name, index)
        entry = self._steps.get(key)
        if entry is None:
            with self._lock:
                entry = self._steps.get(key)
                if entry is None:
                    prefix = f"plan.{plan_name}.{index:03d}.{op}"
                    entry = (op, name,
                             self.registry.histogram(f"{prefix}.seconds",
                                                     STEP_TIME_BUCKETS),
                             self.registry.counter(f"{prefix}.bytes"),
                             self.registry.counter(f"{prefix}.calls"),
                             kind)
                    self._steps[key] = entry
                    self._order.append(key)
        entry[2].observe(seconds)
        entry[3].inc(bytes_moved)
        entry[4].inc()

    # ------------------------------------------------------------------
    def rows(self) -> List[dict]:
        """Per-step profile rows in first-execution order."""
        with self._lock:
            order = list(self._order)
            steps = dict(self._steps)
        rows = []
        for plan_name, index in order:
            op, name, hist, nbytes, calls, kind = steps[(plan_name, index)]
            count = max(1, int(calls.value))
            total_s = hist.sum
            rows.append({
                "plan": plan_name,
                "step": index,
                "op": op,
                "kind": kind,
                "name": name,
                "calls": int(calls.value),
                "total_s": total_s,
                "mean_us": total_s / count * 1e6,
                "p99_us": hist.quantile(0.99) * 1e6,
                "bytes_moved": int(nbytes.value),
                "gb_per_s": (nbytes.value / total_s / 1e9)
                if total_s > 0 else 0.0,
            })
        return rows

    def by_op(self) -> List[dict]:
        """Aggregate rows per op kind, sorted by total time descending."""
        totals: Dict[str, dict] = {}
        for row in self.rows():
            agg = totals.setdefault(row["kind"], {"op": row["kind"], "steps": 0,
                                                "calls": 0, "total_s": 0.0,
                                                "bytes_moved": 0})
            agg["steps"] += 1
            agg["calls"] += row["calls"]
            agg["total_s"] += row["total_s"]
            agg["bytes_moved"] += row["bytes_moved"]
        ranked = sorted(totals.values(), key=lambda a: -a["total_s"])
        grand_total = sum(agg["total_s"] for agg in ranked) or 1.0
        for agg in ranked:
            agg["share"] = agg["total_s"] / grand_total
        return ranked

    def as_dict(self) -> dict:
        return {"steps": self.rows(), "ops": self.by_op()}

    # ------------------------------------------------------------------
    def table(self) -> str:
        """The per-op profile as a fixed-width text table."""
        rows = self.rows()
        if not rows:
            return "# plan profile: no steps recorded"
        names = [row["name"].removeprefix(row["plan"] + ".") for row in rows]
        plan_w = max(len("plan"), *(len(row["plan"]) for row in rows))
        name_w = max(len("name"), *(len(name) for name in names))
        lines = [f"# plan profile: {len(rows)} steps",
                 f"{'plan':<{plan_w}} {'step':>4} {'op':<14} "
                 f"{'name':<{name_w}} "
                 f"{'calls':>6} {'total_ms':>9} {'mean_us':>9} {'p99_us':>9} "
                 f"{'MB_moved':>9} {'GB/s':>6}"]
        for row, name in zip(rows, names):
            lines.append(
                f"{row['plan']:<{plan_w}} {row['step']:>4} {row['op']:<14} "
                f"{name:<{name_w}} {row['calls']:>6} "
                f"{row['total_s'] * 1e3:>9.2f} {row['mean_us']:>9.1f} "
                f"{row['p99_us']:>9.1f} "
                f"{row['bytes_moved'] / 1e6:>9.2f} {row['gb_per_s']:>6.2f}")
        lines.append("")
        lines.append(f"{'op':<14} {'steps':>5} {'calls':>7} {'total_ms':>9} "
                     f"{'share':>6} {'MB_moved':>10}")
        for agg in self.by_op():
            lines.append(f"{agg['op']:<14} {agg['steps']:>5} "
                         f"{agg['calls']:>7} {agg['total_s'] * 1e3:>9.2f} "
                         f"{agg['share'] * 100:>5.1f}% "
                         f"{agg['bytes_moved'] / 1e6:>10.2f}")
        return "\n".join(lines)
