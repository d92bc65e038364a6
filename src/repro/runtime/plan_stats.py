"""Print optimizer + memory-plan statistics for a registry backbone.

CI runs this after the fast suite (``python -m repro.runtime.plan_stats``)
so plan-shape or memory-plan regressions — more steps, fewer fused
epilogues, more arena slots, a bigger peak — are visible in the job log of
every push, not only when a perf floor finally trips.  The report includes
the graph rewrite pipeline's per-rule application counts
(``pass.<rule_name>`` lines, from the optimized plan's ``pass_stats``) and
``compile_cold_ms``, the wall time of compiling and optimizing the backbone
and FCR of a fresh predictor — the guard against cold-compile regressions.

``python -m repro.runtime.plan_stats <backbone> int8`` reports the integer
plan instead: the model is put through the deterministic PTQ recipe (seeded
init, calibration on the synthetic base session, no QAT stages — the same
construction the conformance fixtures use), so the int8 step/fusion/arena
counts of both backbone families are pinned in the job log too.

Flags:

``--profile``
    additionally executes the warm-up batch under a
    :class:`~repro.obs.planprof.PlanProfiler` and appends the per-op profile
    table — wall time, call counts, bytes moved and effective bandwidth.
``--dot``
    print the optimized plan's SSA graph as Graphviz ``dot`` instead of the
    stats table (nodes labeled op/name, edges register + dtype + shape);
    pipe through ``dot -Tsvg`` to render the IR.
``--assert-max-steps N``
    exit non-zero if the optimized plan has more than ``N`` steps — the CI
    gate against rewrite rules silently ceasing to fire.
"""

from __future__ import annotations

import sys
import time

import numpy as np

DEFAULT_BACKBONE = "mobilenetv2_x4_tiny"
WARMUP_SAMPLES = 8


def _build_model(backbone: str, mode: str):
    from ..core import OFSCIL, OFSCILConfig

    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=0)
    if mode == "int8":
        from ..data import build_synthetic_fscil
        from ..quant import QuantizationConfig, quantize_ofscil_model

        benchmark = build_synthetic_fscil("test", seed=0)
        model, _report = quantize_ofscil_model(
            model, benchmark.base_train,
            config=QuantizationConfig(qat_pretrain_epochs=0,
                                      qat_metalearn_iterations=0,
                                      calibration_batches=2,
                                      calibration_batch_size=32))
    elif mode != "float32":
        raise ValueError(f"unknown mode {mode!r}; expected float32 or int8")
    return model


def plan_stats(backbone: str = DEFAULT_BACKBONE,
               mode: str = "float32", profile: bool = False) -> dict:
    """Compile the backbone, serve one batch, and report plan/arena stats."""
    from ..models import get_config
    from .predictor import BatchedPredictor

    model = _build_model(backbone, mode)
    run_mode = getattr(model.config, "runtime_mode", mode)
    started = time.perf_counter()
    predictor = BatchedPredictor(model,
                                 micro_batch=model.config.feature_batch_size,
                                 mode=run_mode, profile=profile)
    predictor.backbone_engine, predictor.fcr_engine
    compile_cold_ms = (time.perf_counter() - started) * 1e3
    size = get_config(backbone).input_size
    # One real batch materialises the recorded-shape memory plan.
    predictor.embed(np.zeros((WARMUP_SAMPLES, 3, size, size),
                             dtype=np.float32))
    engine = predictor.backbone_engine
    plan = engine.plan
    memory_plan = engine.memory_plan
    peak = memory_plan.peak_bytes(engine.micro_batch)
    unplanned = memory_plan.unplanned_bytes(engine.micro_batch)
    stats = {
        "backbone": backbone,
        "mode": predictor.mode,
        "plan_steps": len(plan),
        "fused_steps": plan.num_fused(),
        "integer_steps": plan.num_integer(),
        "arena_slots": memory_plan.num_slots,
        "arena_peak_bytes": peak,
        "arena_unplanned_bytes": unplanned,
        "peak_reduction": round(1.0 - peak / unplanned, 3) if unplanned else 0.0,
        "micro_batch": engine.micro_batch,
        "num_threads": engine.num_threads,
        "compile_cold_ms": round(compile_cold_ms, 2),
    }
    for rule, count in sorted(plan.pass_stats.items()):
        stats[f"pass.{rule}"] = count
    stats["profiler"] = predictor.profiler
    stats["_engine"] = engine
    return stats


def plan_dot(backbone: str = DEFAULT_BACKBONE, mode: str = "float32") -> str:
    """Graphviz dump of the optimized plan's SSA graph (with run shapes)."""
    from .ir import Graph

    stats = plan_stats(backbone, mode)
    engine = stats["_engine"]
    shapes = dict(engine.memory_plan.shapes) if engine.memory_plan else {}
    return Graph.from_plan(engine.plan, shapes=shapes).to_dot()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    profile = "--profile" in argv
    dot = "--dot" in argv
    argv = [arg for arg in argv if arg not in ("--profile", "--dot")]
    max_steps = None
    if "--assert-max-steps" in argv:
        index = argv.index("--assert-max-steps")
        try:
            max_steps = int(argv[index + 1])
        except (IndexError, ValueError):
            print("--assert-max-steps requires an integer", file=sys.stderr)
            return 2
        del argv[index:index + 2]
    backbone = argv[0] if argv else DEFAULT_BACKBONE
    mode = argv[1] if len(argv) > 1 else "float32"
    if dot:
        print(plan_dot(backbone, mode))
        return 0
    stats = plan_stats(backbone, mode, profile=profile)
    profiler = stats.pop("profiler")
    stats.pop("_engine")
    width = max(len(key) for key in stats)
    for key, value in stats.items():
        print(f"{key:<{width}}  {value}")
    if profiler is not None:
        print()
        print(profiler.table())
    if max_steps is not None and stats["plan_steps"] > max_steps:
        print(f"plan_steps regression: {stats['plan_steps']} > "
              f"--assert-max-steps {max_steps}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
