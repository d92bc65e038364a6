"""Print optimizer + memory-plan statistics for a registry backbone.

CI runs this after the fast suite (``python -m repro.runtime.plan_stats``)
so plan-shape or memory-plan regressions — more steps, fewer fused
epilogues, more arena slots, a bigger peak — are visible in the job log of
every push, not only when a perf floor finally trips.  The report includes
each fusion's application count (``pass.<fusion>`` lines, from the
optimized plan's ``pass_stats``) and ``compile_cold_ms``, the wall time of
compiling and optimizing the backbone and FCR of a fresh predictor — the
guard against cold-compile regressions.  ``native_kernels`` says whether
the C kernels of :mod:`repro.runtime.native` ran the plan (``yes``) or the
NumPy fallback did (``no``).  ``engine_check_us`` is the fastest of
:data:`ENGINE_CHECKS` ``backbone_engine`` accesses on the unchanged model:
the staleness check every ``predict`` and ``learn_class`` pays.
``cache_bytes`` is the scratch and arena memory of one execution context
after every batch size from 1 to the micro-batch has run through the
backbone: the bound that memory must not outgrow, whatever the mix of
batch sizes.

``python -m repro.runtime.plan_stats <backbone> int8`` reports the integer
plan instead: the model is put through the deterministic PTQ recipe (seeded
init, calibration on the synthetic base session, no QAT stages — the same
construction the conformance fixtures use), so the int8 step/fusion/arena
counts of every backbone family are pinned in the job log too.
:meth:`InferencePlan.describe() <repro.runtime.plan.InferencePlan.describe>`
lists the optimized plan step by step.

Flags:

``--profile``
    additionally executes the warm-up batch under a
    :class:`~repro.obs.planprof.PlanProfiler` and appends the per-op profile
    table — wall time, call counts, bytes moved and effective bandwidth.
``--assert-max-steps N``
    exit non-zero if the optimized plan has more than ``N`` steps — the CI
    gate against a fusion silently ceasing to fire.

An unknown argument exits 2, so a mistyped gate fails instead of being
ignored.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

DEFAULT_BACKBONE = "mobilenetv2_x4_tiny"
WARMUP_SAMPLES = 8
ENGINE_CHECKS = 200


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
    from . import native
    from .engine import InferenceEngine
    from .predictor import BatchedPredictor

    # Load (or build) the C kernels before anything is timed or profiled.
    native_kernels = "yes" if native.available() else "no"
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
    checks = []
    for _ in range(ENGINE_CHECKS):
        started = time.perf_counter()
        predictor.backbone_engine
        checks.append(time.perf_counter() - started)
    plan = engine.plan
    memory_plan = engine.memory_plan
    peak = memory_plan.peak_bytes(engine.micro_batch)
    unplanned = memory_plan.unplanned_bytes(engine.micro_batch)
    # A second, unprofiled one-thread engine over the same plan runs every
    # batch size, so the --profile table still covers the warm-up alone.
    bound = InferenceEngine(plan, micro_batch=engine.micro_batch,
                            num_threads=1)
    images = np.zeros((engine.micro_batch, 3, size, size), dtype=np.float32)
    for batch in range(1, engine.micro_batch + 1):
        bound.run(images[:batch])
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
        "cache_bytes": bound.cache_bytes,
        "micro_batch": engine.micro_batch,
        "num_threads": engine.num_threads,
        "compile_cold_ms": round(compile_cold_ms, 2),
        "engine_check_us": round(min(checks) * 1e6, 2),
        "native_kernels": native_kernels,
    }
    for fusion, count in sorted(plan.pass_stats.items()):
        stats[f"pass.{fusion}"] = count
    stats["profiler"] = predictor.profiler
    return stats


def main(argv=None) -> int:
    # No abbreviations: ``--assert-max-step`` must not pass for the gate.
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.plan_stats",
        description="Optimizer and memory-plan statistics of a backbone.",
        allow_abbrev=False)
    parser.add_argument("backbone", nargs="?", default=DEFAULT_BACKBONE)
    parser.add_argument("mode", nargs="?", default="float32",
                        choices=("float32", "int8"))
    parser.add_argument("--profile", action="store_true",
                        help="append the per-op profile table")
    parser.add_argument("--assert-max-steps", type=int, metavar="N",
                        help="exit 1 if the optimized plan has more than N "
                             "steps")
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:             # --help, or a usage error (2)
        return stop.code
    stats = plan_stats(args.backbone, args.mode, profile=args.profile)
    profiler = stats.pop("profiler")
    width = max(len(key) for key in stats)
    for key, value in stats.items():
        print(f"{key:<{width}}  {value}")
    if profiler is not None:
        print()
        print(profiler.table())
    max_steps = args.assert_max_steps
    if max_steps is not None and stats["plan_steps"] > max_steps:
        print(f"plan_steps regression: {stats['plan_steps']} > "
              f"--assert-max-steps {max_steps}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
