"""Batched inference runtime: compiled op plans + fused NumPy kernels.

The training side of the reproduction runs on the autograd substrate in
:mod:`repro.nn`; this package is the deploy-time counterpart.  A model is
*compiled* once into a flat op plan (batch norm folded into convolutions,
activations fused into their producers, no gradient tape) and then executed
by a micro-batching engine with reusable im2col buffers.

Typical use::

    from repro.runtime import BatchedPredictor

    predictor = BatchedPredictor(model)          # compile once
    labels = predictor.predict(images)           # whole session in one shot
    sims, ids = predictor.similarities(images)

Parity against the eager path is checked with
:func:`repro.runtime.compare.assert_parity`.
"""

from .compare import (
    DEFAULT_ATOL,
    ParityReport,
    assert_parity,
    compare_with_eager,
)
from .compiler import (
    MODES,
    Int8CompilationError,
    bn_scale_shift,
    compile_backbone,
    compile_module,
    fold_conv_bn,
    has_hooks,
)
from .engine import DEFAULT_MICRO_BATCH, InferenceEngine, default_num_threads
from .kernels import BufferCache
from .optimizer import MemoryPlan, optimize_plan, plan_memory
from .plan import InferencePlan, Step
from .predictor import BatchedPredictor

__all__ = [
    "InferencePlan",
    "Step",
    "MODES",
    "Int8CompilationError",
    "compile_module",
    "compile_backbone",
    "fold_conv_bn",
    "bn_scale_shift",
    "has_hooks",
    "InferenceEngine",
    "DEFAULT_MICRO_BATCH",
    "default_num_threads",
    "BufferCache",
    "MemoryPlan",
    "optimize_plan",
    "plan_memory",
    "BatchedPredictor",
    "ParityReport",
    "compare_with_eager",
    "assert_parity",
    "DEFAULT_ATOL",
]
