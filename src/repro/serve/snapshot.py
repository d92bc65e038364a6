"""Picklable snapshots of compiled inference state.

The runtime's :class:`~repro.runtime.plan.InferencePlan` is *almost*
picklable: conv steps carry only folded weight arrays, but ``linear`` steps
read their weights from the live module at execution time and ``opaque``
steps call the module eagerly.  Neither survives a process boundary, so the
serving layer snapshots a plan into a fully module-ref-free form:

* ``linear`` steps freeze the current weight/bias into the step arrays (the
  executor falls back to the frozen arrays when no module is attached);
* ``opaque`` steps are recompiled and inlined when possible (e.g. a module
  whose forward hooks were removed after the original compile) and otherwise
  raise :class:`PlanSerializationError` with an actionable message — a plan
  must never silently change semantics when it is shipped to a worker.

:func:`snapshot_model` bundles the backbone and FCR plans of an O-FSCIL
model together with the normalised prototype state of its explicit memory
(:class:`PrototypeState`, keyed by ``ExplicitMemory.version``) into a
:class:`ModelSnapshot` — everything a worker process needs to serve
``predict`` / ``similarities`` on its own.

Snapshots and prototype states are the *control-plane* payloads of the
serving transport: they cross process boundaries as pickle (at worker
startup and on ``set_prototypes`` broadcasts), while per-request tensor
traffic rides the zero-copy shared-memory rings in
:mod:`repro.serve.transport` — pickling here is a deliberate choice for
rich, rarely-shipped objects, not the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.compiler import compile_module, has_hooks
from ..runtime.kernels import normalize_prototypes
from ..runtime.optimizer import MemoryPlan
from ..runtime.plan import InferencePlan, Step


class PlanSerializationError(RuntimeError):
    """A plan cannot be snapshotted without changing its semantics."""


# ---------------------------------------------------------------------------
# Prototype state
# ---------------------------------------------------------------------------
@dataclass
class PrototypeState:
    """Normalised prototype matrix of an explicit memory, at one version.

    ``matrix_normed`` is produced by the same
    :func:`~repro.runtime.kernels.normalize_prototypes` helper the
    :class:`~repro.runtime.predictor.BatchedPredictor` cache uses, so worker
    replicas and the in-process predictor serve bit-identical scores.
    """

    matrix_normed: np.ndarray      # (num_classes, dim) float32, rows unit-norm
    ids: np.ndarray                # (num_classes,) int64
    version: int

    @property
    def num_classes(self) -> int:
        return int(self.ids.shape[0])

    def select(self, class_ids: Optional[Sequence[int]]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Restrict the matrix to ``class_ids`` (order-preserving)."""
        if class_ids is None:
            return self.matrix_normed, self.ids
        index = {int(c): i for i, c in enumerate(self.ids)}
        try:
            rows = [index[int(c)] for c in class_ids]
        except KeyError as exc:
            raise KeyError(f"class {exc.args[0]} is not stored in the "
                           f"prototype state (version {self.version})") from exc
        return self.matrix_normed[rows], self.ids[rows]


def snapshot_prototypes(memory) -> PrototypeState:
    """Freeze an :class:`~repro.core.explicit_memory.ExplicitMemory`."""
    matrix, ids = memory.prototype_matrix()
    return PrototypeState(matrix_normed=normalize_prototypes(matrix),
                          ids=ids, version=memory.version)


# ---------------------------------------------------------------------------
# Plan snapshots
# ---------------------------------------------------------------------------
@dataclass
class PlanSnapshot:
    """A module-ref-free :class:`InferencePlan`, safe to pickle.

    Optimized plans snapshot with their optimization state and (when the
    source engine has served traffic) the arena :class:`MemoryPlan`, so a
    worker restoring the snapshot executes the identical step sequence in
    the identical memory layout without replanning.
    """

    steps: List[Step]
    input_register: str
    output_register: str
    name: str
    optimized: bool = False
    memory_plan: Optional[MemoryPlan] = None
    #: fusion application counts of the optimized plan; carried so a
    #: restoring worker's ``opt_rule_applications`` gauges report the same
    #: statistics as the coordinator that compiled the plan.
    pass_stats: Optional[dict] = None

    def restore(self) -> InferencePlan:
        """Rebuild an executable plan (arrays are shared, not copied)."""
        return InferencePlan(steps=list(self.steps),
                             input_register=self.input_register,
                             output_register=self.output_register,
                             name=self.name,
                             optimized=self.optimized,
                             pass_stats=dict(self.pass_stats or {}))

    def restore_memory_plan(self) -> Optional[MemoryPlan]:
        """Arena spec captured with the plan (None if none was captured)."""
        return self.memory_plan

    def __len__(self) -> int:
        return len(self.steps)


def snapshot_plan(plan: InferencePlan,
                  memory_plan: Optional[MemoryPlan] = None) -> PlanSnapshot:
    """Snapshot ``plan`` into a fully picklable form.

    Raises:
        PlanSerializationError: if the plan contains an opaque step that has
            no compiled equivalent (hooked or unknown modules).
    """
    steps: List[Step] = []
    inlined = False
    for step in plan.steps:
        if step.op == "opaque":
            steps.extend(_inline_opaque(step))
            inlined = True
        elif step.module is not None:
            if step.op != "linear":
                raise PlanSerializationError(
                    f"step {step.name!r} ({step.op}) carries an unexpected "
                    f"live module reference")
            steps.append(_freeze_linear(step))
        else:
            steps.append(step)
    if inlined:
        # Inlining renames registers and introduces steps the optimizer has
        # never seen: the memory plan recorded against the original plan no
        # longer applies, and the optimized flag must not carry over (it
        # would permanently exempt the inlined steps from the passes).
        # Workers re-optimize and replan on first use.
        memory_plan = None
    return PlanSnapshot(steps=steps, input_register=plan.input_register,
                        output_register=plan.output_register, name=plan.name,
                        optimized=plan.optimized and not inlined,
                        memory_plan=memory_plan,
                        pass_stats=None if inlined
                        else dict(plan.pass_stats))


def _freeze_linear(step: Step) -> Step:
    module = step.module
    arrays = {"weight": module.weight.data.copy()}
    if module.bias is not None:
        arrays["bias"] = module.bias.data.copy()
    return Step(op="linear", name=step.name, inputs=step.inputs,
                output=step.output, arrays=arrays, attrs=dict(step.attrs),
                module=None)


def _inline_opaque(step: Step) -> List[Step]:
    """Replace an opaque step by the compiled plan of its module.

    Opaque steps exist for two reasons: the module (sub)tree carried forward
    hooks when the plan was compiled, or the compiler did not know the module
    type.  Hooks are arbitrary callables with side effects — they cannot
    cross a process boundary, so they are a hard error.  A module whose hooks
    have been removed since (e.g. fake-quantisation probes detached for
    deployment) recompiles cleanly and is inlined instead.
    """
    module = step.module
    if has_hooks(module):
        raise PlanSerializationError(
            f"step {step.name!r} wraps a module with forward hooks; hooks "
            f"(e.g. activation fake-quantisation probes) cannot be shipped "
            f"to worker processes — remove them before serving")
    sub = compile_module(module, step.name)
    still_opaque = [s.name for s in sub.steps if s.op == "opaque"]
    if still_opaque:
        raise PlanSerializationError(
            f"step {step.name!r} contains module(s) {still_opaque} with no "
            f"compiled equivalent; add a lowering rule or replace them "
            f"before serving")
    frozen = snapshot_plan(sub)
    if not frozen.steps:
        # Identity sub-plan (e.g. a bare Dropout): emit an explicit copy so
        # the parent's output register still gets written.
        return [Step(op="act", name=step.name, inputs=step.inputs,
                     output=step.output, attrs={"act": None})]

    def rename(register: str) -> str:
        if register == frozen.input_register:
            return step.inputs[0]
        if register == frozen.output_register:
            return step.output
        return f"{step.output}:{register}"

    return [Step(op=s.op, name=s.name,
                 inputs=tuple(rename(r) for r in s.inputs),
                 output=rename(s.output), arrays=s.arrays, attrs=s.attrs,
                 module=None)
            for s in frozen.steps]


# ---------------------------------------------------------------------------
# Model snapshots
# ---------------------------------------------------------------------------
@dataclass
class ModelSnapshot:
    """Everything a worker needs to serve an O-FSCIL model replica."""

    backbone: PlanSnapshot         # images -> theta_a
    fcr: PlanSnapshot              # theta_a -> theta_p
    prototypes: PrototypeState
    micro_batch: int
    relu_sharpening: bool
    backbone_name: str
    #: numeric mode of the compiled plans ("float32" or "int8"); workers pick
    #: the matching prototype-similarity kernel so every replica answers with
    #: the same arithmetic as the coordinator's predictor.
    mode: str = "float32"


def snapshot_model(model, micro_batch: Optional[int] = None) -> ModelSnapshot:
    """Snapshot an :class:`~repro.core.ofscil.OFSCIL` model for serving.

    The plans are taken from the model's cached
    :class:`~repro.runtime.BatchedPredictor` (compiling it if needed), so
    the snapshot captures exactly what the in-process serving path executes —
    including the integer lowering when the model runs in int8 mode (whose
    ``quantize``/``requantize``/``qconv`` steps are plain array/attr steps,
    so int8 plans snapshot without any special casing).
    """
    predictor = model.runtime_predictor()
    return ModelSnapshot(
        backbone=snapshot_plan(predictor.backbone_engine.plan,
                               predictor.backbone_engine.memory_plan),
        fcr=snapshot_plan(predictor.fcr_engine.plan,
                          predictor.fcr_engine.memory_plan),
        prototypes=snapshot_prototypes(model.memory),
        micro_batch=micro_batch or predictor.micro_batch,
        relu_sharpening=bool(getattr(model.config, "relu_sharpening", False)),
        backbone_name=str(getattr(model.config, "backbone", "")),
        mode=predictor.mode)
