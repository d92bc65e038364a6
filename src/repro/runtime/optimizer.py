"""Post-compile plan optimization and arena memory planning.

The compiler (:mod:`repro.runtime.compiler`) emits a faithful flat plan; this
module makes it cheap to execute without moving a single output bit.

* :func:`optimize_plan` — the four int8 fusions of :data:`FUSIONS`, each one
  sweep over the flat step list, run in table order.  A fusion absorbs a
  feeder step into the one step that reads it; a feeder read twice, or
  holding the plan output, is never absorbed.  Fused steps replay the
  fused kernels' arithmetic (see :mod:`repro.runtime.kernels`, whose fused
  paths are literal sequences of the standalone kernels), so the committed
  int8 golden fixtures pin every fusion bit for bit.  Register names and
  step positions survive, so arena plans, snapshots and goldens keyed by
  them stay valid.  The optimized plan carries each fusion's application
  count in ``plan.pass_stats``.
  :class:`~repro.runtime.engine.InferenceEngine` is its one caller in the
  runtime.
* :func:`plan_memory` — a liveness-based arena planner: every step output is
  assigned to one of a small set of reusable slots such that no two
  simultaneously-live registers ever share one.  The executor
  (:meth:`InferencePlan.execute`) then writes kernels straight into slot
  views through their ``out=`` paths, which drops steady-state allocation on
  the plan body to (near) zero and shrinks peak intermediate memory by the
  recorded ``peak_bytes`` / ``unplanned_bytes`` ratio.

Memory planning needs concrete shapes, which depend on the micro-batch; the
engine records them from the first real chunk it executes (no synthetic dry
run — opaque steps may carry observing hooks that must never see fake data)
and plans the arena from the per-sample shapes, which scale linearly with
the batch dimension for every op in the plan vocabulary.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .plan import InferencePlan, Step

#: Ops whose output is a reshaped view of their input: the planner aliases
#: the output onto the input's storage instead of assigning a slot.
ALIAS_OPS = ("flatten",)


# ---------------------------------------------------------------------------
# Fusions
# ---------------------------------------------------------------------------
def _single_use(steps: List[Step], output_register: str,
                op: str) -> Dict[str, Step]:
    """The ``op`` steps a fusion may absorb, keyed by their output register.

    A step qualifies when exactly one read in the plan takes its register
    and that read is not the plan output, so absorbing it into its reader
    loses no value anyone else needs.
    """
    reads = Counter(register for step in steps for register in step.inputs)
    reads[output_register] += 1
    return {step.output: step for step in steps
            if step.op == op and reads[step.output] == 1}


def _apply(steps: List[Step],
           replaced: Dict[int, Optional[Step]]) -> Tuple[List[Step], int]:
    """Swap each step keyed in ``replaced`` (by ``id``) for its value.

    A None value drops the step.  Returns the new step list and the number
    of fused steps written; the raw steps are never mutated.
    """
    fused = [replaced.get(id(step), step) for step in steps]
    return ([step for step in fused if step is not None],
            sum(step is not None for step in replaced.values()))


def _dequantize_into_add(steps: List[Step],
                         output_register: str) -> Tuple[List[Step], int]:
    """``dequantize -> add``: the add dequantizes that int8 operand itself.

    Every operand position fed by an absorbable ``dequantize`` takes the
    codes plus an ``in_scale_<position>`` attr;
    :func:`~repro.runtime.kernels.fused_add` replays
    :func:`~repro.runtime.kernels.dequantize_int8` verbatim.
    """
    feeders = _single_use(steps, output_register, "dequantize")
    replaced: Dict[int, Optional[Step]] = {}
    for step in steps:
        if step.op != "add" or \
                not any(register in feeders for register in step.inputs):
            continue
        inputs, attrs = list(step.inputs), dict(step.attrs)
        for position, register in enumerate(step.inputs):
            feeder = feeders.get(register)
            if feeder is not None:
                inputs[position] = feeder.inputs[0]
                attrs[f"in_scale_{position}"] = feeder.attrs["scale"]
                replaced[id(feeder)] = None
        replaced[id(step)] = dataclasses.replace(step, inputs=tuple(inputs),
                                                 attrs=attrs)
    return _apply(steps, replaced)


def _add_quantize_fusion(steps: List[Step],
                         output_register: str) -> Tuple[List[Step], int]:
    """``add -> quantize``: the add requantizes its activated sum to int8.

    The add, when it has no ``out_scale`` yet, takes the quantize's scale
    and writes the quantize's register, at its own position.
    """
    adds = _single_use(steps, output_register, "add")
    replaced: Dict[int, Optional[Step]] = {}
    for step in steps:
        feeder = adds.get(step.inputs[0]) if step.op == "quantize" else None
        if feeder is None or "out_scale" in feeder.attrs:
            continue
        replaced[id(feeder)] = dataclasses.replace(
            feeder, output=step.output,
            attrs={**feeder.attrs, "out_scale": step.attrs["scale"]})
        replaced[id(step)] = None
    return _apply(steps, replaced)


def _dequantize_quantize_to_requantize(
        steps: List[Step], output_register: str) -> Tuple[List[Step], int]:
    """``dequantize -> quantize`` becomes one ``qrequantize`` code rescale.

    :func:`~repro.runtime.kernels.requantize_codes` replays the dequantize
    and the quantize through a scratch buffer.
    """
    feeders = _single_use(steps, output_register, "dequantize")
    replaced: Dict[int, Optional[Step]] = {}
    for step in steps:
        feeder = feeders.get(step.inputs[0]) if step.op == "quantize" \
            else None
        if feeder is None:
            continue
        replaced[id(feeder)] = None
        replaced[id(step)] = Step(
            op="qrequantize", name=step.name, inputs=(feeder.inputs[0],),
            output=step.output,
            attrs={"in_scale": feeder.attrs["scale"],
                   "scale": step.attrs["scale"]})
    return _apply(steps, replaced)


def _qconv_add_superfusion(steps: List[Step],
                           output_register: str) -> Tuple[List[Step], int]:
    """``qconv_dequant -> add [-> requantize]`` becomes one ``qconv_add``.

    The int8 residual tail: a projection convolution dequantizes its int32
    accumulator into the residual add, whose quantize neighbours the
    earlier fusions already folded in.  The ``qconv_add`` step runs the
    identical :func:`~repro.runtime.kernels.fused_qconv_dequant` and
    :func:`~repro.runtime.kernels.fused_add` and drops the full-size float
    register between them.  Only the first operand position fed by an
    absorbable conv, and not dequantized by the add, fuses.
    """
    convs = _single_use(steps, output_register, "qconv_dequant")
    replaced: Dict[int, Optional[Step]] = {}
    for step in steps:
        positions = [position for position, register in enumerate(step.inputs)
                     if register in convs
                     and step.attrs.get(f"in_scale_{position}") is None]
        if step.op != "add" or not positions:
            continue
        position = positions[0]
        conv = convs[step.inputs[position]]
        attrs = {key: conv.attrs.get(key)
                 for key in ("stride", "padding", "groups", "act",
                             "acc_bound")}
        attrs.update({
            "conv_name": conv.name,
            "position": position,
            "add_act": step.attrs.get("act"),
            "other_scale": step.attrs.get(f"in_scale_{1 - position}"),
            "out_scale": step.attrs.get("out_scale"),
        })
        replaced[id(conv)] = None
        replaced[id(step)] = Step(
            op="qconv_add", name=step.name,
            inputs=(conv.inputs[0], step.inputs[1 - position]),
            output=step.output, arrays=conv.arrays, attrs=attrs)
    return _apply(steps, replaced)


#: The fusions :func:`optimize_plan` runs, in this order: the superfusion
#: reads the scales the first two folded into the add.  Each sweep maps
#: ``(steps, output register)`` to the fused steps and its application
#: count, and can run alone.
FUSIONS = {
    "dequantize_into_add": _dequantize_into_add,
    "add_quantize_fusion": _add_quantize_fusion,
    "dequantize_quantize_to_requantize": _dequantize_quantize_to_requantize,
    "qconv_add_superfusion": _qconv_add_superfusion,
}


def optimize_plan(plan: InferencePlan) -> InferencePlan:
    """Run every fusion; idempotent on already-optimized plans.

    The returned plan's ``pass_stats`` maps each fusion to its application
    count (threaded into ``plan_stats`` and the engine's metrics gauges).
    """
    if plan.optimized:
        return plan
    steps, stats = plan.steps, {}
    for name, sweep in FUSIONS.items():
        steps, stats[name] = sweep(steps, plan.output_register)
    return InferencePlan(steps=steps, input_register=plan.input_register,
                         output_register=plan.output_register,
                         name=plan.name, optimized=True, pass_stats=stats)


# ---------------------------------------------------------------------------
# Arena memory planning
# ---------------------------------------------------------------------------
@dataclass
class MemoryPlan:
    """Static arena assignment for one plan at one per-sample input shape.

    Slots are byte arenas sized per sample; at execution each slot is a
    ``(batch, slot size)`` uint8 buffer of the
    :class:`~repro.runtime.kernels.BufferCache`, and kernels get contiguous
    typed views into it.  The plan input, the plan output (and anything
    aliasing it), and ``opaque`` outputs stay unmanaged — the output must
    survive arena reuse across chunks, and opaque modules allocate their own
    results.
    """

    input_shape: Tuple[int, ...]              # per-sample plan input shape
    slot_of: Dict[str, int]                   # managed register -> slot id
    alias_of: Dict[str, str]                  # view register -> source register
    shapes: Dict[str, Tuple[int, ...]]        # managed register -> per-sample shape
    dtypes: Dict[str, str]                    # managed register -> dtype str
    slot_sizes: List[int]                     # per-slot per-sample bytes
    unplanned_per_sample: int                 # sum of every step-output's bytes
    _specs: Dict[str, Tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for register, slot in self.slot_of.items():
            shape = self.shapes[register]
            dtype = np.dtype(self.dtypes[register])
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            self._specs[register] = (slot, shape, dtype, nbytes)

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self.slot_sizes)

    def peak_bytes(self, batch: int = 1) -> int:
        """Arena footprint for a micro-batch of ``batch`` samples."""
        return sum(self.slot_sizes) * batch

    def unplanned_bytes(self, batch: int = 1) -> int:
        """What per-step fresh allocation would touch for the same batch."""
        return self.unplanned_per_sample * batch

    def matches(self, per_sample_shape: Tuple[int, ...]) -> bool:
        return tuple(per_sample_shape) == self.input_shape

    def out_view(self, register: str, batch: int, cache) -> Optional[np.ndarray]:
        """Typed contiguous view into the register's arena slot (or None).

        The slot is the leading ``batch`` rows of the cache's slot buffer
        (see :class:`~repro.runtime.kernels.BufferCache`), and the view is
        the prefix of ``batch * nbytes`` bytes of those rows: per-sample
        shapes scale linearly in the leading (batch) dimension for every op
        in the plan vocabulary, so that prefix is exactly the contiguous
        C-order layout the kernels' ``out=`` paths expect, at every batch
        size.
        """
        spec = self._specs.get(register)
        if spec is None:
            return None
        slot, shape, dtype, nbytes = spec
        rows = cache.get(f"arena:{slot}", (batch, self.slot_sizes[slot]),
                         np.uint8)
        return rows.reshape(-1)[:nbytes * batch].view(dtype) \
            .reshape((batch,) + shape)

    def describe(self) -> str:
        """Summary lines appended by :meth:`InferencePlan.describe`."""
        by_slot: Dict[int, List[str]] = {}
        for register, slot in self.slot_of.items():
            by_slot.setdefault(slot, []).append(register)
        lines = [f"# arena: {self.num_slots} slots, "
                 f"{self.peak_bytes(1)} bytes/sample "
                 f"(unplanned {self.unplanned_per_sample} bytes/sample)"]
        for slot in range(self.num_slots):
            hosted = " ".join(by_slot.get(slot, []))
            lines.append(f"#   slot {slot}: {self.slot_sizes[slot]} B/sample"
                         f" <- {hosted}")
        return "\n".join(lines)


def plan_memory(plan: InferencePlan, recorded: Dict[str, Tuple],
                batch_shape: Tuple[int, ...]) -> MemoryPlan:
    """Build a :class:`MemoryPlan` from one recorded execution.

    ``recorded`` maps each step output to its observed ``(shape, dtype
    string)`` at batch size ``batch_shape[0]`` (collected by
    ``InferencePlan.execute(..., record=...)``).  Registers whose leading
    dimension is not the batch size cannot be rescaled to other micro-batch
    sizes and stay unmanaged.  The plan holds per-sample sizes only; the
    batch an arena buffer holds is decided where it is requested.
    """
    batch = int(batch_shape[0])
    alias_of: Dict[str, str] = {}
    unmanaged = {plan.input_register}
    per_sample_bytes: Dict[str, int] = {}
    shapes: Dict[str, Tuple[int, ...]] = {}
    dtypes: Dict[str, str] = {}
    unplanned = 0
    for step in plan.steps:
        if step.op in ALIAS_OPS:
            alias_of[step.output] = step.inputs[0]
            continue
        shape, dtype_str = recorded[step.output]
        dtype = np.dtype(dtype_str)
        if step.op == "opaque" or len(shape) < 1 or shape[0] != batch:
            unmanaged.add(step.output)
            continue
        sample_shape = tuple(int(dim) for dim in shape[1:])
        nbytes = int(np.prod(sample_shape, dtype=np.int64)) * dtype.itemsize
        per_sample_bytes[step.output] = nbytes
        shapes[step.output] = sample_shape
        dtypes[step.output] = dtype.str
        unplanned += nbytes

    def root(register: str) -> str:
        while register in alias_of:
            register = alias_of[register]
        return register

    # The plan output is returned to the caller and must survive the next
    # chunk's arena reuse; unmanaging its root also covers aliases of it.
    unmanaged.add(root(plan.output_register))

    # Liveness per root register: defined at its producing step, last read at
    # the latest read of itself or any view of it.
    last_read: Dict[str, int] = {}
    for register, index in plan.last_use().items():
        register = root(register)
        last_read[register] = max(last_read.get(register, -1), index)

    slot_of: Dict[str, int] = {}
    slot_sizes: List[int] = []
    free: List[int] = []
    active: List[Tuple[int, int]] = []        # heap of (last read, slot)
    for index, step in enumerate(plan.steps):
        # Slots whose register was last read strictly before this step are
        # reusable now; registers read *by* this step stay bound until after
        # it, so a step output can never alias one of its inputs.
        while active and active[0][0] < index:
            _, slot = heapq.heappop(active)
            free.append(slot)
        register = step.output
        if register in alias_of or register in unmanaged \
                or root(register) in unmanaged:
            continue
        need = per_sample_bytes[register]
        fitting = [slot for slot in free if slot_sizes[slot] >= need]
        if fitting:
            slot = min(fitting, key=lambda s: slot_sizes[s])
            free.remove(slot)
        elif free:
            slot = max(free, key=lambda s: slot_sizes[s])
            free.remove(slot)
            slot_sizes[slot] = need
        else:
            slot = len(slot_sizes)
            slot_sizes.append(need)
        slot_of[register] = slot
        heapq.heappush(active, (last_read.get(register, index), slot))

    return MemoryPlan(input_shape=tuple(int(dim) for dim in batch_shape[1:]),
                      slot_of=slot_of, alias_of=alias_of, shapes=shapes,
                      dtypes=dtypes, slot_sizes=slot_sizes,
                      unplanned_per_sample=unplanned)
