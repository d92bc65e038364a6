"""Flat op plans for the inference runtime.

A plan is a linear sequence of :class:`Step` objects operating on a small
register file (plain dict of arrays).  There is no ``Function`` tape and no
gradient bookkeeping: each step reads its input registers, writes one output
register, and the executor frees registers after their last use so residual
branches do not pin activations longer than needed.

Plans are produced by :mod:`repro.runtime.compiler` (which folds batch norm
into the preceding convolution and fuses activations into their producer)
and executed by :class:`repro.runtime.engine.InferenceEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.modules import Module
from ..nn.tensor import Tensor, no_grad
from . import kernels


@dataclass
class Step:
    """One operation of a flat inference plan."""

    op: str                       # conv | linear | bn | act | add | global_pool |
                                  # max_pool | avg_pool | flatten | opaque |
                                  # quantize | dequantize | requantize |
                                  # qrequantize | qconv | qconv_dequant |
                                  # qlinear | qglobal_pool | qconv_add
    name: str                     # human-readable layer name (for debugging)
    inputs: Tuple[str, ...]       # register names read by the step
    output: str                   # register name written by the step
    #: static ndarray attributes (folded weights, biases, bn scale/shift)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    #: scalar attributes (stride, padding, groups, kernel_size, act, ...)
    attrs: Dict[str, object] = field(default_factory=dict)
    #: live module references (``linear`` reads weights at execution time so
    #: in-place fine-tuning is picked up; ``opaque`` calls the module eagerly)
    module: Optional[Module] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Step({self.op!r}, {self.name!r}, "
                f"{','.join(self.inputs)} -> {self.output})")

    @property
    def kind(self) -> str:
        """The op, or ``depthwise`` for a conv the depthwise kernel runs.

        A ``conv``/``qconv``/``qconv_dequant`` step that
        :func:`~repro.runtime.kernels.is_depthwise` routes to the depthwise
        kernel reports ``depthwise``, so the per-op profile aggregates it
        apart from the GEMM convolutions.
        """
        if self.op in ("conv", "qconv", "qconv_dequant") \
                and kernels.is_depthwise(self.arrays["weight"],
                                         self.attrs.get("groups", 1)):
            return "depthwise"
        return self.op


@dataclass
class InferencePlan:
    """A compiled, autograd-free forward pass."""

    steps: List[Step]
    input_register: str = "x"
    output_register: str = ""
    name: str = "plan"
    #: set by :func:`repro.runtime.optimizer.optimize_plan`; optimized plans
    #: are not re-optimized when handed to another engine (or a worker).
    optimized: bool = False
    #: per-fusion application counts recorded by ``optimize_plan``
    #: (``{fusion name: times applied}``); empty on raw plans.
    pass_stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.output_register and self.steps:
            self.output_register = self.steps[-1].output

    def __len__(self) -> int:
        return len(self.steps)

    # ------------------------------------------------------------------
    def last_use(self) -> Dict[str, int]:
        """Index of the final step reading each register (for freeing)."""
        uses: Dict[str, int] = {}
        for index, step in enumerate(self.steps):
            for register in step.inputs:
                uses[register] = index
        # The plan output must survive the whole execution.
        uses[self.output_register] = len(self.steps)
        return uses

    def describe(self, memory_plan=None) -> str:
        """Human-readable plan listing (one line per step).

        With a :class:`~repro.runtime.optimizer.MemoryPlan` the listing is
        followed by the arena summary: slot count, ``peak_bytes`` per sample
        and the registers hosted by each slot.
        """
        lines = [f"# plan {self.name!r}: {len(self.steps)} steps"]
        for step in self.steps:
            attrs = ", ".join(f"{k}={v}" for k, v in sorted(step.attrs.items())
                              if v is not None)
            lines.append(f"{step.output:>8} = {step.op}({', '.join(step.inputs)}"
                         f"{'; ' + attrs if attrs else ''})  # {step.name}")
        if memory_plan is not None:
            lines.append(memory_plan.describe())
        return "\n".join(lines)

    def num_fused(self) -> int:
        """Number of conv/linear steps carrying a fused activation."""
        return sum(1 for step in self.steps
                   if step.op in ("conv", "linear")
                   and step.attrs.get("act") is not None)

    def num_integer(self) -> int:
        """Number of steps executing on int8 inputs with int32 accumulation."""
        return sum(1 for step in self.steps
                   if step.op in ("qconv", "qconv_dequant", "qlinear",
                                  "qconv_add"))

    def storage_bytes(self) -> int:
        """Deployable parameter storage with true per-step dtype accounting.

        Int8 steps count one byte per weight plus four bytes per output
        channel for the int32 bias and four for the requantization factor
        (shipped as an int32 multiplier + shift on the target, even though
        the host plan holds them as float64).  Float steps count their arrays
        at the stored width; ``linear`` steps that read a live module count
        the module parameters at float32.
        """
        total = 0
        for step in self.steps:
            if step.op in ("qconv", "qconv_dequant", "qlinear", "qconv_add"):
                weight = step.arrays["weight"]
                out_channels = weight.shape[0]
                total += weight.size                     # int8 weights
                total += 4 * out_channels                # int32 bias
                total += 4 * out_channels                # requant multiplier
            elif step.op == "linear" and step.module is not None:
                total += step.module.weight.data.size * 4
                if step.module.bias is not None:
                    total += step.module.bias.data.size * 4
            else:
                total += sum(array.nbytes for array in step.arrays.values())
        return total

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray,
                cache: Optional[kernels.BufferCache] = None,
                memory_plan=None, record: Optional[Dict] = None,
                profiler=None) -> np.ndarray:
        """Run the plan on one micro-batch of raw arrays.

        With a matching :class:`~repro.runtime.optimizer.MemoryPlan` (and a
        cache to own the arena buffers) every managed step writes its result
        into a pre-assigned arena slot through the kernel ``out=`` paths —
        same arithmetic, no per-step allocation.  ``record``, when given, is
        filled with each step output's ``(shape, dtype string)`` — the
        engine's way of collecting the shapes a memory plan needs without a
        synthetic dry run.

        ``profiler`` (a :class:`~repro.obs.planprof.PlanProfiler`) records
        each step's wall time and bytes moved (inputs read + output
        written); ``None`` costs one comparison per step.
        """
        registers: Dict[str, np.ndarray] = {self.input_register: x}
        last_use = self.last_use()
        planned = memory_plan is not None and cache is not None \
            and x.ndim >= 1 and memory_plan.matches(x.shape[1:])
        batch = x.shape[0]
        for index, step in enumerate(self.steps):
            started = time.perf_counter() if profiler is not None else 0.0
            if planned and step.output in memory_plan.alias_of:
                source = registers[memory_plan.alias_of[step.output]]
                value = source.reshape(batch, -1)
            else:
                out = memory_plan.out_view(step.output, batch, cache) \
                    if planned else None
                value = _execute_step(step, registers, cache, out)
            if profiler is not None:
                moved = value.nbytes + sum(
                    registers[reg].nbytes for reg in step.inputs
                    if reg in registers)
                profiler.record(self.name, index, step.op, step.name,
                                time.perf_counter() - started, moved,
                                kind=step.kind)
            registers[step.output] = value
            if record is not None:
                record[step.output] = (value.shape, value.dtype.str)
            for register in step.inputs:
                if last_use.get(register, -1) <= index and \
                        register != self.output_register:
                    registers.pop(register, None)
        return registers[self.output_register]


def _execute_step(step: Step, registers: Dict[str, np.ndarray],
                  cache: Optional[kernels.BufferCache],
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    x = registers[step.inputs[0]]
    op = step.op
    if op == "conv":
        return kernels.fused_conv(
            x, step.arrays["weight"], step.arrays.get("bias"),
            stride=step.attrs.get("stride", 1),
            padding=step.attrs.get("padding", 0),
            groups=step.attrs.get("groups", 1),
            act=step.attrs.get("act"), cache=cache, out=out)
    if op == "linear":
        # Weights are read from the live module so in-place updates (e.g. the
        # on-device FCR fine-tuning) are reflected without recompiling.
        # Serialized plans (repro.serve snapshots) carry no module references;
        # their weights are frozen into the step arrays instead.
        module = step.module
        if module is not None:
            weight = module.weight.data
            bias = module.bias.data if module.bias is not None else None
        else:
            weight = step.arrays["weight"]
            bias = step.arrays.get("bias")
        return kernels.fused_linear(x, weight, bias, act=step.attrs.get("act"),
                                    out=out)
    if op == "qconv":
        return kernels.fused_qconv(
            x, step.arrays["weight"], step.arrays["bias"],
            step.arrays["multiplier"],
            stride=step.attrs.get("stride", 1),
            padding=step.attrs.get("padding", 0),
            groups=step.attrs.get("groups", 1),
            qmin=step.attrs.get("qmin", kernels.INT8_QMIN),
            qmax=step.attrs.get("qmax", kernels.INT8_QMAX),
            cache=cache, acc_bound=step.attrs.get("acc_bound"), out=out)
    if op == "qconv_dequant":
        return kernels.fused_qconv_dequant(
            x, step.arrays["weight"], step.arrays["dequant"],
            step.arrays.get("bias"),
            stride=step.attrs.get("stride", 1),
            padding=step.attrs.get("padding", 0),
            groups=step.attrs.get("groups", 1),
            act=step.attrs.get("act"), cache=cache,
            acc_bound=step.attrs.get("acc_bound"), out=out)
    if op == "qconv_add":
        # Residual superfusion: the projection conv's dequantized result
        # flows straight into the residual add.  Both halves run the exact
        # kernels of the standalone ``qconv_dequant`` and fused ``add``
        # steps, so the superfused step is bit-identical by construction;
        # only the full-size float intermediate register disappears.
        conv = kernels.fused_qconv_dequant(
            x, step.arrays["weight"], step.arrays["dequant"],
            step.arrays.get("bias"),
            stride=step.attrs.get("stride", 1),
            padding=step.attrs.get("padding", 0),
            groups=step.attrs.get("groups", 1),
            act=step.attrs.get("act"), cache=cache,
            acc_bound=step.attrs.get("acc_bound"))
        other = registers[step.inputs[1]]
        other_scale = step.attrs.get("other_scale")
        if step.attrs.get("position", 0) == 0:
            operands = (conv, other)
            scales = (None, other_scale)
        else:
            operands = (other, conv)
            scales = (other_scale, None)
        return kernels.fused_add(
            operands[0], operands[1], in_scale_x=scales[0],
            in_scale_y=scales[1], act=step.attrs.get("add_act"),
            out_scale=step.attrs.get("out_scale"), cache=cache, out=out)
    if op == "qlinear":
        return kernels.fused_qlinear(x, step.arrays["weight"],
                                     step.arrays["dequant"],
                                     step.arrays.get("bias"),
                                     act=step.attrs.get("act"), out=out,
                                     acc_bound=step.attrs.get("acc_bound"))
    if op == "quantize":
        return kernels.quantize_int8(x, step.attrs["scale"], out=out)
    if op == "dequantize":
        return kernels.dequantize_int8(x, step.attrs["scale"], out=out)
    if op == "requantize":
        return kernels.requantize_float(x, step.attrs["scale"], out=out)
    if op == "qrequantize":
        return kernels.requantize_codes(x, step.attrs["in_scale"],
                                        step.attrs["scale"], cache=cache,
                                        out=out)
    if op == "bn":
        return kernels.batchnorm_inference(x, step.arrays["scale"],
                                           step.arrays["shift"],
                                           act=step.attrs.get("act"), out=out)
    if op == "act":
        if out is None:
            return kernels.apply_activation(x.copy(), step.attrs["act"])
        np.copyto(out, x)
        return kernels.apply_activation(out, step.attrs["act"])
    if op == "add":
        return kernels.fused_add(
            x, registers[step.inputs[1]],
            in_scale_x=step.attrs.get("in_scale_0"),
            in_scale_y=step.attrs.get("in_scale_1"),
            act=step.attrs.get("act"),
            out_scale=step.attrs.get("out_scale"), cache=cache, out=out)
    if op == "global_pool":
        return kernels.global_avg_pool(x, out=out)
    if op == "qglobal_pool":
        return kernels.int_global_avg_pool(x, step.attrs["scale"], out=out)
    if op == "max_pool":
        return kernels.max_pool(x, step.attrs["kernel_size"],
                                step.attrs["stride"], out=out)
    if op == "avg_pool":
        return kernels.avg_pool(x, step.attrs["kernel_size"],
                                step.attrs["stride"], out=out)
    if op == "flatten":
        return x.reshape(x.shape[0], -1)
    if op == "opaque":
        # Fallback for unknown modules (or modules carrying forward hooks,
        # e.g. activation fake-quantisation): call the module eagerly with
        # gradients off.  Slower, but always correct.
        module = step.module
        was_training = module.training
        module.eval()
        try:
            with no_grad():
                out = module(Tensor(x)).data
        finally:
            module.train(was_training)
        return out
    raise ValueError(f"unknown op {op!r} in step {step.name!r}")
