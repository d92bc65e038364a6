"""Flat op plans for the inference runtime.

A plan is a linear sequence of :class:`Step` objects operating on a small
register file (plain dict of arrays).  There is no ``Function`` tape and no
gradient bookkeeping: each step reads its input registers, writes one output
register, and the executor frees registers after their last use so residual
branches do not pin activations longer than needed.

Plans are produced by :mod:`repro.runtime.compiler` (which folds batch norm
into the preceding convolution and fuses activations into their producer)
and executed by :class:`repro.runtime.engine.InferenceEngine`.

Execution binds each step before it runs it: the step's binder (one per op,
in ``_BINDERS``) works out everything that does not change between calls —
attributes, shapes, the C-or-NumPy choice, reshaped weights, scratch and
arena views, the arguments of a C kernel — and returns a call that only
does the arithmetic.  :meth:`InferencePlan.bind` runs a micro-batch while
binding and returns the bound :data:`Program`; :meth:`InferencePlan.replay`
runs a program on the next input of the same shape.  The engine keeps
programs per execution context and batch size; :meth:`InferencePlan.execute`
binds as it goes and keeps nothing.  Derived weights shared by every program
of a step live with the engine, not on :class:`Step` or
:class:`InferencePlan`, which snapshots pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.conv import conv_output_size
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

        Each step is bound to this call as execution reaches it (see
        :meth:`bind`) and nothing is kept.  With a matching
        :class:`~repro.runtime.optimizer.MemoryPlan` (and a cache to own the
        arena buffers) every managed step writes its result into a
        pre-assigned arena slot through the kernel ``out=`` paths — same
        arithmetic, no per-step allocation.  ``record``, when given, is
        filled with each step output's ``(shape, dtype string)`` — the
        engine's way of collecting the shapes a memory plan needs without a
        synthetic dry run.

        ``profiler`` (a :class:`~repro.obs.planprof.PlanProfiler`) records
        each step's wall time and bytes moved (inputs read + output
        written); ``None`` costs one comparison per step.
        """
        return self.bind(x, cache, memory_plan, record=record,
                         profiler=profiler)[0]

    def bind(self, x: np.ndarray, cache: Optional[kernels.BufferCache],
             memory_plan=None, record: Optional[Dict] = None,
             profiler=None, constants: Optional[Dict[int, dict]] = None
             ) -> Tuple[np.ndarray, "Program"]:
        """Run the plan on ``x``, binding each step as execution reaches it.

        Returns the output and the :data:`Program` of bound steps, which
        :meth:`replay` runs on any later input of ``x``'s shape and dtype
        in the same execution context (``cache``, memory plan and native
        library) for as long as ``cache`` holds the buffers it was bound to.
        ``constants`` maps a step index to the derived weights every
        program of that step shares (see
        :func:`~repro.runtime.kernels._constant`); ``None`` derives them
        for this binding alone.
        """
        planned = memory_plan is not None and cache is not None \
            and x.ndim >= 1 and memory_plan.matches(x.shape[1:])
        batch = x.shape[0]
        last_use = self.last_use()
        program: Program = []

        def bind_step(index, step, inputs):
            if planned and step.output in memory_plan.alias_of:
                # An arena alias: the source register, flattened.
                return kernels.bind_reshape(inputs[0], (batch, -1))
            binder = _BINDERS.get(step.op)
            if binder is None:
                raise ValueError(f"unknown op {step.op!r} in step "
                                 f"{step.name!r}")
            out = memory_plan.out_view(step.output, batch, cache) \
                if planned else None
            shared = constants.setdefault(index, {}) \
                if constants is not None else None
            return binder(step, inputs, cache, out, shared)

        for index, step in enumerate(self.steps):
            # Registers read for the last time here, in first-read order.
            free = tuple(dict.fromkeys(
                register for register in step.inputs
                if last_use.get(register, -1) <= index
                and register != self.output_register))
            program.append((None, step.inputs, step.output, free))
        output = self._run(x, program, bind_step, record, profiler)
        return output, program

    def replay(self, program: "Program", x: np.ndarray,
               profiler=None) -> np.ndarray:
        """Run a program from :meth:`bind` on a new input of the same shape."""
        return self._run(x, program, None, None, profiler)

    def _run(self, x, program, bind_step, record, profiler) -> np.ndarray:
        registers: Dict[str, np.ndarray] = {self.input_register: x}
        for index, (call, inputs, output, free) in enumerate(program):
            args = [registers[register] for register in inputs]
            if bind_step is not None:
                call = bind_step(index, self.steps[index], args)
                program[index] = (call, inputs, output, free)
            if profiler is None:
                value = call(*args)
            else:
                started = time.perf_counter()
                value = call(*args)
                elapsed = time.perf_counter() - started
                step = self.steps[index]
                moved = value.nbytes + sum(array.nbytes for array in args)
                profiler.record(self.name, index, step.op, step.name,
                                elapsed, moved, kind=step.kind)
            registers[output] = value
            if record is not None:
                record[output] = (value.shape, value.dtype.str)
            for register in free:
                del registers[register]
        return registers[self.output_register]


#: A plan's steps bound to one execution context and batch size: per step
#: ``(call, input registers, output register, registers to free)``.
Program = List[Tuple[Optional[Callable], Tuple[str, ...], str,
                     Tuple[str, ...]]]


# ---------------------------------------------------------------------------
# Step binders: ``(step, input arrays, cache, out, constants) -> call``.  A
# binder works out everything that stays fixed between calls (attributes,
# shapes, the C-or-NumPy choice, reshaped and cast weights, scratch and
# arena views, C kernel arguments); the call it returns takes the step's
# input arrays and does only the arithmetic.
# ---------------------------------------------------------------------------
def _conv_args(step: Step) -> dict:
    attrs = step.attrs
    return {"stride": attrs.get("stride", 1),
            "padding": attrs.get("padding", 0),
            "groups": attrs.get("groups", 1)}


def _bind_conv(step, inputs, cache, out, constants):
    return kernels.bind_conv(inputs[0], step.arrays["weight"],
                             step.arrays.get("bias"), act=step.attrs.get("act"),
                             cache=cache, out=out, **_conv_args(step))


def _bind_linear(step, inputs, cache, out, constants):
    act = step.attrs.get("act")
    module = step.module
    if module is None:
        # Serialized plans (repro.serve snapshots) carry no module
        # references; their weights are frozen into the step arrays.
        weight, bias = step.arrays["weight"], step.arrays.get("bias")
        return lambda x: kernels.fused_linear(x, weight, bias, act, out)

    def call(x):
        # Weights are read from the live module on every call, so in-place
        # updates (e.g. the on-device FCR fine-tuning) are reflected
        # without recompiling.
        bias = module.bias
        return kernels.fused_linear(x, module.weight.data,
                                    None if bias is None else bias.data,
                                    act, out)
    return call


def _bind_qconv(step, inputs, cache, out, constants):
    arrays, attrs = step.arrays, step.attrs
    return kernels.bind_qconv(
        inputs[0], arrays["weight"], arrays["bias"], arrays["multiplier"],
        qmin=attrs.get("qmin", kernels.INT8_QMIN),
        qmax=attrs.get("qmax", kernels.INT8_QMAX), cache=cache,
        acc_bound=attrs.get("acc_bound"), out=out, constants=constants,
        **_conv_args(step))


def _bind_qconv_dequant(step, inputs, cache, out, constants):
    return kernels.bind_qconv_dequant(
        inputs[0], step.arrays["weight"], step.arrays["dequant"],
        step.arrays.get("bias"), act=step.attrs.get("act"), cache=cache,
        acc_bound=step.attrs.get("acc_bound"), out=out, constants=constants,
        **_conv_args(step))


def _bind_qconv_add(step, inputs, cache, out, constants):
    # Residual superfusion: the projection conv's dequantized result flows
    # straight into the residual add.  Both halves run the exact kernels of
    # the standalone ``qconv_dequant`` and fused ``add`` steps, so the
    # superfused step is bit-identical by construction; only the full-size
    # float intermediate register disappears.  The conv result is a fresh
    # array on every call, as it was a register before.
    x, other = inputs
    conv = _bind_qconv_dequant(step, [x], cache, None, constants)
    weight = step.arrays["weight"]
    kh, kw = weight.shape[2], weight.shape[3]
    stride, padding = step.attrs.get("stride", 1), step.attrs.get("padding", 0)
    conv_shape = (x.shape[0], weight.shape[0],
                  conv_output_size(x.shape[2], kh, stride, padding),
                  conv_output_size(x.shape[3], kw, stride, padding))
    other_scale = step.attrs.get("other_scale")
    add_act, out_scale = step.attrs.get("add_act"), step.attrs.get("out_scale")
    if step.attrs.get("position", 0) == 0:
        add = kernels.bind_add(conv_shape, other.shape, None, other_scale,
                               add_act, out_scale, cache, out)
        return lambda x, other: add(conv(x), other)
    add = kernels.bind_add(other.shape, conv_shape, other_scale, None,
                           add_act, out_scale, cache, out)
    return lambda x, other: add(other, conv(x))


def _bind_add(step, inputs, cache, out, constants):
    attrs = step.attrs
    return kernels.bind_add(inputs[0].shape, inputs[1].shape,
                            attrs.get("in_scale_0"), attrs.get("in_scale_1"),
                            attrs.get("act"), attrs.get("out_scale"), cache,
                            out)


def _bind_qlinear(step, inputs, cache, out, constants):
    return kernels.bind_qlinear(inputs[0], step.arrays["weight"],
                                step.arrays["dequant"],
                                step.arrays.get("bias"),
                                act=step.attrs.get("act"), out=out,
                                acc_bound=step.attrs.get("acc_bound"),
                                constants=constants)


def _bind_qrequantize(step, inputs, cache, out, constants):
    return kernels.bind_requantize_codes(inputs[0], step.attrs["in_scale"],
                                         step.attrs["scale"], cache, out)


def _bind_scaled(kernel):
    """Binder of an elementwise ``kernel(x, scale, out=)`` step."""
    def bind(step, inputs, cache, out, constants):
        scale = step.attrs["scale"]
        return lambda x: kernel(x, scale, out=out)
    return bind


def _bind_pool(kernel):
    """Binder of a windowed ``kernel(x, kernel_size, stride, out=)`` step."""
    def bind(step, inputs, cache, out, constants):
        size, stride = step.attrs["kernel_size"], step.attrs["stride"]
        return lambda x: kernel(x, size, stride, out=out)
    return bind


def _bind_bn(step, inputs, cache, out, constants):
    scale, shift = step.arrays["scale"], step.arrays["shift"]
    act = step.attrs.get("act")
    return lambda x: kernels.batchnorm_inference(x, scale, shift, act=act,
                                                 out=out)


def _bind_act(step, inputs, cache, out, constants):
    act = step.attrs["act"]
    if out is None:
        return lambda x: kernels.apply_activation(x.copy(), act)

    def call(x):
        np.copyto(out, x)
        return kernels.apply_activation(out, act)
    return call


def _bind_global_pool(step, inputs, cache, out, constants):
    return kernels.bind_global_avg_pool(inputs[0], out)


def _bind_flatten(step, inputs, cache, out, constants):
    return lambda x: x.reshape(x.shape[0], -1)


def _bind_opaque(step, inputs, cache, out, constants):
    # Fallback for unknown modules (or modules carrying forward hooks, e.g.
    # activation fake-quantisation): call the module eagerly with gradients
    # off.  Slower, but always correct.
    module = step.module

    def call(x):
        was_training = module.training
        module.eval()
        try:
            with no_grad():
                return module(Tensor(x)).data
        finally:
            module.train(was_training)
    return call


_BINDERS = {
    "conv": _bind_conv,
    "linear": _bind_linear,
    "qconv": _bind_qconv,
    "qconv_dequant": _bind_qconv_dequant,
    "qconv_add": _bind_qconv_add,
    "qlinear": _bind_qlinear,
    "quantize": _bind_scaled(kernels.quantize_int8),
    "dequantize": _bind_scaled(kernels.dequantize_int8),
    "requantize": _bind_scaled(kernels.requantize_float),
    "qrequantize": _bind_qrequantize,
    "bn": _bind_bn,
    "act": _bind_act,
    "add": _bind_add,
    "global_pool": _bind_global_pool,
    "qglobal_pool": _bind_scaled(kernels.int_global_avg_pool),
    "max_pool": _bind_pool(kernels.max_pool),
    "avg_pool": _bind_pool(kernels.avg_pool),
    "flatten": _bind_flatten,
    "opaque": _bind_opaque,
}
