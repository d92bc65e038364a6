"""Compile module trees into flat inference plans.

The compiler walks the structure of the model (no tracing pass is needed —
the architectures used by the reproduction are static) and emits one
:class:`~repro.runtime.plan.Step` per fused operation.  One lowering serves
both modes of :data:`MODES`:

* ``Conv2d -> BatchNorm2d -> ReLU/ReLU6`` chains collapse into a single
  conv step whose weights have the batch-norm scale folded in and whose
  activation is applied on its output (the activation its ``act`` or
  ``relu`` child is, see :data:`FUSED_ACTIVATIONS`);
* ``Linear`` layers become ``linear`` steps that read their weights from the
  live module at execution time, so in-place fine-tuning needs no recompile;
* residual additions become explicit ``add`` steps over named registers;
* a module the compiler cannot express — a type it does not know, an
  activation child with no fused form, a hook it cannot compile — is kept
  as an ``opaque`` step that calls the module eagerly, so compilation never
  changes semantics, only speed.

Known model classes (:class:`MobileNetV2Backbone`, :class:`ResNet12Backbone`,
:class:`ResNet20Backbone` and the composite blocks they are built from) get
one structural rule each; everything else falls back to generic traversal.

Registers are float32 or int8, and the builder records the static
quantization scale of every int8 register.  Each rule emits integer steps
only where a register has a scale, so a plan with none is the float32 plan.
``float32`` mode never gives a register one: any forward hook in a subtree
keeps it eager, and the ``input_quantizer`` stamps are ignored.  ``int8``
mode turns the frozen activation quantizers of
:class:`repro.quant.ActivationQuantizationPass` into scales: a conv whose
fused activation carries one requantizes its int32 accumulator straight
back to int8 (``qconv``); a conv with no calibrated output range (e.g. the
projection conv feeding a residual add) dequantizes to float
(``qconv_dequant``), the add runs in float, and the block-output quantizer
re-enters the int8 domain (Dory-style, after the residual).  The hooks
become explicit ``quantize``/``requantize``/``dequantize`` steps, so an
int8 plan carries no live module references for quantization and survives
pickling unchanged.  Layers whose input arrives in float with no known
scale stay on the float32 kernels — compilation degrades precision-wise,
never semantically.

The compiler emits the faithful, unoptimized plan.  Optimization happens in
one place: :class:`~repro.runtime.engine.InferenceEngine` runs
:func:`~repro.runtime.optimizer.optimize_plan` over the plan it is given
(unless constructed with ``optimize=False``).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from ..models.heads import FullyConnectedReductor
from ..models.mobilenetv2 import ConvBNReLU, InvertedResidual, MobileNetV2Backbone
from ..models.resnet import (
    BasicBlock,
    ResNet12Backbone,
    ResNet12Block,
    ResNet20Backbone,
)
from ..nn.modules import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    ReLU6,
    Sequential,
)
from .kernels import (
    INT8_QMAX,
    INT8_QMIN,
    INT32_ACC_LIMIT,
    conv_accumulator_bound,
    quantize_weight_per_channel,
)
from .plan import InferencePlan, Step

#: Compilation modes understood by :func:`compile_module`.
MODES = ("float32", "int8")

#: Activation module types fused into the step before them, matched by exact
#: type, and the fused activation each one is: a ``ConvBNReLU``'s ``act``
#: child, and the ``relu`` child of the ResNet blocks and the ResNet-20 stem.
#: Any other module there keeps its block eager in both modes (for the stem,
#: the whole backbone).
FUSED_ACTIVATIONS = {ReLU6: "relu6", ReLU: "relu", Identity: None}


class Int8CompilationError(RuntimeError):
    """A layer cannot be lowered to int8 without breaking int32 accumulation."""


def has_hooks(module: Module) -> bool:
    """True when any module in the subtree carries forward hooks."""
    return any(sub._forward_hooks for sub in module.modules())


def fold_conv_bn(conv: Conv2d, bn: Optional[BatchNorm2d]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode batch norm into the convolution weight and bias.

    ``y = gamma * (conv(x) - mean) / sqrt(var + eps) + beta`` becomes a plain
    convolution with per-output-channel rescaled weights and a bias.
    """
    weight = conv.weight.data.astype(np.float32)
    bias = conv.bias.data.astype(np.float32) if conv.bias is not None \
        else np.zeros(weight.shape[0], dtype=np.float32)
    if bn is None:
        return weight, bias
    scale, shift = bn_scale_shift(bn)
    folded_weight = weight * scale[:, None, None, None]
    folded_bias = bias * scale + shift
    return folded_weight.astype(np.float32), folded_bias.astype(np.float32)


def bn_scale_shift(bn) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce an eval-mode BatchNorm(1d/2d) to per-channel scale and shift."""
    var = np.asarray(bn.running_var, dtype=np.float32)
    mean = np.asarray(bn.running_mean, dtype=np.float32)
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    if bn.affine:
        scale = bn.weight.data.astype(np.float32) * inv_std
        shift = bn.bias.data.astype(np.float32) - mean * scale
    else:
        scale = inv_std.astype(np.float32)
        shift = (-mean * inv_std).astype(np.float32)
    return scale, shift


class PlanBuilder:
    """Accumulates steps while threading register names through the graph.

    ``scales`` maps each int8 register to its quantization scale; a float32
    builder (``int8`` False) never records one.
    """

    def __init__(self, name: str, mode: str):
        self.name = name
        self.int8 = mode == "int8"
        self.steps = []
        self.scales = {}
        self._counter = itertools.count()

    def register(self, hint: str) -> str:
        return f"%{next(self._counter)}_{hint}"

    def emit(self, op: str, name: str, inputs: Tuple[str, ...], *,
             arrays=None, attrs=None, module=None, hint: str = "t") -> str:
        output = self.register(hint)
        self.steps.append(Step(op=op, name=name, inputs=inputs, output=output,
                               arrays=arrays or {}, attrs=attrs or {},
                               module=module))
        return output

    def build(self, input_register: str, output_register: str) -> InferencePlan:
        return InferencePlan(steps=self.steps, input_register=input_register,
                             output_register=output_register, name=self.name)


def compile_module(module: Module, name: str = "",
                   mode: str = "float32") -> InferencePlan:
    """Compile any supported module into a flat inference plan.

    ``mode="float32"`` keeps every hooked subtree as an opaque eager step.
    ``mode="int8"`` lowers the conv/linear layers of a quantized model to
    integer kernels, turning its activation fake-quant hooks into
    first-class ``quantize``/``requantize`` plan ops.  Both run the same
    rules (see :func:`_lower`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown compile mode {mode!r}; expected one of {MODES}")
    name = name or module.__class__.__name__
    builder = PlanBuilder(name, mode)
    x = "x"
    scale = _input_scale(builder, getattr(module, "input_quantizer", None))
    if scale is not None:
        x = _emit_quantize(builder, f"{name}.quant_in", x, scale)
    out = _lower(builder, module, name, x)
    out = _ensure_float(builder, out, f"{name}.dequant_out")
    return builder.build("x", out)


def compile_backbone(backbone: Module, mode: str = "float32") -> InferencePlan:
    """Compile a feature-extractor backbone (images -> ``theta_a``)."""
    return compile_module(backbone, backbone.__class__.__name__, mode=mode)


# ---------------------------------------------------------------------------
# Lowering rules
# ---------------------------------------------------------------------------
def _hook_state(module: Module):
    """Interpret the forward hooks of ``module`` for int8 lowering.

    Returns ``(scale, clean)``: ``scale`` is the int8 grid of the single
    frozen :class:`~repro.quant.ActivationQuantizer` attached to the module
    (``None`` if there is none), ``clean`` is False when the module carries
    any hook the compiler cannot express as a plan op (foreign callables,
    observe-mode quantizers, non-8-bit grids) — those force an opaque step.
    """
    from ..quant.activation_quant import ActivationQuantizer

    scale = None
    for hook in module._forward_hooks:
        if isinstance(hook, ActivationQuantizer):
            if hook.mode == "off":
                continue
            if (hook.mode == "quantize" and hook.quantizer is not None
                    and hook.bits == 8 and scale is None):
                scale = float(hook.quantizer.scale)
                continue
        return None, False
    return scale, True


def _modules_hook_free(*modules) -> bool:
    return all(not module._forward_hooks
               for module in modules if module is not None)


def _fused_activation(act: Module):
    """``(act, scale)`` when the activation child ``act`` fuses into the step
    before it: its :data:`FUSED_ACTIVATIONS` entry and the int8 grid of its
    quantizer.  None when it keeps its block eager."""
    scale, clean = _hook_state(act)
    if not clean or type(act) not in FUSED_ACTIVATIONS:
        return None
    return FUSED_ACTIVATIONS[type(act)], scale


def _input_scale(builder: PlanBuilder, quantizer) -> Optional[float]:
    """The grid an int8 plan quantizes a float input onto, or None.

    ``quantize_ofscil_model`` stamps the backbone with an ``input_quantizer``
    calibrated on the same data as the activation pass (mirroring the int8
    camera input of the deployed GAP9 graph) and the FCR with the quantizer
    of the backbone's pooled output (whose grid the eager path's fake-quant
    already imposed, so quantizing there is exact).  Float32 plans ignore
    the stamps.
    """
    if builder.int8 and quantizer is not None \
            and getattr(quantizer, "calibrated", False) and quantizer.bits == 8:
        return float(quantizer.scale)
    return None


def _emit_quantize(builder: PlanBuilder, name: str, x: str,
                   scale: float) -> str:
    out = builder.emit("quantize", name, (x,), attrs={"scale": float(scale)},
                       hint="q8")
    builder.scales[out] = float(scale)
    return out


def _ensure_float(builder: PlanBuilder, x: str, name: str) -> str:
    """Dequantize ``x`` when it is an int8 register; float passes through."""
    scale = builder.scales.get(x)
    if scale is None:
        return x
    return builder.emit("dequantize", name, (x,), attrs={"scale": scale},
                        hint="dq")


def _emit_opaque(builder: PlanBuilder, module: Module, name: str,
                 x: str) -> str:
    """Semantic-preserving fallback: run the module eagerly on float input."""
    x = _ensure_float(builder, x, f"{name}.dq_in")
    return builder.emit("opaque", name, (x,), module=module, hint="opq")


def _act_clamp(act: Optional[str], scale: float):
    """Int8 clamp bounds expressing ``act`` followed by fake-quant at ``scale``."""
    if act is None:
        return INT8_QMIN, INT8_QMAX
    if act == "relu":
        return 0, INT8_QMAX
    if act == "relu6":
        return 0, min(INT8_QMAX, int(np.rint(6.0 / scale)))
    raise ValueError(f"activation {act!r} cannot be fused into an int8 clamp")


def _emit_conv(builder: PlanBuilder, name: str, x: str, conv: Conv2d,
               bn, act: Optional[str], out_scale: Optional[float]) -> str:
    """Lower one (folded) convolution.

    Float input -> the float32 ``conv`` kernel, re-entering the int8 domain
    when an output scale is known.  Int8 input + calibrated output scale ->
    ``qconv`` (int32 accumulate, per-channel requantize, activation fused
    into the clamp).  Int8 input without an output scale ->
    ``qconv_dequant`` (float output).
    """
    weight, bias = fold_conv_bn(conv, bn)
    attrs = {"stride": conv.stride, "padding": conv.padding,
             "groups": conv.groups}
    s_x = builder.scales.get(x)
    if s_x is None:
        out = builder.emit("conv", name, (x,),
                           arrays={"weight": weight, "bias": bias},
                           attrs=dict(attrs, act=act), hint="conv")
        if out_scale is not None:
            out = _emit_quantize(builder, f"{name}.quant", out, out_scale)
        return out

    weight_q, w_scales = quantize_weight_per_channel(weight)
    if out_scale is None:
        dequant = (s_x * w_scales).astype(np.float64)
        acc_bound = conv_accumulator_bound(weight_q)
        if acc_bound > INT32_ACC_LIMIT:
            raise Int8CompilationError(
                f"layer {name!r}: accumulator bound {acc_bound} exceeds int32")
        return builder.emit(
            "qconv_dequant", name, (x,),
            arrays={"weight": weight_q, "dequant": dequant,
                    "bias": bias.astype(np.float32)},
            attrs=dict(attrs, act=act, acc_bound=acc_bound), hint="qconv")

    bias_codes = np.rint(bias.astype(np.float64) / (s_x * w_scales))
    if np.abs(bias_codes).max(initial=0.0) > INT32_ACC_LIMIT:
        raise Int8CompilationError(
            f"layer {name!r}: folded bias does not fit the int32 accumulator")
    bias_q = bias_codes.astype(np.int32)
    multiplier = ((s_x * w_scales) / out_scale).astype(np.float64)
    acc_bound = conv_accumulator_bound(weight_q, bias_q)
    if acc_bound > INT32_ACC_LIMIT:
        raise Int8CompilationError(
            f"layer {name!r}: accumulator bound {acc_bound} exceeds int32")
    qmin, qmax = _act_clamp(act, out_scale)
    out = builder.emit(
        "qconv", name, (x,),
        arrays={"weight": weight_q, "bias": bias_q, "multiplier": multiplier},
        attrs=dict(attrs, act=act, scale=float(out_scale), qmin=qmin,
                   qmax=qmax, acc_bound=acc_bound), hint="qconv")
    builder.scales[out] = float(out_scale)
    return out


def _lower_linear(builder: PlanBuilder, linear: Linear, name: str, x: str,
                  input_quantizer=None) -> str:
    if linear._forward_hooks:
        return _emit_opaque(builder, linear, name, x)
    s_x = builder.scales.get(x)
    if s_x is None:
        if input_quantizer is None:
            input_quantizer = getattr(linear, "input_quantizer", None)
        s_x = _input_scale(builder, input_quantizer)
        if s_x is not None:
            x = _emit_quantize(builder, f"{name}.quant_in", x, s_x)
    if s_x is None:
        # No input grid: stay on the float path (live-module weights).
        return builder.emit("linear", name, (x,), module=linear,
                            attrs={"act": None}, hint="fc")
    weight = linear.weight.data.astype(np.float32)
    weight_q, w_scales = quantize_weight_per_channel(weight)
    acc_bound = conv_accumulator_bound(weight_q)
    if acc_bound > INT32_ACC_LIMIT:
        raise Int8CompilationError(
            f"layer {name!r}: accumulator bound {acc_bound} exceeds int32")
    arrays = {"weight": weight_q,
              "dequant": (s_x * w_scales).astype(np.float64)}
    if linear.bias is not None:
        arrays["bias"] = linear.bias.data.astype(np.float32)
    return builder.emit("qlinear", name, (x,), arrays=arrays,
                        attrs={"act": None, "acc_bound": acc_bound}, hint="qfc")


def _lower_conv_bn_act(builder: PlanBuilder, module: ConvBNReLU, name: str,
                       x: str) -> str:
    fused = _fused_activation(module.act)
    if fused is None or not _modules_hook_free(module.conv, module.bn):
        return _emit_opaque(builder, module, name, x)
    return _emit_conv(builder, name, x, module.conv, module.bn, *fused)


def _lower_inverted_residual(builder: PlanBuilder, module: InvertedResidual,
                             name: str, x: str,
                             block_scale: Optional[float]) -> str:
    if not _modules_hook_free(module.project, module.project_bn):
        return _emit_opaque(builder, module, name, x)
    out = x
    if module.expand is not None:
        out = _lower(builder, module.expand, f"{name}.expand", out)
    out = _lower(builder, module.depthwise, f"{name}.dw", out)
    if module.use_residual:
        out = _emit_conv(builder, f"{name}.project", out, module.project,
                         module.project_bn, None, None)
        out = _ensure_float(builder, out, f"{name}.project_dq")
        shortcut = _ensure_float(builder, x, f"{name}.residual_dq")
        out = builder.emit("add", f"{name}.residual", (out, shortcut),
                           attrs={"act": None}, hint="add")
        if block_scale is not None:
            out = _emit_quantize(builder, f"{name}.requant", out, block_scale)
        return out
    return _emit_conv(builder, f"{name}.project", out, module.project,
                      module.project_bn, None, block_scale)


def _emit_block_requant(builder: PlanBuilder, name: str, x: str,
                        block_scale: Optional[float]) -> str:
    """Re-enter the block-output grid (Dory-style requant after the residual).

    Replays the eager path's block-output fake-quant: the register is
    dequantized off its current grid and re-quantized onto the calibrated
    block grid (the fusion pass collapses the pair into one ``qrequantize``).
    When the register already sits on the block grid the extra hop is the
    exact identity (``rint(q * s / s) == q``) and is skipped.
    """
    if block_scale is None or builder.scales.get(x) == block_scale:
        return x
    x = _ensure_float(builder, x, f"{name}.block_dq")
    return _emit_quantize(builder, f"{name}.block_requant", x, block_scale)


def _lower_resnet12_block(builder: PlanBuilder, module: ResNet12Block,
                          name: str, x: str,
                          block_scale: Optional[float]) -> str:
    fused = _fused_activation(module.relu)
    if fused is None or not _modules_hook_free(
            module.conv1, module.bn1, module.conv2, module.bn2, module.conv3,
            module.bn3, module.shortcut, module.shortcut_bn, module.pool):
        return _emit_opaque(builder, module, name, x)
    act, relu_scale = fused
    residual = _emit_conv(builder, f"{name}.shortcut", x, module.shortcut,
                          module.shortcut_bn, None, None)
    out = _emit_conv(builder, f"{name}.conv1", x, module.conv1, module.bn1,
                     act, relu_scale)
    out = _emit_conv(builder, f"{name}.conv2", out, module.conv2, module.bn2,
                     act, relu_scale)
    out = _emit_conv(builder, f"{name}.conv3", out, module.conv3, module.bn3,
                     None, None)
    out = _ensure_float(builder, out, f"{name}.conv3_dq")
    residual = _ensure_float(builder, residual, f"{name}.shortcut_dq")
    out = builder.emit("add", f"{name}.residual", (out, residual),
                       attrs={"act": act}, hint="add")
    if relu_scale is not None:
        out = _emit_quantize(builder, f"{name}.requant", out, relu_scale)
    if module.pool is not None:
        out = _lower(builder, module.pool, f"{name}.pool", out)
    # The block hook observes the *post-pool* output (max pooling commutes
    # with the positive grid scale, so pooling codes first is exact).
    return _emit_block_requant(builder, name, out, block_scale)


def _lower_basic_block(builder: PlanBuilder, module: BasicBlock, name: str,
                       x: str, block_scale: Optional[float]) -> str:
    fused = _fused_activation(module.relu)
    if fused is None or not _modules_hook_free(
            module.conv1, module.bn1, module.conv2, module.bn2,
            module.downsample, module.downsample_bn):
        return _emit_opaque(builder, module, name, x)
    act, relu_scale = fused
    if module.downsample is not None:
        # Strided 1x1 projection shortcut: integer conv, dequantized into the
        # float residual accumulation (the fusion pass folds the dequantize
        # into the add).
        residual = _emit_conv(builder, f"{name}.downsample", x,
                              module.downsample, module.downsample_bn,
                              None, None)
        residual = _ensure_float(builder, residual, f"{name}.downsample_dq")
    else:
        # Identity shortcut: the int8 input joins the add on its own grid.
        residual = _ensure_float(builder, x, f"{name}.residual_dq")
    out = _emit_conv(builder, f"{name}.conv1", x, module.conv1, module.bn1,
                     act, relu_scale)
    out = _emit_conv(builder, f"{name}.conv2", out, module.conv2, module.bn2,
                     None, None)
    out = _ensure_float(builder, out, f"{name}.conv2_dq")
    out = builder.emit("add", f"{name}.residual", (out, residual),
                       attrs={"act": act}, hint="add")
    if relu_scale is not None:
        out = _emit_quantize(builder, f"{name}.requant", out, relu_scale)
    return _emit_block_requant(builder, name, out, block_scale)


def _emit_max_pool(builder: PlanBuilder, name: str, x: str,
                   kernel_size: int, stride: int) -> str:
    """Max pooling is order-preserving, so it runs directly on int8 codes."""
    scale = builder.scales.get(x)
    out = builder.emit("max_pool", name, (x,),
                       attrs={"kernel_size": kernel_size, "stride": stride},
                       hint="maxp")
    if scale is not None:
        builder.scales[out] = scale
    return out


def _lower_global_pool(builder: PlanBuilder, pool: GlobalAvgPool2d,
                       name: str, x: str, integer: bool = False) -> str:
    """Global average pooling + the (optional) pool-output fake-quant.

    ``integer=True`` (the ResNet trunks, whose int8 lowering committed to it
    from the start) pools int8 codes through the exact integer-accumulation
    kernel (``qglobal_pool``) instead of dequantizing first; the MobileNetV2
    family keeps the original float pool so its committed golden bits stay
    untouched.  Both paths are deterministic across chunkings and backends.
    """
    pool_scale, pool_clean = _hook_state(pool)
    if not pool_clean:
        return _emit_opaque(builder, pool, name, x)
    in_scale = builder.scales.get(x)
    if integer and in_scale is not None:
        out = builder.emit("qglobal_pool", name, (x,),
                           attrs={"scale": in_scale}, hint="qgap")
    else:
        x = _ensure_float(builder, x, f"{name}.dq")
        out = builder.emit("global_pool", name, (x,), hint="gap")
    if pool_scale is not None:
        out = builder.emit("requantize", f"{name}.requant", (out,),
                           attrs={"scale": pool_scale}, hint="rq")
    return out


def _lower_pool_child(builder: PlanBuilder, pool: Module, name: str, x: str,
                      integer: bool = False) -> str:
    """A backbone's ``pool`` child: the global pool rule for a
    :class:`GlobalAvgPool2d`, the generic lowering for any other module."""
    if isinstance(pool, GlobalAvgPool2d):
        return _lower_global_pool(builder, pool, name, x, integer)
    return _lower(builder, pool, name, x)


def _lower(builder: PlanBuilder, module: Module, name: str, x: str) -> str:
    """Emit steps computing ``module(x)``; returns the output register.

    A float32 plan keeps any subtree that carries a forward hook eager.  An
    int8 plan compiles the frozen activation quantizers into
    quantize/requantize steps; other hooks still force an opaque step (see
    :func:`_hook_state`).
    """
    if builder.int8:
        scale, clean = _hook_state(module)
    else:
        scale, clean = None, not has_hooks(module)
    if not clean:
        return _emit_opaque(builder, module, name, x)

    if isinstance(module, ConvBNReLU):
        return _lower_conv_bn_act(builder, module, name, x)
    if isinstance(module, InvertedResidual):
        return _lower_inverted_residual(builder, module, name, x, scale)
    if isinstance(module, ResNet12Block):
        return _lower_resnet12_block(builder, module, name, x, scale)
    if isinstance(module, BasicBlock):
        return _lower_basic_block(builder, module, name, x, scale)
    if scale is not None and not isinstance(module, (ReLU, ReLU6,
                                                     GlobalAvgPool2d)):
        # A quantizer on a module type without a dedicated int8 rule: keep
        # the eager semantics rather than guessing where the grid applies.
        return _emit_opaque(builder, module, name, x)
    if isinstance(module, MobileNetV2Backbone):
        out = _lower(builder, module.stem, f"{name}.stem", x)
        out = _lower(builder, module.blocks, f"{name}.blocks", out)
        out = _lower(builder, module.head, f"{name}.head", out)
        return _lower_pool_child(builder, module.pool, f"{name}.pool", out)
    if isinstance(module, ResNet12Backbone):
        out = _lower(builder, module.blocks, f"{name}.blocks", x)
        return _lower_pool_child(builder, module.pool, f"{name}.pool", out,
                                 integer=True)
    if isinstance(module, ResNet20Backbone):
        fused = _fused_activation(module.relu)
        if fused is None or not _modules_hook_free(module.stem,
                                                   module.stem_bn):
            return _emit_opaque(builder, module, name, x)
        out = _emit_conv(builder, f"{name}.stem", x, module.stem,
                         module.stem_bn, *fused)
        out = _lower(builder, module.blocks, f"{name}.blocks", out)
        return _lower_pool_child(builder, module.pool, f"{name}.pool", out,
                                 integer=True)
    if isinstance(module, FullyConnectedReductor):
        return _lower_linear(
            builder, module.linear, f"{name}.linear", x,
            input_quantizer=getattr(module, "input_quantizer", None))
    if isinstance(module, Sequential):
        out = x
        for index in range(len(module)):
            out = _lower(builder, module[index], f"{name}.{index}", out)
        return out
    if isinstance(module, Conv2d):
        return _emit_conv(builder, name, x, module, None, None, None)
    if isinstance(module, (BatchNorm2d, BatchNorm1d)):
        x = _ensure_float(builder, x, f"{name}.dq")
        bn_scale, shift = bn_scale_shift(module)
        return builder.emit("bn", name, (x,),
                            arrays={"scale": bn_scale, "shift": shift},
                            attrs={"act": None}, hint="bn")
    if isinstance(module, Linear):
        return _lower_linear(builder, module, name, x)
    if isinstance(module, (ReLU, ReLU6)):
        act = "relu" if isinstance(module, ReLU) else "relu6"
        x = _ensure_float(builder, x, f"{name}.dq")
        out = builder.emit("act", name, (x,), attrs={"act": act}, hint=act)
        if scale is not None:
            out = _emit_quantize(builder, f"{name}.quant", out, scale)
        return out
    if isinstance(module, GlobalAvgPool2d):
        return _lower_global_pool(builder, module, name, x)
    if isinstance(module, MaxPool2d):
        return _emit_max_pool(builder, name, x, module.kernel_size,
                              module.stride)
    if isinstance(module, AvgPool2d):
        x = _ensure_float(builder, x, f"{name}.dq")
        return builder.emit("avg_pool", name, (x,),
                            attrs={"kernel_size": module.kernel_size,
                                   "stride": module.stride}, hint="avgp")
    if isinstance(module, Flatten):
        out = builder.emit("flatten", name, (x,), hint="flat")
        if x in builder.scales:
            builder.scales[out] = builder.scales[x]
        return out
    if isinstance(module, (Identity, Dropout)):
        # Dropout is the identity at inference time.
        return x
    # Unknown module: keep it, eagerly.
    return _emit_opaque(builder, module, name, x)
