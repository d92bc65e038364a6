"""Compile module trees into flat inference plans.

The compiler walks the structure of the model (no tracing pass is needed —
the architectures used by the reproduction are static) and emits one
:class:`~repro.runtime.plan.Step` per fused operation:

* ``Conv2d -> BatchNorm2d -> ReLU/ReLU6`` chains collapse into a single
  ``conv`` step whose weights have the batch-norm scale folded in and whose
  activation is applied in place on the GEMM output (the activation its
  ``act`` or ``relu`` child is, see :data:`FUSED_ACTIVATIONS`);
* ``Linear`` layers become ``linear`` steps that read their weights from the
  live module at execution time, so in-place fine-tuning needs no recompile;
* residual additions become explicit ``add`` steps over named registers;
* any module that carries forward hooks anywhere in its subtree (activation
  fake-quantisation attaches hooks) — or whose type the compiler does not
  know — is kept as an ``opaque`` step that calls the module eagerly, so
  compilation never changes semantics, only speed.

Known model classes (:class:`MobileNetV2Backbone`, :class:`ResNet12Backbone`,
:class:`ResNet20Backbone` and the composite blocks they are built from) get
dedicated lowering rules; everything else falls back to generic traversal.

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
#: Any other module runs after its conv on its own (``ConvBNReLU`` and the
#: stem in float32) or keeps its block eager.
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
    """Accumulates steps while threading register names through the graph."""

    def __init__(self, name: str):
        self.name = name
        self.steps = []
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

    ``mode="float32"`` is the classic lowering (hooked subtrees fall back to
    opaque eager steps).  ``mode="int8"`` lowers conv/linear layers of a
    quantized model to integer kernels, turning activation fake-quant hooks
    into first-class ``quantize``/``requantize`` plan ops (see
    :func:`_lower_int8`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown compile mode {mode!r}; expected one of {MODES}")
    name = name or module.__class__.__name__
    if mode == "int8":
        return _compile_int8(module, name)
    builder = PlanBuilder(name)
    return builder.build("x", _lower(builder, module, name, "x"))


def compile_backbone(backbone: Module, mode: str = "float32") -> InferencePlan:
    """Compile a feature-extractor backbone (images -> ``theta_a``)."""
    return compile_module(backbone, backbone.__class__.__name__, mode=mode)


# ---------------------------------------------------------------------------
# Lowering rules
# ---------------------------------------------------------------------------
def _lower(builder: PlanBuilder, module: Module, name: str, x: str) -> str:
    """Emit steps computing ``module(x)`` and return the output register."""
    if has_hooks(module):
        # Hooked modules (activation fake-quantisation, probes, ...) must run
        # through the eager path to keep their side effects and rewrites.
        return builder.emit("opaque", name, (x,), module=module, hint="opq")

    if isinstance(module, ConvBNReLU):
        return _lower_conv_bn_then(builder, name, x, module.conv, module.bn,
                                   module.act)
    if isinstance(module, InvertedResidual):
        return _lower_inverted_residual(builder, module, name, x)
    if isinstance(module, (ResNet12Block, BasicBlock)) \
            and type(module.relu) not in FUSED_ACTIVATIONS:
        # The block applies its relu child after two or three of its steps;
        # one with no fused form keeps the block on the eager path.
        return builder.emit("opaque", name, (x,), module=module, hint="opq")
    if isinstance(module, ResNet12Block):
        return _lower_resnet12_block(builder, module, name, x)
    if isinstance(module, BasicBlock):
        return _lower_basic_block(builder, module, name, x)
    if isinstance(module, MobileNetV2Backbone):
        out = _lower(builder, module.stem, f"{name}.stem", x)
        out = _lower(builder, module.blocks, f"{name}.blocks", out)
        out = _lower(builder, module.head, f"{name}.head", out)
        return _lower(builder, module.pool, f"{name}.pool", out)
    if isinstance(module, ResNet12Backbone):
        out = _lower(builder, module.blocks, f"{name}.blocks", x)
        return _lower(builder, module.pool, f"{name}.pool", out)
    if isinstance(module, ResNet20Backbone):
        out = _lower_conv_bn_then(builder, f"{name}.stem", x, module.stem,
                                  module.stem_bn, module.relu)
        out = _lower(builder, module.blocks, f"{name}.blocks", out)
        return _lower(builder, module.pool, f"{name}.pool", out)
    if isinstance(module, FullyConnectedReductor):
        return _lower(builder, module.linear, f"{name}.linear", x)
    if isinstance(module, Sequential):
        out = x
        for index in range(len(module)):
            out = _lower(builder, module[index], f"{name}.{index}", out)
        return out
    if isinstance(module, Conv2d):
        weight, bias = fold_conv_bn(module, None)
        return builder.emit(
            "conv", name, (x,), arrays={"weight": weight, "bias": bias},
            attrs={"stride": module.stride, "padding": module.padding,
                   "groups": module.groups, "act": None}, hint="conv")
    if isinstance(module, (BatchNorm2d, BatchNorm1d)):
        scale, shift = bn_scale_shift(module)
        return builder.emit("bn", name, (x,),
                            arrays={"scale": scale, "shift": shift},
                            attrs={"act": None}, hint="bn")
    if isinstance(module, Linear):
        return builder.emit("linear", name, (x,), module=module,
                            attrs={"act": None}, hint="fc")
    if isinstance(module, ReLU):
        return builder.emit("act", name, (x,), attrs={"act": "relu"},
                            hint="relu")
    if isinstance(module, ReLU6):
        return builder.emit("act", name, (x,), attrs={"act": "relu6"},
                            hint="relu6")
    if isinstance(module, GlobalAvgPool2d):
        return builder.emit("global_pool", name, (x,), hint="gap")
    if isinstance(module, MaxPool2d):
        return builder.emit("max_pool", name, (x,),
                            attrs={"kernel_size": module.kernel_size,
                                   "stride": module.stride}, hint="maxp")
    if isinstance(module, AvgPool2d):
        return builder.emit("avg_pool", name, (x,),
                            attrs={"kernel_size": module.kernel_size,
                                   "stride": module.stride}, hint="avgp")
    if isinstance(module, Flatten):
        return builder.emit("flatten", name, (x,), hint="flat")
    if isinstance(module, (Identity, Dropout)):
        # Dropout is the identity at inference time.
        return x
    # Unknown module: keep it, eagerly.
    return builder.emit("opaque", name, (x,), module=module, hint="opq")


def _lower_conv_bn_act(builder: PlanBuilder, name: str, x: str, conv: Conv2d,
                       bn: Optional[BatchNorm2d], act: Optional[str]) -> str:
    weight, bias = fold_conv_bn(conv, bn)
    return builder.emit(
        "conv", name, (x,), arrays={"weight": weight, "bias": bias},
        attrs={"stride": conv.stride, "padding": conv.padding,
               "groups": conv.groups, "act": act}, hint="conv")


def _lower_conv_bn_then(builder: PlanBuilder, name: str, x: str,
                        conv: Conv2d, bn: Optional[BatchNorm2d],
                        act: Module) -> str:
    """Conv + bn, then the activation module ``act``: fused into the conv
    when :data:`FUSED_ACTIVATIONS` has its exact type, otherwise lowered on
    its own after the conv."""
    if type(act) in FUSED_ACTIVATIONS:
        return _lower_conv_bn_act(builder, name, x, conv, bn,
                                  FUSED_ACTIVATIONS[type(act)])
    out = _lower_conv_bn_act(builder, name, x, conv, bn, None)
    return _lower(builder, act, f"{name}.act", out)


def _lower_inverted_residual(builder: PlanBuilder, module: InvertedResidual,
                             name: str, x: str) -> str:
    out = x
    if module.expand is not None:
        out = _lower(builder, module.expand, f"{name}.expand", out)
    out = _lower(builder, module.depthwise, f"{name}.dw", out)
    out = _lower_conv_bn_act(builder, f"{name}.project", out, module.project,
                             module.project_bn, None)
    if module.use_residual:
        out = builder.emit("add", f"{name}.residual", (out, x),
                           attrs={"act": None}, hint="add")
    return out


def _lower_resnet12_block(builder: PlanBuilder, module: ResNet12Block,
                          name: str, x: str) -> str:
    act = FUSED_ACTIVATIONS[type(module.relu)]
    residual = _lower_conv_bn_act(builder, f"{name}.shortcut", x,
                                  module.shortcut, module.shortcut_bn, None)
    out = _lower_conv_bn_act(builder, f"{name}.conv1", x, module.conv1,
                             module.bn1, act)
    out = _lower_conv_bn_act(builder, f"{name}.conv2", out, module.conv2,
                             module.bn2, act)
    out = _lower_conv_bn_act(builder, f"{name}.conv3", out, module.conv3,
                             module.bn3, None)
    out = builder.emit("add", f"{name}.residual", (out, residual),
                       attrs={"act": act}, hint="add")
    if module.pool is not None:
        out = _lower(builder, module.pool, f"{name}.pool", out)
    return out


def _lower_basic_block(builder: PlanBuilder, module: BasicBlock, name: str,
                       x: str) -> str:
    act = FUSED_ACTIVATIONS[type(module.relu)]
    if module.downsample is not None:
        residual = _lower_conv_bn_act(builder, f"{name}.downsample", x,
                                      module.downsample, module.downsample_bn,
                                      None)
    else:
        residual = x
    out = _lower_conv_bn_act(builder, f"{name}.conv1", x, module.conv1,
                             module.bn1, act)
    out = _lower_conv_bn_act(builder, f"{name}.conv2", out, module.conv2,
                             module.bn2, None)
    return builder.emit("add", f"{name}.residual", (out, residual),
                        attrs={"act": act}, hint="add")


# ---------------------------------------------------------------------------
# Int8 lowering
# ---------------------------------------------------------------------------
# The int8 compiler produces mixed-precision plans.  Registers are either
# float32 or int8; for every int8 register the builder records the static
# quantization scale decided at compile time, so the emitted plan carries no
# live module references for quantization (the eager path's activation
# fake-quant hooks become explicit ``quantize``/``requantize``/``dequantize``
# steps) and survives pickling unchanged.
#
# Scale propagation follows the calibrated hook points of
# :class:`repro.quant.ActivationQuantizationPass`: a conv whose fused
# activation carries a frozen quantizer requantizes its int32 accumulator
# straight back to int8 (``qconv``); a conv with no calibrated output range
# (e.g. the projection conv feeding a residual add) dequantizes to float
# (``qconv_dequant``), the add runs in float, and the block-output quantizer
# re-enters the int8 domain.  Residual trunks of every registered family
# lower this way: MobileNetV2's ``InvertedResidual`` and the ResNet
# ``BasicBlock``/``ResNet12Block`` (strided 1x1 downsample or identity
# shortcut joining the add on its own grid, Dory-style block-output requant
# after the residual, integer global average pooling).  Layers whose input
# arrives in float with no known scale fall back to the float32 kernels —
# compilation degrades precision-wise, never semantically.


class _Int8Builder(PlanBuilder):
    """Plan builder that also tracks the int8 scale of each register."""

    def __init__(self, name: str):
        super().__init__(name)
        self.scales = {}          # register name -> float scale (int8 regs only)


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


def _emit_quantize(builder: _Int8Builder, name: str, x: str,
                   scale: float) -> str:
    out = builder.emit("quantize", name, (x,), attrs={"scale": float(scale)},
                       hint="q8")
    builder.scales[out] = float(scale)
    return out


def _ensure_float(builder: _Int8Builder, x: str, name: str) -> str:
    """Dequantize ``x`` when it is an int8 register; float passes through."""
    scale = builder.scales.get(x)
    if scale is None:
        return x
    return builder.emit("dequantize", name, (x,), attrs={"scale": scale},
                        hint="dq")


def _emit_input_quantize(builder: _Int8Builder, module: Module, x: str) -> str:
    """Quantize the plan input when the module has a calibrated quantizer.

    ``quantize_ofscil_model`` stamps the backbone with an ``input_quantizer``
    calibrated on the same data as the activation pass (mirroring the int8
    camera input of the deployed GAP9 graph) and the FCR with the quantizer
    of the backbone's pooled output (whose grid the eager path's fake-quant
    already imposed, so quantizing there is exact).
    """
    quantizer = getattr(module, "input_quantizer", None)
    if quantizer is not None and getattr(quantizer, "calibrated", False) \
            and quantizer.bits == 8:
        return _emit_quantize(builder, f"{builder.name}.quant_in", x,
                              float(quantizer.scale))
    return x


def _compile_int8(module: Module, name: str) -> InferencePlan:
    builder = _Int8Builder(name)
    x = _emit_input_quantize(builder, module, "x")
    out = _lower_int8(builder, module, name, x)
    out = _ensure_float(builder, out, f"{name}.dequant_out")
    return builder.build("x", out)


def _emit_opaque_int8(builder: _Int8Builder, module: Module, name: str,
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


def _emit_conv_int8(builder: _Int8Builder, name: str, x: str, conv: Conv2d,
                    bn, act: Optional[str], out_scale: Optional[float]) -> str:
    """Lower one (folded) convolution inside an int8 plan.

    Int8 input + calibrated output scale -> ``qconv`` (int32 accumulate,
    per-channel requantize, activation fused into the clamp).  Int8 input
    without an output scale -> ``qconv_dequant`` (float output).  Float input
    -> the float32 conv kernel, optionally re-entering the int8 domain when
    an output scale is known.
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


def _lower_linear_int8(builder: _Int8Builder, linear: Linear, name: str,
                       x: str, input_quantizer=None) -> str:
    if linear._forward_hooks:
        return _emit_opaque_int8(builder, linear, name, x)
    s_x = builder.scales.get(x)
    if s_x is None:
        quantizer = input_quantizer if input_quantizer is not None \
            else getattr(linear, "input_quantizer", None)
        if quantizer is not None and getattr(quantizer, "calibrated", False) \
                and quantizer.bits == 8:
            x = _emit_quantize(builder, f"{name}.quant_in", x,
                               float(quantizer.scale))
            s_x = float(quantizer.scale)
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


def _lower_conv_bn_act_int8(builder: _Int8Builder, module: ConvBNReLU,
                            name: str, x: str) -> str:
    act = type(module.act)
    if act not in FUSED_ACTIVATIONS:
        return _emit_opaque_int8(builder, module, name, x)
    act_scale, act_clean = _hook_state(module.act)
    if not act_clean or not _modules_hook_free(module.conv, module.bn):
        return _emit_opaque_int8(builder, module, name, x)
    return _emit_conv_int8(builder, name, x, module.conv, module.bn,
                           FUSED_ACTIVATIONS[act], act_scale)


def _lower_inverted_residual_int8(builder: _Int8Builder,
                                  module: InvertedResidual, name: str, x: str,
                                  block_scale: Optional[float]) -> str:
    if not _modules_hook_free(module.project, module.project_bn):
        return _emit_opaque_int8(builder, module, name, x)
    out = x
    if module.expand is not None:
        out = _lower_int8(builder, module.expand, f"{name}.expand", out)
    out = _lower_int8(builder, module.depthwise, f"{name}.dw", out)
    if module.use_residual:
        out = _emit_conv_int8(builder, f"{name}.project", out, module.project,
                              module.project_bn, None, None)
        out = _ensure_float(builder, out, f"{name}.project_dq")
        shortcut = _ensure_float(builder, x, f"{name}.residual_dq")
        out = builder.emit("add", f"{name}.residual", (out, shortcut),
                           attrs={"act": None}, hint="add")
        if block_scale is not None:
            out = _emit_quantize(builder, f"{name}.requant", out, block_scale)
        return out
    return _emit_conv_int8(builder, f"{name}.project", out, module.project,
                           module.project_bn, None, block_scale)


def _emit_block_requant(builder: _Int8Builder, name: str, x: str,
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


def _lower_resnet12_block_int8(builder: _Int8Builder, module: ResNet12Block,
                               name: str, x: str,
                               block_scale: Optional[float]) -> str:
    relu_scale, relu_clean = _hook_state(module.relu)
    clean = _modules_hook_free(module.conv1, module.bn1, module.conv2,
                               module.bn2, module.conv3, module.bn3,
                               module.shortcut, module.shortcut_bn,
                               module.pool)
    if not relu_clean or not clean \
            or type(module.relu) not in FUSED_ACTIVATIONS:
        return _emit_opaque_int8(builder, module, name, x)
    act = FUSED_ACTIVATIONS[type(module.relu)]
    residual = _emit_conv_int8(builder, f"{name}.shortcut", x,
                               module.shortcut, module.shortcut_bn, None, None)
    out = _emit_conv_int8(builder, f"{name}.conv1", x, module.conv1,
                          module.bn1, act, relu_scale)
    out = _emit_conv_int8(builder, f"{name}.conv2", out, module.conv2,
                          module.bn2, act, relu_scale)
    out = _emit_conv_int8(builder, f"{name}.conv3", out, module.conv3,
                          module.bn3, None, None)
    out = _ensure_float(builder, out, f"{name}.conv3_dq")
    residual = _ensure_float(builder, residual, f"{name}.shortcut_dq")
    out = builder.emit("add", f"{name}.residual", (out, residual),
                       attrs={"act": act}, hint="add")
    if relu_scale is not None:
        out = _emit_quantize(builder, f"{name}.requant", out, relu_scale)
    if module.pool is not None:
        out = _lower_int8(builder, module.pool, f"{name}.pool", out)
    # The block hook observes the *post-pool* output (max pooling commutes
    # with the positive grid scale, so pooling codes first is exact).
    return _emit_block_requant(builder, name, out, block_scale)


def _lower_basic_block_int8(builder: _Int8Builder, module: BasicBlock,
                            name: str, x: str,
                            block_scale: Optional[float]) -> str:
    relu_scale, relu_clean = _hook_state(module.relu)
    clean = _modules_hook_free(module.conv1, module.bn1, module.conv2,
                               module.bn2, module.downsample,
                               module.downsample_bn)
    if not relu_clean or not clean \
            or type(module.relu) not in FUSED_ACTIVATIONS:
        return _emit_opaque_int8(builder, module, name, x)
    act = FUSED_ACTIVATIONS[type(module.relu)]
    if module.downsample is not None:
        # Strided 1x1 projection shortcut: integer conv, dequantized into the
        # float residual accumulation (the fusion pass folds the dequantize
        # into the add).
        residual = _emit_conv_int8(builder, f"{name}.downsample", x,
                                   module.downsample, module.downsample_bn,
                                   None, None)
        residual = _ensure_float(builder, residual, f"{name}.downsample_dq")
    else:
        # Identity shortcut: the int8 input joins the add on its own grid.
        residual = _ensure_float(builder, x, f"{name}.residual_dq")
    out = _emit_conv_int8(builder, f"{name}.conv1", x, module.conv1,
                          module.bn1, act, relu_scale)
    out = _emit_conv_int8(builder, f"{name}.conv2", out, module.conv2,
                          module.bn2, None, None)
    out = _ensure_float(builder, out, f"{name}.conv2_dq")
    out = builder.emit("add", f"{name}.residual", (out, residual),
                       attrs={"act": act}, hint="add")
    if relu_scale is not None:
        out = _emit_quantize(builder, f"{name}.requant", out, relu_scale)
    return _emit_block_requant(builder, name, out, block_scale)


def _emit_max_pool_int8(builder: _Int8Builder, name: str, x: str,
                        kernel_size: int, stride: int) -> str:
    """Max pooling is order-preserving, so it runs directly on int8 codes."""
    scale = builder.scales.get(x)
    out = builder.emit("max_pool", name, (x,),
                       attrs={"kernel_size": kernel_size, "stride": stride},
                       hint="maxp")
    if scale is not None:
        builder.scales[out] = scale
    return out


def _lower_global_pool_int8(builder: _Int8Builder, pool: GlobalAvgPool2d,
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
        return _emit_opaque_int8(builder, pool, name, x)
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


def _lower_pool_child_int8(builder: _Int8Builder, pool: Module, name: str,
                           x: str, integer: bool = False) -> str:
    """A backbone's ``pool`` child: the global pool rule for a
    :class:`GlobalAvgPool2d`, the generic lowering for any other module."""
    if isinstance(pool, GlobalAvgPool2d):
        return _lower_global_pool_int8(builder, pool, name, x, integer)
    return _lower_int8(builder, pool, name, x)


def _lower_int8(builder: _Int8Builder, module: Module, name: str, x: str) -> str:
    """Emit int8-plan steps computing ``module(x)``; returns the output register.

    Mirrors :func:`_lower` but never bails to opaque just because a subtree
    carries activation fake-quant hooks — those are compiled into explicit
    quantize/requantize steps.  Foreign hooks still force opaque fallbacks.
    """
    scale, clean = _hook_state(module)
    if not clean:
        return _emit_opaque_int8(builder, module, name, x)

    if isinstance(module, ConvBNReLU):
        return _lower_conv_bn_act_int8(builder, module, name, x)
    if isinstance(module, InvertedResidual):
        return _lower_inverted_residual_int8(builder, module, name, x, scale)
    if isinstance(module, ResNet12Block):
        return _lower_resnet12_block_int8(builder, module, name, x, scale)
    if isinstance(module, BasicBlock):
        return _lower_basic_block_int8(builder, module, name, x, scale)
    if scale is not None and not isinstance(module, (ReLU, ReLU6,
                                                     GlobalAvgPool2d)):
        # A quantizer on a module type without a dedicated int8 rule: keep
        # the eager semantics rather than guessing where the grid applies.
        return _emit_opaque_int8(builder, module, name, x)
    if isinstance(module, MobileNetV2Backbone):
        out = _lower_int8(builder, module.stem, f"{name}.stem", x)
        out = _lower_int8(builder, module.blocks, f"{name}.blocks", out)
        out = _lower_int8(builder, module.head, f"{name}.head", out)
        return _lower_pool_child_int8(builder, module.pool, f"{name}.pool",
                                      out)
    if isinstance(module, ResNet12Backbone):
        out = _lower_int8(builder, module.blocks, f"{name}.blocks", x)
        return _lower_pool_child_int8(builder, module.pool, f"{name}.pool",
                                      out, integer=True)
    if isinstance(module, ResNet20Backbone):
        if not _modules_hook_free(module.stem, module.stem_bn):
            return _emit_opaque_int8(builder, module, name, x)
        stem_scale, stem_clean = _hook_state(module.relu)
        if not stem_clean or type(module.relu) not in FUSED_ACTIVATIONS:
            return _emit_opaque_int8(builder, module, name, x)
        out = _emit_conv_int8(builder, f"{name}.stem", x, module.stem,
                              module.stem_bn,
                              FUSED_ACTIVATIONS[type(module.relu)],
                              stem_scale)
        out = _lower_int8(builder, module.blocks, f"{name}.blocks", out)
        return _lower_pool_child_int8(builder, module.pool, f"{name}.pool",
                                      out, integer=True)
    if isinstance(module, FullyConnectedReductor):
        return _lower_linear_int8(
            builder, module.linear, f"{name}.linear", x,
            input_quantizer=getattr(module, "input_quantizer", None))
    if isinstance(module, Sequential):
        out = x
        for index in range(len(module)):
            out = _lower_int8(builder, module[index], f"{name}.{index}", out)
        return out
    if isinstance(module, Conv2d):
        return _emit_conv_int8(builder, name, x, module, None, None, None)
    if isinstance(module, (BatchNorm2d, BatchNorm1d)):
        x = _ensure_float(builder, x, f"{name}.dq")
        bn_scale, shift = bn_scale_shift(module)
        return builder.emit("bn", name, (x,),
                            arrays={"scale": bn_scale, "shift": shift},
                            attrs={"act": None}, hint="bn")
    if isinstance(module, Linear):
        return _lower_linear_int8(builder, module, name, x)
    if isinstance(module, (ReLU, ReLU6)):
        act = "relu" if isinstance(module, ReLU) else "relu6"
        x = _ensure_float(builder, x, f"{name}.dq")
        out = builder.emit("act", name, (x,), attrs={"act": act}, hint=act)
        if scale is not None:
            out = _emit_quantize(builder, f"{name}.quant", out, scale)
        return out
    if isinstance(module, GlobalAvgPool2d):
        return _lower_global_pool_int8(builder, module, name, x)
    if isinstance(module, MaxPool2d):
        return _emit_max_pool_int8(builder, name, x, module.kernel_size,
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
        return x
    return _emit_opaque_int8(builder, module, name, x)
