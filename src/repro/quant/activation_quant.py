"""Activation quantization via forward hooks.

Activation tensors are quantized at the output of every activation layer
(ReLU6 / ReLU) and at the backbone output, mirroring where Dory inserts
requantization nodes on GAP9.  The pass has two phases:

1. **Calibration** — observers attached to the hook points record activation
   ranges over calibration batches.
2. **Quantization** — each hook point gets a frozen :class:`TQTQuantizer`
   and every forward pass fake-quantizes the activation (with a
   straight-through gradient, so quantization-aware refinement still works).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..models.mobilenetv2 import InvertedResidual
from ..models.resnet import BasicBlock, ResNet12Block
from ..nn.modules import GlobalAvgPool2d, Module, ReLU, ReLU6
from ..nn.tensor import Tensor
from .fake_quant import fake_quantize
from .observer import make_observer
from .tqt import TQTQuantizer


#: Hook points: activation outputs, the pooled backbone output and the
#: residual-block outputs (Dory requantizes after every residual add on
#: GAP9, and the integer runtime needs a calibrated grid there to re-enter
#: the int8 domain after the float residual accumulation).  Block-output
#: grids exist for every residual family: MobileNetV2's
#: :class:`InvertedResidual` and the ResNet trunks'
#: :class:`~repro.models.resnet.BasicBlock` / :class:`ResNet12Block`, whose
#: hooks observe the post-activation (ResNet-12: post-pool) block output —
#: the tensor the downsample/identity shortcut of the *next* block consumes,
#: so shortcut and main path share one calibrated scale at the join.
DEFAULT_HOOK_TYPES = (ReLU, ReLU6, GlobalAvgPool2d, InvertedResidual,
                      BasicBlock, ResNet12Block)


@dataclass
class ActivationQuantizationReport:
    """Per-hook-point calibration summary."""

    thresholds: Dict[str, float] = field(default_factory=dict)
    bits: int = 8

    @property
    def num_points(self) -> int:
        return len(self.thresholds)


class ActivationQuantizer:
    """Manages observation and fake quantization of one module's output."""

    def __init__(self, name: str, bits: int = 8, observer_kind: str = "percentile"):
        self.name = name
        self.bits = bits
        self.observer = make_observer(observer_kind)
        self.quantizer: Optional[TQTQuantizer] = None
        self.mode = "off"   # "off" | "observe" | "quantize"

    def __call__(self, _module: Module, output: Tensor):
        if self.mode == "observe":
            self.observer.observe(output.data)
            return None
        if self.mode == "quantize" and self.quantizer is not None:
            return fake_quantize(output, self.quantizer.threshold, self.bits)
        return None

    @property
    def scale(self) -> float:
        """Int8 grid step of the frozen quantizer."""
        if self.quantizer is None:
            raise RuntimeError(f"activation point {self.name!r} is not frozen")
        return self.quantizer.scale

    def freeze(self) -> None:
        """Derive the quantizer threshold from the observed range."""
        if not self.observer.calibrated:
            raise RuntimeError(f"activation point {self.name!r} never observed data")
        bound = self.observer.range().max_abs
        quantizer = TQTQuantizer(bits=self.bits)
        # Threshold search around the observed range (power-of-two, TQT-style).
        quantizer.calibrate(np.asarray([bound, -bound], dtype=np.float32))
        self.quantizer = quantizer
        self.mode = "quantize"


class ActivationQuantizationPass:
    """Attach, calibrate and enable activation quantization on a model."""

    def __init__(self, model: Module, bits: int = 8,
                 hook_types=DEFAULT_HOOK_TYPES, observer_kind: str = "percentile"):
        self.model = model
        self.bits = bits
        self.hook_types = tuple(hook_types)
        self.observer_kind = observer_kind
        self.quantizers: List[ActivationQuantizer] = []
        self._modules: List[Module] = []
        self.input_quantizer: Optional[TQTQuantizer] = None
        self._attach()

    def _attach(self) -> None:
        for name, module in self.model.named_modules():
            if isinstance(module, self.hook_types):
                quantizer = ActivationQuantizer(name or module.__class__.__name__,
                                                bits=self.bits,
                                                observer_kind=self.observer_kind)
                module.register_forward_hook(quantizer)
                self.quantizers.append(quantizer)
                self._modules.append(module)

    def quantizer_for(self, module: Module) -> Optional[ActivationQuantizer]:
        """The quantizer this pass attached to ``module`` (None if none)."""
        for hooked, quantizer in zip(self._modules, self.quantizers):
            if hooked is module:
                return quantizer
        return None

    # ------------------------------------------------------------------
    def calibrate(self, images: np.ndarray, batch_size: int = 64,
                  forward=None) -> ActivationQuantizationReport:
        """Observe activation ranges on calibration data and freeze scales."""
        from ..nn.tensor import no_grad
        for quantizer in self.quantizers:
            quantizer.mode = "observe"
        was_training = self.model.training
        self.model.eval()
        images = np.asarray(images, dtype=np.float32)
        with no_grad():
            for start in range(0, len(images), batch_size):
                batch = Tensor(images[start:start + batch_size])
                if forward is not None:
                    forward(self.model, batch)
                else:
                    self.model(batch)
        for quantizer in self.quantizers:
            quantizer.freeze()
        # Calibrate the model-input grid on the same data (the deployed GAP9
        # graph consumes an int8 image tensor) and stamp it on the model so
        # the int8 compiler can quantize the plan input without a live
        # reference to this pass.
        self.input_quantizer = TQTQuantizer(bits=self.bits).calibrate(images)
        self.model.input_quantizer = self.input_quantizer
        self.model.train(was_training)
        return self.report()

    def report(self) -> ActivationQuantizationReport:
        report = ActivationQuantizationReport(bits=self.bits)
        for quantizer in self.quantizers:
            if quantizer.quantizer is not None:
                report.thresholds[quantizer.name] = quantizer.quantizer.threshold
        return report

    def enable(self) -> None:
        for quantizer in self.quantizers:
            if quantizer.quantizer is not None:
                quantizer.mode = "quantize"

    def disable(self) -> None:
        for quantizer in self.quantizers:
            quantizer.mode = "off"

    def detach(self) -> None:
        """Remove every hook installed by this pass."""
        for module, quantizer in zip(self._modules, self.quantizers):
            module.remove_forward_hook(quantizer)
        self.quantizers.clear()
        self._modules.clear()
        if getattr(self.model, "input_quantizer", None) is self.input_quantizer:
            self.model.input_quantizer = None
        self.input_quantizer = None
