"""The predictor's epoch check rebuilds an engine exactly when the walk would.

Between walks of the module tree, :class:`~repro.runtime.BatchedPredictor`
trusts ``Module.structure_epoch``: while it holds, only the parameters'
``data`` identities and the int8 quantizer settings are compared.  Random
sequences of changes — through every ``Module`` method that moves the epoch,
replacing a child that holds no parameters, ``param.data`` rebinds and int8
threshold changes (which do not move it), the same changes to a second
model (which move it but change nothing here), and plain accesses — must
leave each engine rebuilt exactly when the full walk (:meth:`_staleness` +
:meth:`_stale`) says stale, or the engine's module tree was replaced.  The
last tests swap the activation children (every ``ConvBNReLU.act`` and every
ResNet ``relu``) and the pool children of the registry backbones: the engine
is rebuilt, and the runtime lowers the new module instead of the one it
replaced, the same way in both modes.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.models.mobilenetv2 import ConvBNReLU
from repro.models.resnet import ResNet12Block
from repro.nn.modules import Module, Parameter
from repro.quant.activation_quant import ActivationQuantizer
from repro.runtime import BatchedPredictor, compare_with_eager, compile_backbone

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import (  # noqa: E402
    BACKBONE,
    RESNET_BACKBONE,
    build_quantized_model,
)


def _probe(module, output):
    return None


def _choose(items, pick):
    """``(item, flag)``: the item ``pick`` selects, and a flag from its
    remaining bits (fresh object or the same one)."""
    return items[pick % len(items)], (pick // len(items)) % 2 == 0


def set_parameter(model, pick):
    owners = [(m, name) for m in model.modules() for name in m._parameters]
    (module, name), fresh = _choose(owners, pick)
    parameter = module._parameters[name]
    setattr(module, name,
            Parameter(parameter.data.copy()) if fresh else parameter)


def set_module(model, pick):
    owners = [(m, name) for m in model.modules() for name in m._modules]
    (module, name), fresh = _choose(owners, pick)
    child = module._modules[name]
    setattr(module, name, copy.deepcopy(child) if fresh else child)


def replace_free_child(model, pick):
    # A child without parameters (an activation, a pool): its replacement
    # changes no array the walk compares, only the module tree.
    owners = [(m, name) for m in model.modules()
              for name, child in m._modules.items()
              if not list(child.parameters())]
    (module, name), fresh = _choose(owners, pick)
    child = module._modules[name]
    setattr(module, name, copy.deepcopy(child) if fresh else child)


def register_buffer(model, pick):
    module, _ = _choose(list(model.modules()), pick)
    module.register_buffer(f"probe{pick % 3}", np.zeros(1, np.float32))


def update_buffer(model, pick):
    owners = [(m, name) for m in model.modules() for name in m._buffers]
    (module, name), fresh = _choose(owners, pick)
    buffer = module._buffers[name]
    module.update_buffer(name, buffer.copy() if fresh else buffer)


def register_hook(model, pick):
    module, _ = _choose(list(model.modules()), pick)
    module.register_forward_hook(_probe)


def _hooked(model):
    return [m for m in model.modules() if m._forward_hooks] \
        or list(model.modules())


def remove_hook(model, pick):
    module, _ = _choose(_hooked(model), pick)
    hooks = module._forward_hooks
    module.remove_forward_hook(hooks[pick % len(hooks)] if hooks else _probe)


def clear_hooks(model, pick):
    module, _ = _choose(_hooked(model), pick)
    module.clear_forward_hooks()


#: The changes that move the structure epoch: one per bumping method, and
#: the replacement of a child without parameters.
BUMPS = (set_parameter, set_module, replace_free_child, register_buffer,
         update_buffer, register_hook, remove_hook, clear_hooks)


def rebind_data(model, pick):
    parameter, fresh = _choose(model.parameters(), pick)
    parameter.data = parameter.data.copy() if fresh else parameter.data


def scale_threshold(model, pick):
    quantizers = [hook.quantizer for m in model.modules()
                  for hook in m._forward_hooks
                  if isinstance(hook, ActivationQuantizer)
                  and hook.quantizer is not None]
    if getattr(model.backbone, "input_quantizer", None) is not None:
        quantizers.append(model.backbone.input_quantizer)
    if quantizers:
        quantizer, up = _choose(quantizers, pick)
        quantizer.threshold = quantizer.threshold * (2.0 if up else 0.5)


CHANGES = {change.__name__: change
           for change in BUMPS + (rebind_data, scale_threshold)}


@pytest.fixture(scope="module")
def models():
    float_model = OFSCIL.from_registry(
        BACKBONE, OFSCILConfig(backbone=BACKBONE), seed=0)
    return {"float32": float_model, "int8": build_quantized_model()[0]}


STEPS = st.lists(st.tuples(st.sampled_from(["access", "other"]
                                           + sorted(CHANGES)),
                           st.integers(0, 2 ** 16)),
                 min_size=1, max_size=10)


@pytest.mark.parametrize("mode", ["float32", "int8"])
@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_engines_rebuild_exactly_when_the_walk_says_stale(models, mode,
                                                          steps):
    model = copy.deepcopy(models[mode])
    other = copy.deepcopy(models["float32"])
    predictor = BatchedPredictor(model, mode=mode)
    arrays = {"backbone": (True, True), "fcr": (mode == "int8", False)}
    seen = {}

    def check(label):
        for name, (with_arrays, with_buffers) in arrays.items():
            module = getattr(model, name)
            walk = predictor._staleness(module, arrays=with_arrays,
                                        buffers=with_buffers)
            last = seen.get(name)
            stale = last is None or last[1] is not module \
                or predictor._stale(walk, last[2])
            engine = getattr(predictor, f"{name}_engine")
            rebuilt = last is None or engine is not last[0]
            assert rebuilt == stale, f"{name} after {label}"
            if rebuilt:
                seen[name] = (engine, module, walk)

    check("the first access")
    for index, (change, pick) in enumerate(steps):
        epoch = Module.structure_epoch
        if change == "other":
            BUMPS[pick % len(BUMPS)](other, pick // len(BUMPS))
            assert Module.structure_epoch != epoch
        elif change != "access":
            CHANGES[change](model, pick)
            assert (Module.structure_epoch != epoch) == \
                (CHANGES[change] in BUMPS), change
        check(f"step {index}: {change}({pick})")


def _activation(module):
    """The activation child of a ``ConvBNReLU``, a ResNet block or the
    ResNet-20 backbone, or None."""
    return module._modules.get("act" if isinstance(module, ConvBNReLU)
                               else "relu")


def _swap_activations(model, make):
    for module in list(model.backbone.modules()):
        if _activation(module) is not None:
            setattr(module, "act" if isinstance(module, ConvBNReLU)
                    else "relu", make())


def _swap_pools(model, make):
    model.backbone.pool = nn.Sequential(nn.GlobalAvgPool2d(), make())
    for module in list(model.backbone.modules()):
        if isinstance(module, ResNet12Block) and module.pool is not None:
            module.pool = nn.AvgPool2d(2)


def _rebuilds_and_matches_eager(model, swap):
    predictor = BatchedPredictor(model, mode="float32")
    images = np.random.default_rng(0).standard_normal(
        (6, 3, 16, 16)).astype(np.float32)
    assert compare_with_eager(model, images, predictor=predictor).ok
    engine = predictor.backbone_engine
    swap(model)
    assert predictor.backbone_engine is not engine
    report = compare_with_eager(model, images, predictor=predictor)
    assert report.ok, report.summary()


FLOAT_BACKBONES = (BACKBONE, "resnet12_tiny", RESNET_BACKBONE)


def _float_model(models, backbone):
    if backbone == BACKBONE:
        return copy.deepcopy(models["float32"])
    return OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                seed=0)


@pytest.mark.parametrize("backbone", FLOAT_BACKBONES)
@pytest.mark.parametrize("make", [nn.Identity, nn.ReLU, nn.ReLU6,
                                  nn.Sigmoid],
                         ids=lambda make: make.__name__)
def test_swapped_activations_rebuild_and_match_eager(models, backbone, make):
    _rebuilds_and_matches_eager(
        _float_model(models, backbone),
        lambda model: _swap_activations(model, make))


@pytest.mark.parametrize("backbone", FLOAT_BACKBONES)
def test_swapped_pools_rebuild_and_match_eager(models, backbone):
    _rebuilds_and_matches_eager(
        _float_model(models, backbone),
        lambda model: _swap_pools(model, nn.Sigmoid))


@pytest.fixture(scope="module")
def int8_models(models):
    return {BACKBONE: models["int8"],
            RESNET_BACKBONE: build_quantized_model(RESNET_BACKBONE)[0]}


def _mode_model(models, int8_models, mode, backbone):
    """A fresh copy of ``backbone``'s model as compiled in ``mode``."""
    if mode == "int8":
        return copy.deepcopy(int8_models[backbone])
    return _float_model(models, backbone)


@pytest.mark.parametrize("mode", ["float32", "int8"])
@pytest.mark.parametrize("backbone", [BACKBONE, RESNET_BACKBONE])
def test_lowering_fuses_only_the_activation_it_is(models, int8_models, mode,
                                                  backbone):
    model = _mode_model(models, int8_models, mode, backbone)
    _swap_activations(model, nn.Identity)
    steps = compile_backbone(model.backbone, mode=mode).steps
    fused = [step for step in steps if "conv" in step.op or step.op == "add"]
    assert fused and all(step.attrs.get("act") is None for step in fused)
    assert not any(step.op == "opaque" for step in steps)
    # An activation with no fused form keeps its block on the eager path.
    _swap_activations(model, nn.Sigmoid)
    steps = compile_backbone(model.backbone, mode=mode).steps
    opaque = [step.module for step in steps if step.op == "opaque"]
    assert opaque and all(isinstance(_activation(module), nn.Sigmoid)
                          for module in opaque)


@pytest.mark.parametrize("mode", ["float32", "int8"])
@pytest.mark.parametrize("backbone", [BACKBONE, RESNET_BACKBONE])
def test_lowering_lowers_the_pool_child_it_is(models, int8_models, mode,
                                              backbone):
    model = _mode_model(models, int8_models, mode, backbone)
    _swap_pools(model, nn.Sigmoid)
    steps = compile_backbone(model.backbone, mode=mode).steps
    assert steps[-2].op == "global_pool"
    assert steps[-1].op == "opaque"
    assert isinstance(steps[-1].module, nn.Sigmoid)
