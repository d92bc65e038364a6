"""The predictor's epoch check rebuilds an engine exactly when the walk would.

Between walks of the module tree, :class:`~repro.runtime.BatchedPredictor`
trusts ``Module.structure_epoch``: while it holds, only the parameters'
``data`` identities and the int8 quantizer settings are compared.  Random
sequences of changes — through every ``Module`` method that moves the epoch,
``param.data`` rebinds and int8 threshold changes (which do not move it),
the same changes to a second model (which move it but change nothing here),
and plain accesses — must leave each engine rebuilt exactly when the full
walk (:meth:`_staleness` + :meth:`_stale`) says stale, or the engine's
module tree was replaced.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OFSCIL, OFSCILConfig
from repro.nn.modules import Module, Parameter
from repro.quant.activation_quant import ActivationQuantizer
from repro.runtime import BatchedPredictor

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import BACKBONE, build_quantized_model  # noqa: E402


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


#: The changes that move the structure epoch, one per bumping method.
BUMPS = (set_parameter, set_module, register_buffer, update_buffer,
         register_hook, remove_hook, clear_hooks)


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
