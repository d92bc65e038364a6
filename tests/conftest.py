"""Shared fixtures for the test suite.

Expensive objects (the synthetic FSCIL benchmark and a lightly trained
O-FSCIL model) are session-scoped so the many tests that need them do not
retrain from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MetalearnConfig,
    OFSCIL,
    OFSCILConfig,
    PretrainConfig,
    metalearn,
    pretrain,
)
from repro.data import build_synthetic_fscil
from repro.runtime import native

TEST_BACKBONE = "mobilenetv2_x4_tiny"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def c_kernels():
    """Skip unless the C kernels of ``repro.runtime.native`` are loaded.

    ``tests/test_runtime_native.py`` fails instead where a compiler exists.
    """
    if not native.available():
        pytest.skip(f"C kernels not loaded: {native.build_error}")


@pytest.fixture()
def numpy_kernels(monkeypatch):
    """A switch to the NumPy fallback that fails the test if C runs after it.

    Calling the returned function sets ``native._library`` to False, as a
    host without a compiler has it, and replaces each kernel of an already
    loaded library with one that raises: a bound program that kept its C
    kernel past the switch fails loudly instead of giving the same bits.
    """
    def switch_off():
        library = native.library()
        if library is not None:
            for name in native._SIGNATURES:
                monkeypatch.setattr(library, name, _refusal(name))
        monkeypatch.setattr(native, "_library", False)
    return switch_off


def _refusal(name: str):
    def refuse(*args):
        raise AssertionError(f"C kernel {name} ran after the library was "
                             f"switched off")
    return refuse


@pytest.fixture(scope="session")
def tiny_benchmark():
    """Miniature FSCIL benchmark (8 base classes, 4 incremental sessions)."""
    return build_synthetic_fscil("test", seed=0)


@pytest.fixture(scope="session")
def trained_model(tiny_benchmark):
    """An O-FSCIL model briefly pretrained + metalearned on the tiny benchmark.

    The schedule is deliberately short (a few seconds); tests only rely on
    the model being *functional* and better than chance, not on absolute
    accuracy.
    """
    model = OFSCIL.from_registry(TEST_BACKBONE, OFSCILConfig(backbone=TEST_BACKBONE),
                                 seed=0)
    pretrain(model.backbone, model.fcr, tiny_benchmark.base_train,
             num_classes=tiny_benchmark.protocol.base_classes,
             config=PretrainConfig(epochs=14, batch_size=32, learning_rate=0.12,
                                   use_feature_interpolation=False, seed=0))
    metalearn(model.backbone, model.fcr, tiny_benchmark.base_train,
              MetalearnConfig(iterations=8, meta_shots=5, queries_per_class=2,
                              learning_rate=0.02, seed=0))
    return model


@pytest.fixture()
def fresh_model():
    """An untrained O-FSCIL model (cheap; function-scoped)."""
    return OFSCIL.from_registry(TEST_BACKBONE, OFSCILConfig(backbone=TEST_BACKBONE),
                                seed=3)
