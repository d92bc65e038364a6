"""The C kernel library: it loads where a compiler exists, and its epilogues
and pool match NumPy bit for bit.

:mod:`repro.runtime.native` builds ``native.c`` on first use and falls back
to NumPy when it cannot.  A silent fallback would hide a broken build behind
slower kernels, so a host with a C compiler must load the library.  The
depthwise kernels are checked in ``tests/test_runtime_depthwise.py``; this
file checks the three GEMM epilogues: the int8 ones on random int32
accumulators, the float32 bias + activation on GEMM outputs holding NaN,
infinities and signed zeros, and that every registry float32 conv binds it.
It also checks the float32 global pool against ``x.mean(axis=(2, 3))`` and
that every registry pool step binds it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OFSCIL, OFSCILConfig
from repro.models import get_config, list_configs
from repro.runtime import BatchedPredictor, kernels, native

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import build_quantized_model  # noqa: E402
from test_runtime_depthwise import _embed_batches_1_and_5  # noqa: E402


def test_c_kernels_load_when_a_compiler_is_on_path():
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert native.available(), (
        f"{native.compiler()} is on PATH but the C kernel library did not "
        f"load, so every kernel runs the NumPy fallback:\n"
        f"{native.build_error}")


def test_a_failed_build_falls_back_and_keeps_the_compiler_error(
        tmp_path, monkeypatch, rng):
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    broken = tmp_path / "native.c"
    broken.write_text("void requantize(void) { this is not C; }\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "build_error", None)
    assert native.library() is None
    assert "error" in native.build_error
    # The kernels still answer, through NumPy.
    acc = rng.integers(-500, 500, (2, 3, 4)).astype(np.float32)
    out = np.empty(acc.shape, dtype=np.int8)
    assert not native.requantize(acc, np.zeros(3, np.int32),
                                 np.full(3, 0.5), -127, 127, out)


def test_a_hanging_compiler_times_out_and_falls_back(tmp_path, monkeypatch):
    hanging = tmp_path / "cc"
    hanging.write_text("#!/bin/sh\nexec sleep 30\n")
    hanging.chmod(0o755)
    monkeypatch.setattr(native, "compiler", lambda: str(hanging))
    monkeypatch.setattr(native, "_COMPILER_TIMEOUT_S", 0.2)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "build_error", None)
    assert native.library() is None
    assert "timed out" in native.build_error


def _accumulators(rng, shape):
    """Exact-integer float32 accumulators: random, odd, and past the clamps."""
    acc = rng.integers(-2 ** 20, 2 ** 20, shape).astype(np.float32)
    acc[:, :, ::4] = 2 * rng.integers(-300, 300, acc[:, :, ::4].shape) + 1
    acc[:, :, 1::8] = 0.0
    return acc


@pytest.mark.parametrize("qmin,qmax", [(-127, 127), (0, 127), (0, 51)])
def test_c_requantize_matches_numpy(rng, qmin, qmax, c_kernels):
    n, c, spatial = 3, 12, 37
    acc = _accumulators(rng, (n, c, spatial))
    bias_q = rng.integers(-5000, 5000, c).astype(np.int32)
    bias_q[:4] = 0
    # 0.5 rounds odd accumulators to exact .5 ties; 1e-3 and 3.0 push
    # values past both clamp bounds.
    multiplier = np.array([0.5, 0.5, 0.5, 0.5, 1e-3, 3.0, 1e-5, 0.25,
                           1 / 3, 0.5, 2e-4, 7e-4])
    actual = np.full((n, c, spatial), 113, dtype=np.int8)
    assert native.requantize(acc, bias_q, multiplier, qmin, qmax, actual)
    expected = acc + bias_q.astype(np.float32).reshape(1, c, 1)
    expected = np.clip(np.rint(expected * multiplier.reshape(1, c, 1)),
                       qmin, qmax).astype(np.int8)
    np.testing.assert_array_equal(actual, expected)
    ties = acc[:, :4] * 0.5
    assert np.any(ties == np.floor(ties) + 0.5)
    assert {qmin, qmax} <= set(np.unique(actual))


@pytest.mark.parametrize("act", kernels.ACTIVATIONS)
@pytest.mark.parametrize("with_bias", [False, True])
def test_c_dequantize_matches_numpy(rng, act, with_bias, c_kernels):
    n, c, spatial = 3, 10, 29
    acc = _accumulators(rng, (n, c, spatial))
    dequant = rng.uniform(1e-6, 1e-4, c) * rng.choice([-1.0, 1.0], c)
    dequant[0] = -1e-5                     # 0 * -x = -0.0 reaches the act
    bias = rng.standard_normal(c).astype(np.float32) if with_bias else None
    if bias is not None:
        bias[0] = -0.0
    actual = np.full((n, c, spatial), np.nan, dtype=np.float32)
    assert native.dequantize(acc, dequant, bias, act, actual)
    expected = (acc * dequant.reshape(1, c, 1)).astype(np.float32)
    if bias is not None:
        expected += bias.reshape(1, c, 1)
    kernels.apply_activation(expected, act)
    np.testing.assert_array_equal(actual.view(np.uint32),
                                  expected.view(np.uint32))


def test_wrappers_refuse_arrays_they_cannot_pass_to_c(rng, c_kernels):
    # A wrong dtype, layout or size falls back to NumPy instead of handing
    # C a pointer it would misread.
    acc = rng.integers(-500, 500, (2, 3, 8)).astype(np.float32)
    bias_q, multiplier = np.zeros(3, np.int32), np.full(3, 0.5)
    out = np.empty(acc.shape, dtype=np.int8)
    assert native.requantize(acc, bias_q, multiplier, -127, 127, out)
    assert not native.requantize(acc.astype(np.float64), bias_q, multiplier,
                                 -127, 127, out)
    assert not native.requantize(acc[:, :, ::2].copy(), bias_q, multiplier,
                                 -127, 127, out)
    assert not native.requantize(acc, bias_q, multiplier, -127, 127,
                                 np.empty((2, 8, 3), np.int8)[:, :3, :])
    assert not native.requantize(acc, bias_q.astype(np.int64), multiplier,
                                 -127, 127, out)
    x = acc.reshape(2, 3, 2, 4)
    pooled = np.empty((2, 3), np.float32)
    assert native.global_pool_f32(x, pooled)
    assert not native.global_pool_f32(x.astype(np.float64), pooled)
    assert not native.global_pool_f32(x[:, :, :, ::2], pooled)
    assert not native.global_pool_f32(x, np.empty((3, 2), np.float32).T)
    assert not native.global_pool_f32(x, np.empty((2, 2), np.float32))


#: (n, c, spatial) GEMM outputs: spatial sizes of 1 and odd tails of the
#: vectorized plane loops, three conv shapes of the benchmark backbone, and
#: planes of whole 4-lane vectors at one and odd channel counts.
EPILOGUE_SHAPES = [(1, 8, 1), (5, 3, 1), (1, 4, 7), (3, 5, 9), (2, 6, 13),
                   (1, 3, 33), (1, 16, 256), (1, 64, 16), (5, 32, 64),
                   (1, 1, 4), (1, 3, 16), (3, 7, 64), (1, 5, 256)]


def _bits(array):
    return array.view(np.uint32)


@pytest.mark.parametrize("shape", EPILOGUE_SHAPES, ids=str)
def test_c_conv_epilogue_keeps_special_values(shape, c_kernels):
    """NaN where NumPy has NaN, and every other bit NumPy's.

    The GEMM output holds NaN, +-inf, +-0.0 and values past 6, and channel
    0 is -0.0 against a -0.0 bias, so both signed zeros reach the
    activations.  NaN payloads are not pinned, as for the depthwise kernels.
    """
    n, c, spatial = shape
    rng = np.random.default_rng(n * 1000 + c * 10 + spatial)
    gemm = (4 * rng.standard_normal(shape)).astype(np.float32)
    gemm[:, 0] = -0.0
    special = rng.random(shape) < 0.2
    gemm[special] = rng.choice(np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 6.0], dtype=np.float32),
        special.sum())
    bias = rng.standard_normal(c).astype(np.float32)
    bias[0] = -0.0
    for b in (None, bias):
        for act in kernels.ACTIVATIONS:
            expected = gemm.copy()
            kernels.conv_epilogue(expected, b, act)
            actual = gemm.copy()
            assert native.bias_act_f32(actual, b, act)
            label = f"bias={b is not None} act={act}"
            nan = np.isnan(expected)
            np.testing.assert_array_equal(np.isnan(actual), nan,
                                          err_msg=label)
            np.testing.assert_array_equal(_bits(actual)[~nan],
                                          _bits(expected)[~nan],
                                          err_msg=label)


def _numpy_epilogue(*args, **kwargs):
    raise AssertionError("a float32 GEMM conv step bound the NumPy epilogue")



@pytest.mark.parametrize("backbone", list_configs())
def test_every_registry_gemm_conv_step_binds_the_c_epilogue(backbone,
                                                           c_kernels,
                                                           monkeypatch):
    # With the library loaded, no float32 conv step of a registry backbone
    # runs its bias + activation in NumPy without notice.
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=0)
    monkeypatch.setattr(kernels, "conv_epilogue", _numpy_epilogue)
    _embed_batches_1_and_5(BatchedPredictor(model, mode="float32"),
                           get_config(backbone).input_size)


#: (n, c, h, w) pool inputs: spatial sizes 1, 7, 16, 64, 121, 144 and 256,
#: so NumPy's 8-accumulator blocks, their tails and the halving above 128
#: elements are all covered, at batch 1 and odd channel counts; 169 and
#: 400 halve at a multiple of 8 below the midpoint, 400 twice over.
POOL_SHAPES = [(1, 3, 1, 1), (2, 5, 1, 7), (1, 7, 4, 4), (5, 3, 8, 8),
               (1, 3, 11, 11), (3, 5, 12, 12), (1, 3, 16, 16),
               (64, 9, 4, 4), (1, 3, 13, 13), (2, 3, 20, 20)]


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
def test_c_global_pool_matches_numpy_mean(shape, c_kernels):
    """NaN where ``mean`` has NaN, and every other bit ``mean``'s.

    Values spread over many magnitudes, so a different summation order
    rounds differently.  Plane 1 is all -0.0 (its mean reads +0.0), plane
    2 holds only 6.0 and +inf, the other odd planes hold NaN, +-inf, +-0.0
    and 6.0 at random, and the other even planes only finite values.
    """
    n, c, h, w = shape
    rng = np.random.default_rng(n * 1000 + c * 100 + h * w)
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-4, 4, shape))
    planes = x.astype(np.float32).reshape(n * c, h * w)
    special = rng.random(planes.shape) < 0.05
    special[::2] = False
    planes[special] = rng.choice(np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 6.0], dtype=np.float32),
        special.sum())
    planes[1] = -0.0
    planes[2] = rng.choice(np.array([6.0, np.inf], dtype=np.float32),
                           h * w)
    x = planes.reshape(shape)
    with np.errstate(invalid="ignore"):                 # inf - inf
        expected = kernels.global_avg_pool(x)
    actual = np.full((n, c), 7.0, dtype=np.float32)
    assert native.global_pool_f32(x, actual)
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(_bits(actual)[~nan], _bits(expected)[~nan])
    assert _bits(actual).reshape(-1)[1] == 0


def _numpy_pool(*args, **kwargs):
    raise AssertionError("a global_pool step ran the NumPy mean")


@pytest.mark.parametrize("backbone", list_configs())
def test_every_registry_global_pool_step_binds_the_c_kernel(backbone,
                                                           c_kernels,
                                                           monkeypatch):
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=0)
    monkeypatch.setattr(kernels, "global_avg_pool", _numpy_pool)
    _embed_batches_1_and_5(BatchedPredictor(model, mode="float32"),
                           get_config(backbone).input_size)


def test_int8_float_pool_step_binds_the_c_kernel(c_kernels, monkeypatch):
    # The MobileNetV2 int8 plans dequantize before a float pool step.
    model, _ = build_quantized_model()
    monkeypatch.setattr(kernels, "global_avg_pool", _numpy_pool)
    predictor = BatchedPredictor(model, mode="int8")
    assert any(step.op == "global_pool"
               for step in predictor.backbone_engine.plan.steps)
    _embed_batches_1_and_5(predictor,
                           get_config(model.config.backbone).input_size)
