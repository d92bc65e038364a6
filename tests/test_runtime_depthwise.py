"""The C depthwise kernels reproduce the NumPy tap loop bit for bit.

``kernels.depthwise_conv`` is the NCHW tap loop over a window view: the tap
``(0, 0)`` product first, then each further tap's product added in
row-major tap order.  It is the fallback when the C library of
:mod:`repro.runtime.native` is not loaded, and the oracle here: the C
kernels keep its per-element arithmetic and that of the NumPy epilogues
(bias + activation for float32, requantization for int8), so outputs are
bit-identical, signed zeros included.  Inputs holding NaN keep NaN in the
oracle's positions and every other bit, though not the NaN payloads.  The
last tests check that every registry depthwise step binds a C kernel, so
none falls back to NumPy without notice.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OFSCIL, OFSCILConfig
from repro.models import get_config, list_configs
from repro.nn.conv import conv_output_size
from repro.runtime import BatchedPredictor, BufferCache
from repro.runtime import kernels, native

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import build_quantized_model  # noqa: E402


def _bits(array):
    """Raw bit patterns, so -0.0 and +0.0 (and NaN payloads) differ."""
    return array.view(f"u{array.dtype.itemsize}")


#: (channels, h, w, kernel, stride, padding).  The first nine are the
#: depthwise steps of ``mobilenetv2_x4_tiny`` on 16x16 inputs.
CASES = {
    "blocks.0.dw": (8, 16, 16, 3, 1, 1),
    "blocks.1.dw": (32, 16, 16, 3, 2, 1),
    "blocks.2.dw": (64, 8, 8, 3, 2, 1),
    "blocks.3.dw": (64, 4, 4, 3, 1, 1),
    "blocks.4.dw": (64, 4, 4, 3, 1, 1),
    "blocks.5.dw": (96, 4, 4, 3, 1, 1),
    "blocks.6.dw": (96, 4, 4, 3, 1, 1),
    "blocks.7.dw": (128, 4, 4, 3, 1, 1),
    "blocks.8.dw": (160, 4, 4, 3, 1, 1),
    "one-channel": (1, 6, 6, 3, 1, 1),
    "three-channels": (3, 6, 6, 3, 1, 1),
    "odd-h-ne-w": (3, 7, 5, 3, 1, 1),
    "stride2-odd": (3, 9, 7, 3, 2, 1),
    "stride2-odd-no-pad": (4, 7, 5, 3, 2, 0),
    "padding0": (3, 8, 6, 3, 1, 0),
    "padding2": (5, 7, 9, 3, 1, 2),
    "kernel1x1": (4, 5, 6, 1, 1, 0),
    "kernel1x1-stride2-pad1": (4, 5, 6, 1, 2, 1),
    "kernel5x5": (3, 9, 8, 5, 1, 2),
    "kernel5x5-stride2": (6, 11, 7, 5, 2, 2),
    # Output rows of 1, 1, 7, 5 and 2 pixels: the tails of the kernels'
    # vector loops along a row, and planes of one row or one pixel.
    "one-pixel": (3, 1, 1, 3, 1, 1),
    "two-by-two-stride2": (3, 2, 2, 3, 2, 1),
    "row-tail": (5, 3, 7, 3, 1, 1),
    "one-row-stride2": (4, 1, 9, 3, 2, 1),
    "narrow-stride2": (3, 9, 3, 3, 2, 1),
}

#: The nine benchmark layers and the five row-tail shapes.
SPECIAL_VALUE_CASES = list(CASES)[:9] + list(CASES)[-5:]

#: (input dtype, weight/accumulation dtype): float32 activations, and int8
#: codes against the two exact-GEMM accumulation dtypes.
MODES = {
    "float32": (np.float32, np.float32),
    "int8-acc-float32": (np.int8, np.float32),
    "int8-acc-float64": (np.int8, np.float64),
}


def _operands(rng, batch, c, h, w, k, in_dtype, acc_dtype):
    """Inputs and weights with zero regions and an all-negative channel.

    Channel 0 reads an all-zero input against all-negative weights, so every
    one of its outputs is a sum of ``-0.0`` products: a kernel that starts
    from a zero accumulator (or reorders the first tap) flips its sign bit.
    """
    if in_dtype == np.int8:
        x = rng.integers(-127, 128, (batch, c, h, w)).astype(np.int8)
        weight = rng.integers(-127, 128, (c, 1, k, k)).astype(acc_dtype)
    else:
        x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
        weight = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    x[:, 0] = 0
    x[rng.random(x.shape) < 0.1] = 0
    weight[0] = -np.maximum(np.abs(weight[0]), 1)
    return x, weight


def _float_oracle(x, weight, bias, stride, padding, act):
    """NCHW tap loop, then ``fused_conv``'s NumPy bias + activation."""
    out = kernels.depthwise_conv(x, weight, stride, padding)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return kernels.apply_activation(out, act)


def _int8_oracle(q, weight_q, bias_q, multiplier, stride, padding, qmin,
                 qmax):
    """Exact float32 tap loop, then ``fused_qconv``'s NumPy requantization."""
    acc = kernels.depthwise_conv(q, weight_q.astype(np.float32), stride,
                                 padding)
    acc += bias_q.astype(np.float32).reshape(1, -1, 1, 1)
    scaled = np.rint(acc * multiplier.reshape(1, -1, 1, 1))
    return np.clip(scaled, qmin, qmax).astype(np.int8)


def _int8_layer(rng, c):
    """Bias codes and multipliers of a plausible requantized layer."""
    bias_q = rng.integers(-3000, 3000, c).astype(np.int32)
    multiplier = rng.uniform(2e-4, 2e-3, c)
    multiplier[::3] = 0.5                 # exact .5 ties on odd accumulators
    return bias_q, multiplier


#: (qmin, qmax) clamps of the two fused activations (ReLU, and ReLU6 at an
#: output scale of 6/90).
INT8_CLAMPS = {"relu": (0, 127), "relu6": (0, 90)}


@pytest.mark.parametrize("kernel", ["float32", "int8"])
@pytest.mark.parametrize("case", list(CASES))
def test_c_depthwise_is_bit_identical_to_the_numpy_step(case, kernel,
                                                       c_kernels):
    c, h, w, k, stride, padding = CASES[case]
    rng = np.random.default_rng(sum(map(ord, case + kernel)))
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    cache = BufferCache()
    for batch in (1, 7):
        shape = (batch, c, out_h, out_w)
        if kernel == "float32":
            x, weight = _operands(rng, batch, c, h, w, k, np.float32,
                                  np.float32)
            bias = rng.standard_normal(c).astype(np.float32)
            bias[0] = -0.0          # channel 0 stays -0.0 past the bias add
            for with_bias in (False, True):
                for act in kernels.ACTIVATIONS:
                    b = bias if with_bias else None
                    expected = _float_oracle(x, weight, b, stride, padding,
                                             act)
                    actual = np.full(shape, np.nan, dtype=np.float32)
                    assert native.depthwise_f32(x, weight, b, stride,
                                                padding, act, cache, actual)
                    np.testing.assert_array_equal(
                        _bits(actual), _bits(expected),
                        err_msg=f"batch={batch} bias={with_bias} act={act}")
        else:
            q, weight = _operands(rng, batch, c, h, w, k, np.int8, np.int8)
            bias_q, multiplier = _int8_layer(rng, c)
            for act, (qmin, qmax) in INT8_CLAMPS.items():
                expected = _int8_oracle(q, weight, bias_q, multiplier,
                                        stride, padding, qmin, qmax)
                actual = np.full(shape, 113, dtype=np.int8)
                assert native.depthwise_s8(q, weight, bias_q, multiplier,
                                           stride, padding, qmin, qmax,
                                           cache, actual)
                np.testing.assert_array_equal(
                    actual, expected, err_msg=f"batch={batch} act={act}")


def _special_operands(rng, batch, c, h, w, k):
    """Float32 operands whose inputs hold NaN, +inf, -inf and -0.0.

    Channel 0 reads -0.0 wherever it holds no other special value, and a
    tenth of the weights are zeros of either sign, so ``inf * 0`` makes NaN
    inside the tap sums too.
    """
    x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
    x[:, 0] = -0.0
    special = rng.random(x.shape) < 0.1
    x[special] = rng.choice(np.array([np.nan, np.inf, -np.inf, -0.0],
                                     dtype=np.float32), special.sum())
    weight = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    zero = rng.random(weight.shape) < 0.1
    weight[zero] = rng.choice(np.array([0.0, -0.0], dtype=np.float32),
                              zero.sum())
    return x, weight


@pytest.mark.parametrize("case", SPECIAL_VALUE_CASES)
def test_c_depthwise_f32_keeps_special_values(case, c_kernels):
    """NaN where the oracle has NaN, and every other bit the oracle's.

    Signed zeros and infinities must match bit for bit.  NaN payloads and
    signs are not pinned: where two NaN operands meet in an add, the one
    that propagates follows the operand order the vector unit sees, and
    NumPy's own SIMD dispatch chooses that order on its side.
    """
    c, h, w, k, stride, padding = CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    cache = BufferCache()
    for batch in (1, 7):
        x, weight = _special_operands(rng, batch, c, h, w, k)
        bias = rng.standard_normal(c).astype(np.float32)
        bias[0] = -0.0
        for b in (None, bias):
            for act in kernels.ACTIVATIONS:
                with np.errstate(invalid="ignore"):     # inf - inf, inf * 0
                    expected = _float_oracle(x, weight, b, stride, padding,
                                             act)
                actual = np.zeros(expected.shape, dtype=np.float32)
                assert native.depthwise_f32(x, weight, b, stride, padding,
                                            act, cache, actual)
                label = f"batch={batch} bias={b is not None} act={act}"
                nan = np.isnan(expected)
                np.testing.assert_array_equal(np.isnan(actual), nan,
                                              err_msg=label)
                np.testing.assert_array_equal(
                    _bits(actual)[~nan], _bits(expected)[~nan],
                    err_msg=label)


#: (channels, h, w, stride) of 3x3, pad-1 convs whose output planes have
#: a multiple of 4 pixels: 4x4 planes at stride 1 (the register tile) with
#: one, odd and the benchmark's largest channel counts, and planes of 64
#: and 16 pixels from the plane loop and its one-pass epilogue.
WHOLE_VECTOR_CASES = {
    "tile-one-channel": (1, 4, 4, 1),
    "tile-three-channels": (3, 4, 4, 1),
    "tile-seven-channels": (7, 4, 4, 1),
    "tile-blocks.8.dw": (160, 4, 4, 1),
    "plane-8x8-five-channels": (5, 8, 8, 1),
    "plane-stride2-three-channels": (3, 8, 8, 2),
}


@pytest.mark.parametrize("case", list(WHOLE_VECTOR_CASES))
def test_c_whole_vector_planes_keep_special_values(case, c_kernels):
    """The 4x4 tile and the one-pass epilogue, against the oracle.

    The inputs hold NaN, +-inf, +-0.0 and 6.0 in every row and column of
    the tile.  Channel 0 reads +0.0 against negative weights and a -0.0
    bias, so its outputs are -0.0 sums that ReLU alone turns to +0.0.  A
    few other weights are zeros or infinities, so the halo taps make NaN
    too.  NaN payloads are not pinned (see above).
    """
    c, h, w, stride = WHOLE_VECTOR_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    cache = BufferCache()
    for batch in (1, 5):
        x = (4 * rng.standard_normal((batch, c, h, w))).astype(np.float32)
        special = rng.random(x.shape) < 0.2
        x[special] = rng.choice(np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 6.0], dtype=np.float32),
            special.sum())
        x[:, 0] = 0.0
        weight = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        odd = rng.random(weight.shape) < 0.1
        weight[odd] = rng.choice(np.array([0.0, -0.0, np.inf],
                                          dtype=np.float32), odd.sum())
        weight[0] = -1 - np.abs(weight[0], where=np.isfinite(weight[0]),
                                out=np.zeros_like(weight[0]))
        bias = rng.standard_normal(c).astype(np.float32)
        bias[0] = -0.0
        for b in (None, bias):
            for act in kernels.ACTIVATIONS:
                with np.errstate(invalid="ignore"):     # inf - inf, inf * 0
                    expected = _float_oracle(x, weight, b, stride, 1, act)
                assert (np.signbit(expected[:, 0]) == (act != "relu")).all()
                actual = np.zeros(expected.shape, dtype=np.float32)
                assert native.depthwise_f32(x, weight, b, stride, 1, act,
                                            cache, actual)
                label = f"batch={batch} bias={b is not None} act={act}"
                nan = np.isnan(expected)
                np.testing.assert_array_equal(np.isnan(actual), nan,
                                              err_msg=label)
                np.testing.assert_array_equal(
                    _bits(actual)[~nan], _bits(expected)[~nan],
                    err_msg=label)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("case", list(CASES))
def test_numpy_depthwise_writes_into_out_and_cache(case, mode):
    # The fallback's ``out=`` (contiguous or strided) and cached-padding
    # paths compute the same bits as a plain call.
    c, h, w, k, stride, padding = CASES[case]
    in_dtype, acc_dtype = MODES[mode]
    rng = np.random.default_rng(sum(map(ord, case + mode)))
    cache = BufferCache()
    for batch in (1, 7):
        x, weight = _operands(rng, batch, c, h, w, k, in_dtype, acc_dtype)
        expected = kernels.depthwise_conv(x, weight, stride, padding)
        assert expected.dtype == acc_dtype
        contiguous = np.full(expected.shape, np.nan, dtype=acc_dtype)
        strided = np.full(expected.shape[:3] + (2 * expected.shape[3],),
                          np.nan, dtype=acc_dtype)[..., ::2]
        assert not strided.flags.c_contiguous
        for buffers in (None, cache):
            for label, out in (("none", None), ("contiguous", contiguous),
                               ("strided", strided)):
                actual = kernels.depthwise_conv(x, weight, stride, padding,
                                                cache=buffers, out=out)
                if out is not None:
                    assert actual is out
                assert actual.dtype == acc_dtype
                np.testing.assert_array_equal(
                    _bits(actual), _bits(expected),
                    err_msg=f"batch={batch} cache={buffers is not None} "
                            f"out={label}")


@pytest.mark.parametrize("native_on", [True, False], ids=["c", "numpy"])
def test_fused_conv_depthwise_matches_the_reference_bits(rng, native_on,
                                                         monkeypatch):
    # The fused step dispatches to the C kernel when it is loaded and to
    # the NumPy tap loop + in-place epilogue otherwise: the same bits.
    if not native_on:
        monkeypatch.setattr(native, "_library", False)
    x = rng.standard_normal((5, 24, 8, 8)).astype(np.float32)
    weight = rng.standard_normal((24, 1, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(24).astype(np.float32)
    expected = _float_oracle(x, weight, bias, 2, 1, "relu6")
    actual = kernels.fused_conv(x, weight, bias, stride=2, padding=1,
                                groups=24, act="relu6", cache=BufferCache())
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _poison(cache):
    """Fill every cached buffer with NaN (float) or code 113 (int8)."""
    for buffer in cache._buffers.values():
        buffer[...] = np.nan if buffer.dtype.kind == "f" else 113


def test_c_scratch_reuse_survives_poisoning(rng, c_kernels):
    # Layers with one padded size but different (h, padding) splits share
    # the per-plane scratch buffer.  Every cached buffer is poisoned before
    # each call, so any halo element the kernel fails to rewrite surfaces
    # in the output.
    channels = 3
    cache = BufferCache()
    for h, w, padding in ((8, 6, 1), (6, 4, 2), (8, 6, 1), (4, 2, 3),
                          (6, 4, 2)):
        shape = (2, channels, conv_output_size(h, 3, 1, padding),
                 conv_output_size(w, 3, 1, padding))
        x, weight = _operands(rng, 2, channels, h, w, 3, np.float32,
                              np.float32)
        out = np.empty(shape, dtype=np.float32)
        _poison(cache)
        assert native.depthwise_f32(x, weight, None, 1, padding, None,
                                    cache, out)
        np.testing.assert_array_equal(
            _bits(out), _bits(_float_oracle(x, weight, None, 1, padding,
                                            None)))

        q, weight_q = _operands(rng, 2, channels, h, w, 3, np.int8, np.int8)
        bias_q, multiplier = _int8_layer(rng, channels)
        codes = np.empty(shape, dtype=np.int8)
        _poison(cache)
        assert native.depthwise_s8(q, weight_q, bias_q, multiplier, 1,
                                   padding, -127, 127, cache, codes)
        np.testing.assert_array_equal(
            codes, _int8_oracle(q, weight_q, bias_q, multiplier, 1, padding,
                                -127, 127))
    assert [key[0] for key in cache._buffers] == ["dwpad"]


#: The MobileNetV2 registry backbones, the ones with depthwise steps.
MOBILENETS = [name for name in list_configs()
              if get_config(name).family == "mobilenetv2"]


def _numpy_tap_loop(*args, **kwargs):
    raise AssertionError("a depthwise step bound the NumPy tap loop")


def _embed_batches_1_and_5(predictor, size):
    rng = np.random.default_rng(0)
    for batch in (1, 5):
        images = rng.standard_normal((batch, 3, size, size))
        predictor.embed(images.astype(np.float32))


@pytest.mark.parametrize("backbone", MOBILENETS)
def test_every_registry_depthwise_step_binds_a_c_kernel(backbone, c_kernels,
                                                         monkeypatch):
    # With the library loaded, no registry depthwise shape falls back to
    # the NumPy tap loop without notice.
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=0)
    monkeypatch.setattr(kernels, "bind_depthwise", _numpy_tap_loop)
    _embed_batches_1_and_5(BatchedPredictor(model, mode="float32"),
                           get_config(backbone).input_size)


def test_int8_conformance_model_binds_c_depthwise_kernels(c_kernels,
                                                          monkeypatch):
    model, _ = build_quantized_model()
    monkeypatch.setattr(kernels, "bind_depthwise", _numpy_tap_loop)
    _embed_batches_1_and_5(BatchedPredictor(model, mode="int8"),
                           get_config(model.config.backbone).input_size)
