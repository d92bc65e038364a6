"""The channels-last depthwise kernel reproduces the NCHW tap loop bit for bit.

``kernels.depthwise_conv`` runs its tap loop over a channels-last copy of
the padded input.  It keeps the per-element arithmetic of the NCHW loop it
replaced — the tap ``(0, 0)`` product first, then each further tap's product
added in row-major tap order — so float32 outputs are bit-identical (signed
zeros included) and int8 accumulations stay exact.  ``_depthwise_reference``
below is that NCHW loop, kept as the oracle.
"""

import numpy as np
import pytest

from repro.nn.conv import conv_output_size
from repro.runtime import BufferCache
from repro.runtime import kernels


def _depthwise_reference(x, weight, stride=1, padding=0):
    """The NCHW tap loop: multiply-accumulate over the window view."""
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    if padding > 0:
        x = kernels.pad_cached(x, padding)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    view = kernels.sliding_window_view(x, kh, kw, stride)
    taps = weight.reshape(c, kh, kw)
    out = np.empty((n, c, out_h, out_w), dtype=weight.dtype)
    np.multiply(view[:, :, 0, 0], taps[:, 0, 0].reshape(1, c, 1, 1), out=out)
    scratch = np.empty_like(out)
    for i in range(kh):
        for j in range(kw):
            if i == 0 and j == 0:
                continue
            np.multiply(view[:, :, i, j], taps[:, i, j].reshape(1, c, 1, 1),
                        out=scratch)
            out += scratch
    return out


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
}

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


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("case", list(CASES))
def test_channels_last_kernel_is_bit_identical_to_the_nchw_loop(case, mode):
    c, h, w, k, stride, padding = CASES[case]
    in_dtype, acc_dtype = MODES[mode]
    rng = np.random.default_rng(sum(map(ord, case + mode)))
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    cache = BufferCache()
    for batch in (1, 7):
        x, weight = _operands(rng, batch, c, h, w, k, in_dtype, acc_dtype)
        expected = _depthwise_reference(x, weight, stride, padding)
        assert expected.dtype == acc_dtype
        shape = (batch, c, out_h, out_w)
        contiguous = np.full(shape, np.nan, dtype=acc_dtype)
        strided = np.full(shape[:3] + (2 * out_w,), np.nan,
                          dtype=acc_dtype)[..., ::2]
        assert not strided.flags.c_contiguous
        for buffers in (None, cache):
            for label, out in (("none", None), ("contiguous", contiguous),
                               ("strided", strided)):
                actual = kernels.depthwise_conv(x, weight, stride=stride,
                                                padding=padding,
                                                cache=buffers, out=out)
                if out is not None:
                    assert actual is out
                assert actual.dtype == acc_dtype and actual.shape == shape
                np.testing.assert_array_equal(
                    _bits(actual), _bits(expected),
                    err_msg=f"batch={batch} cache={buffers is not None} "
                            f"out={label}")


def test_fused_conv_depthwise_matches_the_reference_bits(rng):
    # The float epilogue (bias + relu6) runs on the kernel's output in
    # place, so the fused step inherits the kernel's bit-equality.
    x = rng.standard_normal((5, 24, 8, 8)).astype(np.float32)
    weight = rng.standard_normal((24, 1, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(24).astype(np.float32)
    expected = _depthwise_reference(x, weight, stride=2, padding=1)
    expected += bias.reshape(1, 24, 1, 1)
    np.clip(expected, 0.0, 6.0, out=expected)
    actual = kernels.fused_conv(x, weight, bias, stride=2, padding=1,
                                groups=24, act="relu6", cache=BufferCache())
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _poison(cache):
    """Fill every cached buffer with NaN (float) or code 113 (int8)."""
    for buffer in cache._buffers.values():
        buffer[...] = np.nan if buffer.dtype.kind == "f" else 113


def test_channels_last_pad_reuse_survives_poisoning(rng):
    # Layers with one padded shape but different (h, padding) splits share
    # the cached channels-last pad buffer.  Every cached buffer is poisoned
    # before each call, so any element of the delta region between the old
    # and new halo that the kernel fails to rewrite surfaces in the padded
    # buffer and in the convolution output.
    channels = 3
    for in_dtype, acc_dtype in MODES.values():
        cache = BufferCache()
        for h, w, padding in ((8, 6, 1), (6, 4, 2), (8, 6, 1),
                              (4, 2, 3), (6, 4, 2)):
            x, weight = _operands(rng, 2, channels, h, w, 3, in_dtype,
                                  acc_dtype)
            padded_shape = (2, h + 2 * padding, w + 2 * padding, channels)
            cache.get("dwpad", padded_shape, in_dtype)
            _poison(cache)
            padded = kernels.pad_channels_last(x, padding, cache)
            np.testing.assert_array_equal(
                padded, kernels.pad_channels_last(x, padding, None))
            np.testing.assert_array_equal(
                padded[:, padding:padding + h, padding:padding + w],
                x.transpose(0, 2, 3, 1))

            _poison(cache)
            actual = kernels.depthwise_conv(x, weight, stride=1,
                                            padding=padding, cache=cache)
            np.testing.assert_array_equal(
                _bits(actual),
                _bits(_depthwise_reference(x, weight, 1, padding)))
        assert len([key for key in cache._buffers
                    if key[0] == "dwpad"]) == 1
