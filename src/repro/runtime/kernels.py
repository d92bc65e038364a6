"""Fused inference kernels for the batched runtime.

These kernels operate on raw ``numpy`` arrays — no :class:`~repro.nn.tensor.Tensor`
wrappers, no autograd bookkeeping.  Four ideas keep them fast:

* **stride-tricks im2col with buffer reuse** — the sliding-window view of the
  padded input is materialised into a column buffer that is allocated once
  per (per-sample shape, dtype), at the largest batch seen, and reused
  across calls through :class:`BufferCache`, so steady-state batched
  inference allocates nothing on the conv path;
* **fusion** — batch-norm is folded into the convolution weights at plan
  compile time, and the bias add + activation clip are applied in place on
  the GEMM output, so every conv layer makes a single pass over its output;
* **batched GEMM** — dense and pointwise convolutions are expressed as
  ``matmul`` over the whole micro-batch, hitting BLAS instead of Python
  loops;
* **C where NumPy is slow** — the depthwise tap loop, the epilogues
  after the conv GEMMs (float32 bias + activation, int8
  requantize/dequantize) and the float32 global average pool (summed in
  NumPy's pairwise order) run in the C kernels of
  :mod:`repro.runtime.native` when that library loads.  The NumPy code
  beside each call is the fallback and the reference: both give the same
  bits.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..nn.conv import conv_output_size
from . import native

#: Supported fused activations (applied in place on the layer output).
ACTIVATIONS = (None, "relu", "relu6")


def apply_activation(out: np.ndarray, act: Optional[str]) -> np.ndarray:
    """Apply ``act`` to ``out`` in place and return it."""
    if act is None:
        return out
    if act == "relu":
        return np.maximum(out, 0.0, out=out)
    if act == "relu6":
        return np.clip(out, 0.0, 6.0, out=out)
    raise ValueError(f"unknown activation {act!r}; expected one of {ACTIVATIONS}")


class BufferCache:
    """Reusable scratch and arena buffers of one execution context.

    The engine keeps one cache per thread that runs chunks, so that every
    chunk reuses the same im2col / padding / arena buffers instead of
    reallocating them for every layer of every batch.

    One rule sizes every buffer: :meth:`get` keys it by (tag, per-sample
    shape ``shape[1:]``, dtype), holds as many rows as the largest leading
    dimension ever requested under that key, and hands each request the
    leading rows ``buffer[:n]``, which are C-contiguous and start at the
    buffer's address.  Memory therefore follows the largest batch a context
    has run, not the mix of batch sizes: one set of buffers per context.
    Arena slots (see :meth:`~repro.runtime.optimizer.MemoryPlan.out_view`)
    are requested as ``(batch, slot bytes)`` and follow the same rule.

    The cache also holds the engine's bound programs (see
    :meth:`InferencePlan.bind <repro.runtime.plan.InferencePlan.bind>`) in
    :attr:`programs`.  A program holds views of the buffers it was bound
    to, so every release of a buffer — a buffer outgrown by a larger
    request, or :meth:`clear` — drops them all.  Every request of one
    binding leads with its batch (the per-plane depthwise scratch asks for
    one row), so a buffer grows only at its first request in a binding, and
    the program being bound never holds a buffer the cache has released.
    """

    def __init__(self):
        self._buffers: Dict[Tuple, np.ndarray] = {}
        #: Bound programs, keyed by the engine that binds them.
        self.programs: Dict[Tuple, list] = {}

    def get(self, tag: str, shape: Tuple[int, ...],
            dtype=np.float32) -> np.ndarray:
        key = (tag, tuple(shape[1:]), np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None or len(buffer) < shape[0]:
            if buffer is not None:
                self.programs.clear()
            buffer = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buffer[:shape[0]]

    def clear(self) -> None:
        self._buffers.clear()
        self.programs.clear()

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        # Summed over a copy: a metrics scrape may run while the owning
        # thread adds a buffer.
        return sum(buffer.nbytes for buffer in list(self._buffers.values()))


def sliding_window_view(x: np.ndarray, kh: int, kw: int,
                        stride: int) -> np.ndarray:
    """Zero-copy ``(N, C, kh, kw, out_h, out_w)`` window view of ``x``.

    ``x`` must already be padded.  The view aliases ``x``; callers copy it
    into a contiguous buffer before feeding a GEMM.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False)


def _constant(constants: Optional[dict], key, make: Callable):
    """A per-step constant, made once and shared through ``constants``.

    ``constants`` is one step's dict of derived weights (casts to the
    accumulation dtype); every program an engine binds for the step shares
    it.  ``None`` makes the constant for this binding alone.
    """
    if constants is None:
        return make()
    value = constants.get(key)
    if value is None:
        value = constants[key] = make()
    return value


def _destination(out: Optional[np.ndarray], shape: Tuple[int, ...],
                 flat_shape: Tuple[int, ...], dtype) -> Tuple[Callable, Tuple]:
    """``(destination, views)``: ``destination()`` is a bound call's output
    as ``(result, flat)``.

    With ``out`` the two views of it are made once and returned on every
    call and as ``views``, so the next step and a C kernel can bind to the
    same objects; without it each call gets a fresh array, since the caller
    keeps the result, and ``views`` is ``(None, None)``.
    """
    if out is not None:
        views = (out.reshape(shape), out.reshape(flat_shape))
        return (lambda: views), views

    def fresh():
        result = np.empty(shape, dtype=dtype)
        return result, result.reshape(flat_shape)
    return fresh, (None, None)


def bind_reshape(x: np.ndarray, shape: Tuple[int, ...]) -> Callable:
    """``view(x)``: ``x.reshape(shape)``, made once for the bound ``x``.

    Only a C-contiguous ``x`` is reshaped ahead, since only then is the
    reshape a view that sees later writes to ``x``.
    """
    if not x.flags.c_contiguous:
        return lambda x: x.reshape(shape)
    x0, view0 = x, x.reshape(shape)
    return lambda x: view0 if x is x0 else x.reshape(shape)


def bind_pad(x: np.ndarray, padding: int,
             cache: Optional[BufferCache] = None
             ) -> Tuple[Callable, np.ndarray]:
    """Bind zero-padding of ``x``'s shape: ``(fill, padded)``.

    ``fill(x)`` writes ``x`` into the interior of the ``padded`` buffer.
    Only the halo ring is rezeroed on each call: the interior is fully
    overwritten, and the ring must be cleared every call because a cached
    buffer may hold a stale halo from a layer with a different
    ``(h, padding)`` split of the same padded shape.

    Coverage invariant (pinned by the mixed-padding poisoning test in
    ``tests/test_runtime_optimizer.py``): the four ring strips plus the
    interior assignment write *every* element of the padded buffer for the
    current ``(h, w, padding)`` — rows ``[0, p)`` and ``[h+p, h+2p)`` at full
    width, columns ``[0, p)`` and ``[w+p, w+2p)`` of the middle rows, and the
    ``h x w`` interior — so no byte from a previous call with a different
    halo split (the delta region between the old and new ring) can survive
    into the window view, no matter which layer used the buffer last.
    """
    n, c, h, w = x.shape
    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    if cache is not None:
        padded = cache.get("pad", padded_shape, x.dtype)
        ring = (padded[:, :, :padding, :], padded[:, :, h + padding:, :],
                padded[:, :, padding:h + padding, :padding],
                padded[:, :, padding:h + padding, w + padding:])
    else:
        padded = np.zeros(padded_shape, dtype=x.dtype)
        ring = ()
    interior = padded[:, :, padding:padding + h, padding:padding + w]

    def fill(x):
        for strip in ring:
            strip[...] = 0
        interior[...] = x
    return fill, padded


def pad_cached(x: np.ndarray, padding: int,
               cache: Optional[BufferCache] = None) -> np.ndarray:
    """Zero-pad ``x`` spatially into a cached buffer (see :func:`bind_pad`)."""
    fill, padded = bind_pad(x, padding, cache)
    fill(x)
    return padded


def _bind_windows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                  cache: Optional[BufferCache]) -> Callable:
    """``window(x)``: the (padded) window view of ``x``, bound once if it can be.

    With padding the view is of the bound pad buffer, made once; without
    it the view is of ``x`` itself, made once for the bound ``x``.
    """
    if padding > 0:
        fill, padded = bind_pad(x, padding, cache)
        view = sliding_window_view(padded, kh, kw, stride)

        def window(x):
            fill(x)
            return view
        return window
    x0, view0 = x, sliding_window_view(x, kh, kw, stride)
    return lambda x: view0 if x is x0 else sliding_window_view(x, kh, kw,
                                                               stride)


def bind_im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                cache: Optional[BufferCache] = None
                ) -> Tuple[Callable, np.ndarray]:
    """Bind im2col of ``x``'s shape: ``(fill, cols)``.

    ``fill(x)`` writes the columns of ``x`` into the contiguous ``cols``
    buffer of shape (N, C, kh*kw, oh*ow).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    window = _bind_windows(x, kh, kw, stride, padding, cache)
    cols_shape = (n, c, kh, kw, out_h, out_w)
    if cache is not None:
        cols = cache.get("col", cols_shape, x.dtype)
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)

    def fill(x):
        np.copyto(cols, window(x))
    return fill, cols.reshape(n, c, kh * kw, out_h * out_w)


def im2col_cached(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                  cache: Optional[BufferCache] = None) -> np.ndarray:
    """im2col into a cached contiguous buffer of shape (N, C, kh*kw, oh*ow)."""
    fill, cols = bind_im2col(x, kh, kw, stride, padding, cache)
    fill(x)
    return cols


def is_depthwise(weight: np.ndarray, groups: int) -> bool:
    """True when a conv with ``weight`` and ``groups`` runs the depthwise path.

    That is one input channel per group and one group per output channel,
    the case :func:`fused_conv` and :func:`int_accumulate_conv` hand to
    :func:`depthwise_conv`.
    """
    return weight.shape[1] == 1 and groups == weight.shape[0]


def bind_depthwise(x: np.ndarray, weight: np.ndarray, stride: int = 1,
                   padding: int = 0, cache: Optional[BufferCache] = None
                   ) -> Callable:
    """Bind the NumPy depthwise tap loop; returns ``call(x, out)``.

    See :func:`depthwise_conv`.  The per-tap window slices and weight
    columns are cut once here.
    """
    c = x.shape[1]
    kh, kw = weight.shape[2], weight.shape[3]
    taps = weight.reshape(c, kh, kw)
    columns = [taps[:, i, j].reshape(1, c, 1, 1)
               for i, j in (divmod(tap, kw) for tap in range(kh * kw))]
    window = _bind_windows(x, kh, kw, stride, padding, cache)

    def call(x, out):
        view = window(x)
        np.multiply(view[:, :, 0, 0], columns[0], out=out)
        product = np.empty(out.shape, dtype=out.dtype)
        for tap in range(1, kh * kw):
            i, j = divmod(tap, kw)
            np.multiply(view[:, :, i, j], columns[tap], out=product)
            out += product
        return out
    return call


def depthwise_conv(x: np.ndarray, weight: np.ndarray, stride: int = 1,
                   padding: int = 0, cache: Optional[BufferCache] = None,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Depthwise 2-D convolution without im2col: the NumPy tap loop.

    A depthwise kernel uses each column of the ``C*kh*kw`` im2col matrix for
    exactly one output channel — materialising it is an O(k²) waste.  This
    path multiply-accumulates the ``kh*kw`` taps of a zero-copy window view
    instead: the tap ``(0, 0)`` product first, then each further tap's
    product added in row-major tap order.  The C kernels in
    :mod:`repro.runtime.native` keep that order, and the tests use this loop
    as their oracle.

    ``weight`` is ``(c, 1, kh, kw)`` *already cast to the accumulation
    dtype*: float32 for the float path, the exact-GEMM dtype for the int8
    path (integer products and sums are exact there, so the tap order cannot
    perturb a bit).  Returns ``(n, c, out_h, out_w)`` in the weight dtype,
    written into ``out`` (of that dtype) when given.
    """
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    if out is None:
        out = np.empty((n, c, conv_output_size(h, kh, stride, padding),
                        conv_output_size(w, kw, stride, padding)),
                       dtype=weight.dtype)
    return bind_depthwise(x, weight, stride, padding, cache)(x, out)


def conv_epilogue(dest: np.ndarray, bias: Optional[np.ndarray],
                  act: Optional[str]) -> None:
    """``+ bias`` per channel, then ``act``, in place on a ``(n, c, spatial)``
    conv output: the NumPy fallback of the C ``bias_act_f32`` kernel, and
    its tests' oracle."""
    if bias is not None:
        dest += bias.reshape(-1, 1)
    apply_activation(dest, act)


def bind_conv(x: np.ndarray, weight: np.ndarray,
              bias: Optional[np.ndarray] = None, stride: int = 1,
              padding: int = 0, groups: int = 1, act: Optional[str] = None,
              cache: Optional[BufferCache] = None,
              out: Optional[np.ndarray] = None) -> Callable:
    """Bind :func:`fused_conv` for ``x``'s shape; returns ``call(x)``."""
    n, c, h, w = x.shape
    out_c, c_per_group, kh, kw = weight.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels ({c}) incompatible with weight {weight.shape} "
            f"and groups={groups}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    spatial = out_h * out_w
    destination, (result0, dest0) = _destination(
        out, (n, out_c, out_h, out_w), (n, out_c, spatial), np.float32)
    if is_depthwise(weight, groups):
        kernel = native.bind_depthwise_f32(x, weight, bias, stride, padding,
                                           act, cache, result0)
        if kernel is not None:
            def call(x):
                result, _ = destination()
                kernel(x, result)
                return result
            return call
        taps = bind_depthwise(x, weight, stride, padding, cache)

        def product(x, dest, result):
            taps(x, result)
    elif kh == 1 and kw == 1 and stride == 1 and padding == 0 \
            and groups == 1:
        matrix = weight.reshape(out_c, c)
        rows = bind_reshape(x, (n, c, spatial))

        def product(x, dest, result):
            np.matmul(matrix, rows(x), out=dest)
    elif groups == 1:
        fill, cols = bind_im2col(x, kh, kw, stride, padding, cache)
        matrix = weight.reshape(out_c, c * kh * kw)
        rows = cols.reshape(n, c * kh * kw, spatial)

        def product(x, dest, result):
            fill(x)
            np.matmul(matrix, rows, out=dest)
    else:
        fill, cols = bind_im2col(x, kh, kw, stride, padding, cache)
        cols_g = cols.reshape(n, groups, c_per_group * kh * kw, spatial)
        weight_g = weight.reshape(groups, out_c // groups,
                                  c_per_group * kh * kw)
        grouped = (n, groups, out_c // groups, spatial)

        def product(x, dest, result):
            fill(x)
            np.einsum("gok,ngkl->ngol", weight_g, cols_g, optimize=True,
                      out=dest.reshape(grouped))
    epilogue = native.bind_bias_act_f32((n, out_c, spatial), bias, act,
                                        dest0)
    if epilogue is None:
        epilogue = functools.partial(conv_epilogue, bias=bias, act=act)

    def call(x):
        result, dest = destination()
        product(x, dest, result)
        epilogue(dest)
        return result
    return call


def fused_conv(x: np.ndarray, weight: np.ndarray,
               bias: Optional[np.ndarray] = None, stride: int = 1,
               padding: int = 0, groups: int = 1, act: Optional[str] = None,
               cache: Optional[BufferCache] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Grouped 2-D convolution with the bias add and activation fused in.

    ``weight`` is ``(out_c, in_c // groups, kh, kw)`` — typically the
    BN-folded weight produced by the plan compiler, with ``bias`` holding the
    folded BN shift.  When ``out`` is given (a contiguous float32 array of
    the output shape, e.g. an arena slot view), the GEMM writes straight into
    it and the bias + activation epilogue runs in place — the kernel then
    allocates nothing.
    """
    return bind_conv(x, weight, bias, stride, padding, groups, act, cache,
                     out)(x)


def fused_linear(x: np.ndarray, weight: np.ndarray,
                 bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ weight.T + bias`` with the activation fused in (weight (out, in))."""
    if out is None:
        out = np.matmul(x, weight.T)
    else:
        np.matmul(x, weight.T, out=out)
    if bias is not None:
        out += bias
    return apply_activation(out, act)


def batchnorm_inference(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                        act: Optional[str] = None,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Eval-mode batch norm reduced to a per-channel affine map.

    ``scale``/``shift`` are the precomputed ``gamma / sqrt(var + eps)`` and
    ``beta - mean * scale`` vectors; works for both NCHW and (N, C) inputs.
    """
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    if out is None:
        out = x * scale.reshape(shape)
    else:
        np.multiply(x, scale.reshape(shape), out=out)
    out += shift.reshape(shape)
    return apply_activation(out, act)


def global_avg_pool(x: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Global average pooling of NCHW down to (N, C): the NumPy fallback of
    the C ``global_pool_f32`` kernel, and its tests' oracle."""
    return x.mean(axis=(2, 3), out=out)


def bind_global_avg_pool(x: np.ndarray,
                         out: Optional[np.ndarray] = None) -> Callable:
    """Bind :func:`global_avg_pool` for ``x``'s shape; returns ``call(x)``."""
    destination, (result0, _) = _destination(out, x.shape[:2], x.shape[:2],
                                             np.float32)
    kernel = native.bind_global_pool_f32(x, result0)
    if kernel is None:
        return lambda x: global_avg_pool(x, out=out)

    def call(x):
        result, _ = destination()
        kernel(x, result)
        return result
    return call


def max_pool(x: np.ndarray, kernel_size: int, stride: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Max pooling over square windows via the zero-copy window view."""
    view = sliding_window_view(x, kernel_size, kernel_size, stride)
    return view.max(axis=(2, 3), out=out)


def avg_pool(x: np.ndarray, kernel_size: int, stride: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Average pooling over square windows via the zero-copy window view."""
    view = sliding_window_view(x, kernel_size, kernel_size, stride)
    return view.mean(axis=(2, 3), out=out)


# ---------------------------------------------------------------------------
# Integer (int8) execution kernels
# ---------------------------------------------------------------------------
#: Symmetric signed-int8 code range shared by weights and activations.
INT8_QMIN, INT8_QMAX = -127, 127

#: Largest worst-case |accumulator| for which a float32 GEMM is still exact
#: (every partial sum is an integer below 2**24, the float32 mantissa limit).
_F32_EXACT_LIMIT = 2 ** 24

#: Hard bound the integer path must respect: accumulators are int32 on the
#: target hardware, regardless of the dtype the host GEMM runs in.
INT32_ACC_LIMIT = 2 ** 31 - 1


def quantize_int8(x: np.ndarray, scale: float,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantize float values onto the symmetric int8 grid ``scale``.

    Matches the rounding of :func:`repro.quant.fake_quant.quantize`
    (round-half-to-even, clip to ±127) so integer plans reproduce the fake
    quantization of the eager path code-for-code.
    """
    codes = np.clip(np.rint(x / scale), INT8_QMIN, INT8_QMAX)
    if out is None:
        return codes.astype(np.int8)
    np.copyto(out, codes, casting="unsafe")
    return out


def dequantize_int8(q: np.ndarray, scale: float,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map int8 codes back to float32 values."""
    if out is None:
        return q.astype(np.float32) * np.float32(scale)
    np.multiply(q, np.float32(scale), out=out)
    return out


def requantize_float(x: np.ndarray, scale: float,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Fake-quantize a float tensor in place of a quantize+dequantize pair.

    First-class plan-op replacement for the eager activation fake-quant
    hooks: the output is float32 but every value sits on the int8 grid.
    """
    codes = np.clip(np.rint(x / scale), INT8_QMIN, INT8_QMAX)
    if out is None:
        return (codes * scale).astype(np.float32)
    np.copyto(out, codes * scale, casting="unsafe")
    return out


def requantize_codes(q: np.ndarray, in_scale: float, out_scale: float,
                     cache: Optional[BufferCache] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rescale int8 codes from grid ``in_scale`` onto grid ``out_scale``.

    Fused form of a single-use ``dequantize -> quantize`` chain: the float
    intermediate lives in a scratch buffer instead of a plan register.  The
    arithmetic replicates the chain step for step, so the fusion is
    bit-exact.
    """
    return bind_requantize_codes(q, in_scale, out_scale, cache, out)(q)


def bind_requantize_codes(q: np.ndarray, in_scale: float, out_scale: float,
                          cache: Optional[BufferCache] = None,
                          out: Optional[np.ndarray] = None) -> Callable:
    """Bind :func:`requantize_codes` for ``q``'s shape; returns ``call(q)``."""
    floats = cache.get("rqc", q.shape, np.float32) if cache is not None \
        else None

    def call(q):
        return quantize_int8(dequantize_int8(q, in_scale, out=floats),
                             out_scale, out=out)
    return call


def bind_add(x_shape: Tuple[int, ...], y_shape: Tuple[int, ...],
             in_scale_x: Optional[float] = None,
             in_scale_y: Optional[float] = None,
             act: Optional[str] = None, out_scale: Optional[float] = None,
             cache: Optional[BufferCache] = None,
             out: Optional[np.ndarray] = None) -> Callable:
    """Bind :func:`fused_add` for operands of these shapes; ``call(x, y)``."""
    def scratch(tag, shape):
        return cache.get(tag, shape, np.float32) if cache is not None \
            else None
    floats_x = scratch("addx", x_shape) if in_scale_x is not None else None
    floats_y = scratch("addy", y_shape) if in_scale_y is not None else None
    if out_scale is None:
        def call(x, y):
            if in_scale_x is not None:
                x = dequantize_int8(x, in_scale_x, out=floats_x)
            if in_scale_y is not None:
                y = dequantize_int8(y, in_scale_y, out=floats_y)
            result = out if out is not None \
                else np.empty(x.shape, dtype=np.float32)
            np.add(x, y, out=result)
            return apply_activation(result, act)
        return call
    total = scratch("addsum", x_shape)

    def call(x, y):
        if in_scale_x is not None:
            x = dequantize_int8(x, in_scale_x, out=floats_x)
        if in_scale_y is not None:
            y = dequantize_int8(y, in_scale_y, out=floats_y)
        summed = total if total is not None \
            else np.empty(x.shape, dtype=np.float32)
        np.add(x, y, out=summed)
        apply_activation(summed, act)
        return quantize_int8(summed, out_scale, out=out)
    return call


def fused_add(x: np.ndarray, y: np.ndarray,
              in_scale_x: Optional[float] = None,
              in_scale_y: Optional[float] = None,
              act: Optional[str] = None,
              out_scale: Optional[float] = None,
              cache: Optional[BufferCache] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Residual add with dequantize/quantize neighbours folded in.

    ``in_scale_*`` dequantizes an int8 operand on the fly (exactly
    :func:`dequantize_int8`); ``out_scale`` requantizes the activated sum
    back to int8 codes (exactly :func:`quantize_int8`).  Every folded
    neighbour replays the arithmetic of the standalone plan step, so fusing
    never moves a bit — it only removes full-size intermediate registers.
    """
    return bind_add(x.shape, y.shape, in_scale_x, in_scale_y, act, out_scale,
                    cache, out)(x, y)


def int_global_avg_pool(q: np.ndarray, scale: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Global average pooling of int8 codes with exact integer accumulation.

    The spatial sum runs in int64 (exact for any int8 feature map), and only
    the final per-feature mean is mapped back to float through the single
    factor ``scale / (h * w)`` — one deterministic scalar multiply per
    output, independent of chunking, summation order and BLAS backend.
    Returns the dequantized ``(N, C)`` float32 pooled features, i.e. exactly
    what ``dequantize -> global_pool`` produces semantically, computed
    integer-first.
    """
    n, c, h, w = q.shape
    acc = q.sum(axis=(2, 3), dtype=np.int64)
    values = acc * (float(scale) / (h * w))
    if out is None:
        return values.astype(np.float32)
    np.copyto(out, values, casting="unsafe")
    return out


def quantize_weight_per_channel(weight: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of a weight tensor.

    Returns ``(codes, scales)`` where ``codes`` is int8 with the same shape
    as ``weight`` and ``scales`` is a float64 vector over the leading (output
    channel) axis.  All-zero channels get scale 1.0 so downstream
    requantization multipliers stay finite.
    """
    flat = weight.reshape(weight.shape[0], -1)
    max_abs = np.abs(flat).max(axis=1).astype(np.float64)
    scales = np.where(max_abs > 0.0, max_abs / INT8_QMAX, 1.0)
    shaped = scales.reshape((-1,) + (1,) * (weight.ndim - 1))
    codes = np.clip(np.rint(weight / shaped), INT8_QMIN, INT8_QMAX)
    return codes.astype(np.int8), scales


def conv_accumulator_bound(weight_q: np.ndarray,
                           bias_q: Optional[np.ndarray] = None) -> int:
    """Worst-case |int32 accumulator| of an int8 conv/linear layer.

    Bounds the dot product by ``sum |w_q| * 127`` per output channel (the
    actual quantized weights, not the generic ``K * 127^2`` envelope) plus
    the bias magnitude.
    """
    per_channel = np.abs(weight_q.reshape(weight_q.shape[0], -1)
                         .astype(np.int64)).sum(axis=1) * INT8_QMAX
    if bias_q is not None:
        per_channel = per_channel + np.abs(bias_q.astype(np.int64))
    return int(per_channel.max()) if per_channel.size else 0


def _acc_dtype(bound: int):
    """GEMM dtype that accumulates integer values of magnitude ``bound`` exactly."""
    return np.float32 if bound < _F32_EXACT_LIMIT else np.float64


def _conv_acc_dtype(weight_q: np.ndarray, acc_bound: Optional[int]):
    """Exact-GEMM dtype of an int8 conv; OverflowError past the int32 range."""
    bound = acc_bound if acc_bound is not None \
        else conv_accumulator_bound(weight_q)
    if bound > INT32_ACC_LIMIT:
        raise OverflowError(
            f"int8 conv accumulator bound {bound} exceeds the int32 range; "
            f"the layer cannot run on 32-bit accumulators")
    return _acc_dtype(bound)


def _scratch(cache: Optional[BufferCache], tag: str, shape: Tuple[int, ...],
             dtype) -> np.ndarray:
    if cache is not None:
        return cache.get(tag, shape, dtype)
    return np.empty(shape, dtype=dtype)


def bind_accumulate(q: np.ndarray, weight_q: np.ndarray, stride: int = 1,
                    padding: int = 0, groups: int = 1,
                    cache: Optional[BufferCache] = None,
                    acc_bound: Optional[int] = None,
                    constants: Optional[dict] = None
                    ) -> Tuple[Callable, np.ndarray]:
    """Bind :func:`int_accumulate_conv` for ``q``'s shape: ``(fill, acc)``.

    ``fill(q)`` writes the exact accumulator into the ``acc`` buffer.  The
    int8 weights are cast to the accumulation dtype once, into
    ``constants`` (see :func:`_constant`).
    """
    n, c, h, w = q.shape
    out_c, c_per_group, kh, kw = weight_q.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels ({c}) incompatible with weight {weight_q.shape} "
            f"and groups={groups}")
    dtype = _conv_acc_dtype(weight_q, acc_bound)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    spatial = out_h * out_w
    weight_f = _constant(constants, np.dtype(dtype).str,
                         lambda: weight_q.astype(dtype))
    acc = _scratch(cache, "qacc", (n, out_c, spatial), dtype)

    if kh == 1 and kw == 1 and stride == 1 and padding == 0 and groups == 1:
        # The exact cast of the codes into the GEMM dtype, then one GEMM.
        rows = _scratch(cache, "qpw", (n, c, spatial), dtype)
        codes = rows.reshape(q.shape)
        matrix = weight_f.reshape(out_c, c)

        def fill(q):
            np.copyto(codes, q)
            np.matmul(matrix, rows, out=acc)
    elif is_depthwise(weight_q, groups):
        # No im2col: per-tap multiply-accumulate on the window view.  Every
        # product and partial sum is an exact integer below the mantissa
        # limit, so the tap order cannot change a bit of the result.
        taps = bind_depthwise(q, weight_f, stride, padding, cache)
        grid = acc.reshape(n, out_c, out_h, out_w)

        def fill(q):
            taps(q, grid)
    else:
        fill_cols, cols = bind_im2col(q, kh, kw, stride, padding, cache)
        cols_f = _scratch(cache, "qcol", cols.shape, dtype)
        if groups == 1:
            matrix = weight_f.reshape(out_c, c * kh * kw)
            rows = cols_f.reshape(n, c * kh * kw, spatial)

            def fill(q):
                fill_cols(q)
                np.copyto(cols_f, cols)
                np.matmul(matrix, rows, out=acc)
        else:
            cols_g = cols_f.reshape(n, groups, c_per_group * kh * kw,
                                    spatial)
            weight_g = weight_f.reshape(groups, out_c // groups,
                                        c_per_group * kh * kw)
            acc_g = acc.reshape(n, groups, out_c // groups, spatial)

            def fill(q):
                fill_cols(q)
                np.copyto(cols_f, cols)
                np.einsum("gok,ngkl->ngol", weight_g, cols_g, optimize=True,
                          out=acc_g)
    return fill, acc


def int_accumulate_conv(q: np.ndarray, weight_q: np.ndarray, stride: int = 1,
                        padding: int = 0, groups: int = 1,
                        cache: Optional[BufferCache] = None,
                        acc_bound: Optional[int] = None) -> np.ndarray:
    """Exact integer conv accumulation of int8 activations against int8 weights.

    The GEMM runs in float32/float64 (hitting BLAS) but every partial sum is
    an integer below the chosen mantissa limit, so the result is *exactly*
    the int32-accumulate convolution — bit-for-bit identical regardless of
    batch split, BLAS threading or summation order.  Returns the integer
    accumulator as a float array of shape ``(N, out_c, spatial)``.
    """
    fill, acc = bind_accumulate(q, weight_q, stride, padding, groups, cache,
                                acc_bound)
    fill(q)
    return acc


def bind_qconv(q: np.ndarray, weight_q: np.ndarray, bias_q: np.ndarray,
               multiplier: np.ndarray, stride: int = 1, padding: int = 0,
               groups: int = 1, qmin: int = INT8_QMIN, qmax: int = INT8_QMAX,
               cache: Optional[BufferCache] = None,
               acc_bound: Optional[int] = None,
               out: Optional[np.ndarray] = None,
               constants: Optional[dict] = None) -> Callable:
    """Bind :func:`fused_qconv` for ``q``'s shape; returns ``call(q)``."""
    n = q.shape[0]
    out_c, _, kh, kw = weight_q.shape
    out_h = conv_output_size(q.shape[2], kh, stride, padding)
    out_w = conv_output_size(q.shape[3], kw, stride, padding)
    destination, (result0, _) = _destination(
        out, (n, out_c, out_h, out_w), (n, out_c, out_h * out_w), np.int8)
    if is_depthwise(weight_q, groups) \
            and _conv_acc_dtype(weight_q, acc_bound) == np.float32:
        kernel = native.bind_depthwise_s8(q, weight_q, bias_q, multiplier,
                                          stride, padding, qmin, qmax, cache,
                                          result0)
        if kernel is not None:
            def call(q):
                result, _ = destination()
                kernel(q, result)
                return result
            return call
    fill, acc = bind_accumulate(q, weight_q, stride, padding, groups, cache,
                                acc_bound, constants)
    kernel = native.bind_requantize(acc, bias_q, multiplier, qmin, qmax,
                                    result0)
    if kernel is not None:
        def call(q):
            fill(q)
            result, _ = destination()
            kernel(acc, result)
            return result
        return call
    shift = bias_q.astype(acc.dtype).reshape(1, out_c, 1)
    scale = multiplier.reshape(1, out_c, 1)

    def call(q):
        fill(q)
        np.add(acc, shift, out=acc)
        # float32 * float64 promotes each product to float64 exactly — no
        # explicit astype copy needed on the hot path.
        scaled = acc * scale
        np.rint(scaled, out=scaled)
        np.clip(scaled, qmin, qmax, out=scaled)
        result, codes = destination()
        np.copyto(codes, scaled, casting="unsafe")
        return result
    return call


def fused_qconv(q: np.ndarray, weight_q: np.ndarray, bias_q: np.ndarray,
                multiplier: np.ndarray, stride: int = 1, padding: int = 0,
                groups: int = 1, qmin: int = INT8_QMIN, qmax: int = INT8_QMAX,
                cache: Optional[BufferCache] = None,
                acc_bound: Optional[int] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Int8 conv with the requantization epilogue fused in.

    ``acc = conv_int32(q, weight_q) + bias_q`` followed by the per-channel
    rescale ``clip(round(acc * multiplier), qmin, qmax)`` back to int8, with
    the activation expressed through the clamp bounds (``qmin=0`` for ReLU,
    ``qmax=round(6/scale)`` capped at 127 for ReLU6).  With float32
    accumulators the C kernels run the depthwise conv and the epilogue.
    """
    return bind_qconv(q, weight_q, bias_q, multiplier, stride, padding,
                      groups, qmin, qmax, cache, acc_bound, out)(q)


def bind_qconv_dequant(q: np.ndarray, weight_q: np.ndarray,
                       dequant: np.ndarray, bias: Optional[np.ndarray] = None,
                       stride: int = 1, padding: int = 0, groups: int = 1,
                       act: Optional[str] = None,
                       cache: Optional[BufferCache] = None,
                       acc_bound: Optional[int] = None,
                       out: Optional[np.ndarray] = None,
                       constants: Optional[dict] = None) -> Callable:
    """Bind :func:`fused_qconv_dequant` for ``q``'s shape; ``call(q)``."""
    n = q.shape[0]
    out_c = weight_q.shape[0]
    fill, acc = bind_accumulate(q, weight_q, stride, padding, groups, cache,
                                acc_bound, constants)
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    out_h = conv_output_size(q.shape[2], kh, stride, padding)
    out_w = conv_output_size(q.shape[3], kw, stride, padding)
    destination, (result0, _) = _destination(
        out, (n, out_c, out_h, out_w), (n, out_c, out_h * out_w), np.float32)
    kernel = native.bind_dequantize(acc, dequant, bias, act, result0)
    if kernel is not None:
        def call(q):
            fill(q)
            result, _ = destination()
            kernel(acc, result)
            return result
        return call
    scale = dequant.reshape(1, out_c, 1)

    def call(q):
        fill(q)
        scaled = acc * scale
        result, dest = destination()
        np.copyto(dest, scaled, casting="unsafe")
        conv_epilogue(dest, bias, act)
        return result
    return call


def fused_qconv_dequant(q: np.ndarray, weight_q: np.ndarray,
                        dequant: np.ndarray, bias: Optional[np.ndarray] = None,
                        stride: int = 1, padding: int = 0, groups: int = 1,
                        act: Optional[str] = None,
                        cache: Optional[BufferCache] = None,
                        acc_bound: Optional[int] = None,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Int8 conv dequantized straight to float32 (no output scale needed).

    Used where the plan has no calibrated output range (e.g. the projection
    convolution feeding a residual add): the int32 accumulator is mapped back
    to float via the per-channel ``dequant = s_in * s_w[c]`` factors and the
    float bias is added on top.  With float32 accumulators the epilogue runs
    in C.
    """
    return bind_qconv_dequant(q, weight_q, dequant, bias, stride, padding,
                              groups, act, cache, acc_bound, out)(q)


def bind_qlinear(q: np.ndarray, weight_q: np.ndarray, dequant: np.ndarray,
                 bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None,
                 out: Optional[np.ndarray] = None,
                 acc_bound: Optional[int] = None,
                 constants: Optional[dict] = None) -> Callable:
    """Bind :func:`fused_qlinear`; returns ``call(q)``."""
    bound = acc_bound if acc_bound is not None \
        else conv_accumulator_bound(weight_q)
    if bound > INT32_ACC_LIMIT:
        raise OverflowError(
            f"int8 linear accumulator bound {bound} exceeds the int32 range")
    dtype = _acc_dtype(bound)
    weight_t = _constant(constants, np.dtype(dtype).str,
                         lambda: weight_q.T.astype(dtype))
    scale = dequant.reshape(1, -1)

    def call(q):
        scaled = np.matmul(q.astype(dtype), weight_t) * scale
        if out is None:
            dest = scaled.astype(np.float32)
        else:
            dest = out
            np.copyto(dest, scaled, casting="unsafe")
        if bias is not None:
            dest += bias
        return apply_activation(dest, act)
    return call


def fused_qlinear(q: np.ndarray, weight_q: np.ndarray, dequant: np.ndarray,
                  bias: Optional[np.ndarray] = None,
                  act: Optional[str] = None,
                  out: Optional[np.ndarray] = None,
                  acc_bound: Optional[int] = None) -> np.ndarray:
    """Int8 GEMM ``q @ weight_q.T`` with a float rescale at the end.

    ``weight_q`` is ``(out, in)`` int8; ``dequant`` holds the per-output-row
    ``s_in * s_w[row]`` factors.  The accumulation is exact (see
    :func:`int_accumulate_conv`), the output is float32.  ``acc_bound`` is
    the compiled worst-case accumulator (recomputed from ``weight_q`` when
    omitted).
    """
    return bind_qlinear(q, weight_q, dequant, bias, act, out, acc_bound)(q)


def quantize_unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Quantize rows of a unit-norm matrix to int8 at the fixed scale 1/127.

    Row-normalised matrices (features, prototypes) live in ``[-1, 1]``, so a
    static power-free scale of ``1/127`` loses no range; the fixed scale
    keeps the codes independent of batch composition, which is what makes
    int8 prototype matching bitwise reproducible under sharding.
    """
    return np.clip(np.rint(matrix * INT8_QMAX), INT8_QMIN, INT8_QMAX) \
        .astype(np.int8)


def int8_cosine_similarities(features: np.ndarray,
                             prototypes_q: np.ndarray,
                             eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity as an int8 GEMM with a float rescale at the end.

    Features are L2-normalised in float, quantized per element at the fixed
    ``1/127`` scale, multiplied against pre-quantized unit-norm prototypes
    in an exact integer GEMM and rescaled by ``1/127**2``.  Per-sample
    normalisation + elementwise quantization keep every row independent of
    the rest of the batch, so sharded and local execution agree bit-for-bit.
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    features_q = quantize_unit_rows(features / (norms + eps))
    # Worst case |acc| = dim * 127 * 127: exact in float64 up to dim ~ 5e8.
    acc = np.matmul(features_q.astype(np.float64),
                    prototypes_q.T.astype(np.float64))
    return (acc / float(INT8_QMAX) ** 2).astype(np.float32)


def normalize_prototypes(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-wise L2 normalisation of a prototype matrix (float32).

    Shared by the predictor's prototype cache and the serving snapshots
    (:mod:`repro.serve`) so every execution path serves bit-identical
    similarity scores from the same normalised matrix.
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return (matrix / (norms + eps)).astype(np.float32)


def cosine_similarities(features: np.ndarray, prototypes_normed: np.ndarray,
                        eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity of raw features against pre-normalised prototypes.

    Normalising the prototype matrix once per memory version (instead of per
    query batch) is what makes whole-session prediction a single GEMM.
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    normed = features / (norms + eps)
    return normed @ prototypes_normed.T
