"""C kernels for the depthwise tap loop, the conv epilogues and the pool.

``native.c`` holds six kernels that :mod:`repro.runtime.kernels` and
:mod:`repro.runtime.plan` call when the library is loaded: the float32
depthwise conv with its bias + activation epilogue, the int8 depthwise
``qconv`` (exact integer accumulation, then requantization), the bias +
activation epilogue that follows the BLAS GEMM of ``fused_conv``, the
requantize and dequantize epilogues that follow the BLAS GEMM of
``fused_qconv`` and ``fused_qconv_dequant``, and the float32 global average
pool.  Each replays the per-element arithmetic of the NumPy code it
replaces, so no float32 or int8 bit moves; the pool sums each plane in
NumPy's pairwise order.  The int8 taps accumulate in float32 lanes: every
partial sum is an integer below 2**24 (the caller checks the accumulator
bound), so the sum is the exact int32 one.  On the baseline x86-64 ISA
(SSE2) that measured about twice as fast as widening the int8 products into
int32 lanes.

Where the compiler defines ``__SSE2__`` (every x86-64 target), the 3x3,
stride-1, pad-1 float32 depthwise conv of a 4x4 plane runs as a register
tile of SSE2 intrinsics with no haloed copy; the plane loop runs that shape
everywhere else.  The other loops are plain C that gcc vectorizes: the
bias + activation epilogue is one pass, and the pool sums in 8
accumulators.

The first kernel call in a process compiles ``native.c`` with the host C
compiler (``cc``) into the per-user cache directory ``~/.cache/repro-native``
and loads it with :mod:`ctypes`; later processes load the cached library.
The file name hashes the source, the flags and the compiler version, so an
edit or a new compiler builds a new library.  :data:`FLAGS` has
``-ffp-contract=off`` because gcc otherwise contracts ``a + x * w`` into an
FMA, which rounds once instead of twice and moves float32 bits; it has no
``-ffast-math`` (reassociation) and no ``-march`` flag (a cached library
built with ``-march=native`` can fault on another CPU, and neither it nor
``-mavx2`` measured faster).

Each kernel has a binder (``bind_depthwise_f32`` and friends) that checks
the dtype, C-contiguity and size of every array once, works out every
pointer and integer argument, and returns ``call(x, out)``.  The call
passes the bound addresses when ``x`` and ``out`` are the arrays it was
bound with (arena views are, on every replay of a program) and checks any
other array before taking its address; it holds a reference to every array
whose address it passes.  The kernel is looked up on the library at call
time, so a test can replace it.  The plain wrappers (:func:`depthwise_f32`
and friends) bind and call once.

When there is no compiler, or the build or load fails, every binder
returns None (every wrapper False) and the caller runs its NumPy code: the
same bits, slower.  :func:`available` says which path runs, and
:data:`build_error` holds the compiler's message.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

SOURCE = Path(__file__).with_name("native.c")

#: Compile flags.  See the module docstring for why each is (or is not) here.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Activation codes shared with ``native.c``.
_ACT_CODES = {None: 0, "relu": 1, "relu6": 2}

#: Deadline of each compiler run (a build takes about a second).
_COMPILER_TIMEOUT_S = 120

#: Exported kernel -> (pointer arguments, integer arguments).
_SIGNATURES = {
    "depthwise_f32": (5, 9),
    "depthwise_s8": (6, 10),
    "bias_act_f32": (2, 4),
    "requantize": (4, 5),
    "dequantize": (4, 4),
    "global_pool_f32": (2, 2),
}

_lock = threading.Lock()
#: The loaded library; None before the first kernel call, False when the
#: build or load failed (tests monkeypatch it to False to force NumPy).
_library = None
#: Why the library did not load: the compiler's stderr, or the OS error.
build_error: Optional[str] = None


def compiler() -> Optional[str]:
    """Path of the host C compiler, or None when there is none on PATH."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def _load():
    """Build ``native.c`` into the cache unless it is there, then load it.

    The build-only modules are imported here, on the first kernel call, so
    importing the runtime stays cheap.
    """
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    def run(*command):
        try:
            return subprocess.run(command, capture_output=True, text=True,
                                  timeout=_COMPILER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{' '.join(command)} timed out after "
                               f"{_COMPILER_TIMEOUT_S} s") from None

    cc = compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    version = run(cc, "--version").stdout
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(FLAGS).encode())
    key.update(version.encode())
    directory = Path.home() / ".cache" / "repro-native"
    path = directory / f"native-{key.hexdigest()[:16]}.so"
    if not path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        # Build under a unique name and rename it into place, so processes
        # starting together never load a half-written library.
        fd, partial = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            build = run(cc, *FLAGS, "-o", partial, str(SOURCE))
            if build.returncode != 0:
                raise RuntimeError(f"{cc} failed to build {SOURCE}:\n"
                                   f"{build.stderr}")
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    library = ctypes.CDLL(str(path))
    for name, (pointers, integers) in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = ((ctypes.c_void_p,) * pointers
                             + (ctypes.c_long,) * integers)
        function.restype = None
    return library


def library():
    """The loaded ``ctypes.CDLL``, built on first use; None if unavailable."""
    global _library, build_error
    if _library is None:
        with _lock:
            if _library is None:
                try:
                    _library = _load()
                except (OSError, RuntimeError) as failure:
                    build_error = str(failure)
                    _library = False
    return _library or None


def available() -> bool:
    """True when the kernels run in C (builds the library if needed)."""
    return library() is not None


def _ok(array: np.ndarray, dtype, size: int) -> bool:
    return (array.dtype == dtype and array.flags.c_contiguous
            and array.size == size)


def _data(array: np.ndarray, dtype, size: int) -> int:
    """Address of an operand a bound call did not see when it was bound.

    Checked like the operands at bind time, so a changed operand can never
    hand C a pointer it would misread.
    """
    if not _ok(array, dtype, size):
        raise ValueError(f"a bound C kernel got a {array.dtype} array of "
                         f"shape {array.shape}; it was bound for {size} "
                         f"C-contiguous {np.dtype(dtype)} elements")
    return array.ctypes.data


def _scratch(cache, h: int, w: int, padding: int, taps: int,
             out_plane: int) -> np.ndarray:
    """Depthwise scratch for one plane: the zero-haloed input plane, then
    the ``taps`` weights and the ``out_plane`` accumulators of the int8
    kernel.

    Sized per plane, not per batch or channel: the cache keeps one row of
    this size, which serves every batch size.  The float32 kernel uses only
    the padded plane but asks for the same size, so float32 and int8 layers
    of one image size share one buffer.
    """
    size = (h + 2 * padding) * (w + 2 * padding) + taps + out_plane
    if cache is not None:
        return cache.get("dwpad", (1, size), np.float32)
    return np.empty(size, dtype=np.float32)


def _operand(array: Optional[np.ndarray]) -> Tuple[Optional[np.ndarray], int]:
    """``(array, address)`` of an operand as seen at bind time."""
    return array, (0 if array is None else array.ctypes.data)


def bind_depthwise_f32(x: np.ndarray, weight: np.ndarray,
                       bias: Optional[np.ndarray], stride: int, padding: int,
                       act: Optional[str], cache,
                       out: Optional[np.ndarray]) -> Optional[Callable]:
    """Bind the float32 depthwise conv + bias + ``act``; None if C can't run it.

    Returns ``call(x, out)``.  ``out=None`` means every call brings its own
    output array.
    """
    lib = library()
    if lib is None or act not in _ACT_CODES:
        return None
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    x_size, out_size = x.size, n * c * out_h * out_w
    if not (_ok(x, np.float32, x_size) and _ok(weight, np.float32, c * kh * kw)
            and (bias is None or _ok(bias, np.float32, c))
            and (out is None or _ok(out, np.float32, out_size))):
        return None
    scratch = _scratch(cache, h, w, padding, kh * kw, out_h * out_w)
    x0, x_address = _operand(x)
    out0, out_address = _operand(out)
    weight_address = weight.ctypes.data
    bias_address = None if bias is None else bias.ctypes.data
    scratch_address = scratch.ctypes.data
    act_code = _ACT_CODES[act]

    def call(x, out):
        lib.depthwise_f32(
            x_address if x is x0 else _data(x, np.float32, x_size),
            weight_address, bias_address,
            out_address if out is out0 else _data(out, np.float32, out_size),
            scratch_address, n, c, h, w, kh, kw, stride, padding, act_code)

    call.arrays = (weight, bias, scratch)   # the addresses above point here
    return call


def bind_depthwise_s8(q: np.ndarray, weight_q: np.ndarray,
                      bias_q: np.ndarray, multiplier: np.ndarray,
                      stride: int, padding: int, qmin: int, qmax: int, cache,
                      out: Optional[np.ndarray]) -> Optional[Callable]:
    """Bind the int8 depthwise conv + requantization; None if C can't run it.

    Returns ``call(q, out)``.  The caller guarantees an accumulator bound
    below 2**24, the float32 exact-integer limit the kernel relies on.
    """
    lib = library()
    if lib is None:
        return None
    n, c, h, w = q.shape
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    q_size, out_size = q.size, n * c * out_h * out_w
    if not (_ok(q, np.int8, q_size) and _ok(weight_q, np.int8, c * kh * kw)
            and _ok(bias_q, np.int32, c) and _ok(multiplier, np.float64, c)
            and (out is None or _ok(out, np.int8, out_size))):
        return None
    scratch = _scratch(cache, h, w, padding, kh * kw, out_h * out_w)
    q0, q_address = _operand(q)
    out0, out_address = _operand(out)
    constants = (weight_q.ctypes.data, bias_q.ctypes.data,
                 multiplier.ctypes.data)
    scratch_address = scratch.ctypes.data

    def call(q, out):
        lib.depthwise_s8(
            q_address if q is q0 else _data(q, np.int8, q_size), *constants,
            out_address if out is out0 else _data(out, np.int8, out_size),
            scratch_address, n, c, h, w, kh, kw, stride, padding, qmin, qmax)

    call.arrays = (weight_q, bias_q, multiplier, scratch)
    return call


def bind_bias_act_f32(shape: Tuple[int, int, int],
                      bias: Optional[np.ndarray], act: Optional[str],
                      out: Optional[np.ndarray]) -> Optional[Callable]:
    """Bind ``fused_conv``'s epilogue after a float32 ``(n, c, spatial)`` GEMM.

    Returns ``call(out)``, which adds ``bias`` per channel and applies
    ``act`` in place, or None when C cannot run it.  ``out=None`` means
    every call brings its own array.
    """
    lib = library()
    if lib is None or act not in _ACT_CODES:
        return None
    n, c, spatial = shape
    size = n * c * spatial
    if not ((bias is None or _ok(bias, np.float32, c))
            and (out is None or _ok(out, np.float32, size))):
        return None
    out0, out_address = _operand(out)
    bias_address = None if bias is None else bias.ctypes.data
    act_code = _ACT_CODES[act]

    def call(out):
        lib.bias_act_f32(
            out_address if out is out0 else _data(out, np.float32, size),
            bias_address, n, c, spatial, act_code)

    call.arrays = (bias,)
    return call


def bind_requantize(acc: np.ndarray, bias_q: np.ndarray,
                    multiplier: np.ndarray, qmin: int, qmax: int,
                    out: Optional[np.ndarray]) -> Optional[Callable]:
    """Bind ``fused_qconv``'s epilogue after a float32 ``(n, c, spatial)`` GEMM.

    Returns ``call(acc, out)``, or None when C cannot run it.
    """
    lib = library()
    if lib is None:
        return None
    n, c, spatial = acc.shape
    size = acc.size
    if not (_ok(acc, np.float32, size) and _ok(bias_q, np.int32, c)
            and _ok(multiplier, np.float64, c)
            and (out is None or _ok(out, np.int8, size))):
        return None
    acc0, acc_address = _operand(acc)
    out0, out_address = _operand(out)
    constants = (bias_q.ctypes.data, multiplier.ctypes.data)

    def call(acc, out):
        lib.requantize(
            acc_address if acc is acc0 else _data(acc, np.float32, size),
            *constants,
            out_address if out is out0 else _data(out, np.int8, size),
            n, c, spatial, qmin, qmax)

    call.arrays = (bias_q, multiplier)
    return call


def bind_dequantize(acc: np.ndarray, dequant: np.ndarray,
                    bias: Optional[np.ndarray], act: Optional[str],
                    out: Optional[np.ndarray]) -> Optional[Callable]:
    """Bind ``fused_qconv_dequant``'s epilogue after a float32 GEMM.

    Returns ``call(acc, out)``, or None when C cannot run it.
    """
    lib = library()
    if lib is None or act not in _ACT_CODES:
        return None
    n, c, spatial = acc.shape
    size = acc.size
    if not (_ok(acc, np.float32, size) and _ok(dequant, np.float64, c)
            and (bias is None or _ok(bias, np.float32, c))
            and (out is None or _ok(out, np.float32, size))):
        return None
    acc0, acc_address = _operand(acc)
    out0, out_address = _operand(out)
    dequant_address = dequant.ctypes.data
    bias_address = None if bias is None else bias.ctypes.data
    act_code = _ACT_CODES[act]

    def call(acc, out):
        lib.dequantize(
            acc_address if acc is acc0 else _data(acc, np.float32, size),
            dequant_address, bias_address,
            out_address if out is out0 else _data(out, np.float32, size),
            n, c, spatial, act_code)

    call.arrays = (dequant, bias)
    return call


def bind_global_pool_f32(x: np.ndarray, out: Optional[np.ndarray]
                         ) -> Optional[Callable]:
    """Bind the global average pool of a float32 ``(n, c, h, w)`` array.

    Returns ``call(x, out)``, which writes ``x.mean(axis=(2, 3))`` into the
    float32 ``(n, c)`` array ``out``, or None when C cannot run it.
    """
    lib = library()
    if lib is None or x.ndim != 4:
        return None
    n, c, h, w = x.shape
    x_size = x.size
    if not (_ok(x, np.float32, x_size)
            and (out is None or _ok(out, np.float32, n * c))):
        return None
    x0, x_address = _operand(x)
    out0, out_address = _operand(out)

    def call(x, out):
        lib.global_pool_f32(
            x_address if x is x0 else _data(x, np.float32, x_size),
            out_address if out is out0 else _data(out, np.float32, n * c),
            n * c, h * w)

    return call


def _run_once(call: Optional[Callable], *arrays: np.ndarray) -> bool:
    if call is None:
        return False
    call(*arrays)
    return True


def depthwise_f32(x: np.ndarray, weight: np.ndarray,
                  bias: Optional[np.ndarray], stride: int, padding: int,
                  act: Optional[str], cache, out: np.ndarray) -> bool:
    """Float32 depthwise conv + bias + ``act`` into ``out``; False if not run."""
    return _run_once(bind_depthwise_f32(x, weight, bias, stride, padding, act,
                                        cache, out), x, out)


def depthwise_s8(q: np.ndarray, weight_q: np.ndarray, bias_q: np.ndarray,
                 multiplier: np.ndarray, stride: int, padding: int,
                 qmin: int, qmax: int, cache, out: np.ndarray) -> bool:
    """Int8 depthwise conv + requantization into ``out``; False if not run."""
    return _run_once(bind_depthwise_s8(q, weight_q, bias_q, multiplier,
                                       stride, padding, qmin, qmax, cache,
                                       out), q, out)


def bias_act_f32(out: np.ndarray, bias: Optional[np.ndarray],
                 act: Optional[str]) -> bool:
    """``fused_conv``'s epilogue in place on a float32 ``(n, c, spatial)``."""
    return _run_once(bind_bias_act_f32(out.shape, bias, act, out), out)


def requantize(acc: np.ndarray, bias_q: np.ndarray, multiplier: np.ndarray,
               qmin: int, qmax: int, out: np.ndarray) -> bool:
    """``fused_qconv``'s epilogue from a float32 ``(n, c, spatial)`` GEMM."""
    return _run_once(bind_requantize(acc, bias_q, multiplier, qmin, qmax,
                                     out), acc, out)


def dequantize(acc: np.ndarray, dequant: np.ndarray,
               bias: Optional[np.ndarray], act: Optional[str],
               out: np.ndarray) -> bool:
    """``fused_qconv_dequant``'s epilogue from a float32 GEMM result."""
    return _run_once(bind_dequantize(acc, dequant, bias, act, out), acc, out)


def global_pool_f32(x: np.ndarray, out: np.ndarray) -> bool:
    """Float32 global average pool of ``x`` into ``out``; False if not run."""
    return _run_once(bind_global_pool_f32(x, out), x, out)
