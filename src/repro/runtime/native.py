"""C kernels for the depthwise tap loop and the int8 conv epilogues.

``native.c`` holds four kernels that :mod:`repro.runtime.kernels` calls
when the library is loaded: the float32 depthwise conv with its bias +
activation epilogue, the int8 depthwise ``qconv`` (exact integer
accumulation, then requantization), and the requantize and dequantize
epilogues that follow the BLAS GEMM of ``fused_qconv`` and
``fused_qconv_dequant``.  Each replays the per-element arithmetic of the
NumPy code it replaces, so no float32 or int8 bit moves.  The int8 taps
accumulate in float32 lanes: every partial sum is an integer below 2**24
(the caller checks the accumulator bound), so the sum is the exact int32
one.  On the baseline x86-64 ISA (SSE2) that measured about twice as fast
as widening the int8 products into int32 lanes.

The first kernel call in a process compiles ``native.c`` with the host C
compiler (``cc``) into the per-user cache directory ``~/.cache/repro-native``
and loads it with :mod:`ctypes`; later processes load the cached library.
The file name hashes the source, the flags and the compiler version, so an
edit or a new compiler builds a new library.  :data:`FLAGS` has
``-ffp-contract=off`` because gcc otherwise contracts ``a + x * w`` into an
FMA, which rounds once instead of twice and moves float32 bits; it has no
``-ffast-math`` (reassociation) and no ``-march=native`` (a cached library
built with it can fault on another CPU, and it measured no faster).

When there is no compiler, or the build or load fails, every wrapper
returns False and the caller runs its NumPy code: the same bits, slower.
:func:`available` says which path runs, and :data:`build_error` holds the
compiler's message.  Each wrapper checks the dtype, C-contiguity and size
of every array before handing its pointer to C.
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path
from typing import Dict, Optional, Tuple

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
    "requantize": (4, 5),
    "dequantize": (4, 4),
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


#: Data addresses of long-lived arrays (plan weights, cached scratch),
#: keyed by ``id`` and validated through a weak reference, so a recycled
#: id never yields a stale pointer.  ``ndarray.ctypes.data`` costs over a
#: microsecond per array, a sizeable share of a small kernel call.
_addresses: Dict[int, Tuple[weakref.ref, int]] = {}


def _address(array: np.ndarray) -> int:
    key = id(array)
    entry = _addresses.get(key)
    if entry is not None and entry[0]() is array:
        return entry[1]
    address = array.ctypes.data
    _addresses[key] = (weakref.ref(
        array, lambda _ref, key=key: _addresses.pop(key, None)), address)
    return address


def _scratch(cache, c: int, h: int, w: int, kh: int, kw: int,
             padding: int) -> np.ndarray:
    """Depthwise scratch for one image: tap-major weights + padded image.

    Sized per image, not per batch, so one buffer serves every batch size.
    """
    size = c * (kh * kw + (h + 2 * padding) * (w + 2 * padding))
    if cache is not None:
        return cache.get("dwpad", (size,), np.float32)
    return np.empty(size, dtype=np.float32)


def depthwise_f32(x: np.ndarray, weight: np.ndarray,
                  bias: Optional[np.ndarray], stride: int, padding: int,
                  act: Optional[str], cache, out: np.ndarray) -> bool:
    """Float32 depthwise conv + bias + ``act`` into ``out``; False if not run."""
    lib = library()
    if lib is None or act not in _ACT_CODES:
        return False
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if not (_ok(x, np.float32, x.size) and _ok(weight, np.float32, c * kh * kw)
            and (bias is None or _ok(bias, np.float32, c))
            and _ok(out, np.float32, n * c * out_h * out_w)):
        return False
    scratch = _scratch(cache, c, h, w, kh, kw, padding)
    lib.depthwise_f32(x.ctypes.data, _address(weight),
                      None if bias is None else _address(bias),
                      out.ctypes.data, _address(scratch),
                      n, c, h, w, kh, kw, stride, padding, _ACT_CODES[act])
    return True


def depthwise_s8(q: np.ndarray, weight_q: np.ndarray, bias_q: np.ndarray,
                 multiplier: np.ndarray, stride: int, padding: int,
                 qmin: int, qmax: int, cache, out: np.ndarray) -> bool:
    """Int8 depthwise conv + requantization into ``out``; False if not run.

    The caller guarantees an accumulator bound below 2**24, the float32
    exact-integer limit the kernel relies on.
    """
    lib = library()
    if lib is None:
        return False
    n, c, h, w = q.shape
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if not (_ok(q, np.int8, q.size) and _ok(weight_q, np.int8, c * kh * kw)
            and _ok(bias_q, np.int32, c) and _ok(multiplier, np.float64, c)
            and _ok(out, np.int8, n * c * out_h * out_w)):
        return False
    scratch = _scratch(cache, c, h, w, kh, kw, padding)
    lib.depthwise_s8(q.ctypes.data, _address(weight_q), _address(bias_q),
                     _address(multiplier), out.ctypes.data, _address(scratch),
                     n, c, h, w, kh, kw, stride, padding, qmin, qmax)
    return True


def requantize(acc: np.ndarray, bias_q: np.ndarray, multiplier: np.ndarray,
               qmin: int, qmax: int, out: np.ndarray) -> bool:
    """``fused_qconv``'s epilogue from a float32 ``(n, c, spatial)`` GEMM."""
    lib = library()
    if lib is None:
        return False
    n, c, spatial = acc.shape
    if not (_ok(acc, np.float32, acc.size) and _ok(bias_q, np.int32, c)
            and _ok(multiplier, np.float64, c)
            and _ok(out, np.int8, acc.size)):
        return False
    lib.requantize(_address(acc), _address(bias_q), _address(multiplier),
                   out.ctypes.data, n, c, spatial, qmin, qmax)
    return True


def dequantize(acc: np.ndarray, dequant: np.ndarray,
               bias: Optional[np.ndarray], act: Optional[str],
               out: np.ndarray) -> bool:
    """``fused_qconv_dequant``'s epilogue from a float32 GEMM result."""
    lib = library()
    if lib is None or act not in _ACT_CODES:
        return False
    n, c, spatial = acc.shape
    if not (_ok(acc, np.float32, acc.size) and _ok(dequant, np.float64, c)
            and (bias is None or _ok(bias, np.float32, c))
            and _ok(out, np.float32, acc.size)):
        return False
    lib.dequantize(_address(acc), _address(dequant),
                   None if bias is None else _address(bias),
                   out.ctypes.data, n, c, spatial, _ACT_CODES[act])
    return True
