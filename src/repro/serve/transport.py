"""Zero-copy shared-memory transport for the sharded serving engine.

The original serving transport moved every tensor through pickled
``multiprocessing.Queue`` items.  That had two costs: every batch paid a
full serialize/copy/deserialize round-trip, and every result crossed *one
shared queue* whose write lock any hard-killed worker (OOM, SIGKILL) could
die holding — wedging the replies of every surviving shard.

This module provides the replacement: a :class:`SlotRing` is a slotted ring
buffer over one ``multiprocessing.shared_memory`` segment with exactly one
producer process and one consumer process.  Tensors are written into a free
slot as a contiguous NumPy copy (one ``memcpy``, no serialization) and read
back as a zero-copy NumPy view; the control queues carry only a small
``(slot, shape, dtype)`` descriptor.  Pickle is reserved for control frames
(tickets, prototype snapshots, stats dicts, error strings) and for the
explicit fallback when a payload does not fit a slot or the ring is full.

Slot accounting is a one-byte state flag per slot (0 = free, 1 = in use)
living in the segment header.  Each flag transition has a single writer —
the producer claims (0 -> 1), the consumer releases (1 -> 0) — so no lock
exists for a dying process to poison, and a dead peer's outstanding slots
can be reclaimed wholesale by whichever side owns the segment
(:meth:`SlotRing.reclaim_all`) instead of leaking.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

#: Default number of payload slots per ring (bounds coordinator->worker and
#: worker->coordinator tensor traffic; overflow falls back to pickle).
DEFAULT_RING_SLOTS = 8

#: Default payload capacity per slot.  1 MiB covers a 64-sample micro-batch
#: of 3x32x32 float32 images (786 KiB) with headroom; larger payloads take
#: the pickle fallback rather than failing.
DEFAULT_SLOT_BYTES = 1 << 20

#: Header/payload alignment so slot payloads start on cache-line boundaries.
_ALIGN = 64

#: Control-frame markers for packed payloads (see :func:`pack_payload`).
_INLINE = "__inline__"
_SHM = "__shm__"
_SHM_TUPLE = "__shm_tuple__"
_MARKERS = (_INLINE, _SHM, _SHM_TUPLE)

#: Frame length per marker *without* the optional trailing trace-context
#: field; a frame one element longer carries trace metadata (see
#: :func:`payload_trace`).  The pickle fallback ships the identical frame,
#: so trace context propagates bit-for-bit through both transport paths.
_BASE_LEN = {_INLINE: 2, _SHM: 2, _SHM_TUPLE: 3}


# NOTE on resource tracking: on Python < 3.13 *attaching* to a segment
# registers it with the resource tracker as if the attacher owned it
# (cpython#82300).  Workers here are always ``multiprocessing``-spawned
# children that inherit the coordinator's tracker process, whose registry is
# a set — the duplicate registration is idempotent and the coordinator's
# ``unlink()`` at close unregisters it exactly once.  Do NOT "fix" this by
# unregistering on attach: with a shared tracker that strips the owner's
# registration and the tracker logs a KeyError when the coordinator unlinks.


class SlotRing:
    """Single-producer / single-consumer slotted shared-memory ring.

    Layout: ``slots`` one-byte state flags (padded to ``_ALIGN``), followed
    by ``slots * slot_bytes`` of payload space.  The producer process calls
    :meth:`try_write`, ships the returned descriptor over a control queue,
    and the consumer process calls :meth:`read` (zero-copy view) and
    :meth:`free` when done with the view.
    """

    def __init__(self, slots: int = DEFAULT_RING_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 name: Optional[str] = None, create: bool = True):
        if slots < 1:
            raise ValueError("a ring needs at least one slot")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be positive")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._header = -(-self.slots // _ALIGN) * _ALIGN
        size = self._header + self.slots * self.slot_bytes
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._owns = bool(create)
        self._flags = np.ndarray((self.slots,), dtype=np.uint8,
                                 buffer=self._shm.buf)
        if create:
            self._flags[:] = 0
        self._cursor = 0
        self._closed = False
        #: Fault-injection switch (process-local, never shared state): while
        #: set, :meth:`try_write` reports a full ring so every payload takes
        #: the inline-pickle fallback — the scenario harness's way of
        #: exercising ring exhaustion deterministically.
        self.fail_writes = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    def spec(self) -> Tuple[str, int, int]:
        """Picklable attachment spec for the peer process."""
        return (self.name, self.slots, self.slot_bytes)

    @classmethod
    def attach(cls, spec: Tuple[str, int, int]) -> "SlotRing":
        """Attach to a ring created (and owned) by the peer process."""
        name, slots, slot_bytes = spec
        return cls(slots=slots, slot_bytes=slot_bytes, name=name,
                   create=False)

    # ------------------------------------------------------------------
    def try_write(self, array: np.ndarray
                  ) -> Optional[Tuple[int, tuple, str]]:
        """Claim a free slot and copy ``array`` into it.

        Returns the ``(slot, shape, dtype)`` descriptor to ship over the
        control channel, or ``None`` when the array exceeds ``slot_bytes``
        or every slot is in use — the caller then falls back to pickling
        the payload inline, so a full ring degrades to the old transport
        instead of blocking.
        """
        array = np.ascontiguousarray(array)
        if self.fail_writes or array.nbytes > self.slot_bytes:
            return None
        for probe in range(self.slots):
            slot = (self._cursor + probe) % self.slots
            if self._flags[slot] == 0:
                break
        else:
            return None
        self._cursor = (slot + 1) % self.slots
        self._flags[slot] = 1
        if array.nbytes:
            dst = np.ndarray(array.shape, dtype=array.dtype,
                             buffer=self._shm.buf,
                             offset=self._header + slot * self.slot_bytes)
            np.copyto(dst, array)
        return (slot, array.shape, array.dtype.str)

    def read(self, descriptor: Tuple[int, tuple, str]) -> np.ndarray:
        """Zero-copy view of a written slot; call :meth:`free` when done."""
        slot, shape, dtype = descriptor
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=self._shm.buf,
                          offset=self._header + slot * self.slot_bytes)

    def free(self, slot: int) -> None:
        """Release one slot back to the producer (consumer-side call)."""
        self._flags[slot] = 0

    def reclaim_all(self) -> None:
        """Force-release every slot.

        Only safe when the peer process is known to be gone (dead worker) or
        has not started yet — this is the leak-proofing path the liveness
        watchdog takes after failing a dead shard's futures.
        """
        self._flags[:] = 0

    @property
    def slots_in_use(self) -> int:
        return int(np.count_nonzero(self._flags))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment; the owning side also unlinks it."""
        if self._closed:
            return
        self._closed = True
        self._flags = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - outstanding views; the
            return           # mapping is reclaimed at process exit instead
        if self._owns:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Payload packing
# ---------------------------------------------------------------------------
def pack_payload(ring: Optional[SlotRing], payload, trace=None):
    """Pack one work-item payload for the control queue.

    A bare ``ndarray`` payload — or the leading ``ndarray`` of a tuple
    payload such as ``(images, class_ids)`` — is moved into ``ring`` and
    replaced by its slot descriptor; everything else (small ints, stats
    dicts, prototype snapshots, error strings) stays an inline control
    frame.  With no ring, a full ring, or an oversized tensor the payload is
    shipped inline, i.e. the pre-ring pickle transport is the always-correct
    fallback.

    ``trace`` is optional trace metadata riding the control frame (never a
    ring slot): requests carry a ``(trace_id, span_id)`` context pair,
    results carry ``{"spans": [...]}`` finished in the worker.  ``None``
    (tracing off or request unsampled) emits the exact pre-trace frame
    shapes, so the tracing-off wire format is byte-identical to before.
    """
    if ring is not None:
        if isinstance(payload, np.ndarray):
            descriptor = ring.try_write(payload)
            if descriptor is not None:
                return (_SHM, descriptor) if trace is None \
                    else (_SHM, descriptor, trace)
        elif (isinstance(payload, tuple) and payload
              and isinstance(payload[0], np.ndarray)):
            descriptor = ring.try_write(payload[0])
            if descriptor is not None:
                return (_SHM_TUPLE, descriptor, payload[1:]) if trace is None \
                    else (_SHM_TUPLE, descriptor, payload[1:], trace)
    return (_INLINE, payload) if trace is None else (_INLINE, payload, trace)


def payload_trace(packed):
    """The optional trace field of a packed frame (``None`` when absent).

    Raw (never-packed) payloads and pre-trace frames return ``None``, so
    queue-generic consumers can probe any frame safely.
    """
    if (isinstance(packed, tuple) and packed
            and isinstance(packed[0], str) and packed[0] in _MARKERS):
        base = _BASE_LEN[packed[0]]
        if len(packed) > base:
            return packed[base]
    return None


def unpack_payload(ring: Optional[SlotRing], packed, copy: bool = False):
    """Unpack a payload produced by :func:`pack_payload`.

    Returns ``(payload, held_slots)``.  With ``copy=False`` shared-memory
    tensors come back as zero-copy views and ``held_slots`` lists the slot
    ids the caller must :meth:`SlotRing.free` once the views are consumed;
    with ``copy=True`` the tensor is copied out and its slot freed before
    returning (``held_slots`` is empty) — the right mode when the payload
    outlives the call, e.g. a result handed to a caller's future.

    Raw (never-packed) payloads pass through untouched, so queue-generic
    consumers — like the worker main loop driven by plain queues in tests —
    keep working without a ring.  A trailing trace field is ignored here;
    read it with :func:`payload_trace` before unpacking.
    """
    if not (isinstance(packed, tuple) and packed
            and isinstance(packed[0], str) and packed[0] in _MARKERS):
        return packed, ()
    kind = packed[0]
    if kind == _INLINE:
        return packed[1], ()
    descriptor = packed[1]
    view = ring.read(descriptor)
    if copy:
        tensor = view.copy()
        ring.free(descriptor[0])
        held = ()
    else:
        tensor = view
        held = (descriptor[0],)
    if kind == _SHM:
        return tensor, held
    return (tensor, *packed[2]), held
