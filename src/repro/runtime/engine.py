"""Micro-batched executor for compiled inference plans.

:class:`InferenceEngine` is the one place a compiled plan is optimized: it
runs :func:`~repro.runtime.optimizer.optimize_plan` on the plan it is given
unless constructed with ``optimize=False``.  Already-optimized plans, such
as snapshot restores, pass through unchanged.

A planned chunk runs through a bound program (see :mod:`repro.runtime.plan`):
the first chunk of a batch size binds every step to the thread's
:class:`BufferCache` and arena, and later chunks of that size replay it.
Programs live on the cache, which drops them whenever it releases a buffer.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from ..obs.trace import ambient_span
from . import native
from .kernels import BufferCache
from .optimizer import MemoryPlan, optimize_plan, plan_memory
from .plan import InferencePlan

#: Default micro-batch size; keeps the im2col working set inside the CPU
#: cache for the laptop-profile backbones while amortising per-layer
#: dispatch overhead across the whole batch.
DEFAULT_MICRO_BATCH = 64

#: Cap on the default chunk-execution thread count.  NumPy releases the GIL
#: inside BLAS and ufunc loops, so a handful of threads covers the
#: non-GEMM work; more mostly fights the BLAS library's own threading.
MAX_DEFAULT_THREADS = 4


def default_num_threads() -> int:
    """Worker threads for chunk execution: min(4, usable cores)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_THREADS, cores))


class InferenceEngine:
    """Executes an :class:`InferencePlan` over arbitrarily large inputs.

    Incoming samples are split into micro-batches; each micro-batch flows
    through the flat op plan with a :class:`BufferCache`, so steady-state
    execution reuses the same im2col / arena buffers for every batch of the
    same shape.

    ``optimize=True`` (the default) runs the post-compile passes of
    :mod:`repro.runtime.optimizer` on the plan and executes through the
    liveness-planned arena: the memory plan is derived from the first real
    chunk the engine runs (recording its shapes — no synthetic dry run) and
    reused for every following chunk of the same per-sample shape.

    When several chunks are ready and the plan has no stateful (``opaque``)
    steps, they execute concurrently on a thread pool with one
    :class:`BufferCache` per thread — bit-identical to serial execution
    because chunks are independent and each thread owns its scratch space.
    Intra-process threading composes with :mod:`repro.serve` process
    sharding: workers receive single micro-batches and stay serial.

    Each cache holds one set of scratch and arena buffers, grown to the
    largest chunk its thread has run (see :class:`BufferCache`), so the
    engine's memory is bounded by its micro-batch and its thread count,
    whatever mix of batch sizes it serves.
    """

    def __init__(self, plan: InferencePlan,
                 micro_batch: int = DEFAULT_MICRO_BATCH,
                 optimize: bool = True,
                 num_threads: Optional[int] = None,
                 memory_plan: Optional[MemoryPlan] = None,
                 registry=None, metrics_prefix: str = "engine",
                 profiler=None):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        self.plan = optimize_plan(plan) if optimize else plan
        self.optimize = optimize
        self.micro_batch = micro_batch
        self.num_threads = num_threads if num_threads is not None \
            else default_num_threads()
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.cache = BufferCache()
        # A supplied memory plan maps registers of the plan it was recorded
        # against.  If optimization rewrote the plan above (renaming fused
        # registers), or planned execution is off entirely, the spec no
        # longer applies — drop it and let the first run re-record.  The
        # snapshot path restores plans with ``optimized=True``, which
        # ``optimize_plan`` passes through untouched, so worker replicas
        # keep their shipped arena spec.
        self.memory_plan: Optional[MemoryPlan] = memory_plan \
            if memory_plan is not None and optimize and plan.optimized \
            else None
        self.batches_run = 0
        self.samples_run = 0
        #: Optional :class:`~repro.obs.planprof.PlanProfiler`; ``None`` costs
        #: one comparison per executed step.
        self.profiler = profiler
        self._parallel_ok = all(step.op != "opaque"
                                for step in self.plan.steps)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._tls = threading.local()
        self._tls.cache = self.cache
        self._caches: List[BufferCache] = [self.cache]
        self._caches_lock = threading.Lock()
        self._constants: Dict[int, dict] = {}
        self.metrics_prefix = metrics_prefix
        self._bind_registry(registry)

    def _bind_registry(self, registry) -> None:
        """Register this engine's gauges in ``registry`` (callback-valued).

        Gauges are read lazily at scrape time, so an instrumented engine
        pays nothing per request — the registry only ever calls back into
        the ``cache_bytes`` / ``arena_peak_bytes`` properties when someone
        scrapes it.
        """
        self.registry = registry
        if registry is None:
            return
        prefix = self.metrics_prefix
        registry.gauge(f"{prefix}.samples_run", fn=lambda: self.samples_run)
        registry.gauge(f"{prefix}.batches_run", fn=lambda: self.batches_run)
        registry.gauge(f"{prefix}.cache_bytes", fn=lambda: self.cache_bytes)
        registry.gauge(f"{prefix}.arena_peak_bytes",
                       fn=lambda: self.arena_peak_bytes)
        registry.gauge(f"{prefix}.arena_slots", fn=lambda: self.arena_slots)
        registry.gauge(f"{prefix}.plan_steps", fn=lambda: len(self.plan))
        # Total fusion applications of the optimized plan (zero when the
        # engine runs a raw plan).
        registry.gauge(f"{prefix}.opt_rule_applications",
                       fn=lambda: sum(self.plan.pass_stats.values()))

    # ------------------------------------------------------------------
    # Thread pools, locks and thread-local caches are runtime-only state:
    # copies (``copy.deepcopy`` of a model holding cached engines) restart
    # with empty caches and a fresh pool.
    def __getstate__(self):
        state = self.__dict__.copy()
        # Telemetry handles (the registry's closures capture ``self``; the
        # profiler holds cross-engine instruments) are process-local too.
        for transient in ("cache", "_pool", "_tls", "_caches",
                          "_caches_lock", "_constants", "registry",
                          "profiler"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.cache = BufferCache()
        self._pool = None
        self._tls = threading.local()
        self._tls.cache = self.cache
        self._caches = [self.cache]
        self._caches_lock = threading.Lock()
        self._constants = {}
        self.profiler = None
        self._bind_registry(None)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Run the plan over ``images``, micro-batching as needed.

        When a traced request is ambient (a serving worker activated its
        ``worker.execute`` span around :meth:`handle
        <repro.serve.worker._WorkerState.handle>`), the execution nests an
        ``engine.run`` child span; otherwise the wrapper is one contextvar
        read.
        """
        with ambient_span(f"{self.metrics_prefix}.run",
                          attrs_fn=lambda: {"plan": self.plan.name,
                                            "samples": len(images)}):
            return self._run(images)

    def _run(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float32)
        squeeze = images.ndim == 3
        if squeeze:                       # a single sample without batch dim
            images = images[None]
        total = images.shape[0]
        if total == 0:
            raise ValueError("cannot run the engine on an empty batch")
        chunks = [np.ascontiguousarray(images[start:start + self.micro_batch])
                  for start in range(0, total, self.micro_batch)]
        outputs = []
        if self.optimize and (self.memory_plan is None or
                              not self.memory_plan.matches(chunks[0].shape[1:])):
            # First contact with this input shape: execute the chunk through
            # the classic path while recording output shapes, then plan the
            # arena every later chunk executes in.  A superseded plan's
            # buffers are released from every cache — nothing of the old
            # input shape is requested again.
            if self.memory_plan is not None:
                self.clear_cache()
            record: dict = {}
            outputs.append(self.plan.execute(chunks[0], self.cache,
                                             record=record,
                                             profiler=self.profiler))
            self.batches_run += 1
            self.memory_plan = plan_memory(self.plan, record, chunks[0].shape)
            chunks = chunks[1:]
        if len(chunks) > 1 and self.num_threads > 1 and self._parallel_ok:
            outputs.extend(self._run_parallel(chunks))
            self.batches_run += len(chunks)
        else:
            for chunk in chunks:
                outputs.append(self._run_chunk(chunk))
                self.batches_run += 1
        self.samples_run += total
        out = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
        return out[0] if squeeze else out

    __call__ = run

    def _run_chunk(self, chunk: np.ndarray) -> np.ndarray:
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = self._tls.cache = BufferCache()
            with self._caches_lock:
                self._caches.append(cache)
        memory_plan = self.memory_plan
        if memory_plan is None:
            return self.plan.execute(chunk, cache, profiler=self.profiler)
        program = cache.programs.get(self._program_key(chunk))
        if program is not None:
            return self.plan.replay(program, chunk, self.profiler)
        out, program = self.plan.bind(chunk, cache, memory_plan,
                                      profiler=self.profiler,
                                      constants=self._constants)
        cache.programs[self._program_key(chunk)] = program
        return out

    def _program_key(self, chunk: np.ndarray) -> tuple:
        """What a bound program depends on besides the plan and its cache.

        The memory plan fixes the arena views, the batch size fixes every
        shape, and the native library handle fixes the C-or-NumPy choice
        (tests switch the library off at run time).
        """
        return (id(self.memory_plan), chunk.shape[0], native.library())

    def _run_parallel(self, chunks: List[np.ndarray]) -> List[np.ndarray]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.num_threads,
                                            thread_name_prefix="repro-engine")
        futures = [self._pool.submit(self._run_chunk, chunk)
                   for chunk in chunks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        with self._caches_lock:
            for cache in self._caches:
                cache.clear()

    def close(self) -> None:
        """Shut the chunk thread pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    @property
    def cache_bytes(self) -> int:
        with self._caches_lock:
            return sum(cache.nbytes for cache in self._caches)

    @property
    def arena_slots(self) -> int:
        return self.memory_plan.num_slots if self.memory_plan is not None else 0

    @property
    def arena_peak_bytes(self) -> int:
        """Total arena footprint at the configured micro-batch (0 until planned).

        Each execution context (the engine's own cache plus one per pool
        thread that has run chunks) materialises its own arena, so the
        total is the planned per-arena peak times the number of registered
        caches — the figure an operator should size memory from.
        """
        if self.memory_plan is None:
            return 0
        with self._caches_lock:
            contexts = len(self._caches)
        return self.memory_plan.peak_bytes(self.micro_batch) * contexts

    @property
    def arena_unplanned_bytes(self) -> int:
        """Per-step fresh-allocation bytes the arena replaces (same contexts)."""
        if self.memory_plan is None:
            return 0
        with self._caches_lock:
            contexts = len(self._caches)
        return self.memory_plan.unplanned_bytes(self.micro_batch) * contexts

    def describe(self) -> str:
        return self.plan.describe(self.memory_plan)
