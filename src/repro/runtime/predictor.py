"""Batched deploy-time predictor over the inference runtime.

:class:`BatchedPredictor` is the serving façade of an O-FSCIL model: it owns
a compiled backbone plan, micro-batches incoming samples through it, caches
the (quantized) prototype matrix of the :class:`ExplicitMemory` between
calls, and answers ``predict`` / ``similarities`` for whole sessions with a
single GEMM against the cached prototypes.

The prototype cache is invalidated through the memory's ``version`` counter,
so learning a new class online is immediately visible to the predictor; the
FCR projection reads its weights from the live module, so in-place
fine-tuning needs no recompilation either.  Only backbone weights are frozen
into the plan (they are frozen in the deployment configuration anyway).

Each engine is compiled once and kept for as long as its staleness
signature (weight array identities, hook counts, int8 quantizer thresholds)
is unchanged; a rebound weight or a changed hook recompiles it on the next
access, and :meth:`refresh` drops both engines after in-place mutation.
The raw compiled plan goes straight to
:class:`~repro.runtime.engine.InferenceEngine`, the one place plans are
optimized.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..obs.planprof import PlanProfiler
from .compiler import MODES, compile_backbone, compile_module
from .engine import DEFAULT_MICRO_BATCH, InferenceEngine
from .kernels import (
    cosine_similarities,
    int8_cosine_similarities,
    normalize_prototypes,
    quantize_unit_rows,
)


class BatchedPredictor:
    """Inference-only, batched view of an O-FSCIL model.

    ``mode="int8"`` compiles the backbone and FCR with the integer lowering
    (requires a model prepared by ``quantize_ofscil_model``: calibrated
    activation quantizer hooks plus input quantizers) and answers prototype
    matching with an int8 GEMM rescaled to float at the end.
    """

    def __init__(self, model, micro_batch: int = DEFAULT_MICRO_BATCH,
                 mode: str = "float32", num_threads: Optional[int] = None,
                 cache_budget: Optional[int] = None,
                 registry=None, profile: bool = False):
        if mode not in MODES:
            raise ValueError(f"unknown runtime mode {mode!r}; "
                             f"expected one of {MODES}")
        self.model = model
        self.micro_batch = micro_batch
        self.mode = mode
        self.num_threads = num_threads
        self.cache_budget = cache_budget
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the engines
        #: publish their gauges into (callback-valued, free per request).
        self.registry = registry
        #: One profiler shared by backbone and FCR plans (``profile=True``),
        #: so ``plan_stats --profile`` reads both from a single table.
        self.profiler = PlanProfiler(registry=registry) if profile else None
        self._backbone_engine: Optional[InferenceEngine] = None
        self._backbone_state: list = []
        self._fcr_engine: Optional[InferenceEngine] = None
        self._fcr_state: list = []
        # (memory version, class-id selection) -> (normalised matrix, ids)
        self._proto_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}

    #: Cap on cached class-id selections per memory version.  Long-lived
    #: frozen deployments (no learning, so no version bumps) can see an
    #: unbounded variety of per-request selections; beyond this many, the
    #: oldest selection is dropped FIFO.
    MAX_CACHED_SELECTIONS = 16

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    @staticmethod
    def _quantizer_signature(module) -> tuple:
        """Frozen thresholds of the activation quantizer hooks on ``module``.

        The int8 lowering bakes the hook thresholds into the plan, so a
        recalibration (which changes ``quantizer.threshold`` without touching
        weights or hook counts) must also read as staleness.
        """
        from ..quant.activation_quant import ActivationQuantizer

        signature = []
        for sub in module.modules():
            for hook in sub._forward_hooks:
                if isinstance(hook, ActivationQuantizer):
                    signature.append((hook.mode,
                                      None if hook.quantizer is None
                                      else hook.quantizer.threshold))
        quantizer = getattr(module, "input_quantizer", None)
        if quantizer is not None:
            signature.append(("input", quantizer.threshold))
        return tuple(signature)

    def _current_backbone_state(self) -> list:
        """Identity snapshot of everything the compiled plan froze in.

        All weight mutations in the codebase rebind ``param.data`` (optimizer
        steps, weight quantization) or the BN buffers (``update_buffer``), so
        comparing array identities detects staleness without touching the
        values.  Hook attachment/removal flips layers between fused and
        opaque lowering, so the hook count participates too; in int8 mode the
        quantizer thresholds are part of the compiled plan and join the
        signature.
        """
        backbone = self.model.backbone
        arrays = [parameter.data for parameter in backbone.parameters()]
        arrays.extend(buffer for _, buffer in backbone.named_buffers())
        hook_count = sum(len(module._forward_hooks)
                         for module in backbone.modules())
        quantizers = self._quantizer_signature(backbone) \
            if self.mode == "int8" else ()
        return [arrays, hook_count, quantizers]

    def _current_fcr_state(self) -> list:
        """Staleness signature of the FCR plan.

        In float mode the ``linear`` step reads weights from the live module
        (so only hook changes matter for staleness), but the compiled plan is
        thereby *bound to that module object* — its identity joins the
        signature so replacing ``model.fcr`` recompiles.  The int8 lowering
        freezes quantized weights into the plan, so weight identities and
        quantizer thresholds participate as well.
        """
        fcr = self.model.fcr
        hooks = sum(len(module._forward_hooks) for module in fcr.modules())
        if self.mode != "int8":
            return [hooks, fcr]
        arrays = [parameter.data for parameter in fcr.parameters()]
        return [hooks, arrays, self._quantizer_signature(fcr)]

    @staticmethod
    def _state_differs(new: list, old: list) -> bool:
        """Compare two staleness signatures.

        List-valued parts hold arrays compared by identity (every weight
        mutation in the codebase rebinds ``param.data``); scalar parts
        compare by equality.
        """
        if not old or len(new) != len(old):
            return True
        for new_part, old_part in zip(new, old):
            if isinstance(new_part, list):
                if not isinstance(old_part, list) or \
                        len(new_part) != len(old_part) or \
                        any(a is not b for a, b in zip(new_part, old_part)):
                    return True
            elif new_part != old_part:
                return True
        return False

    @property
    def backbone_engine(self) -> InferenceEngine:
        state = self._current_backbone_state()
        if self._backbone_engine is None or \
                self._state_differs(state, self._backbone_state):
            self._backbone_engine = InferenceEngine(
                compile_backbone(self.model.backbone, mode=self.mode),
                micro_batch=self.micro_batch, num_threads=self.num_threads,
                cache_budget=self.cache_budget, registry=self.registry,
                metrics_prefix="engine.backbone", profiler=self.profiler)
            self._backbone_state = state
        return self._backbone_engine

    @property
    def fcr_engine(self) -> InferenceEngine:
        state = self._current_fcr_state()
        if self._fcr_engine is None or \
                self._state_differs(state, self._fcr_state):
            self._fcr_engine = InferenceEngine(
                compile_module(self.model.fcr, "fcr", mode=self.mode),
                micro_batch=max(self.micro_batch, 512),
                num_threads=self.num_threads,
                cache_budget=self.cache_budget, registry=self.registry,
                metrics_prefix="engine.fcr", profiler=self.profiler)
            self._fcr_state = state
        return self._fcr_engine

    def refresh(self) -> None:
        """Drop compiled plans and caches.

        Weight rebinds and hook changes are detected automatically; calling
        this is only needed after mutating arrays *in place* (``data[...] =``),
        which nothing in the codebase currently does.
        """
        self._backbone_engine = None
        self._backbone_state = []
        self._fcr_engine = None
        self._fcr_state = []
        self._proto_cache.clear()

    # ------------------------------------------------------------------
    # Feature path (mirrors the eager OFSCIL API)
    # ------------------------------------------------------------------
    def extract_backbone_features(self, images: np.ndarray) -> np.ndarray:
        """Images -> ``theta_a`` through the compiled backbone plan."""
        return self.backbone_engine.run(images)

    def project(self, theta_a: np.ndarray) -> np.ndarray:
        """``theta_a`` -> ``theta_p`` through the live FCR weights."""
        theta_a = np.asarray(theta_a, dtype=np.float32)
        if theta_a.ndim == 1:               # a single feature vector
            return self.fcr_engine.run(theta_a[None])[0]
        return self.fcr_engine.run(theta_a)

    def embed(self, images: np.ndarray) -> np.ndarray:
        """Full feature path: images -> ``theta_p``."""
        return self.project(self.extract_backbone_features(images))

    # ------------------------------------------------------------------
    # Prototype cache
    # ------------------------------------------------------------------
    def prototypes(self, class_ids: Optional[Iterable[int]] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """L2-normalised prototype matrix + ids, cached per memory version."""
        matrix, ids, _codes = self._cached_prototypes(class_ids)
        return matrix, ids

    def _cached_prototypes(self, class_ids: Optional[Iterable[int]] = None
                           ) -> Tuple[np.ndarray, np.ndarray,
                                      Optional[np.ndarray]]:
        """(normalised matrix, ids, int8 codes-or-None), version-cached.

        The int8 codes of the unit rows are a pure function of the matrix, so
        they are quantized once per (memory version, selection) instead of on
        every similarity call.
        """
        memory = self.model.memory
        selection = tuple(int(c) for c in class_ids) \
            if class_ids is not None else None
        key = (memory.version, selection)
        cached = self._proto_cache.get(key)
        if cached is None:
            matrix, ids = memory.prototype_matrix(
                selection if selection is not None else None)
            matrix = normalize_prototypes(matrix)
            codes = quantize_unit_rows(matrix) if self.mode == "int8" else None
            cached = (matrix, ids, codes)
            # Evict entries from stale memory versions (useless after any
            # learning step) while keeping other class-id selections of the
            # current version, e.g. session-restricted evaluation views.
            self._proto_cache = {k: v for k, v in self._proto_cache.items()
                                 if k[0] == key[0]}
            self._proto_cache[key] = cached
            while len(self._proto_cache) > self.MAX_CACHED_SELECTIONS:
                self._proto_cache.pop(next(iter(self._proto_cache)))
        return cached

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def similarities_from_features(self, theta_p: np.ndarray,
                                   class_ids: Optional[Iterable[int]] = None
                                   ) -> Tuple[np.ndarray, np.ndarray]:
        matrix, ids, codes = self._cached_prototypes(class_ids)
        theta_p = np.asarray(theta_p, dtype=np.float32)
        if theta_p.ndim == 1:
            theta_p = theta_p[None, :]
        if self.mode == "int8":
            # Prototype matching as an int8 GEMM with a float rescale: unit
            # rows quantized at the fixed 1/127 grid, exact integer product.
            return int8_cosine_similarities(theta_p, codes), ids
        return cosine_similarities(theta_p, matrix), ids

    def predict_features(self, theta_p: np.ndarray,
                         class_ids: Optional[Iterable[int]] = None
                         ) -> np.ndarray:
        sims, ids = self.similarities_from_features(theta_p, class_ids)
        if ids.size == 0:
            raise ValueError("cannot predict with an empty explicit memory; "
                             "learn at least one class first")
        return ids[np.argmax(sims, axis=1)]

    def predict(self, images: np.ndarray,
                class_ids: Optional[Iterable[int]] = None) -> np.ndarray:
        """Classify images against the cached prototype matrix."""
        return self.predict_features(self.embed(images), class_ids)

    def similarities(self, images: np.ndarray,
                     class_ids: Optional[Iterable[int]] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Similarity scores, with the model's ReLU sharpening applied."""
        sims, ids = self.similarities_from_features(self.embed(images),
                                                    class_ids)
        if getattr(self.model.config, "relu_sharpening", False):
            sims = np.maximum(sims, 0.0)
        return sims, ids

    def accuracy(self, dataset,
                 class_ids: Optional[Iterable[int]] = None) -> float:
        """Top-1 accuracy of batched nearest-prototype classification."""
        if len(dataset) == 0:
            return float("nan")
        predictions = self.predict(dataset.images, class_ids)
        return float((predictions == dataset.labels).mean())

    # ------------------------------------------------------------------
    @property
    def samples_served(self) -> int:
        engine = self._backbone_engine
        return engine.samples_run if engine is not None else 0

    def runtime_stats(self) -> dict:
        """Execution-resource counters of the compiled engines.

        ``arena_peak_bytes`` is the planned-arena footprint at the configured
        micro-batch (0 until the first batch has been served);
        ``cache_bytes`` sums every scratch/arena buffer currently cached.
        """
        engines = [engine for engine in (self._backbone_engine,
                                         self._fcr_engine)
                   if engine is not None]
        stats = {
            "cache_bytes": sum(engine.cache_bytes for engine in engines),
            "arena_slots": sum(engine.arena_slots for engine in engines),
            "arena_peak_bytes": sum(engine.arena_peak_bytes
                                    for engine in engines),
            "arena_unplanned_bytes": sum(engine.arena_unplanned_bytes
                                         for engine in engines),
            "samples_served": self.samples_served,
        }
        if self.profiler is not None:
            stats["profile"] = self.profiler.as_dict()
        return stats
