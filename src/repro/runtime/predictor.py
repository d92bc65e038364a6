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

Each engine is compiled once and kept while its staleness signature
(module, weight and buffer identities, hook counts, int8 thresholds)
holds.  One walk of the module tree collects it, and reruns only after
``Module.structure_epoch`` moves; between walks an access compares the
parameters' ``data`` identities, which optimizer steps, weight quantization
and ``load_state_dict`` rebind, and the int8 thresholds.  :meth:`refresh`
drops both engines after in-place mutation.  The raw compiled plan goes
straight to :class:`~repro.runtime.engine.InferenceEngine`, the one place
plans are optimized.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..nn.modules import Module
from ..obs.planprof import PlanProfiler
from .compiler import MODES, compile_backbone, compile_module
from .engine import DEFAULT_MICRO_BATCH, InferenceEngine
from .kernels import (
    cosine_similarities,
    int8_cosine_similarities,
    normalize_prototypes,
    quantize_unit_rows,
)

_data = operator.attrgetter("data")


class BatchedPredictor:
    """Inference-only, batched view of an O-FSCIL model.

    ``mode="int8"`` compiles the backbone and FCR with the integer lowering
    (requires a model prepared by ``quantize_ofscil_model``: calibrated
    activation quantizer hooks plus input quantizers) and answers prototype
    matching with an int8 GEMM rescaled to float at the end.
    """

    def __init__(self, model, micro_batch: int = DEFAULT_MICRO_BATCH,
                 mode: str = "float32", num_threads: Optional[int] = None,
                 registry=None, profile: bool = False):
        if mode not in MODES:
            raise ValueError(f"unknown runtime mode {mode!r}; "
                             f"expected one of {MODES}")
        self.model = model
        self.micro_batch = micro_batch
        self.mode = mode
        self.num_threads = num_threads
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the engines
        #: publish their gauges into (callback-valued, free per request).
        self.registry = registry
        #: One profiler shared by backbone and FCR plans (``profile=True``),
        #: so ``plan_stats --profile`` reads both from a single table.
        self.profiler = PlanProfiler(registry=registry) if profile else None
        #: ``"backbone"``/``"fcr"`` -> (engine, module, structure epoch read
        #: before the walk, ``(objects, values)``, parameters, quantizers).
        self._engines: Dict[str, tuple] = {}
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
    def _walk(self, module, arrays: bool, buffers: bool) -> tuple:
        """``(objects, values)`` a compiled plan of ``module`` depends on,
        then the parameters and quantizer hooks they were read from.

        ``objects`` are compared by identity: with ``arrays`` every
        parameter's ``data`` and with ``buffers`` every buffer, since every
        weight mutation in the codebase rebinds one (optimizer steps, weight
        quantization, ``update_buffer``), then every module of the tree, so
        replacing a child without parameters (an activation) recompiles
        too.  ``values`` are compared by equality: the forward-hook count
        (hooks flip layers between fused and opaque lowering) and the int8
        :meth:`_settings`, which the int8 lowering bakes into the plan.
        """
        int8 = self.mode == "int8"
        if int8:
            # Imported here: only int8 needs the heavy quantization package.
            from ..quant.activation_quant import ActivationQuantizer
        parameters, buffer_arrays, modules, quantizers, hooks = \
            [], [], [], [], 0
        stack = [module]
        while stack:
            sub = stack.pop()
            modules.append(sub)
            if arrays:
                parameters.extend(sub._parameters.values())
                if buffers:
                    buffer_arrays.extend(sub._buffers.values())
            if sub._forward_hooks:
                hooks += len(sub._forward_hooks)
                if int8:
                    quantizers.extend(
                        hook for hook in sub._forward_hooks
                        if isinstance(hook, ActivationQuantizer))
            stack.extend(reversed(sub._modules.values()))
        return (list(map(_data, parameters)) + buffer_arrays + modules,
                (hooks, self._settings(quantizers, module)),
                tuple(parameters), tuple(quantizers))

    def _settings(self, quantizers, module) -> tuple:
        """Int8: each hook's ``(mode, threshold)``, then the input's."""
        if self.mode != "int8":
            return ()
        settings = [(hook.mode, None if hook.quantizer is None
                     else hook.quantizer.threshold) for hook in quantizers]
        quantizer = getattr(module, "input_quantizer", None)
        if quantizer is not None:
            settings.append(("input", quantizer.threshold))
        return tuple(settings)

    def _staleness(self, module, arrays: bool, buffers: bool) -> tuple:
        """The ``(objects, values)`` of :meth:`_walk`."""
        return self._walk(module, arrays, buffers)[:2]

    @staticmethod
    def _stale(new: tuple, old: Optional[tuple]) -> bool:
        """Whether two :meth:`_staleness` results differ."""
        return old is None or new[1] != old[1] or len(new[0]) != len(old[0]) \
            or any(map(operator.is_not, new[0], old[0]))

    def _engine(self, name: str, module: Module) -> InferenceEngine:
        """The engine of ``model.<name>``, compiled again when stale."""
        cached = self._engines.get(name)
        if cached is not None:
            # While the structure epoch holds, only the ``data`` identities
            # and the int8 settings can have moved.
            engine, seen, epoch, state, parameters, quantizers = cached
            if seen is module and epoch == Module.structure_epoch \
                    and all(map(operator.is_, map(_data, parameters),
                                state[0])) \
                    and self._settings(quantizers, module) == state[1][1]:
                return engine
        epoch = Module.structure_epoch
        backbone = name == "backbone"
        # The int8 lowering freezes every weight; the float FCR's ``linear``
        # step reads them from the live module, so only its modules and
        # hooks matter.
        *state, parameters, quantizers = self._walk(
            module, arrays=backbone or self.mode == "int8", buffers=backbone)
        if cached is None or seen is not module \
                or self._stale(state, cached[3]):
            engine = InferenceEngine(
                compile_backbone(module, mode=self.mode) if backbone
                else compile_module(module, name, mode=self.mode),
                micro_batch=self.micro_batch if backbone
                else max(self.micro_batch, 512),
                num_threads=self.num_threads, registry=self.registry,
                metrics_prefix=f"engine.{name}", profiler=self.profiler)
        self._engines[name] = (engine, module, epoch, state, parameters,
                               quantizers)
        return engine

    @property
    def backbone_engine(self) -> InferenceEngine:
        return self._engine("backbone", self.model.backbone)

    @property
    def fcr_engine(self) -> InferenceEngine:
        return self._engine("fcr", self.model.fcr)

    def refresh(self) -> None:
        """Drop compiled plans and caches: needed only after an in-place
        write to an array (``data[...] =``), which nothing in the codebase
        does.  Rebinds and ``Module`` method changes are detected anyway."""
        self._engines.clear()
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
            matrix, ids = memory.prototype_matrix(selection)
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
        cached = self._engines.get("backbone")
        return cached[0].samples_run if cached is not None else 0

    def runtime_stats(self) -> dict:
        """Execution-resource counters of the compiled engines.

        ``arena_peak_bytes`` is the planned-arena footprint at the configured
        micro-batch (0 until the first batch has been served);
        ``cache_bytes`` sums every scratch/arena buffer currently cached.
        """
        engines = [cached[0] for cached in self._engines.values()]
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
