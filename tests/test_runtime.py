"""Batched inference runtime: compilation, fused kernels, parity, caching."""

import numpy as np
import pytest

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.models.mobilenetv2 import ConvBNReLU
from repro.nn.tensor import Tensor
from repro.runtime import (
    BufferCache,
    InferenceEngine,
    assert_parity,
    bn_scale_shift,
    compare_with_eager,
    compile_backbone,
    compile_module,
    fold_conv_bn,
    has_hooks,
)
from repro.runtime.compare import normalized_error
from repro.runtime import kernels

TOLERANCE = 1e-5
TINY_BACKBONES = ("mobilenetv2_x4_tiny", "mobilenetv2_tiny", "resnet12_tiny",
                  "resnet20_tiny")


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with nn.no_grad():
        return module(Tensor(np.asarray(x, dtype=np.float32))).data


def make_model(backbone: str, bits: int = 32, seed: int = 0) -> OFSCIL:
    config = OFSCILConfig(backbone=backbone, prototype_bits=bits, seed=seed)
    model = OFSCIL.from_registry(backbone, config, seed=seed)
    model.backbone.eval()
    model.fcr.eval()
    return model


class TestKernels:
    def test_fused_conv_matches_autograd_conv(self, rng):
        for trial in range(6):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 6))
            kernel = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = kernel // 2
            size = int(rng.integers(5, 11))
            batch = int(rng.integers(1, 5))
            x = rng.standard_normal((batch, c_in, size, size)).astype(np.float32)
            conv = nn.Conv2d(c_in, c_out, kernel, stride=stride,
                             padding=padding, rng=rng)
            expected = eager_forward(conv, x)
            weight, bias = fold_conv_bn(conv, None)
            actual = kernels.fused_conv(x, weight, bias, stride=stride,
                                        padding=padding)
            assert normalized_error(actual, expected) < TOLERANCE

    def test_fused_depthwise_conv(self, rng):
        channels = 6
        x = rng.standard_normal((3, channels, 8, 8)).astype(np.float32)
        conv = nn.Conv2d(channels, channels, 3, padding=1, groups=channels,
                         rng=rng)
        expected = eager_forward(conv, x)
        weight, bias = fold_conv_bn(conv, None)
        actual = kernels.fused_conv(x, weight, bias, padding=1, groups=channels)
        assert normalized_error(actual, expected) < TOLERANCE

    def test_fused_grouped_conv(self, rng):
        x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
        conv = nn.Conv2d(8, 12, 3, padding=1, groups=2, rng=rng)
        expected = eager_forward(conv, x)
        weight, bias = fold_conv_bn(conv, None)
        actual = kernels.fused_conv(x, weight, bias, padding=1, groups=2)
        assert normalized_error(actual, expected) < TOLERANCE

    def test_activation_fusion(self, rng):
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32) * 4
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        weight, bias = fold_conv_bn(conv, None)
        fused = kernels.fused_conv(x, weight, bias, padding=1, act="relu6")
        plain = kernels.fused_conv(x, weight, bias, padding=1)
        np.testing.assert_allclose(fused, np.clip(plain, 0.0, 6.0))

    def test_pooling_kernels_match_eager(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(
            kernels.max_pool(x, 2, 2), eager_forward(nn.MaxPool2d(2), x))
        np.testing.assert_allclose(
            kernels.avg_pool(x, 2, 2), eager_forward(nn.AvgPool2d(2), x),
            rtol=1e-5, atol=1e-6)

    def test_buffer_cache_reuses_buffers(self, rng):
        cache = BufferCache()
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        first = kernels.im2col_cached(x, 3, 3, 1, 1, cache)
        buffers_after_first = len(cache)
        second = kernels.im2col_cached(x, 3, 3, 1, 1, cache)
        assert len(cache) == buffers_after_first
        assert first.base is second.base  # same backing allocation
        assert cache.nbytes > 0
        cache.clear()
        assert len(cache) == 0


class TestFolding:
    def test_fold_conv_bn_matches_separate_execution(self, rng):
        conv = nn.Conv2d(3, 6, 3, padding=1, bias=False, rng=rng)
        bn = nn.BatchNorm2d(6)
        # Non-trivial running stats.
        bn.update_buffer("running_mean",
                         rng.standard_normal(6).astype(np.float32))
        bn.update_buffer("running_var",
                         rng.uniform(0.3, 2.0, 6).astype(np.float32))
        bn.weight.data = rng.uniform(0.5, 1.5, 6).astype(np.float32)
        bn.bias.data = rng.standard_normal(6).astype(np.float32)
        bn.eval()
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        expected = eager_forward(bn, eager_forward(conv, x))
        weight, bias = fold_conv_bn(conv, bn)
        actual = kernels.fused_conv(x, weight, bias, padding=1)
        assert normalized_error(actual, expected) < TOLERANCE

    def test_bn_scale_shift(self, rng):
        bn = nn.BatchNorm1d(5)
        bn.update_buffer("running_mean",
                         rng.standard_normal(5).astype(np.float32))
        bn.update_buffer("running_var",
                         rng.uniform(0.5, 2.0, 5).astype(np.float32))
        bn.eval()
        x = rng.standard_normal((4, 5)).astype(np.float32)
        scale, shift = bn_scale_shift(bn)
        np.testing.assert_allclose(x * scale + shift, eager_forward(bn, x),
                                   rtol=1e-5, atol=1e-6)


class TestCompiler:
    def test_sequential_compiles_without_bn_or_act_steps(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 8, rng=rng), ConvBNReLU(8, 8, rng=rng),
                            nn.GlobalAvgPool2d())
        net.eval()
        plan = compile_module(net)
        ops = [step.op for step in plan.steps]
        assert ops == ["conv", "conv", "global_pool"]
        assert plan.num_fused() == 2

    def test_compiled_plan_matches_eager(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 8, rng=rng),
                            ConvBNReLU(8, 8, stride=2, rng=rng),
                            nn.GlobalAvgPool2d(),
                            nn.Linear(8, 4, rng=rng))
        net.eval()
        x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(compile_module(net))
        assert normalized_error(engine.run(x), eager_forward(net, x)) < TOLERANCE

    def test_hooked_module_lowers_to_opaque(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        calls = []

        def hook(module, output):
            calls.append(module)
            return output * 2.0

        net[0].act.register_forward_hook(hook)
        assert has_hooks(net)
        plan = compile_module(net)
        assert [step.op for step in plan.steps][0] == "opaque"
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        engine = InferenceEngine(plan)
        np.testing.assert_allclose(engine.run(x), eager_forward(net, x))
        assert calls  # the hook actually ran inside the opaque step

    def test_plan_describe_lists_every_step(self):
        model = make_model("mobilenetv2_x4_tiny")
        backbone = compile_backbone(model.backbone)
        fcr = compile_module(model.fcr, "fcr")
        for plan in (backbone, fcr):
            description = plan.describe()
            assert len(description.splitlines()) == len(plan) + 1
        assert "conv" in backbone.describe() and "fcr" in fcr.describe()

    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_all_registry_backbones_compile(self, backbone):
        model = make_model(backbone)
        plan = compile_backbone(model.backbone)
        assert len(plan) > 0
        assert all(step.op != "opaque" for step in plan.steps)


class TestParity:
    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_feature_parity_against_eager_forward(self, backbone, rng):
        model = make_model(backbone)
        images = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
        report = assert_parity(model, images, atol=TOLERANCE)
        assert report.max_feature_error < TOLERANCE

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 33, 64])
    def test_parity_across_batch_sizes(self, batch_size, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((batch_size, 3, 16, 16)).astype(np.float32)
        runtime = model.runtime_predictor().embed(images)
        eager = model.embed(images, use_runtime=False)
        assert runtime.shape == eager.shape == (batch_size, model.prototype_dim)
        assert normalized_error(runtime, eager) < TOLERANCE

    @pytest.mark.parametrize("bits", [32, 8, 3])
    def test_prediction_parity_with_quantized_prototypes(self, bits, rng):
        model = make_model("mobilenetv2_x4_tiny", bits=bits)
        images = rng.standard_normal((40, 3, 16, 16)).astype(np.float32)
        for class_id in range(4):
            model.learn_class(images[class_id * 5:(class_id + 1) * 5], class_id)
        queries = images[20:]
        eager_features = model.embed(queries, use_runtime=False)
        eager = model.memory.predict(eager_features)
        runtime = model.runtime_predictor().predict(queries)
        np.testing.assert_array_equal(runtime, eager)
        report = compare_with_eager(model, queries, atol=TOLERANCE)
        assert report.ok and report.prediction_agreement == 1.0

    def test_parity_with_class_id_restriction(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((30, 3, 16, 16)).astype(np.float32)
        for class_id in range(5):
            model.learn_class(images[class_id * 4:(class_id + 1) * 4], class_id)
        allowed = [1, 3, 4]
        sims_eager, ids_eager = model.memory.similarities(
            model.embed(images[20:], use_runtime=False), allowed)
        sims_rt, ids_rt = model.runtime_predictor().similarities_from_features(
            model.runtime_predictor().embed(images[20:]), allowed)
        np.testing.assert_array_equal(ids_eager, ids_rt)
        assert normalized_error(sims_rt, sims_eager) < TOLERANCE

    def test_random_shapes_property_style(self, rng):
        # Random conv stacks over random input sizes: the compiler must stay
        # faithful for shapes it has never seen in the model zoo.
        for trial in range(4):
            c1 = int(rng.integers(2, 6))
            c2 = int(rng.integers(2, 8))
            size = int(rng.integers(8, 17))
            batch = int(rng.integers(1, 9))
            net = nn.Sequential(ConvBNReLU(3, c1, rng=rng),
                                ConvBNReLU(c1, c2, stride=2, rng=rng),
                                ConvBNReLU(c2, c2, kernel_size=1, rng=rng),
                                nn.GlobalAvgPool2d())
            net.eval()
            x = rng.standard_normal((batch, 3, size, size)).astype(np.float32)
            engine = InferenceEngine(compile_module(net))
            assert normalized_error(engine.run(x),
                                    eager_forward(net, x)) < TOLERANCE


class TestEngine:
    def test_micro_batching_is_transparent(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((50, 3, 16, 16)).astype(np.float32)
        whole = InferenceEngine(compile_backbone(model.backbone),
                                micro_batch=64).run(images)
        chunked = InferenceEngine(compile_backbone(model.backbone),
                                  micro_batch=8).run(images)
        assert normalized_error(chunked, whole) < TOLERANCE

    def test_project_single_feature_vector(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        vector = rng.standard_normal(model.feature_dim).astype(np.float32)
        runtime = model.project(vector)
        eager = model.project(vector, use_runtime=False)
        assert runtime.shape == eager.shape == (model.prototype_dim,)
        assert normalized_error(runtime, eager) < TOLERANCE

    def test_single_sample_without_batch_dim(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        image = rng.standard_normal((3, 16, 16)).astype(np.float32)
        engine = InferenceEngine(compile_backbone(model.backbone))
        out = engine.run(image)
        assert out.shape == (model.feature_dim,)

    def test_empty_batch_raises(self):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone))
        with pytest.raises(ValueError):
            engine.run(np.empty((0, 3, 16, 16), dtype=np.float32))

    def test_engine_counts_samples(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=16)
        engine.run(rng.standard_normal((40, 3, 16, 16)).astype(np.float32))
        assert engine.samples_run == 40
        assert engine.batches_run == 3


class TestPredictorCaching:
    def test_prototype_cache_follows_memory_version(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((20, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        model.learn_class(images[:5], 0)
        matrix_before, _ = predictor.prototypes()
        assert matrix_before.shape[0] == 1
        model.learn_class(images[5:10], 1)
        matrix_after, ids = predictor.prototypes()
        assert matrix_after.shape[0] == 2
        np.testing.assert_array_equal(ids, [0, 1])

    def test_memory_version_counter_bumps_on_mutation(self):
        model = make_model("mobilenetv2_x4_tiny")
        memory = model.memory
        version = memory.version
        memory.set_prototype(7, np.ones(model.prototype_dim, dtype=np.float32))
        assert memory.version > version
        version = memory.version
        memory.remove_class(7)
        assert memory.version > version
        version = memory.version
        memory.reset()
        assert memory.version > version

    def test_stale_version_cache_entries_are_evicted(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((20, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        for class_id in range(3):
            model.learn_class(images[class_id * 5:(class_id + 1) * 5], class_id)
        # Multiple selections of the SAME version coexist in the cache...
        predictor.prototypes()
        predictor.prototypes([0, 1])
        predictor.prototypes([2])
        assert len(predictor._proto_cache) == 3
        # ...but a new memory version evicts every stale entry at once.
        model.learn_class(images[15:], 3)
        predictor.prototypes()
        versions = {key[0] for key in predictor._proto_cache}
        assert versions == {model.memory.version}
        assert len(predictor._proto_cache) == 1

    def test_selection_cache_is_bounded_within_one_version(self, rng):
        # A frozen deployment never bumps the memory version, so per-request
        # class-id selections must not grow the cache without bound.
        model = make_model("mobilenetv2_x4_tiny")
        predictor = model.runtime_predictor()
        features = rng.standard_normal((40, model.prototype_dim))
        for class_id in range(30):
            model.memory.update_class(class_id, features[:2])
        cap = predictor.MAX_CACHED_SELECTIONS
        for first in range(cap + 10):
            predictor.prototypes([first, first + 1])
        assert len(predictor._proto_cache) == cap

    def test_cache_invalidation_across_relearn_and_reset(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((10, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        model.learn_class(images[:5], 0)
        matrix_first, _ = predictor.prototypes()
        # Re-learning the SAME class refines the prototype; the cache must
        # not serve the stale matrix.
        model.learn_class(images[5:], 0)
        matrix_second, _ = predictor.prototypes()
        assert matrix_second.shape == matrix_first.shape
        assert not np.array_equal(matrix_second, matrix_first)
        # Clearing the memory invalidates too; prediction then refuses.
        model.memory.reset()
        matrix_empty, ids_empty = predictor.prototypes()
        assert matrix_empty.shape[0] == 0 and ids_empty.size == 0
        with pytest.raises(ValueError, match="empty"):
            predictor.predict(images[:2])

    def test_weight_rebind_triggers_recompile(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        before = predictor.extract_backbone_features(images)
        # Rebind one conv weight (what optimizers and quantization do).
        conv = model.backbone.stem.conv
        conv.weight.data = conv.weight.data * 1.5
        after = predictor.extract_backbone_features(images)
        assert not np.allclose(before, after)
        eager = model.extract_backbone_features(images, use_runtime=False)
        assert normalized_error(after, eager) < TOLERANCE

    def test_fcr_finetune_visible_without_recompile(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        theta_a = predictor.extract_backbone_features(images)
        before = predictor.project(theta_a)
        linear = model.fcr.linear
        linear.weight.data = linear.weight.data * 0.5
        after = predictor.project(theta_a)
        assert not np.allclose(after, before)
        eager = model.project(theta_a, use_runtime=False)
        assert normalized_error(after, eager) < TOLERANCE

    def test_hook_attachment_triggers_recompile(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        predictor = model.runtime_predictor()
        predictor.extract_backbone_features(images)
        plan_ops = {step.op for step in predictor.backbone_engine.plan.steps}
        assert "opaque" not in plan_ops
        model.backbone.pool.register_forward_hook(lambda m, out: out * 0.0)
        hooked = predictor.extract_backbone_features(images)
        np.testing.assert_allclose(hooked, np.zeros_like(hooked))


class TestOFSCILIntegration:
    def test_model_routes_through_runtime_by_default(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        assert model.config.use_runtime
        images = rng.standard_normal((6, 3, 16, 16)).astype(np.float32)
        runtime = model.embed(images)
        eager = model.embed(images, use_runtime=False)
        assert normalized_error(runtime, eager) < TOLERANCE
        assert model.runtime_predictor().samples_served >= 6

    def test_accuracy_agrees_between_paths(self, trained_model, tiny_benchmark):
        trained_model.memory.reset()
        trained_model.learn_base_session(tiny_benchmark.base_train)
        test = tiny_benchmark.test_upto(0)
        fast = trained_model.accuracy(test)
        slow = trained_model.accuracy(test, use_runtime=False)
        assert fast == pytest.approx(slow, abs=0.02)
