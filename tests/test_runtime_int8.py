"""Int8 runtime conformance: golden fixtures, determinism, sharded parity.

The integer execution path must be *exactly* reproducible: integer GEMMs
cannot round, so — unlike the float32 runtime, whose results shift with BLAS
summation order — the int8 plan commits to bit-identical outputs across
runs, micro-batch chunkings, pickled snapshots and worker processes.  The
conformance matrix is backbone-generic: every test parametrizes over both
quantizable families (MobileNetV2 and the BasicBlock ResNet trunk), and the
committed golden fixtures (``tests/fixtures/int8_golden.npz`` +
``tests/fixtures/int8_resnet_golden.npz``, regenerated via
``python tests/int8_fixtures.py``) pin the exact bits per family.
"""

import pickle

import numpy as np
import pytest

from int8_fixtures import (
    BACKBONE,
    RESNET_BACKBONE,
    build_quantized_model,
    golden_inputs,
    load_golden,
)
from repro.hw import DeploymentPlan, deploy_backbone
from repro.models import get_config
from repro.runtime import InferenceEngine, Int8CompilationError, compile_backbone
from repro.runtime.kernels import INT8_QMAX, quantize_unit_rows
from repro.serve import Server, snapshot_model

#: Both backbone families run the full conformance matrix.
CONFORMANCE_BACKBONES = (BACKBONE, RESNET_BACKBONE)

#: Family-specific plan-shape expectations: the MobileNetV2 trunk is mostly
#: ``qconv`` layers with a float global pool; the ResNet trunk adds the
#: integer global pool and the downsample/identity shortcut joins.
MIN_INTEGER_CONVS = {BACKBONE: 25, RESNET_BACKBONE: 14}
POOL_OP = {BACKBONE: "global_pool", RESNET_BACKBONE: "qglobal_pool"}


@pytest.fixture(scope="module", params=CONFORMANCE_BACKBONES)
def conformance(request):
    """(backbone, model, report, golden arrays) per backbone family."""
    backbone = request.param
    golden = load_golden(backbone)
    model, report = build_quantized_model(backbone)
    return backbone, model, report, golden


class TestPlanShape:
    def test_no_opaque_steps_for_activation_fake_quant(self, conformance):
        backbone, model, _, _ = conformance
        predictor = model.runtime_predictor()
        assert predictor.mode == "int8"
        ops = [step.op for step in predictor.backbone_engine.plan.steps]
        assert "opaque" not in ops
        # Fake-quant hook points became first-class plan ops...
        assert "quantize" in ops and "requantize" in ops
        # ...and the conv stack runs on integer kernels.
        assert ops.count("qconv") + ops.count("qconv_dequant") \
            + ops.count("qconv_add") >= MIN_INTEGER_CONVS[backbone]
        assert POOL_OP[backbone] in ops
        fcr_ops = [step.op for step in predictor.fcr_engine.plan.steps]
        assert fcr_ops == ["quantize", "qlinear"]

    def test_float_mode_still_falls_back_to_opaque(self, conformance):
        # Contrast case: the float32 lowering cannot express the hooks and
        # must keep the eager fallback — the int8 mode is what removes it.
        _, model, _, _ = conformance
        plan = compile_backbone(model.backbone, mode="float32")
        assert any(step.op == "opaque" for step in plan.steps)

    def test_int8_plan_snapshot_has_no_module_references(self, conformance):
        _, model, _, _ = conformance
        snapshot = snapshot_model(model)
        assert snapshot.mode == "int8"
        assert all(step.module is None for step in snapshot.backbone.steps)
        assert all(step.module is None for step in snapshot.fcr.steps)

    def test_model_size_reports_true_int8_storage(self, conformance):
        _, model, report, _ = conformance
        predictor = model.runtime_predictor()
        plans_bytes = predictor.backbone_engine.plan.storage_bytes() + \
            predictor.fcr_engine.plan.storage_bytes()
        assert report.model_size_bytes == plans_bytes
        fp32_bytes = sum(p.size * 4 for p in model.backbone.parameters()) + \
            sum(p.size * 4 for p in model.fcr.parameters())
        # int8 weights + per-channel int32 bias/requant params: well under
        # half the float32 footprint, but strictly more than weights alone.
        assert plans_bytes < fp32_bytes / 2
        weight_only = sum(
            step.arrays["weight"].size
            for plan in (predictor.backbone_engine.plan,
                         predictor.fcr_engine.plan)
            for step in plan.steps
            if step.op in ("qconv", "qconv_dequant", "qconv_add", "qlinear"))
        assert plans_bytes > weight_only


class TestResNetLowering:
    """Structure of the BasicBlock trunk's integer plan specifically."""

    @pytest.fixture(scope="class")
    def resnet_quantized(self):
        return build_quantized_model(RESNET_BACKBONE)

    @pytest.fixture(scope="class")
    def resnet_plan(self, resnet_quantized):
        model, _ = resnet_quantized
        return compile_backbone(model.backbone, mode="int8")

    def test_strided_downsample_shortcut_runs_in_integers(self, resnet_plan):
        downsamples = [step for step in resnet_plan.steps
                       if step.name.endswith(".downsample")]
        assert downsamples, "resnet20 has strided projection shortcuts"
        for step in downsamples:
            assert step.op in ("qconv", "qconv_dequant")
            assert step.attrs["stride"] == 2
            assert step.arrays["weight"].shape[2:] == (1, 1)

    def test_identity_shortcuts_join_the_add_on_the_int8_grid(self,
                                                              resnet_plan):
        # Blocks without a downsample feed their int8 input straight into
        # the residual add through a dequantize (fused to an in-scale attr
        # by the optimizer); the add itself carries the fused relu.
        adds = [step for step in resnet_plan.steps if step.op == "add"]
        assert adds
        assert all(step.attrs.get("act") == "relu" for step in adds)

    def test_global_pool_is_integer(self, resnet_plan):
        pools = [step for step in resnet_plan.steps
                 if step.op == "qglobal_pool"]
        assert len(pools) == 1
        assert pools[0].attrs["scale"] > 0

    def test_block_outputs_have_calibrated_hooks(self, resnet_quantized):
        from repro.models.resnet import BasicBlock
        from repro.quant.activation_quant import ActivationQuantizer

        model, _ = resnet_quantized
        blocks = [module for module in model.backbone.modules()
                  if isinstance(module, BasicBlock)]
        assert blocks
        for block in blocks:
            hooks = [hook for hook in block._forward_hooks
                     if isinstance(hook, ActivationQuantizer)]
            assert len(hooks) == 1
            assert hooks[0].mode == "quantize"
            assert hooks[0].quantizer is not None
            assert hooks[0].scale > 0

    def test_accumulator_bounds_are_proven_per_layer(self, resnet_plan):
        from repro.runtime.kernels import INT32_ACC_LIMIT

        integer_steps = [step for step in resnet_plan.steps
                         if step.op in ("qconv", "qconv_dequant")]
        assert integer_steps
        for step in integer_steps:
            assert 0 < step.attrs["acc_bound"] <= INT32_ACC_LIMIT


class TestResNet12Int8:
    """ResNet-12 trunk (projected shortcut, post-pool block requant).

    No committed golden fixture for this family (yet): coverage is
    self-consistent — full integer lowering, chunking determinism, optimizer
    bit-parity and cost-model agreement, which together pin everything a
    golden file would except the absolute bits.
    """

    @pytest.fixture(scope="class")
    def resnet12(self):
        return build_quantized_model("resnet12_tiny")

    def test_lowers_fully_to_integer_kernels(self, resnet12):
        model, _ = resnet12
        predictor = model.runtime_predictor()
        assert predictor.mode == "int8"
        ops = [step.op for step in predictor.backbone_engine.plan.steps]
        assert "opaque" not in ops
        assert "qglobal_pool" in ops and "max_pool" in ops
        assert ops.count("qconv") + ops.count("qconv_dequant") \
            + ops.count("qconv_add") >= 14

    def test_chunking_and_optimizer_are_bit_exact(self, resnet12):
        model, _ = resnet12
        plan = compile_backbone(model.backbone, mode="int8")
        images = golden_inputs()
        whole = InferenceEngine(plan, optimize=False,
                                micro_batch=64).run(images)
        chunked = InferenceEngine(plan, optimize=False,
                                  micro_batch=3).run(images)
        optimized = InferenceEngine(plan, micro_batch=3,
                                    num_threads=2).run(images)
        np.testing.assert_array_equal(whole, chunked)
        np.testing.assert_array_equal(whole, optimized)

    def test_from_plan_agrees_with_registry_folded_graph(self, resnet12):
        model, _ = resnet12
        config = get_config("resnet12_tiny")
        plan = model.runtime_predictor().backbone_engine.plan
        deployed = DeploymentPlan.from_plan(
            plan, input_hw=(config.input_size, config.input_size))
        spec_deployed = deploy_backbone("resnet12_tiny")
        assert deployed.total_macs == spec_deployed.total_macs
        assert deployed.weight_bytes == spec_deployed.weight_bytes


class TestGoldenConformance:
    def test_fixture_inputs_are_reproducible_from_seeds(self, conformance):
        _, _, _, golden = conformance
        np.testing.assert_array_equal(golden["images"], golden_inputs())

    @staticmethod
    def _assert_reproduces_fixture(model, golden):
        predictor = model.runtime_predictor()
        theta_a = predictor.extract_backbone_features(golden["images"])
        np.testing.assert_array_equal(theta_a, golden["theta_a"])
        theta_p = predictor.project(theta_a)
        np.testing.assert_array_equal(theta_p, golden["theta_p"])
        sims, ids = predictor.similarities_from_features(theta_p)
        np.testing.assert_array_equal(sims, golden["sims"])
        np.testing.assert_array_equal(ids, golden["ids"])
        np.testing.assert_array_equal(predictor.predict_features(theta_p),
                                      golden["labels"])

    def test_reproduces_committed_fixture_exactly(self, conformance):
        # With the C kernels of repro.runtime.native when a compiler is
        # present (test_runtime_native checks that they load).
        _, model, _, golden = conformance
        self._assert_reproduces_fixture(model, golden)

    def test_numpy_fallback_reproduces_committed_fixture(self, conformance,
                                                         numpy_kernels):
        # The same bits with the C library handle forced off.  The engines
        # first run (and keep programs bound to) the C kernels where they
        # load; after the switch, any of those kernels running fails.
        _, model, _, golden = conformance
        self._assert_reproduces_fixture(model, golden)
        numpy_kernels()
        self._assert_reproduces_fixture(model, golden)

    def test_bitwise_stable_across_chunkings(self, conformance):
        # Integer accumulation is exact, so micro-batch boundaries cannot
        # perturb a single bit (the float32 runtime only promises 1e-5).
        _, model, _, golden = conformance
        plan = model.runtime_predictor().backbone_engine.plan
        whole = InferenceEngine(plan, micro_batch=64).run(golden["images"])
        chunked = InferenceEngine(plan, micro_batch=3).run(golden["images"])
        np.testing.assert_array_equal(whole, chunked)
        np.testing.assert_array_equal(whole, golden["theta_a"])

    def test_recompilation_reproduces_the_same_bits(self, conformance):
        _, model, _, golden = conformance
        fresh_plan = compile_backbone(model.backbone, mode="int8")
        out = InferenceEngine(fresh_plan).run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])

    def test_int8_fcr_is_per_sample_bitwise_stable(self, conformance):
        # Small-M float32 GEMMs are not bitwise equal to the same rows inside
        # a larger GEMM on OpenBLAS; the int8 FCR removes that hazard, which
        # is what lets sharded workers answer end-to-end.
        _, model, _, golden = conformance
        predictor = model.runtime_predictor()
        batch = predictor.project(golden["theta_a"])
        rows = np.stack([predictor.project(row) for row in golden["theta_a"]])
        np.testing.assert_array_equal(batch, rows)


class TestSnapshotRoundTrip:
    def test_pickle_roundtrip_is_bit_exact(self, conformance):
        _, model, _, golden = conformance
        snapshot = pickle.loads(pickle.dumps(snapshot_model(model)))
        backbone = InferenceEngine(snapshot.backbone.restore(),
                                   micro_batch=snapshot.micro_batch)
        fcr = InferenceEngine(snapshot.fcr.restore())
        theta_a = backbone.run(golden["images"])
        np.testing.assert_array_equal(theta_a, golden["theta_a"])
        np.testing.assert_array_equal(fcr.run(theta_a), golden["theta_p"])

    def test_sharded_serving_parity_is_bit_for_bit(self, conformance):
        _, model, _, golden = conformance
        predictor = model.runtime_predictor()
        with Server(model, num_workers=2) as server:
            # Sync path: workers run the backbone, coordinator finishes.
            np.testing.assert_array_equal(
                server.extract_backbone_features(golden["images"]),
                golden["theta_a"])
            np.testing.assert_array_equal(server.predict(golden["images"]),
                                          golden["labels"])
            sims, ids = server.similarities(golden["images"])
            np.testing.assert_array_equal(ids, golden["ids"])
            np.testing.assert_array_equal(
                sims, np.maximum(golden["sims"], 0.0)
                if model.config.relu_sharpening else golden["sims"])
            # Async path: one worker answers end-to-end from its replica —
            # exact integer arithmetic makes even that path bit-identical.
            for index in range(3):
                label = server.predict_one(golden["images"][index])
                assert label == int(golden["labels"][index])
            # Online learning keeps parity through the broadcast.
            shots = golden["images"][:3]
            try:
                server.learn_class(shots, 99)
                np.testing.assert_array_equal(
                    server.predict(golden["images"]),
                    predictor.predict(golden["images"]))
            finally:
                # The model is module-scoped: restore the fixture memory.
                model.memory.remove_class(99)
                model.activation_memory.pop(99, None)


class TestDeploymentFromPlan:
    def test_from_plan_agrees_with_registry_folded_graph(self, conformance):
        # One folded graph feeds both the runtime and the cost model: the
        # spec-path deployment (fold_batchnorm on registry specs) and the
        # plan-path deployment must agree on MACs and weight bytes — for
        # every quantizable backbone family.
        backbone, model, _, _ = conformance
        config = get_config(backbone)
        plan = model.runtime_predictor().backbone_engine.plan
        deployed = DeploymentPlan.from_plan(
            plan, input_hw=(config.input_size, config.input_size))
        spec_deployed = deploy_backbone(backbone)
        assert deployed.total_macs == spec_deployed.total_macs
        assert deployed.weight_bytes == spec_deployed.weight_bytes

    def test_from_plan_weight_bytes_match_runtime_arrays(self, conformance):
        backbone, model, _, _ = conformance
        plan = model.runtime_predictor().backbone_engine.plan
        config = get_config(backbone)
        deployed = DeploymentPlan.from_plan(
            plan, input_hw=(config.input_size, config.input_size))
        array_bytes = sum(step.arrays["weight"].size for step in plan.steps
                          if step.op in ("qconv", "qconv_dequant",
                                         "qconv_add"))
        assert deployed.weight_bytes == array_bytes

    def test_from_plan_costs_are_usable(self, conformance):
        _, model, _, _ = conformance
        plan = model.runtime_predictor().backbone_engine.plan
        deployed = DeploymentPlan.from_plan(plan, input_hw=(16, 16))
        assert deployed.latency_ms(8) > 0
        assert deployed.cost(8).total_macs == deployed.total_macs


class TestAccuracyAndGuards:
    def test_int8_similarities_track_eager_fake_quant(self, conformance):
        # The integer path deviates from the eager fake-quant reference only
        # by weight re-quantization after BN folding, the input grid and (on
        # the ResNet trunk) the integer pooling order; on the
        # cosine-similarity surface (the quantity that drives
        # classification) that deviation stays small.  Argmax labels are NOT
        # compared here: the conformance model is untrained, so its
        # prototypes are near-orthogonal random vectors and label flips on
        # sub-tolerance deltas are expected.
        _, model, _, golden = conformance
        eager_features = model.embed(golden["images"], use_runtime=False)
        eager_sims, eager_ids = model.memory.similarities(eager_features)
        np.testing.assert_array_equal(eager_ids, golden["ids"])
        scale = 1.0 + float(np.max(np.abs(eager_sims)))
        error = float(np.max(np.abs(golden["sims"] - eager_sims)) / scale)
        assert error < 0.02

    def test_similarities_live_on_the_1_over_127sq_grid(self, conformance):
        _, _, _, golden = conformance
        codes = golden["sims"] * INT8_QMAX ** 2
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-3)

    def test_quantize_unit_rows_range(self):
        matrix = np.array([[1.0, -1.0, 0.5], [0.0, 0.25, -0.75]],
                          dtype=np.float32)
        codes = quantize_unit_rows(matrix)
        assert codes.dtype == np.int8
        np.testing.assert_array_equal(
            codes, np.round(matrix * INT8_QMAX).astype(np.int8))

    def test_non_8bit_quantization_stays_on_the_float_runtime(self):
        # The integer lowering only exists for 8-bit grids: a 4-bit
        # activation config must NOT be switched to "int8" mode (it would
        # compile to an all-opaque plan that cannot be snapshotted/served)
        # and must keep the bit-width-aware size estimate.
        from repro.core import OFSCIL, OFSCILConfig
        from repro.data import build_synthetic_fscil
        from repro.quant import QuantizationConfig, quantize_ofscil_model

        benchmark = build_synthetic_fscil("test", seed=0)
        model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                     seed=3)
        model, report = quantize_ofscil_model(
            model, benchmark.base_train,
            config=QuantizationConfig(activation_bits=4,
                                      qat_pretrain_epochs=0,
                                      qat_metalearn_iterations=0,
                                      calibration_batches=2,
                                      calibration_batch_size=32))
        assert model.config.runtime_mode == "float32"
        assert model.runtime_predictor().mode == "float32"
        weight_elems = sum(p.size for p in model.backbone.parameters()
                           if p.data.ndim >= 2)
        assert report.model_size_bytes > weight_elems  # not FCR floats only

    def test_accumulator_overflow_is_rejected_at_compile_time(self):
        from repro import nn
        from repro.models.mobilenetv2 import ConvBNReLU
        from repro.quant import ActivationQuantizationPass
        from repro.runtime import compile_module

        rng = np.random.default_rng(0)
        net = nn.Sequential(ConvBNReLU(4, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        act_pass = ActivationQuantizationPass(net, bits=8)
        act_pass.calibrate(rng.standard_normal((8, 4, 8, 8)).astype(np.float32))
        act_pass.enable()
        # A pathologically huge folded bias on a pathologically fine output
        # grid cannot be represented in the int32 accumulator: the compiler
        # must refuse rather than silently wrap.
        net[0].bn.bias.data = np.full(4, 1e9, dtype=np.float32)
        net.input_quantizer = act_pass.input_quantizer
        with pytest.raises(Int8CompilationError):
            compile_module(net, mode="int8")

    @staticmethod
    def _qlinear_step():
        """A ``qlinear`` step on small int8 weights, and int8 input codes."""
        from repro.runtime.plan import Step

        rng = np.random.default_rng(0)
        weight = rng.integers(-127, 128, (3, 5)).astype(np.int8)
        codes = rng.integers(-127, 128, (2, 5)).astype(np.int8)
        step = Step("qlinear", "fcr.linear", ("x",), "y",
                    arrays={"weight": weight,
                            "dequant": np.full(3, 0.01, dtype=np.float64)},
                    attrs={"act": None})
        return step, codes

    def test_qlinear_step_overflow_uses_the_compiled_bound(self):
        # The kernel trusts the bound the compiler stored on the step: one
        # past the int32 range is refused even though these small weights'
        # own bound would pass.
        from repro.runtime.kernels import INT32_ACC_LIMIT
        from repro.runtime.plan import InferencePlan

        step, codes = self._qlinear_step()
        step.attrs["acc_bound"] = INT32_ACC_LIMIT + 1
        with pytest.raises(OverflowError):
            InferencePlan([step]).execute(codes)

    def test_qlinear_step_does_not_recompute_the_bound(self, monkeypatch):
        from repro.runtime import kernels
        from repro.runtime.plan import InferencePlan

        step, codes = self._qlinear_step()
        step.attrs["acc_bound"] = kernels.conv_accumulator_bound(
            step.arrays["weight"])
        # Without a bound the kernel still checks the weights itself.
        expected = kernels.fused_qlinear(codes, step.arrays["weight"],
                                         step.arrays["dequant"])

        def recompute(*args, **kwargs):
            raise AssertionError("qlinear recomputed its accumulator bound")

        monkeypatch.setattr(kernels, "conv_accumulator_bound", recompute)
        np.testing.assert_array_equal(InferencePlan([step]).execute(codes),
                                      expected)
