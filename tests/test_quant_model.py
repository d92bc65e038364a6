"""Model-level quantization: weights, activations, full workflow, Fig. 3 sweep."""

import numpy as np
import pytest

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.nn.tensor import Tensor
from repro.quant import (
    ActivationQuantizationPass,
    QuantizationConfig,
    em_memory_kb,
    format_precision_table,
    integer_weight_size_bytes,
    prototype_precision_sweep,
    quantizable_layers,
    quantize_ofscil_model,
    quantize_weights,
)
from repro.quant.activation_quant import DEFAULT_HOOK_TYPES

BACKBONE = "mobilenetv2_x4_tiny"


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU6(),
        nn.Conv2d(8, 8, 3, padding=1, groups=8, rng=rng),
        nn.ReLU6(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4, rng=rng),
    )


class TestWeightQuantization:
    def test_quantizable_layers_found(self):
        net = small_net()
        names = [name for name, _ in quantizable_layers(net)]
        assert len(names) == 3   # two convs + one linear

    def test_weights_are_modified_in_place_and_on_grid(self, rng):
        net = small_net()
        original = net[0].weight.data.copy()
        report = quantize_weights(net, bits=8)
        assert report.num_layers == 3
        assert not np.array_equal(net[0].weight.data, original)
        threshold = report.thresholds["0.weight"]
        scale = threshold / 127
        codes = net[0].weight.data / scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-4)

    def test_quantization_error_small_for_8_bits(self):
        net = small_net()
        report = quantize_weights(net, bits=8)
        assert report.mean_mse < 1e-4

    def test_per_channel_quantization_not_worse(self):
        net_a, net_b = small_net(seed=3), small_net(seed=3)
        per_tensor = quantize_weights(net_a, bits=4, per_channel=False)
        per_channel = quantize_weights(net_b, bits=4, per_channel=True)
        assert per_channel.mean_mse <= per_tensor.mean_mse + 1e-6

    def test_integer_weight_size(self):
        net = small_net()
        size = integer_weight_size_bytes(net, bits=8)
        params_with_bias = sum(module.weight.data.size for _, module in quantizable_layers(net))
        assert size >= params_with_bias   # weights at 1 byte + 32-bit biases


class TestActivationQuantization:
    def test_calibrate_then_quantize(self, rng):
        net = small_net()
        act_pass = ActivationQuantizationPass(net, bits=8)
        assert len(act_pass.quantizers) == 3   # two ReLU6 + global pool
        images = rng.uniform(0, 1, (32, 3, 8, 8)).astype(np.float32)
        report = act_pass.calibrate(images, batch_size=16)
        assert report.num_points == 3
        act_pass.enable()
        out_quant = net(Tensor(images[:4])).data
        act_pass.disable()
        out_float = net(Tensor(images[:4])).data
        assert not np.allclose(out_quant, out_float)
        assert np.abs(out_quant - out_float).max() < 0.2

    def test_uncalibrated_freeze_raises(self):
        net = small_net()
        act_pass = ActivationQuantizationPass(net, bits=8)
        with pytest.raises(RuntimeError):
            act_pass.quantizers[0].freeze()

    def test_detach_removes_hooks(self, rng):
        net = small_net()
        # A hook registered before the pass survives detach, in its place.
        hooked = next(module for _, module in net.named_modules()
                      if isinstance(module, DEFAULT_HOOK_TYPES))

        def own_hook(module, output):
            return None
        hooked.register_forward_hook(own_hook)
        hooks = hooked._forward_hooks
        act_pass = ActivationQuantizationPass(net, bits=8)
        assert len(hooked._forward_hooks) == 2
        act_pass.calibrate(rng.uniform(0, 1, (8, 3, 8, 8)).astype(np.float32))
        act_pass.detach()
        assert hooked._forward_hooks is hooks            # removed in place
        assert hooked._forward_hooks == [own_hook]
        assert all(not module._forward_hooks for _, module in net.named_modules()
                   if module is not hooked)


class TestQuantizationWorkflow:
    @pytest.fixture(scope="class")
    def quantized(self, tiny_benchmark):
        model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE), seed=5)
        config = QuantizationConfig(qat_pretrain_epochs=1, qat_metalearn_iterations=1,
                                    calibration_batches=2, calibration_batch_size=32)
        model, report = quantize_ofscil_model(model, tiny_benchmark.base_train,
                                              config=config)
        return model, report

    def test_report_contents(self, quantized):
        _, report = quantized
        assert report.weights.num_layers > 10
        assert report.activations.num_points > 5
        assert report.model_size_bytes > 0
        assert "qat_pretrain" in report.extras and "qat_metalearn" in report.extras

    def test_weights_are_int8_reconstructions(self, quantized):
        model, report = quantized
        name, module = next(iter(quantizable_layers(model.backbone)))
        threshold = None
        for key, value in report.weights.thresholds.items():
            if key.startswith(name):
                threshold = value
                break
        assert threshold is None or threshold > 0

    def test_quantized_model_still_classifies(self, quantized, tiny_benchmark):
        model, _ = quantized
        model.memory.reset()
        model.learn_base_session(tiny_benchmark.base_train, max_per_class=5)
        accuracy = model.accuracy(tiny_benchmark.test_upto(0))
        assert accuracy >= 0.0   # functional end to end

    def test_model_size_much_smaller_than_fp32(self, quantized):
        model, report = quantized
        fp32_bytes = sum(p.size * 4 for p in model.backbone.parameters())
        assert report.model_size_bytes < fp32_bytes


class TestPrototypePrecisionSweep:
    def test_em_memory_kb_paper_value(self):
        assert em_memory_kb(100, 256, 3) == pytest.approx(9.6)
        assert em_memory_kb(100, 256, 32) == pytest.approx(102.4)

    @pytest.fixture(scope="class")
    def sweep(self, trained_model, tiny_benchmark):
        return prototype_precision_sweep(trained_model, tiny_benchmark,
                                         bit_widths=(32, 8, 4, 3, 1))

    def test_rows_cover_requested_bits(self, sweep):
        assert [row.bits for row in sweep] == [32, 8, 4, 3, 1]

    def test_memory_decreases_with_bits(self, sweep):
        memories = [row.memory_kb for row in sweep]
        assert all(a > b for a, b in zip(memories, memories[1:]))

    def test_accuracy_stable_down_to_medium_precision(self, sweep):
        """8-bit and 4-bit prototypes must track the float accuracy closely
        (Fig. 3: the curve is flat until very low precision)."""
        reference = sweep[0]
        for row in sweep[1:3]:   # 8 and 4 bits
            assert abs(row.session0_accuracy - reference.session0_accuracy) < 0.05
            assert abs(row.final_session_accuracy - reference.final_session_accuracy) < 0.05

    def test_format_table(self, sweep):
        table = format_precision_table(sweep)
        assert "bits" in table and "EM kB" in table
