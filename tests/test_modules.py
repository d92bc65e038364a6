"""Module system: registration, traversal, state, hooks, containers, layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.modules import Module
from repro.nn.tensor import Tensor


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU6(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 5, rng=rng),
    )


class TestModuleInfrastructure:
    def test_parameters_are_registered(self):
        layer = nn.Linear(3, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert all(isinstance(p, nn.Parameter) for p in layer.parameters())

    def test_nested_parameter_names(self):
        net = small_net()
        names = [name for name, _ in net.named_parameters()]
        assert "0.weight" in names
        assert "1.weight" in names and "1.bias" in names
        assert "4.weight" in names

    def test_num_parameters(self):
        layer = nn.Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_named_modules_traversal(self):
        net = small_net()
        types = [type(m).__name__ for _, m in net.named_modules()]
        assert "Sequential" in types and "Conv2d" in types and "Linear" in types

    def test_train_eval_propagates(self):
        net = small_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_gradients(self):
        net = small_net()
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 6, 6)).astype(np.float32))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_freeze_unfreeze(self):
        net = small_net()
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())
        net.unfreeze()
        assert all(p.requires_grad for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net_a, net_b = small_net(seed=0), small_net(seed=99)
        state = net_a.state_dict()
        net_b.load_state_dict(state)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 6, 6)).astype(np.float32))
        net_a.eval()
        net_b.eval()
        np.testing.assert_allclose(net_a(x).data, net_b(x).data, rtol=1e-6)
        # The loaded module owns copies: editing the dict afterwards changes
        # no weight or buffer (an in-place edit no staleness check can see).
        expected = net_b(x).data
        for array in state.values():
            array[...] = 0
        for name, param in net_b.named_parameters():
            assert not np.shares_memory(param.data, state[name])
        np.testing.assert_array_equal(net_b(x).data, expected)

    def test_assigning_another_kind_of_value_unregisters_the_name(self):
        lin = nn.Linear(3, 2)
        epoch = Module.structure_epoch
        lin.bias = None
        assert lin.bias is None
        assert list(lin.state_dict()) == ["weight"]
        assert len(list(lin.parameters())) == 1
        assert Module.structure_epoch != epoch
        lin.act = nn.ReLU()
        epoch = Module.structure_epoch
        lin.act = "not a module"
        assert list(dict(lin.named_modules())) == [""]
        assert lin.act == "not a module"
        assert Module.structure_epoch != epoch
        # A plain attribute that was never registered moves nothing.
        epoch = Module.structure_epoch
        lin.note = 1
        assert Module.structure_epoch == epoch

    def test_state_dict_contains_buffers(self):
        net = small_net()
        assert any("running_mean" in key for key in net.state_dict())

    def test_load_state_dict_strict_missing_key(self):
        net = small_net()
        state = net.state_dict()
        state.pop("0.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state, strict=True)

    def test_forward_hook_observes_and_replaces(self):
        layer = nn.ReLU()
        calls = []

        def observe(module, output):
            calls.append(output.data.copy())
            return None

        def double(module, output):
            return output * 2.0

        layer.register_forward_hook(observe)
        layer.register_forward_hook(double)
        out = layer(Tensor(np.array([-1.0, 2.0])))
        assert len(calls) == 1
        np.testing.assert_allclose(out.data, [0.0, 4.0])
        layer.clear_forward_hooks()
        np.testing.assert_allclose(layer(Tensor(np.array([2.0]))).data, [2.0])

    def test_sequential_indexing_and_iteration(self):
        net = small_net()
        assert len(net) == 5
        assert isinstance(net[0], nn.Conv2d)
        assert len(list(iter(net))) == 5

    def test_module_list(self):
        blocks = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(blocks) == 2
        assert len(blocks.parameters()) == 4
        blocks.append(nn.Linear(2, 2))
        assert len(blocks) == 3
        with pytest.raises(RuntimeError):
            blocks(Tensor(np.zeros((1, 2))))

    def test_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert nn.Identity()(x) is x


class TestLayers:
    def test_linear_shapes_and_values(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_linear_without_bias(self, rng):
        layer = nn.Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv2d_shapes(self, rng):
        layer = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_conv2d_groups_validation(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 4, 3, groups=2)

    def test_batchnorm_normalizes_in_training(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.standard_normal((16, 3, 5, 5)).astype(np.float32) * 3 + 2)
        out = bn(x).data
        assert abs(out.mean()) < 1e-4
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_running_stats_converge(self, rng):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        data = rng.standard_normal((32, 2, 4, 4)).astype(np.float32) * 2.0 + 1.0
        for _ in range(20):
            bn(Tensor(data))
        np.testing.assert_allclose(bn.running_mean, data.mean(axis=(0, 2, 3)), atol=0.05)
        np.testing.assert_allclose(bn.running_var, data.var(axis=(0, 2, 3)), rtol=0.15)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        out = bn(x).data
        np.testing.assert_allclose(out, x.data, atol=1e-4)  # running stats are 0/1

    def test_batchnorm1d(self, rng):
        bn = nn.BatchNorm1d(4)
        x = Tensor(rng.standard_normal((32, 4)).astype(np.float32) * 5 + 3)
        out = bn(x).data
        assert abs(out.mean()) < 1e-4

    def test_relu6_clips(self):
        layer = nn.ReLU6()
        out = layer(Tensor(np.array([-2.0, 3.0, 9.0])))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_dropout_train_vs_eval(self, rng):
        layer = nn.Dropout(p=0.5, seed=0)
        x = Tensor(np.ones((100, 10), dtype=np.float32))
        train_out = layer(x)
        assert (train_out.data == 0).any()
        layer.eval()
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_flatten_module(self, rng):
        out = nn.Flatten()(Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32)))
        assert out.shape == (2, 48)

    def test_pool_modules(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.GlobalAvgPool2d()(x).shape == (1, 2)

    def test_training_step_reduces_loss(self, rng):
        """A small end-to-end sanity check: a training loop must reduce loss."""
        net = small_net(seed=1)
        optimizer = nn.optim.SGD(net.parameters(), lr=0.1, momentum=0.9)
        x = Tensor(rng.standard_normal((16, 3, 6, 6)).astype(np.float32))
        labels = rng.integers(0, 5, 16)
        losses = []
        for _ in range(12):
            out = net(x)
            loss = nn.losses.cross_entropy(out, labels)
            net.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]
