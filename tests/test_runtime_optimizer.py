"""Plan optimizer conformance: per-fusion parity, arena planning, threads.

The optimizer's contract is absolute: every fusion, arena-planned execution
and thread-pool chunking must reproduce the unoptimized plan's output *bit
for bit*.  Float32 plans are compared optimized-vs-raw on the same machine
(same kernels, same BLAS, so equality is exact); int8 plans are additionally
pinned against the golden fixture after each individual fusion.  A property
test runs the fusions on random typed int8 DAGs, where every fusion fires
and every single-use condition is put to the test.
"""

import copy
import dataclasses
import functools
import gc
import hashlib
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.models import list_configs
from repro.models.mobilenetv2 import ConvBNReLU
from repro.obs import MetricsRegistry
from repro.runtime import (
    BatchedPredictor,
    BufferCache,
    InferenceEngine,
    compile_backbone,
    compile_module,
    optimize_plan,
)
from repro.runtime import kernels
from repro.runtime.compiler import MODES
from repro.runtime.optimizer import FUSIONS
from repro.runtime.plan import InferencePlan, Step
from repro.runtime.plan_stats import _build_model
from repro.runtime.plan_stats import main as plan_stats_main
from repro.serve import snapshot_model

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import (  # noqa: E402
    BACKBONE,
    RESNET_BACKBONE,
    build_quantized_model,
    load_golden,
)

TINY_BACKBONES = ("mobilenetv2_x4_tiny", "mobilenetv2_tiny", "resnet12_tiny",
                  "resnet20_tiny")

#: Families the int8 optimizer conformance parametrizes over (the committed
#: golden fixtures pin the exact bits per family).
INT8_BACKBONES = (BACKBONE, RESNET_BACKBONE)


#: Each fusion checked alone, plus the full ``optimize_plan``.
PASSES = tuple(FUSIONS) + ("optimize_plan",)


def run_pass(name: str, plan: InferencePlan) -> InferencePlan:
    if name == "optimize_plan":
        return optimize_plan(plan)
    steps, _ = FUSIONS[name](plan.steps, plan.output_register)
    return dataclasses.replace(plan, steps=steps)


def structure(plan: InferencePlan):
    """Comparable structural fingerprint of a plan (arrays by identity)."""
    return [(step.op, step.name, tuple(step.inputs), step.output,
             sorted(step.attrs.items(), key=lambda kv: kv[0]),
             tuple(sorted((key, id(array))
                          for key, array in step.arrays.items())))
            for step in plan.steps]


def make_model(backbone: str, seed: int = 0) -> OFSCIL:
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=seed)
    model.backbone.eval()
    model.fcr.eval()
    return model


@pytest.fixture(scope="module")
def quantized():
    return build_quantized_model()


@pytest.fixture(scope="module")
def golden():
    return load_golden(BACKBONE)


@pytest.fixture(scope="module", params=INT8_BACKBONES)
def int8_case(request):
    """(quantized model, golden arrays), parametrized over both families."""
    golden = load_golden(request.param)
    model, _ = build_quantized_model(request.param)
    return model, golden


# ---------------------------------------------------------------------------
# Per-fusion parity
# ---------------------------------------------------------------------------
class TestFloatParity:
    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_optimized_plan_is_bit_identical(self, backbone, rng):
        model = make_model(backbone)
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((40, 3, 16, 16)).astype(np.float32)
        raw = InferenceEngine(plan, optimize=False, micro_batch=16).run(images)
        optimized = InferenceEngine(plan, optimize=True,
                                    micro_batch=16).run(images)
        np.testing.assert_array_equal(raw, optimized)

    @pytest.mark.parametrize("pass_name", PASSES)
    def test_each_pass_preserves_float_outputs(self, pass_name, rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
        raw = InferenceEngine(plan, optimize=False).run(images)
        transformed = InferenceEngine(run_pass(pass_name, plan),
                                      optimize=False).run(images)
        np.testing.assert_array_equal(raw, transformed)

    def test_float_plan_has_no_quantize_chains_to_fuse(self):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        for sweep in FUSIONS.values():
            steps, applied = sweep(plan.steps, plan.output_register)
            assert applied == 0
            assert [id(step) for step in steps] == \
                [id(step) for step in plan.steps]


def fusion_chain(fusion: str, rng) -> list:
    """The shortest float-in, float-or-codes-out chain ``fusion`` fuses.

    The step writing ``%feed`` is the feeder the fusion absorbs into the
    last step, which is its only reader and writes ``%out``.
    """
    quantize = Step(op="quantize", name="q", inputs=("x",), output="%q",
                    attrs={"scale": 0.05})
    dequantize = Step(op="dequantize", name="dq", inputs=("%q",),
                      output="%feed", attrs={"scale": 0.05})
    join = Step(op="add", name="join", inputs=("%feed", "x"), output="%out",
                attrs={"act": "relu"})
    if fusion == "dequantize_into_add":
        return [quantize, dequantize, join]
    if fusion == "add_quantize_fusion":
        return [Step(op="add", name="join", inputs=("x", "x"),
                     output="%feed", attrs={"act": "relu"}),
                Step(op="quantize", name="q", inputs=("%feed",),
                     output="%out", attrs={"scale": 0.125})]
    if fusion == "dequantize_quantize_to_requantize":
        return [quantize, dequantize,
                Step(op="quantize", name="rq", inputs=("%feed",),
                     output="%out", attrs={"scale": 0.125})]
    weight = rng.integers(-127, 128, size=(3, 3, 1, 1)).astype(np.int8)
    conv = Step(op="qconv_dequant", name="proj", inputs=("%q",),
                output="%feed",
                arrays={"weight": weight, "dequant": np.full(3, 0.01),
                        "bias": np.zeros(3, dtype=np.float32)},
                attrs={"stride": 1, "padding": 0, "groups": 1, "act": None,
                       "acc_bound": kernels.conv_accumulator_bound(weight)})
    return [quantize, conv, join]


class TestPassesSynthetic:
    @pytest.mark.parametrize("second_read", ["none", "step", "plan_output"])
    @pytest.mark.parametrize("fusion", tuple(FUSIONS))
    def test_each_fusion_absorbs_only_a_single_use_feeder(self, fusion,
                                                          second_read, rng):
        # Each sweep alone, from the fusion table: the feeder vanishes only
        # when its reader is the one read of its register.
        steps = fusion_chain(fusion, rng)
        output = "%feed" if second_read == "plan_output" else "%out"
        if second_read == "step":
            steps.append(Step(op="requantize", name="again",
                              inputs=("%feed",), output="%again",
                              attrs={"scale": 0.125}))
            output = "%again"
        plan = InferencePlan(steps=steps, output_register=output)
        before = raw_state(plan)
        fused, applied = FUSIONS[fusion](plan.steps, plan.output_register)
        assert raw_state(plan) == before
        if second_read != "none":
            assert applied == 0
            assert [id(step) for step in fused] == \
                [id(step) for step in plan.steps]
            return
        assert applied == 1
        assert len(fused) == len(steps) - 1
        assert "%feed" not in {step.output for step in fused}
        assert fused[-1].output == "%out"
        transformed = dataclasses.replace(plan, steps=fused)
        assert_ssa(transformed)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        expected = plan.execute(x, BufferCache())
        actual = transformed.execute(x, BufferCache())
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    def test_dequantize_quantize_chain_fuses_to_qrequantize(self, rng):
        steps = [Step(op="dequantize", name="dq", inputs=("x",), output="%f",
                      attrs={"scale": 0.05}),
                 Step(op="quantize", name="q", inputs=("%f",), output="%q",
                      attrs={"scale": 0.125})]
        plan = InferencePlan(steps=steps, output_register="%q")
        fused = run_pass("dequantize_quantize_to_requantize", plan)
        assert [step.op for step in fused.steps] == ["qrequantize"]
        codes = rng.integers(-127, 128, size=(4, 3, 5, 5)).astype(np.int8)
        np.testing.assert_array_equal(plan.execute(codes),
                                      fused.execute(codes))

    def test_multi_use_dequantize_is_not_fused(self, rng):
        # The dequantized register feeds the add AND the plan output: folding
        # it into the add would orphan the second consumer.
        steps = [Step(op="dequantize", name="dq", inputs=("x",), output="%f",
                      attrs={"scale": 0.05}),
                 Step(op="add", name="add", inputs=("%f", "%f"), output="%s",
                      attrs={"act": None})]
        plan = InferencePlan(steps=steps, output_register="%f")
        optimized = optimize_plan(plan)
        assert not any(optimized.pass_stats.values())
        assert structure(optimized) == structure(plan)

    @pytest.mark.parametrize("second_read", ["step", "plan_output"])
    def test_superfusion_requires_a_single_use_conv(self, second_read, rng):
        # A projection conv whose float output is read again — by another
        # step, or as the plan output — must stay a standalone step.
        weight = rng.integers(-127, 128, size=(3, 3, 1, 1)).astype(np.int8)
        conv = Step(op="qconv_dequant", name="proj", inputs=("%q",),
                    output="%c",
                    arrays={"weight": weight,
                            "dequant": np.full(3, 0.01),
                            "bias": np.zeros(3, dtype=np.float32)},
                    attrs={"stride": 1, "padding": 0, "groups": 1,
                           "act": None})
        steps = [Step(op="quantize", name="q", inputs=("x",), output="%q",
                      attrs={"scale": 0.05}),
                 conv,
                 Step(op="add", name="join", inputs=("%c", "x"),
                      output="%s", attrs={"act": "relu"})]
        single = InferencePlan(steps=list(steps), output_register="%s")
        fused = optimize_plan(single)
        assert [step.op for step in fused.steps] == ["quantize", "qconv_add"]
        if second_read == "step":
            steps.append(Step(op="add", name="again", inputs=("%s", "%c"),
                              output="%out", attrs={"act": None}))
            plan = InferencePlan(steps=steps, output_register="%out")
        else:
            plan = InferencePlan(steps=steps, output_register="%c")
        optimized = optimize_plan(plan)
        assert optimized.pass_stats["qconv_add_superfusion"] == 0
        assert structure(optimized) == structure(plan)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        for raw, transformed in ((single, fused), (plan, optimized)):
            np.testing.assert_array_equal(raw.execute(x, BufferCache()),
                                          transformed.execute(x, BufferCache()))


# ---------------------------------------------------------------------------
# Property test: random typed int8 DAGs
# ---------------------------------------------------------------------------
SCALES = (0.03125, 0.05, 0.125)


def random_int8_dag(rng, channels=3, depth_range=(4, 16)):
    """A random SSA plan over the ops the fusions rewrite.

    Registers are typed: ``quantize`` reads float and writes int8 codes,
    ``dequantize`` and ``qconv_dequant`` read codes and write float, and
    ``requantize`` and ``add`` read and write float.  Operands favour the
    newest register of the right type, so fusable chains are common, but any
    earlier register can be read again (random fan-out, and ``add`` may
    read one register at both positions).  The plan output is a random
    step's register, so later steps may read it too.
    """
    registers = {"float": ["x"], "int8": []}
    steps = []

    def operand(kind):
        pool = registers[kind]
        if rng.random() < 0.6:
            return pool[-1]
        return str(rng.choice(pool))

    for index in range(int(rng.integers(*depth_range))):
        ops = ["quantize", "requantize", "add"]
        if registers["int8"]:
            ops += ["dequantize", "dequantize", "qconv_dequant"]
        op = str(rng.choice(ops))
        out = f"%{index}_{op}"
        scale = float(rng.choice(SCALES))
        if op in ("quantize", "requantize"):
            step = Step(op=op, name=f"s{index}", inputs=(operand("float"),),
                        output=out, attrs={"scale": scale})
        elif op == "dequantize":
            step = Step(op=op, name=f"s{index}", inputs=(operand("int8"),),
                        output=out, attrs={"scale": scale})
        elif op == "add":
            step = Step(op=op, name=f"s{index}",
                        inputs=(operand("float"), operand("float")),
                        output=out,
                        attrs={"act": "relu" if rng.random() < 0.5
                               else None})
        else:
            weight = rng.integers(-127, 128, size=(channels, channels, 1, 1)) \
                .astype(np.int8)
            step = Step(op=op, name=f"s{index}", inputs=(operand("int8"),),
                        output=out,
                        arrays={"weight": weight,
                                "dequant": rng.uniform(1e-3, 1e-2, channels),
                                "bias": rng.standard_normal(channels)
                                .astype(np.float32)},
                        attrs={"stride": 1, "padding": 0, "groups": 1,
                               "act": "relu" if rng.random() < 0.5 else None,
                               "acc_bound":
                                   kernels.conv_accumulator_bound(weight)})
        steps.append(step)
        registers["int8" if op == "quantize" else "float"].append(out)
    output = str(rng.choice([step.output for step in steps]))
    return InferencePlan(steps=steps, output_register=output,
                         name="random-int8-dag")


def raw_state(plan: InferencePlan):
    """The steps and attrs dicts of ``plan``, by identity and by value."""
    return [(id(step), step.op, step.inputs, step.output, id(step.attrs),
             dict(step.attrs)) for step in plan.steps]


def assert_ssa(plan: InferencePlan):
    """Each register is defined once and read only after its definition."""
    defined = {plan.input_register}
    for step in plan.steps:
        assert set(step.inputs) <= defined, f"{step.name} reads too early"
        assert step.output not in defined, f"{step.output} defined twice"
        defined.add(step.output)
    assert plan.output_register in defined


def assert_only_single_use_feeders_absorbed(plan: InferencePlan,
                                            optimized: InferencePlan):
    """Only feeders read exactly once, and not as the plan output, vanish."""
    reads = Counter(register for step in plan.steps
                    for register in step.inputs)
    kept = {step.output for step in optimized.steps}
    for step in plan.steps:
        if step.output not in kept:
            assert reads[step.output] == 1, step
            assert step.output != plan.output_register, step


class TestRandomInt8DagProperty:
    def test_fusions_keep_ssa_bits_and_single_use(self, rng):
        applied = Counter()
        for trial in range(60):
            plan = random_int8_dag(rng)
            before = raw_state(plan)
            optimized = optimize_plan(plan)
            applied.update(optimized.pass_stats)

            assert optimized.output_register == plan.output_register
            assert_ssa(optimized)
            # The raw plan is untouched: same steps, same attrs dicts.
            assert raw_state(plan) == before
            assert_only_single_use_feeders_absorbed(plan, optimized)

            x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
            expected = plan.execute(x, BufferCache())
            actual = optimized.execute(x, BufferCache())
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected)
        # Every fusion fired somewhere, so each one was put to the test.
        assert all(applied[name] > 0 for name in FUSIONS), applied


class TestInt8Fusion:
    def test_residual_chains_are_fused(self, int8_case):
        model, _ = int8_case
        raw = compile_backbone(model.backbone, mode="int8")
        optimized = optimize_plan(raw)
        assert optimized.optimized
        assert len(optimized.steps) < len(raw.steps)
        # Residual joins either fused their dequantize/quantize neighbours
        # in place (``add`` with scale attrs) or were superfused with their
        # producing conv into one ``qconv_add`` step.
        fused_adds = [step for step in optimized.steps
                      if (step.op == "add"
                          and ("out_scale" in step.attrs
                               or "in_scale_1" in step.attrs))
                      or step.op == "qconv_add"]
        assert fused_adds, "residual dequantize/quantize chains must fuse"
        assert any(step.op == "qconv_add" for step in optimized.steps), \
            "int8 residual tails must superfuse conv + add + requantize"
        # No single-use dequantize feeding an add survives the fusion pass.
        producers = {step.output: step for step in optimized.steps}
        for step in optimized.steps:
            if step.op != "add":
                continue
            for register in step.inputs:
                feeder = producers.get(register)
                assert feeder is None or feeder.op != "dequantize" or \
                    sum(register in other.inputs
                        for other in optimized.steps) > 1

    def test_optimize_plan_is_idempotent(self, int8_case):
        model, _ = int8_case
        plan = optimize_plan(compile_backbone(model.backbone, mode="int8"))
        assert optimize_plan(plan) is plan

    def test_reoptimization_is_structurally_identical(self, int8_case):
        model, _ = int8_case
        once = optimize_plan(compile_backbone(model.backbone, mode="int8"))
        # Clear the short-circuit flag: the fusions themselves must be
        # idempotent, not only guarded by `plan.optimized`.
        twice = optimize_plan(dataclasses.replace(once, optimized=False))
        assert structure(twice) == structure(once)

    def test_optimized_step_counts_are_pinned(self, int8_case):
        # The recorded step counts per family: regressions here mean a
        # fusion stopped firing.  CI additionally gates these counts (and
        # ResNet-12's) through ``plan_stats --assert-max-steps``.
        model, _ = int8_case
        optimized = optimize_plan(compile_backbone(model.backbone,
                                                   mode="int8"))
        pins = {"mobilenetv2_x4_tiny": 32, "resnet20_tiny": 18}
        pin = pins[model.config.backbone]
        assert len(optimized.steps) <= pin
        assert len(optimized.steps) < 35
        assert optimized.pass_stats.get("qconv_add_superfusion", 0) >= 3

    def test_resnet12_block_requantization_is_pinned(self, rng):
        # The plan the CI gate builds: ResNet-12's block-output requantize
        # pairs are the one real use of dequantize_quantize_to_requantize.
        model = _build_model("resnet12_tiny", "int8")
        plan = compile_backbone(model.backbone, mode="int8")
        optimized = optimize_plan(plan)
        assert len(optimized.steps) == 25
        assert [step.op for step in optimized.steps].count("qrequantize") \
            == 2
        assert optimized.pass_stats["dequantize_quantize_to_requantize"] == 2
        images = rng.standard_normal((6, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            InferenceEngine(plan).run(images),
            InferenceEngine(plan, optimize=False).run(images))

    def test_optimized_plan_records_pass_stats(self, int8_case):
        model, _ = int8_case
        optimized = optimize_plan(compile_backbone(model.backbone,
                                                   mode="int8"))
        stats = optimized.pass_stats
        assert list(stats) == list(FUSIONS)
        assert stats["dequantize_into_add"] >= 3
        assert stats["add_quantize_fusion"] >= 3
        assert sum(stats.values()) > 0
        # The predictor's backbone engine publishes the same total as a gauge.
        registry = MetricsRegistry()
        BatchedPredictor(model, mode="int8", registry=registry).backbone_engine
        scrape = registry.scrape()
        assert scrape["engine.backbone.opt_rule_applications"]["value"] == \
            sum(stats.values())

    @pytest.mark.parametrize("pass_name", PASSES)
    def test_each_pass_reproduces_the_golden_bits(self, pass_name, int8_case):
        model, golden = int8_case
        plan = run_pass(pass_name,
                        compile_backbone(model.backbone, mode="int8"))
        out = InferenceEngine(plan, optimize=False).run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])

    def test_arena_and_threads_reproduce_the_golden_bits(self, int8_case):
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        engine = InferenceEngine(plan, micro_batch=3, num_threads=2)
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        assert engine.memory_plan is not None


# ---------------------------------------------------------------------------
# Every plan the registry builds
# ---------------------------------------------------------------------------
MOBILENETV2_INT8 = (56, {"dequantize_into_add": 10, "add_quantize_fusion": 10,
                         "qconv_add_superfusion": 10})
MOBILENETV2_TINY_INT8 = (32, {"dequantize_into_add": 3,
                              "add_quantize_fusion": 3,
                              "qconv_add_superfusion": 3})
RESNET12_INT8 = (25, {"add_quantize_fusion": 4,
                      "dequantize_quantize_to_requantize": 2,
                      "qconv_add_superfusion": 4})

#: What ``optimize_plan`` makes of each registry backbone's int8 backbone
#: plan: (optimized step count, non-zero fusion counts).  Float32 plans and
#: every FCR plan have nothing to fuse and come back step for step.
INT8_BACKBONE_PINS = {
    "mobilenetv2": MOBILENETV2_INT8,
    "mobilenetv2_tiny": MOBILENETV2_TINY_INT8,
    "mobilenetv2_x2": MOBILENETV2_INT8,
    "mobilenetv2_x4": MOBILENETV2_INT8,
    "mobilenetv2_x4_tiny": MOBILENETV2_TINY_INT8,
    "resnet12": RESNET12_INT8,
    "resnet12_tiny": RESNET12_INT8,
    "resnet20": (24, {"dequantize_into_add": 7, "add_quantize_fusion": 9,
                      "qconv_add_superfusion": 9}),
    "resnet20_tiny": (18, {"dequantize_into_add": 4, "add_quantize_fusion": 6,
                           "qconv_add_superfusion": 6}),
}

#: :func:`plan_digest` of each registry model's raw backbone and FCR plans,
#: so a reordered, renamed or reshaped raw plan fails even where the
#: optimizer leaves it alone.
RAW_PLAN_DIGESTS = {
    ("mobilenetv2", "float32", "backbone"): "9e7c02569974ee6e",
    ("mobilenetv2", "float32", "fcr"): "818f3dab493d518c",
    ("mobilenetv2", "int8", "backbone"): "7ae2ed159862fd6b",
    ("mobilenetv2", "int8", "fcr"): "ff87c773985db517",
    ("mobilenetv2_tiny", "float32", "backbone"): "d0e798fb91e79006",
    ("mobilenetv2_tiny", "float32", "fcr"): "818f3dab493d518c",
    ("mobilenetv2_tiny", "int8", "backbone"): "3abf9bbf275ee777",
    ("mobilenetv2_tiny", "int8", "fcr"): "0f463364e5e8d2a4",
    ("mobilenetv2_x2", "float32", "backbone"): "ce9ab749d7319ccf",
    ("mobilenetv2_x2", "float32", "fcr"): "818f3dab493d518c",
    ("mobilenetv2_x2", "int8", "backbone"): "6b6a53ff46af2748",
    ("mobilenetv2_x2", "int8", "fcr"): "ff87c773985db517",
    ("mobilenetv2_x4", "float32", "backbone"): "75c7b22abf89f21a",
    ("mobilenetv2_x4", "float32", "fcr"): "818f3dab493d518c",
    ("mobilenetv2_x4", "int8", "backbone"): "ae9f0fcb5c927d81",
    ("mobilenetv2_x4", "int8", "fcr"): "ff87c773985db517",
    ("mobilenetv2_x4_tiny", "float32", "backbone"): "64979105d9ec33e3",
    ("mobilenetv2_x4_tiny", "float32", "fcr"): "818f3dab493d518c",
    ("mobilenetv2_x4_tiny", "int8", "backbone"): "b811ae1a3df072cb",
    ("mobilenetv2_x4_tiny", "int8", "fcr"): "0f463364e5e8d2a4",
    ("resnet12", "float32", "backbone"): "d6560d459c05fbdd",
    ("resnet12", "float32", "fcr"): "818f3dab493d518c",
    ("resnet12", "int8", "backbone"): "76fe7adb8c926912",
    ("resnet12", "int8", "fcr"): "dd138b83c40f9a8c",
    ("resnet12_tiny", "float32", "backbone"): "ea3864b546a65a98",
    ("resnet12_tiny", "float32", "fcr"): "818f3dab493d518c",
    ("resnet12_tiny", "int8", "backbone"): "0e47a7ecd9c335a9",
    ("resnet12_tiny", "int8", "fcr"): "f3c0251947d93e19",
    ("resnet20", "float32", "backbone"): "160d8a31eca1e514",
    ("resnet20", "float32", "fcr"): "818f3dab493d518c",
    ("resnet20", "int8", "backbone"): "b9115f469aa478bc",
    ("resnet20", "int8", "fcr"): "751276cf0d34b8b0",
    ("resnet20_tiny", "float32", "backbone"): "b4003fdd1b6c228f",
    ("resnet20_tiny", "float32", "fcr"): "818f3dab493d518c",
    ("resnet20_tiny", "int8", "backbone"): "74f64659c5ca7002",
    ("resnet20_tiny", "int8", "fcr"): "0eaf7cd7dbbc8c65",
}


#: The plans non-test code builds: every registry backbone's backbone and
#: FCR plan in both modes, ordered so each model is built once.
REGISTRY_PLANS = [(backbone, mode, part) for backbone in list_configs()
                  for mode in MODES for part in ("backbone", "fcr")]


def plan_digest(plan: InferencePlan) -> str:
    """Short hash of a plan's structure: each step's op, name, input and
    output registers, its attr keys with their non-float values, and each
    array's name, dtype and shape."""
    def plain(value):
        return value.item() if isinstance(value, np.generic) else value

    parts = [plan.input_register, plan.output_register]
    for step in plan.steps:
        attrs = [(key, None if isinstance(value, (float, np.floating))
                  else plain(value))
                 for key, value in sorted(step.attrs.items())]
        arrays = [(key, str(array.dtype), array.shape)
                  for key, array in sorted(step.arrays.items())]
        parts.append((step.op, step.name, tuple(step.inputs), step.output,
                      attrs, arrays))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def registry_raw_plans(backbone: str, mode: str):
    """The raw backbone and FCR plans of the model ``plan_stats`` builds."""
    model = _build_model(backbone, mode)
    return {"backbone": compile_backbone(model.backbone, mode=mode),
            "fcr": compile_module(model.fcr, "fcr", mode=mode)}


class TestRegistryPlans:
    def test_every_registry_backbone_is_pinned(self):
        assert sorted(INT8_BACKBONE_PINS) == list_configs()

    @pytest.mark.parametrize("backbone,mode,part", REGISTRY_PLANS)
    def test_fusions_are_pinned_and_bit_exact(self, backbone, mode, part,
                                              rng):
        plans = registry_raw_plans(backbone, mode)
        raw = plans[part]
        assert plan_digest(raw) == RAW_PLAN_DIGESTS[backbone, mode, part]
        before = raw_state(raw)
        optimized = optimize_plan(raw)
        assert raw_state(raw) == before
        assert optimized.output_register == raw.output_register
        applied = {name: count for name, count
                   in optimized.pass_stats.items() if count}
        if mode == "int8" and part == "backbone":
            assert (len(optimized.steps), applied) == \
                INT8_BACKBONE_PINS[backbone]
        else:
            assert applied == {}
            assert [id(step) for step in optimized.steps] == \
                [id(step) for step in raw.steps]
        assert_ssa(optimized)
        assert_only_single_use_feeders_absorbed(raw, optimized)

        images = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        if part == "fcr":
            images = InferenceEngine(plans["backbone"],
                                     optimize=False).run(images)
        np.testing.assert_array_equal(
            InferenceEngine(optimized, optimize=False).run(images),
            InferenceEngine(raw, optimize=False).run(images))


# ---------------------------------------------------------------------------
# Arena memory planner
# ---------------------------------------------------------------------------
def materialized_memory_plan(plan, images):
    engine = InferenceEngine(plan, micro_batch=images.shape[0])
    engine.run(images)
    return engine.plan, engine.memory_plan


def assert_no_live_aliasing(plan, memory_plan):
    """No slot may host two registers whose live intervals overlap.

    A register is live from the step defining it through the last step
    reading it (or any view of it); the plan output lives forever.  This is
    the safety property the executor relies on when it hands kernels
    ``out=`` views: writing a step's output must never clobber a value some
    later step still reads.
    """
    def root(register):
        while register in memory_plan.alias_of:
            register = memory_plan.alias_of[register]
        return register

    defined = {root(step.output): index
               for index, step in enumerate(plan.steps)
               if step.output not in memory_plan.alias_of}
    last_read = {}
    for register, index in plan.last_use().items():
        register = root(register)
        last_read[register] = max(last_read.get(register, -1), index)
    intervals = {register: (defined[register],
                            last_read.get(register, defined[register]))
                 for register in memory_plan.slot_of}
    registers = sorted(memory_plan.slot_of)
    for i, first in enumerate(registers):
        for second in registers[i + 1:]:
            if memory_plan.slot_of[first] != memory_plan.slot_of[second]:
                continue
            start_a, end_a = intervals[first]
            start_b, end_b = intervals[second]
            assert end_a < start_b or end_b < start_a, (
                f"registers {first} and {second} share slot "
                f"{memory_plan.slot_of[first]} while both live "
                f"({intervals[first]} vs {intervals[second]})")


class TestArenaPlanner:
    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_planner_never_aliases_live_registers(self, backbone, rng):
        model = make_model(backbone)
        images = rng.standard_normal((6, 3, 16, 16)).astype(np.float32)
        plan, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone), images)
        assert memory_plan.num_slots >= 2
        assert_no_live_aliasing(plan, memory_plan)

    def test_planner_property_on_random_conv_stacks(self, rng):
        for trial in range(5):
            depth = int(rng.integers(2, 6))
            channels = [3] + [int(rng.integers(2, 9)) for _ in range(depth)]
            layers = [ConvBNReLU(channels[i], channels[i + 1], rng=rng)
                      for i in range(depth)]
            net = nn.Sequential(*layers, nn.GlobalAvgPool2d())
            net.eval()
            images = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
            plan, memory_plan = materialized_memory_plan(
                compile_module(net), images)
            assert_no_live_aliasing(plan, memory_plan)

    def test_int8_planner_never_aliases_live_registers(self, int8_case):
        model, golden = int8_case
        plan, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone, mode="int8"),
            golden["images"])
        assert_no_live_aliasing(plan, memory_plan)

    def test_arena_shrinks_peak_memory(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        _, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone), images)
        peak = memory_plan.peak_bytes(64)
        unplanned = memory_plan.unplanned_bytes(64)
        assert peak < 0.6 * unplanned, (
            f"arena ({peak} B) must cut >= 40% off per-step allocation "
            f"({unplanned} B)")

    def test_results_survive_arena_reuse_across_chunks(self, rng):
        # The plan output must never live in the arena: a second run reuses
        # every slot, and the first result has been handed to the caller.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=8)
        first_images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        second_images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        first = engine.run(first_images)
        kept = first.copy()
        second = engine.run(second_images)
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_memory_plan_rebuilds_on_input_shape_change(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        engine = InferenceEngine(plan, micro_batch=4)
        engine.run(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        assert engine.memory_plan.input_shape == (3, 16, 16)
        large = rng.standard_normal((8, 3, 20, 20)).astype(np.float32)
        out = engine.run(large)
        assert engine.memory_plan.input_shape == (3, 20, 20)
        reference = InferenceEngine(plan, optimize=False,
                                    micro_batch=4).run(large)
        np.testing.assert_array_equal(out, reference)

    def test_flatten_output_plan_is_safe(self, rng):
        # A plan ending in a flatten view must not return a view into the
        # arena: its alias root is unmanaged by construction.
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.Flatten())
        net.eval()
        engine = InferenceEngine(compile_module(net), micro_batch=2)
        images = rng.standard_normal((6, 3, 6, 6)).astype(np.float32)
        first = engine.run(images[:2])
        kept = first.copy()
        engine.run(images[2:])
        np.testing.assert_array_equal(first, kept)
        memory_plan = engine.memory_plan
        assert memory_plan.alias_of     # the flatten is planned as an alias

    def test_describe_includes_arena_summary(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone))
        engine.run(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
        description = engine.describe()
        assert "# arena:" in description and "slot 0:" in description
        # Without a memory plan, describe() stays one line per step.
        plan = compile_backbone(model.backbone)
        assert len(plan.describe().splitlines()) == len(plan) + 1


# ---------------------------------------------------------------------------
# Remainder chunks through the arena (slot views are recorded from a full
# micro-batch chunk; every smaller chunk slices the same buffers)
# ---------------------------------------------------------------------------
class TestArenaRemainderChunks:
    def test_remainder_chunks_execute_bitwise_through_the_arena(self,
                                                                int8_case):
        # N % micro_batch != 0: the final chunk's slot views are prefix
        # slices of buffers whose shapes were recorded from a full chunk —
        # they must be exactly the contiguous layout the kernels' out=
        # paths expect, so the int8 bits cannot move.
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        images = np.concatenate([golden["images"], golden["images"]])  # 16
        reference = InferenceEngine(plan, optimize=False,
                                    micro_batch=64).run(images)
        engine = InferenceEngine(plan, micro_batch=5, num_threads=1)
        np.testing.assert_array_equal(engine.run(images), reference)
        assert engine.memory_plan is not None
        # And with threaded chunk execution over the ragged tail.
        threaded = InferenceEngine(plan, micro_batch=5, num_threads=3)
        np.testing.assert_array_equal(threaded.run(images), reference)
        threaded.close()

    def test_first_run_smaller_than_micro_batch(self, int8_case):
        # The memory plan records shapes from whatever the first real chunk
        # is; a first run below the micro-batch must plan per-sample shapes
        # that later full-size chunks slice correctly.
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        engine = InferenceEngine(plan, micro_batch=64, num_threads=1)
        engine.run(golden["images"][:3])          # records at batch 3
        assert engine.memory_plan is not None
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        # The arena grew from the recording batch to the full chunk.
        assert {len(buffer) for buffer in _arena(engine.cache).values()} \
            == {len(golden["images"])}

    def test_oversized_direct_execute_grows_the_arena(self, rng):
        # Executing the plan directly (outside the engine, which clamps
        # chunks to its micro-batch) with a batch beyond the largest one
        # run so far must neither corrupt results nor keep a second buffer
        # per slot: each slot buffer is replaced by one of the larger batch.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4)
        engine.run(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
        memory_plan = engine.memory_plan
        # A second cache (standing in for a pool thread's) materialises its
        # arena at the smaller batch.
        other_cache = BufferCache()
        small = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        engine.plan.execute(small, other_cache, memory_plan=memory_plan)
        big = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
        reference = engine.plan.execute(big, BufferCache())
        for cache in (engine.cache, other_cache):
            np.testing.assert_array_equal(
                engine.plan.execute(big, cache, memory_plan=memory_plan),
                reference)
            arena = _arena(cache)
            assert len(arena) == memory_plan.num_slots
            assert sum(buffer.nbytes for buffer in arena.values()) \
                == memory_plan.peak_bytes(9)


# ---------------------------------------------------------------------------
# Thread-pool chunk execution
# ---------------------------------------------------------------------------
class TestThreadedEngine:
    def test_threaded_chunks_match_serial_bitwise(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((70, 3, 16, 16)).astype(np.float32)
        serial = InferenceEngine(plan, micro_batch=8, num_threads=1)
        threaded = InferenceEngine(plan, micro_batch=8, num_threads=3)
        np.testing.assert_array_equal(serial.run(images), threaded.run(images))
        assert serial.batches_run == threaded.batches_run == 9
        assert threaded.samples_run == 70
        threaded.close()

    def test_per_thread_caches_are_registered(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4, num_threads=2)
        engine.run(rng.standard_normal((32, 3, 16, 16)).astype(np.float32))
        assert engine.cache_bytes > 0
        assert len(engine._caches) >= 1
        engine.close()

    def test_opaque_plans_stay_serial_but_correct(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(lambda module, out: out * 2.0)
        engine = InferenceEngine(compile_module(net), micro_batch=4,
                                 num_threads=4)
        assert not engine._parallel_ok
        images = rng.standard_normal((12, 3, 8, 8)).astype(np.float32)
        reference = InferenceEngine(compile_module(net), optimize=False,
                                    micro_batch=4).run(images)
        np.testing.assert_array_equal(engine.run(images), reference)

    def test_invalid_thread_count_rejected(self):
        model = make_model("mobilenetv2_x4_tiny")
        with pytest.raises(ValueError):
            InferenceEngine(compile_backbone(model.backbone), num_threads=0)

    def test_memory_plan_for_a_rewritten_plan_is_dropped(self, quantized,
                                                         golden):
        # A memory plan recorded against a raw plan maps registers that
        # optimization renames (add -> quantize fusion); accepting it would
        # let the fused add write into a slot whose reservation was computed
        # from the raw plan's liveness.  The engine must drop it and
        # re-record instead of executing through a mismatched arena.
        from repro.runtime import plan_memory
        from repro.runtime.kernels import BufferCache as Cache

        model, _ = quantized
        raw = compile_backbone(model.backbone, mode="int8")
        record = {}
        raw.execute(golden["images"], Cache(), record=record)
        stale = plan_memory(raw, record, golden["images"].shape)
        engine = InferenceEngine(raw, micro_batch=3, memory_plan=stale)
        assert engine.memory_plan is None        # dropped, not trusted
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        assert engine.memory_plan is not stale   # re-recorded on first run


# ---------------------------------------------------------------------------
# Buffer cache: one buffer per tag and per-sample shape, grown to the largest
# batch
# ---------------------------------------------------------------------------
def _arena(cache) -> dict:
    """The arena slot buffers a cache holds, by key."""
    return {key: buffer for key, buffer in cache._buffers.items()
            if key[0].startswith("arena:")}


class TestBufferCache:
    def test_one_buffer_per_tag(self):
        cache = BufferCache()
        for index in range(8):
            cache.get(f"tag{index}", (1024,), np.float32)
        assert len(cache) == 8

    def test_nbytes_tracks_clear(self):
        cache = BufferCache()
        cache.get("a", (1024,), np.float32)
        assert cache.nbytes == 4096
        cache.clear()
        assert cache.nbytes == 0 and len(cache) == 0

    def test_requests_slice_one_buffer_grown_to_the_largest_batch(self):
        cache = BufferCache()
        first = cache.get("col", (4, 3, 5), np.float32)
        smaller = cache.get("col", (2, 3, 5), np.float32)
        assert smaller.shape == (2, 3, 5) and smaller.flags.c_contiguous
        assert smaller.ctypes.data == first.ctypes.data
        assert cache.nbytes == 4 * 3 * 5 * 4
        larger = cache.get("col", (6, 3, 5), np.float32)
        assert larger.base is not first.base       # replaced, not added
        assert len(cache) == 1 and cache.nbytes == 6 * 3 * 5 * 4
        assert cache.get("col", (4, 3, 5), np.float32).base is larger.base
        # Another per-sample shape or dtype is another buffer.
        cache.get("col", (4, 3, 6), np.float32)
        cache.get("col", (4, 3, 5), np.float64)
        assert len(cache) == 3

    def test_growth_drops_the_programs_and_a_new_key_does_not(self):
        cache = BufferCache()
        cache.get("pad", (4, 8), np.float32)
        cache.programs["kept"] = []
        cache.get("pad", (2, 8), np.float32)
        cache.get("col", (9, 8), np.float32)
        assert "kept" in cache.programs
        cache.get("pad", (5, 8), np.float32)
        assert not cache.programs

    def test_buffers_follow_the_largest_request_over_get_clear_sequences(
            self):
        # Model check over random request/clear sequences: each key holds
        # the rows of its largest request since the last clear, every
        # request gets the leading rows of that buffer, only growth or a
        # clear drops the programs, and nbytes sums what is held.
        rng = np.random.default_rng(0)
        cache = BufferCache()
        rows = {}
        for _ in range(2000):
            if rng.integers(0, 20) == 0:
                cache.clear()
                rows.clear()
                assert len(cache) == 0 and cache.nbytes == 0
                assert not cache.programs
                continue
            tag = ("arena:" if rng.integers(0, 3) == 0 else "t") \
                + str(rng.integers(0, 3))
            sample = tuple(int(size) for size in
                           rng.integers(1, 4, int(rng.integers(0, 3))))
            dtype = np.dtype(np.uint8 if rng.integers(0, 2) else np.float32)
            batch = int(rng.integers(1, 9))
            key = (tag, sample, dtype.str)
            grows = key in rows and batch > rows[key]
            cache.programs["bound"] = []
            view = cache.get(tag, (batch,) + sample, dtype)
            rows[key] = max(rows.get(key, 0), batch)
            held = cache._buffers[key]
            assert len(held) == rows[key]
            assert view.shape == (batch,) + sample and view.dtype == dtype
            assert view.flags.c_contiguous and view.base is held
            assert view.ctypes.data == held.ctypes.data
            assert ("bound" in cache.programs) is not grows
            assert len(cache) == len(rows)
            assert cache.nbytes == sum(
                count * int(np.prod(shape, dtype=np.int64))
                * np.dtype(dtype_str).itemsize
                for (_, shape, dtype_str), count in rows.items())

    def test_arena_views_slice_one_buffer_per_slot(self, rng):
        # out_view asks for (batch, slot bytes) rows and views their typed
        # prefix: every register a slot hosts, at every batch, starts at
        # the slot buffer's address, and the buffer grows only to the
        # largest batch.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=8)
        engine.run(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        memory_plan = engine.memory_plan
        hosted = {}
        for register, slot in memory_plan.slot_of.items():
            hosted.setdefault(slot, []).append(register)
        slot, registers = max(hosted.items(), key=lambda item: len(item[1]))
        assert len(registers) >= 2
        key = (f"arena:{slot}", (memory_plan.slot_sizes[slot],),
               np.dtype(np.uint8).str)
        cache = BufferCache()
        largest = 0
        for batch in (3, 5, 2, 5, 1):
            largest = max(largest, batch)
            for register in registers:
                view = memory_plan.out_view(register, batch, cache)
                held = cache._buffers[key]
                assert len(cache) == 1 and len(held) == largest
                assert view.shape == (batch,) + memory_plan.shapes[register]
                assert view.dtype == np.dtype(memory_plan.dtypes[register])
                assert view.flags.c_contiguous and view.flags.writeable
                assert view.ctypes.data == held.ctypes.data
                assert view.nbytes <= held[:batch].nbytes
        assert memory_plan.out_view("not-a-register", 3, cache) is None

    def test_varying_chunk_sizes_reuse_one_buffer_per_slot(self, rng):
        # Dynamic batchers produce many distinct batch sizes; the arena must
        # not retain one buffer per (slot, size) pair.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=32)
        for batch in (32, 1, 7, 13, 32, 5, 19):
            engine.run(rng.standard_normal((batch, 3, 16, 16))
                       .astype(np.float32))
        arena = _arena(engine.cache)
        assert len(arena) == engine.memory_plan.num_slots
        assert sum(buffer.nbytes for buffer in arena.values()) == \
            engine.memory_plan.peak_bytes(engine.micro_batch)

    def test_restored_plan_arena_grows_to_the_largest_chunk(self, rng):
        # A shipped memory plan recorded at a smaller micro-batch holds
        # per-sample sizes only: the accepting engine's arena grows to its
        # largest chunk, one buffer per slot.
        model = make_model("mobilenetv2_x4_tiny")
        small = InferenceEngine(compile_backbone(model.backbone),
                                micro_batch=8)
        small.run(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        big = InferenceEngine(small.plan, micro_batch=32,
                              memory_plan=small.memory_plan)
        assert big.memory_plan is small.memory_plan
        for batch in (16, 32, 24, 32):
            big.run(rng.standard_normal((batch, 3, 16, 16))
                    .astype(np.float32))
        arena = _arena(big.cache)
        assert len(arena) == big.memory_plan.num_slots
        assert sum(buffer.nbytes for buffer in arena.values()) == \
            big.memory_plan.peak_bytes(32)

    def test_counters_track_completed_chunks_only(self, rng):
        calls = []

        def failing_hook(module, out):
            calls.append(out)
            if len(calls) >= 2:
                raise RuntimeError("hook blew up")
            return out

        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(failing_hook)
        engine = InferenceEngine(compile_module(net), micro_batch=4)
        images = rng.standard_normal((12, 3, 8, 8)).astype(np.float32)
        with pytest.raises(RuntimeError, match="hook blew up"):
            engine.run(images)
        assert engine.batches_run == 1      # only the completed first chunk
        assert engine.samples_run == 0      # the run never finished

    def test_replan_retires_the_stale_arena(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4)
        engine.run(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        stale = set(_arena(engine.cache))
        assert stale
        engine.run(rng.standard_normal((8, 3, 20, 20)).astype(np.float32))
        current = set(_arena(engine.cache))
        assert current and not (stale & current)
        assert len(current) == engine.memory_plan.num_slots


# ---------------------------------------------------------------------------
# Bound programs: kept per cache, replayed, and dropped with their buffers
# ---------------------------------------------------------------------------
def _poison(cache):
    """Fill every cached buffer with NaN (float) or code 113 (integer)."""
    for buffer in cache._buffers.values():
        buffer[...] = np.nan if buffer.dtype.kind == "f" else 113


def _buffer_refs(engine):
    """Weak references to every buffer the engine's caches hold now."""
    return [weakref.ref(buffer) for cache in engine._caches
            for buffer in cache._buffers.values()]


def _assert_released_buffers_are_free(engine, refs):
    # A kept program holds views of the buffers it was bound to; once a
    # cache releases a buffer, no program may pin it any more.
    gc.collect()
    held = {id(buffer) for cache in engine._caches
            for buffer in cache._buffers.values()}
    pinned = [ref() for ref in refs
              if ref() is not None and id(ref()) not in held]
    assert not pinned, f"{len(pinned)} released buffers are still pinned"


def _assert_replay_matches_fresh(engine, images):
    """Poison every cached buffer, run, compare with a fresh-cache run."""
    for cache in engine._caches:
        _poison(cache)
    np.testing.assert_array_equal(
        engine.run(images), engine.plan.execute(images, BufferCache()))


def _kept_programs(engine) -> int:
    return sum(len(cache.programs) for cache in engine._caches)


def _chunked_reference(engine, images):
    """The engine's micro-batch chunks, each run through a fresh cache."""
    return np.concatenate([
        engine.plan.execute(images[start:start + engine.micro_batch],
                            BufferCache())
        for start in range(0, len(images), engine.micro_batch)])


@pytest.fixture(scope="module", params=["float32", "int8"])
def program_plan(request):
    """The tiny MobileNetV2 backbone plan in both modes."""
    if request.param == "int8":
        model, _ = build_quantized_model(BACKBONE)
    else:
        model = make_model(BACKBONE)
    return compile_backbone(model.backbone, mode=request.param)


class TestBoundPrograms:
    def test_replays_ignore_stale_buffer_contents(self, program_plan, rng):
        engine = InferenceEngine(program_plan, micro_batch=8, num_threads=1)
        for batch in (8, 5, 8, 1, 5, 8):
            images = rng.standard_normal((batch, 3, 16, 16)) \
                .astype(np.float32)
            _assert_replay_matches_fresh(engine, images)
        # One program per batch size, each replayed after the first call.
        assert _kept_programs(engine) == 3

    def test_clear_cache_drops_the_programs(self, program_plan, rng):
        engine = InferenceEngine(program_plan, micro_batch=8, num_threads=1)
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        for _ in range(2):
            _assert_replay_matches_fresh(engine, images)
        refs = _buffer_refs(engine)
        engine.clear_cache()
        assert _kept_programs(engine) == 0
        _assert_replay_matches_fresh(engine, images)
        _assert_released_buffers_are_free(engine, refs)
        _assert_replay_matches_fresh(engine, images)

    def test_growth_drops_the_programs(self, program_plan, rng):
        # A batch larger than any before replaces every buffer it outgrows;
        # the programs bound to the smaller buffers must go with them.
        engine = InferenceEngine(program_plan, micro_batch=8, num_threads=1)
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        for _ in range(3):
            _assert_replay_matches_fresh(engine, images[:4])
        assert _kept_programs(engine) == 1
        refs = _buffer_refs(engine)
        _assert_replay_matches_fresh(engine, images)
        assert _kept_programs(engine) == 1       # only the new batch size
        _assert_released_buffers_are_free(engine, refs)
        for _ in range(2):
            _assert_replay_matches_fresh(engine, images[:4])
            _assert_replay_matches_fresh(engine, images)
        assert _kept_programs(engine) == 2

    def test_replan_drops_the_programs(self, program_plan, rng):
        engine = InferenceEngine(program_plan, micro_batch=4, num_threads=1)
        small = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        large = rng.standard_normal((4, 3, 20, 20)).astype(np.float32)
        for _ in range(2):
            _assert_replay_matches_fresh(engine, small)
        refs = _buffer_refs(engine)
        for _ in range(2):
            _assert_replay_matches_fresh(engine, large)
        _assert_released_buffers_are_free(engine, refs)
        _assert_replay_matches_fresh(engine, small)

    def test_programs_are_bounded_by_the_micro_batch(self, program_plan, rng):
        # Programs are the only per-batch-size state a context keeps: one
        # per chunk size, so never more than the micro-batch.
        engine = InferenceEngine(program_plan, micro_batch=4, num_threads=1)
        batches = [int(batch) for batch in rng.permutation(np.arange(1, 11))]
        for _ in range(2):
            for batch in batches:
                images = BOUND_IMAGES[:batch]
                _poison(engine.cache)
                np.testing.assert_array_equal(
                    engine.run(images), _chunked_reference(engine, images))
                assert len(engine.cache.programs) <= engine.micro_batch
        assert sorted(key[1] for key in engine.cache.programs) == [1, 2, 3, 4]

    def test_switching_the_library_off_rebinds_to_numpy(
            self, program_plan, rng, c_kernels, numpy_kernels):
        engine = InferenceEngine(program_plan, micro_batch=8, num_threads=1)
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        for _ in range(2):
            _assert_replay_matches_fresh(engine, images)
        numpy_kernels()
        for _ in range(2):
            _assert_replay_matches_fresh(engine, images)
        # The C program stays keyed under the library handle, unreplayed.
        assert sorted(key[-1] is None for key in engine.cache.programs) \
            == [False, True]


# ---------------------------------------------------------------------------
# Scratch memory is bounded by construction: it follows the largest batch a
# context has run, never the mix of batch sizes
# ---------------------------------------------------------------------------
#: Every batch size from 1 to the micro-batch once, in a fixed shuffled order.
ALL_BATCHES = [int(batch) for batch in
               np.random.default_rng(0).permutation(np.arange(1, 65))]

#: Input pool the bounded-memory property slices its batches from.
BOUND_IMAGES = np.random.default_rng(7).standard_normal(
    (128, 3, 16, 16)).astype(np.float32)

@pytest.fixture(scope="module")
def fresh_cache_bytes(program_plan):
    """``batch -> cache_bytes`` of a fresh engine that ran ``batch`` twice."""
    @functools.lru_cache(maxsize=None)
    def measure(batch: int) -> int:
        engine = InferenceEngine(program_plan, micro_batch=64, num_threads=1)
        for _ in range(2):            # record the memory plan, then bind
            engine.run(BOUND_IMAGES[:batch])
        return engine.cache_bytes
    return measure


class TestBoundedScratch:
    @settings(max_examples=4, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=st.lists(st.integers(1, 64), min_size=1, max_size=6))
    @example(batches=ALL_BATCHES)
    def test_cache_bytes_follow_the_largest_batch(self, program_plan,
                                                  fresh_cache_bytes,
                                                  batches):
        engine = InferenceEngine(program_plan, micro_batch=64, num_threads=1)
        largest = 0
        for index, batch in enumerate(batches):
            start = index % 64
            _assert_replay_matches_fresh(
                engine, BOUND_IMAGES[start:start + batch])
            largest = max(largest, batch)
            assert engine.cache_bytes <= fresh_cache_bytes(largest)
        if sorted(batches) == list(range(1, 65)):
            assert engine.cache_bytes == fresh_cache_bytes(64)

    def test_every_buffer_holds_the_largest_chunk(self, program_plan):
        # Every request leads with the chunk's batch, but for the per-plane
        # depthwise scratch, which keeps one row: so a buffer grows only at
        # its first request in a binding (see BufferCache).
        engine = InferenceEngine(program_plan, micro_batch=64, num_threads=1)
        for batch in (5, 17, 3, 17, 9):
            engine.run(BOUND_IMAGES[:batch])
        assert len(engine.cache) > engine.memory_plan.num_slots
        for (tag, _, _), buffer in engine.cache._buffers.items():
            assert len(buffer) == (1 if tag == "dwpad" else 17), tag

    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_engine_memory_is_bounded_by_micro_batch_and_threads(
            self, num_threads):
        # Each context holds at most one set of buffers at the micro-batch,
        # whatever mix of batch sizes the engine ran, and there is one
        # context per pool thread plus the caller's.
        plan = compile_backbone(make_model("mobilenetv2_x4_tiny").backbone)
        one_set = InferenceEngine(plan, micro_batch=16, num_threads=1)
        for _ in range(2):            # record the memory plan, then bind
            one_set.run(BOUND_IMAGES[:16])
        bound = one_set.cache_bytes
        engine = InferenceEngine(plan, micro_batch=16,
                                 num_threads=num_threads)
        for batch in (48, 3, 16, 5, 33, 1, 64, 7):
            images = BOUND_IMAGES[:batch]
            for cache in engine._caches:
                _poison(cache)
            np.testing.assert_array_equal(
                engine.run(images), _chunked_reference(engine, images))
            assert len(engine._caches) <= 1 + num_threads
            assert all(cache.nbytes <= bound for cache in engine._caches)
            assert engine.cache_bytes <= bound * len(engine._caches)
        engine.close()

    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_arena_buffers_stay_resident(self, num_threads):
        # Once a context has bound a chunk, chunks no larger than its
        # largest slice the same arena buffers, and every context that has
        # bound a chunk holds the whole arena at one row count.
        engine = InferenceEngine(
            compile_backbone(make_model("mobilenetv2_x4_tiny").backbone),
            micro_batch=8, num_threads=num_threads)
        engine.run(BOUND_IMAGES[:32])
        resident = [(cache, _arena(cache)) for cache in engine._caches]
        assert any(arena for _, arena in resident)
        for batch in (32, 3, 8, 17):
            images = BOUND_IMAGES[:batch]
            np.testing.assert_array_equal(
                engine.run(images), _chunked_reference(engine, images))
        for cache, before in resident:
            after = _arena(cache)
            assert all(after[key] is buffer for key, buffer in before.items())
        for cache in engine._caches:
            arena = _arena(cache)
            assert len(arena) in (0, engine.memory_plan.num_slots)
            rows = {len(buffer) for buffer in arena.values()}
            assert len(rows) <= 1
            if arena:
                assert sum(buffer.nbytes for buffer in arena.values()) == \
                    engine.memory_plan.peak_bytes(rows.pop())
        engine.close()

    def test_cache_bytes_gauge_sums_every_context(self):
        registry = MetricsRegistry()
        engine = InferenceEngine(
            compile_backbone(make_model("mobilenetv2_x4_tiny").backbone),
            micro_batch=8, num_threads=2, registry=registry)
        for batch in (32, 5, 17):
            engine.run(BOUND_IMAGES[:batch])
        held = sum(buffer.nbytes for cache in engine._caches
                   for buffer in cache._buffers.values())
        assert held > 0 and engine.cache_bytes == held
        assert registry.scrape()["engine.cache_bytes"]["value"] == held
        engine.clear_cache()
        assert registry.scrape()["engine.cache_bytes"]["value"] == 0
        engine.close()


# ---------------------------------------------------------------------------
# Fused kernels replicate the unfused arithmetic exactly
# ---------------------------------------------------------------------------
class TestFusedKernels:
    def test_fused_add_matches_unfused_chain(self, rng):
        x_codes = rng.integers(-127, 128, (4, 6, 5, 5)).astype(np.int8)
        y = rng.standard_normal((4, 6, 5, 5)).astype(np.float32)
        s_x, s_out = 0.07, 0.11
        expected = kernels.quantize_int8(
            kernels.apply_activation(
                kernels.dequantize_int8(x_codes, s_x) + y, "relu"),
            s_out)
        cache = BufferCache()
        actual = kernels.fused_add(x_codes, y, in_scale_x=s_x, act="relu",
                                   out_scale=s_out, cache=cache)
        np.testing.assert_array_equal(actual, expected)

    def test_fused_add_float_path_matches_plain_add(self, rng):
        x = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)
        y = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(kernels.fused_add(x, y), x + y)

    def test_requantize_codes_matches_chain(self, rng):
        codes = rng.integers(-127, 128, (4, 8, 3, 3)).astype(np.int8)
        s_in, s_out = 0.05, 0.125
        expected = kernels.quantize_int8(
            kernels.dequantize_int8(codes, s_in), s_out)
        actual = kernels.requantize_codes(codes, s_in, s_out,
                                          cache=BufferCache())
        np.testing.assert_array_equal(actual, expected)

    def test_depthwise_fast_path_is_exact_for_integers(self, rng):
        channels = 5
        q = rng.integers(-127, 128, (3, channels, 9, 9)).astype(np.int8)
        weight_q = rng.integers(-127, 128,
                                (channels, 1, 3, 3)).astype(np.int8)
        fast = kernels.depthwise_conv(q, weight_q.astype(np.float32),
                                      stride=1, padding=1)
        cols = kernels.im2col_cached(q, 3, 3, 1, 1).astype(np.int64)
        exact = np.einsum("nckl,ck->ncl", cols,
                          weight_q.reshape(channels, 9).astype(np.int64))
        np.testing.assert_array_equal(
            fast.reshape(3, channels, -1).astype(np.int64), exact)

    def test_pad_cached_rezeroes_only_the_stale_halo(self, rng):
        # Two layers with the same padded shape but different (h, padding)
        # splits share one cache buffer; each call must see a zero halo.
        cache = BufferCache()
        small = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        large = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        for x, padding in ((large, 1), (small, 2), (large, 1), (small, 2)):
            cached = kernels.pad_cached(x, padding, cache)
            np.testing.assert_array_equal(cached,
                                          kernels.pad_cached(x, padding, None))
        assert len([key for key in cache._buffers if key[0] == "pad"]) == 1

    def test_pad_cached_mixed_padding_reuse_survives_poisoning(self, rng):
        # Adversarial variant of the halo test: between calls the entire
        # shared buffer is filled with garbage (NaN / sentinel codes), so a
        # single element anywhere in the delta region between the old and
        # new halo that pad_cached fails to rewrite surfaces immediately —
        # for float and int8 layers, square and rectangular maps.
        for dtype, poison in ((np.float32, np.nan), (np.int8, 113)):
            cache = BufferCache()
            for h, w, padding in ((8, 6, 1), (6, 4, 2), (8, 6, 1),
                                  (4, 2, 3), (6, 4, 2)):
                x = (rng.standard_normal((2, 3, h, w)) * 40).astype(dtype)
                padded_shape = (2, 3, h + 2 * padding, w + 2 * padding)
                cache.get("pad", padded_shape, dtype)[...] = poison
                cached = kernels.pad_cached(x, padding, cache)
                np.testing.assert_array_equal(
                    cached, kernels.pad_cached(x, padding, None))
            assert len([key for key in cache._buffers
                        if key[0] == "pad"]) == 1

    def test_int_global_avg_pool_is_exact_integer_accumulation(self, rng):
        q = rng.integers(-127, 128, (4, 6, 7, 5)).astype(np.int8)
        scale = 0.03125
        expected = (q.astype(np.int64).sum(axis=(2, 3))
                    * (scale / 35.0)).astype(np.float32)
        np.testing.assert_array_equal(
            kernels.int_global_avg_pool(q, scale), expected)
        out = np.empty((4, 6), dtype=np.float32)
        kernels.int_global_avg_pool(q, scale, out=out)
        np.testing.assert_array_equal(out, expected)
        # Chunking the batch cannot perturb a bit (per-sample arithmetic).
        np.testing.assert_array_equal(
            np.concatenate([kernels.int_global_avg_pool(q[:1], scale),
                            kernels.int_global_avg_pool(q[1:], scale)]),
            expected)


# ---------------------------------------------------------------------------
# Snapshots carry optimized plans + arena specs
# ---------------------------------------------------------------------------
class TestSnapshotCarriesArena:
    def test_snapshot_preserves_optimization_and_memory_plan(self, rng):
        import pickle

        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((20, 3, 16, 16)).astype(np.float32)
        for class_id in range(2):
            model.learn_class(images[class_id * 5:(class_id + 1) * 5],
                              class_id)
        predictor = model.runtime_predictor()
        predictor.predict(images)              # materialise the memory plan
        snapshot = pickle.loads(pickle.dumps(snapshot_model(model)))
        assert snapshot.backbone.optimized
        restored_memory_plan = snapshot.backbone.restore_memory_plan()
        assert restored_memory_plan is not None
        assert restored_memory_plan.num_slots == \
            predictor.backbone_engine.memory_plan.num_slots
        engine = InferenceEngine(snapshot.backbone.restore(),
                                 memory_plan=restored_memory_plan,
                                 micro_batch=snapshot.micro_batch)
        np.testing.assert_array_equal(
            engine.run(images), predictor.extract_backbone_features(images))

    def test_predictor_runtime_stats_surface(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        predictor = model.runtime_predictor()
        predictor.embed(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        stats = predictor.runtime_stats()
        assert stats["cache_bytes"] > 0
        assert stats["arena_slots"] >= 2
        assert stats["arena_peak_bytes"] > 0
        assert stats["arena_peak_bytes"] < stats["arena_unplanned_bytes"]
        assert stats["samples_served"] >= 8


# ---------------------------------------------------------------------------
# Predictor engine staleness and snapshot round trip
# ---------------------------------------------------------------------------
def predictor_model(mode: str):
    if mode == "int8":
        model, _ = build_quantized_model(BACKBONE)
        return model
    return OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                seed=0)


class TestPredictorEngines:
    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_unchanged_model_reuses_the_engines(self, mode):
        predictor = BatchedPredictor(predictor_model(mode), mode=mode)
        backbone, fcr = predictor.backbone_engine, predictor.fcr_engine
        for _ in range(3):
            assert predictor.backbone_engine is backbone
            assert predictor.fcr_engine is fcr

    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_bit_identical_rebind_rebuilds_the_engine(self, mode):
        model = predictor_model(mode)
        predictor = BatchedPredictor(model, mode=mode)
        backbone, fcr = predictor.backbone_engine, predictor.fcr_engine
        parameter = list(model.backbone.parameters())[0]
        # Rebind to a bit-identical copy: the contents cannot change any
        # output, but the identity-based staleness signature must notice.
        parameter.data = parameter.data.copy()
        assert predictor.backbone_engine is not backbone
        assert predictor.fcr_engine is fcr
        # The int8 FCR plan freezes quantized weights, so a rebind rebuilds
        # it; the float FCR reads the live module and keeps its engine.
        linear = model.fcr.linear
        linear.weight.data = linear.weight.data.copy()
        assert (predictor.fcr_engine is not fcr) == (mode == "int8")

    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_buffer_rebind_rebuilds_the_engine(self, mode):
        # BN running stats are folded into the plan; update_buffer rebinds
        # one, which the walk must see through ``_buffers``.
        model = predictor_model(mode)
        predictor = BatchedPredictor(model, mode=mode)
        backbone = predictor.backbone_engine
        bn = next(module for module in model.backbone.modules()
                  if "running_var" in module._buffers)
        bn.update_buffer("running_var", bn.running_var.copy())
        assert predictor.backbone_engine is not backbone

    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_submodule_replacement_rebuilds_the_engine(self, mode):
        model = predictor_model(mode)
        predictor = BatchedPredictor(model, mode=mode)
        backbone = predictor.backbone_engine
        parent = next(module for module in model.backbone.modules()
                      if isinstance(module, ConvBNReLU))
        parent.conv = copy.deepcopy(parent.conv)    # same shapes and bits
        assert predictor.backbone_engine is not backbone

    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_hook_removal_rebuilds_the_engine(self, mode):
        model = predictor_model(mode)
        predictor = BatchedPredictor(model, mode=mode)
        hooked = next(module for module in model.backbone.modules()
                      if isinstance(module, ConvBNReLU))
        if not hooked._forward_hooks:
            hooked.register_forward_hook(lambda module, out: out)
        backbone = predictor.backbone_engine
        hooked.clear_forward_hooks()
        assert predictor.backbone_engine is not backbone

    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_staleness_walk_sees_every_traversal_item(self, mode):
        # One walk collects what parameters(), named_buffers() and modules()
        # reach: every weight and buffer array, every module, every hook,
        # and (int8) every quantizer threshold in module order.
        from repro.quant.activation_quant import ActivationQuantizer

        model = predictor_model(mode)
        predictor = BatchedPredictor(model, mode=mode)
        backbone = model.backbone
        objects, (hooks, quantizers) = predictor._staleness(
            backbone, arrays=True, buffers=True)
        expected = [parameter.data for parameter in backbone.parameters()]
        expected += [buffer for _, buffer in backbone.named_buffers()]
        expected += list(backbone.modules())
        assert sorted(map(id, objects)) == sorted(map(id, expected))
        assert len(objects) == len(expected)
        assert hooks == sum(len(module._forward_hooks)
                            for module in backbone.modules())
        expected_quantizers = []
        if mode == "int8":
            expected_quantizers = [
                (hook.mode, hook.quantizer.threshold)
                for module in backbone.modules()
                for hook in module._forward_hooks
                if isinstance(hook, ActivationQuantizer)]
            expected_quantizers.append(
                ("input", backbone.input_quantizer.threshold))
            assert hooks > 0
        assert list(quantizers) == expected_quantizers

    def test_quantizer_recalibration_rebuilds_the_int8_engine(self):
        # The int8 lowering bakes quantizer thresholds into the plan: a new
        # threshold with the same weights and hooks must read as stale.
        model = predictor_model("int8")
        predictor = BatchedPredictor(model, mode="int8")
        backbone = predictor.backbone_engine
        quantizer = model.backbone.input_quantizer
        quantizer.threshold = quantizer.threshold * 2
        assert predictor.backbone_engine is not backbone

    def test_snapshot_round_trip_restores_bit_for_bit(self, int8_case):
        model, golden = int8_case
        predictor = model.runtime_predictor()
        reference = predictor.extract_backbone_features(golden["images"])
        snapshot = snapshot_model(model)
        assert snapshot.backbone.optimized
        assert snapshot.backbone.pass_stats            # stats ride along
        restored = snapshot.backbone.restore()
        assert restored.pass_stats == snapshot.backbone.pass_stats
        engine = InferenceEngine(
            restored, memory_plan=snapshot.backbone.restore_memory_plan(),
            micro_batch=snapshot.micro_batch)
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      reference)


# ---------------------------------------------------------------------------
# plan_stats command line
# ---------------------------------------------------------------------------
class TestPlanStats:
    def test_plan_stats_step_gate(self, capsys):
        assert plan_stats_main(["mobilenetv2_x4_tiny", "float32",
                                "--assert-max-steps", "1"]) == 1
        assert plan_stats_main(["mobilenetv2_x4_tiny", "float32",
                                "--assert-max-steps", "500"]) == 0
        assert plan_stats_main(["--assert-max-steps"]) == 2

    def test_mistyped_arguments_exit_2(self, capsys):
        # A typo in a CI gate must fail the step, not switch the gate off.
        for argv in (["mobilenetv2_x4_tiny", "int8", "--assert-max-step",
                      "1"],
                     ["mobilenetv2_x4_tiny", "fp16"],
                     ["mobilenetv2_x4_tiny", "int8", "--dot"]):
            assert plan_stats_main(argv) == 2
        assert "unrecognized arguments: --assert-max-step" in \
            capsys.readouterr().err
