"""SSA graph IR conformance: round-trips, invariants, rewrites, staleness.

The optimizer's graph substrate (:mod:`repro.runtime.ir` +
:mod:`repro.runtime.rewrites`) carries the whole bit-exactness contract of
the runtime, so this file pins its load-bearing properties directly:

* ``Graph.from_plan(...).to_plan()`` is lossless — same ops, same register
  names, same attrs, the same array objects — on real backbones and on
  randomly generated DAGs (property test);
* the def-use invariants actually reject malformed plans and illegal
  mutations (``GraphInvariantError``, not silent corruption);
* each rewrite rule's legality precondition holds where it matters (the
  typed quantize∘dequantize identity never fires on untyped registers);
* the pipeline is idempotent and its pass order cannot move an output bit
  (CSE before vs after the fusion group);
* a predictor keeps its engines while the model is unchanged, rebuilds them
  on a weight rebind or a quantizer recalibration, and snapshots of its
  optimized plans restore bit-for-bit.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OFSCIL, OFSCILConfig
from repro.runtime import (
    BatchedPredictor,
    BufferCache,
    Graph,
    GraphInvariantError,
    InferenceEngine,
    compile_backbone,
    optimize_plan,
    run_rules,
)
from repro.runtime.ir import Value
from repro.runtime.plan import InferencePlan, Step
from repro.runtime.rewrites import (
    FOLD_RULES,
    FUSION_RULES,
    CommonSubexpressionElimination,
    DeadNodeElimination,
    QConvAddSuperfusion,
    run_pipeline,
)
from repro.serve import snapshot_model

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import (  # noqa: E402
    BACKBONE,
    RESNET_BACKBONE,
    build_quantized_model,
    load_golden,
)


@pytest.fixture(scope="module", params=(BACKBONE, RESNET_BACKBONE))
def int8_case(request):
    golden = load_golden(request.param)
    model, _ = build_quantized_model(request.param)
    return model, golden


def structure(plan: InferencePlan):
    """Comparable structural fingerprint of a plan (arrays by identity)."""
    return [(step.op, step.name, tuple(step.inputs), step.output,
             sorted(step.attrs.items(), key=lambda kv: kv[0]),
             tuple(sorted((key, id(array))
                          for key, array in step.arrays.items())))
            for step in plan.steps]


# ---------------------------------------------------------------------------
# Construction, lowering, invariants
# ---------------------------------------------------------------------------
class TestGraphRoundTrip:
    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_backbone_plan_round_trips_losslessly(self, mode):
        if mode == "int8":
            model, _ = build_quantized_model(BACKBONE)
        else:
            model = OFSCIL.from_registry(
                BACKBONE, OFSCILConfig(backbone=BACKBONE), seed=0)
        plan = compile_backbone(model.backbone, mode=mode)
        lowered = Graph.from_plan(plan).to_plan()
        assert structure(lowered) == structure(plan)
        assert lowered.input_register == plan.input_register
        assert lowered.output_register == plan.output_register
        assert lowered.optimized == plan.optimized

    def test_round_trip_executes_bit_identically(self, int8_case):
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        lowered = Graph.from_plan(plan).to_plan()
        out = InferenceEngine(lowered, optimize=False).run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])

    def test_type_inference_on_the_int8_plan(self, int8_case):
        model, _ = int8_case
        graph = Graph.from_plan(compile_backbone(model.backbone, mode="int8"))
        graph.validate()
        dtypes = {node.output.name: node.output.dtype
                  for node in graph.nodes}
        ops = {node.output.name: node.op for node in graph.nodes}
        assert graph.input.dtype == "float32"
        for name, op in ops.items():
            if op == "quantize":
                assert dtypes[name] == "int8"
                producer = next(node for node in graph.nodes
                                if node.output.name == name)
                assert producer.output.scale == producer.attrs["scale"]
            elif op in ("dequantize", "requantize", "qconv_dequant"):
                assert dtypes[name] == "float32"
            elif op == "qconv":
                assert dtypes[name] == "int8"
                assert next(node for node in graph.nodes
                            if node.output.name == name).output.scale is None

    def test_read_before_definition_is_rejected(self):
        plan = InferencePlan(
            steps=[Step(op="act", name="a", inputs=("%ghost",), output="%y",
                        attrs={"act": None})],
            output_register="%y")
        with pytest.raises(GraphInvariantError, match="before any step"):
            Graph.from_plan(plan)

    def test_register_redefinition_is_rejected(self):
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None}),
                 Step(op="act", name="b", inputs=("x",), output="%y",
                      attrs={"act": None})]
        plan = InferencePlan(steps=steps, output_register="%y")
        with pytest.raises(GraphInvariantError, match="SSA"):
            Graph.from_plan(plan)

    def test_undefined_output_register_is_rejected(self):
        plan = InferencePlan(
            steps=[Step(op="act", name="a", inputs=("x",), output="%y",
                        attrs={"act": None})],
            output_register="%ghost")
        with pytest.raises(GraphInvariantError, match="never"):
            Graph.from_plan(plan)

    def test_use_count_counts_duplicate_edges(self):
        # add reading the same register at both positions = two edges.
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None}),
                 Step(op="add", name="s", inputs=("%y", "%y"), output="%z",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%z"))
        value = graph.nodes[0].output
        assert graph.use_count(value) == 2
        assert graph.use_count(graph.output) == 1    # the output itself

    def test_erase_node_refuses_live_outputs(self):
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None}),
                 Step(op="act", name="b", inputs=("%y",), output="%z",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%z"))
        with pytest.raises(GraphInvariantError, match="use"):
            graph.erase_node(graph.nodes[0])

    def test_redirect_uses_refuses_the_graph_output(self):
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%y"))
        with pytest.raises(GraphInvariantError, match="output"):
            graph.redirect_uses(graph.output, graph.input)

    def test_validate_catches_manual_edge_corruption(self):
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None}),
                 Step(op="act", name="b", inputs=("%y",), output="%z",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%z"))
        graph.validate()
        graph.nodes[0].output.consumers.clear()     # corrupt an edge list
        with pytest.raises(GraphInvariantError, match="consumer"):
            graph.validate()

    def test_validate_catches_dangling_consumer(self):
        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%y"))
        stray = Value(name="%stray")
        graph.input.consumers.append(
            type(graph.nodes[0])(op="act", name="ghost", inputs=[],
                                 output=stray))
        with pytest.raises(GraphInvariantError):
            graph.validate()


# ---------------------------------------------------------------------------
# Property test: random valid DAGs
# ---------------------------------------------------------------------------
def random_dag_plan(rng, channels=3, depth_range=(3, 10)):
    """A random valid SSA plan over conv/act/add ops on (C, H, W) maps."""
    registers = ["x"]
    steps = []
    depth = int(rng.integers(*depth_range))
    for index in range(depth):
        out = f"%v{index}"
        kind = rng.choice(["conv", "act", "add"])
        if kind == "conv":
            weight = rng.standard_normal(
                (channels, channels, 1, 1)).astype(np.float32)
            steps.append(Step(
                op="conv", name=f"conv{index}",
                inputs=(str(rng.choice(registers)),), output=out,
                arrays={"weight": weight,
                        "bias": rng.standard_normal(channels)
                        .astype(np.float32)},
                attrs={"stride": 1, "padding": 0, "groups": 1,
                       "act": None}))
        elif kind == "act":
            steps.append(Step(
                op="act", name=f"act{index}",
                inputs=(str(rng.choice(registers)),), output=out,
                attrs={"act": "relu" if rng.integers(0, 2) else None}))
        else:
            first, second = rng.choice(registers, size=2)
            steps.append(Step(op="add", name=f"add{index}",
                              inputs=(str(first), str(second)), output=out,
                              attrs={"act": None}))
        registers.append(out)
    return InferencePlan(steps=steps, output_register=registers[-1],
                         name="random-dag")


class TestRandomDagProperty:
    def test_round_trip_is_structurally_identical_and_bit_exact(self, rng):
        for trial in range(25):
            plan = random_dag_plan(rng)
            graph = Graph.from_plan(plan)
            graph.validate()
            lowered = graph.to_plan()
            assert structure(lowered) == structure(plan)
            # And a second promotion of the lowered plan matches the first
            # graph edge for edge.
            again = Graph.from_plan(lowered)
            assert [(n.op, n.name, [v.name for v in n.inputs],
                     n.output.name) for n in again.nodes] == \
                   [(n.op, n.name, [v.name for v in n.inputs],
                     n.output.name) for n in graph.nodes]
            images = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
            np.testing.assert_array_equal(
                plan.execute(images, BufferCache()),
                lowered.execute(images, BufferCache()))

    def test_optimized_random_dags_stay_bit_exact(self, rng):
        for trial in range(10):
            plan = random_dag_plan(rng)
            optimized = optimize_plan(plan)
            images = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
            np.testing.assert_array_equal(
                plan.execute(images, BufferCache()),
                optimized.execute(images, BufferCache()))


# ---------------------------------------------------------------------------
# Rewrite rule legality
# ---------------------------------------------------------------------------
class TestRewriteLegality:
    def test_quantize_dequantize_identity_needs_typed_codes(self, rng):
        # Typed case: codes produced by a quantize ARE known to be clamped
        # to [-127, 127]; the round-trip folds and the bits cannot move.
        scale = 0.0625
        steps = [Step(op="quantize", name="q1", inputs=("x",), output="%q",
                      attrs={"scale": scale}),
                 Step(op="dequantize", name="dq", inputs=("%q",),
                      output="%f", attrs={"scale": scale}),
                 Step(op="quantize", name="q2", inputs=("%f",), output="%q2",
                      attrs={"scale": scale}),
                 Step(op="dequantize", name="out", inputs=("%q2",),
                      output="%out", attrs={"scale": scale})]
        plan = InferencePlan(steps=steps, output_register="%out")
        folded = run_rules(plan, FOLD_RULES)
        assert folded is not plan
        ops = [step.op for step in folded.steps]
        assert ops.count("quantize") == 1
        x = (rng.standard_normal((4, 3, 5, 5)) * 3).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x, BufferCache()),
                                      folded.execute(x, BufferCache()))

    def test_untyped_input_codes_never_fold(self):
        # The raw plan input is NOT typed int8 — it could carry -128, which
        # the quantize clamp would move to -127 — so the identity must not
        # fire even though the scales match.
        scale = 0.0625
        steps = [Step(op="dequantize", name="dq", inputs=("x",), output="%f",
                      attrs={"scale": scale}),
                 Step(op="quantize", name="q", inputs=("%f",), output="%q",
                      attrs={"scale": scale}),
                 Step(op="dequantize", name="out", inputs=("%q",),
                      output="%out", attrs={"scale": scale})]
        plan = InferencePlan(steps=steps, output_register="%out")
        assert run_rules(plan, FOLD_RULES) is plan

    def test_act_folds_into_producer_and_keeps_the_register(self, rng):
        weight = rng.standard_normal((3, 3, 1, 1)).astype(np.float32)
        steps = [Step(op="conv", name="conv", inputs=("x",), output="%c",
                      arrays={"weight": weight,
                              "bias": np.zeros(3, dtype=np.float32)},
                      attrs={"stride": 1, "padding": 0, "groups": 1,
                             "act": None}),
                 Step(op="act", name="relu", inputs=("%c",), output="%r",
                      attrs={"act": "relu"}),
                 Step(op="global_pool", name="pool", inputs=("%r",),
                      output="%p")]
        plan = InferencePlan(steps=steps, output_register="%p")
        folded = run_rules(plan, FOLD_RULES)
        assert [step.op for step in folded.steps] == ["conv", "global_pool"]
        conv = folded.steps[0]
        assert conv.attrs["act"] == "relu"
        assert conv.output == "%r"          # the act's register survives
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x, BufferCache()),
                                      folded.execute(x, BufferCache()))

    def test_cse_merges_equal_dequantizes_across_a_fork(self, rng):
        steps = [Step(op="quantize", name="q", inputs=("x",), output="%q",
                      attrs={"scale": 0.125}),
                 Step(op="dequantize", name="left", inputs=("%q",),
                      output="%l", attrs={"scale": 0.125}),
                 Step(op="dequantize", name="right", inputs=("%q",),
                      output="%r", attrs={"scale": 0.125}),
                 Step(op="add", name="join", inputs=("%l", "%r"),
                      output="%s", attrs={"act": None})]
        plan = InferencePlan(steps=steps, output_register="%s")
        merged = run_rules(plan, (CommonSubexpressionElimination,))
        assert [step.op for step in merged.steps].count("dequantize") == 1
        assert merged.steps[-1].inputs == ("%l", "%l")
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x, BufferCache()),
                                      merged.execute(x, BufferCache()))

    def test_cse_respects_attr_and_array_differences(self, rng):
        steps = [Step(op="quantize", name="q", inputs=("x",), output="%q",
                      attrs={"scale": 0.125}),
                 Step(op="dequantize", name="left", inputs=("%q",),
                      output="%l", attrs={"scale": 0.125}),
                 Step(op="dequantize", name="right", inputs=("%q",),
                      output="%r", attrs={"scale": 0.25}),
                 Step(op="add", name="join", inputs=("%l", "%r"),
                      output="%s", attrs={"act": None})]
        plan = InferencePlan(steps=steps, output_register="%s")
        assert run_rules(plan, (CommonSubexpressionElimination,)) is plan

    def test_superfusion_requires_a_single_use_conv(self, int8_case):
        # Every qconv_add in the optimized plan consumed a conv whose float
        # output had exactly one use; a conv feeding two branches must stay.
        model, golden = int8_case
        raw = compile_backbone(model.backbone, mode="int8")
        graph = Graph.from_plan(raw)
        run_pipeline(graph)
        for node in graph.nodes:
            assert node.op != "qconv_dequant" or \
                graph.use_count(node.output) >= 1
        out = InferenceEngine(graph.to_plan(), optimize=False) \
            .run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])

    def test_illegal_rewrites_fail_loudly(self):
        # A rule that lies about legality must be caught by validate().
        class BrokenRule(DeadNodeElimination):
            name = "broken"

            def precondition(self, node, graph):
                return True                  # erase live nodes!

            def rewrite(self, node, graph):
                graph.nodes.remove(node)     # no edge cleanup
                return True

        steps = [Step(op="act", name="a", inputs=("x",), output="%y",
                      attrs={"act": None}),
                 Step(op="act", name="b", inputs=("%y",), output="%z",
                      attrs={"act": None})]
        graph = Graph.from_plan(InferencePlan(steps=steps,
                                              output_register="%z"))
        with pytest.raises(GraphInvariantError):
            BrokenRule().run(graph)


# ---------------------------------------------------------------------------
# Pipeline properties: idempotence and pass-order commutation
# ---------------------------------------------------------------------------
class TestPipelineProperties:
    def test_reoptimization_is_structurally_identical(self, int8_case):
        model, _ = int8_case
        once = optimize_plan(compile_backbone(model.backbone, mode="int8"))
        # Clear the short-circuit flag: the passes themselves must be
        # idempotent, not only guarded by `plan.optimized`.
        twice = optimize_plan(dataclasses.replace(once, optimized=False))
        assert structure(twice) == structure(once)

    def test_cse_order_cannot_move_bits(self, int8_case):
        # CSE before the fusion group vs after it: application counts may
        # differ (that is why the pipeline fixes an order), but bits cannot.
        model, golden = int8_case
        raw = compile_backbone(model.backbone, mode="int8")
        orders = (
            (DeadNodeElimination, CommonSubexpressionElimination)
            + FOLD_RULES + FUSION_RULES
            + (QConvAddSuperfusion, DeadNodeElimination),
            (DeadNodeElimination,) + FOLD_RULES + FUSION_RULES
            + (CommonSubexpressionElimination, QConvAddSuperfusion,
               DeadNodeElimination),
        )
        for rules in orders:
            graph = Graph.from_plan(raw)
            run_pipeline(graph, rules=rules)
            out = InferenceEngine(graph.to_plan(), optimize=False) \
                .run(golden["images"])
            np.testing.assert_array_equal(out, golden["theta_a"])

    def test_fold_fusion_order_cannot_move_bits(self, int8_case):
        model, golden = int8_case
        raw = compile_backbone(model.backbone, mode="int8")
        reordered = ((DeadNodeElimination,) + FUSION_RULES + FOLD_RULES
                     + (CommonSubexpressionElimination, QConvAddSuperfusion,
                        DeadNodeElimination))
        graph = Graph.from_plan(raw)
        run_pipeline(graph, rules=reordered)
        out = InferenceEngine(graph.to_plan(), optimize=False) \
            .run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])


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
# Graphviz dump
# ---------------------------------------------------------------------------
class TestDot:
    def test_dot_labels_nodes_and_edges(self, int8_case):
        model, _ = int8_case
        plan = optimize_plan(compile_backbone(model.backbone, mode="int8"))
        dot = Graph.from_plan(plan).to_dot()
        assert dot.startswith("digraph")
        assert "qconv_add" in dot
        # Node labels carry op + step name; edge labels register + dtype.
        assert any(f'label="{step.op}\\n{step.name}"' in dot
                   for step in plan.steps)
        assert "int8@" in dot                  # a scaled int8 edge
        assert f'{plan.input_register} float32' in dot
        assert 'out [label="output", shape=ellipse];' in dot

    def test_dot_shapes_come_from_the_recorded_memory_plan(self, int8_case):
        model, golden = int8_case
        engine = InferenceEngine(compile_backbone(model.backbone,
                                                  mode="int8"))
        engine.run(golden["images"])
        shapes = dict(engine.memory_plan.shapes)
        dot = Graph.from_plan(engine.plan, shapes=shapes).to_dot()
        assert any("x".join(str(d) for d in shape) in dot
                   for shape in shapes.values())

    def test_plan_stats_dot_flag(self, capsys):
        from repro.runtime.plan_stats import main

        assert main(["mobilenetv2_x4_tiny", "float32", "--dot"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("digraph")
        assert "conv" in printed

    def test_plan_stats_step_gate(self, capsys):
        from repro.runtime.plan_stats import main

        assert main(["mobilenetv2_x4_tiny", "float32",
                     "--assert-max-steps", "1"]) == 1
        assert main(["mobilenetv2_x4_tiny", "float32",
                     "--assert-max-steps", "500"]) == 0
        assert main(["--assert-max-steps"]) == 2
