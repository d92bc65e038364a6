"""Legality-checked graph rewrite rules for plan optimization.

Every optimization the runtime performs is expressed as a
:class:`~repro.runtime.ir.RewriteRule` over the SSA graph of
:mod:`repro.runtime.ir`.  The contract shared by all of them: **a rewrite
never moves an output bit**.  Fusions replay the arithmetic of the fused
steps through the fused kernels (see :mod:`repro.runtime.kernels`, whose
fused paths are written as literal sequences of the standalone kernels), and
the algebraic rules are restricted to transformations that are provably
exact in IEEE arithmetic — which is why e.g. conv+BN *re*-folding or
requantize-chain collapsing at different scales are deliberately absent.
The committed int8 golden fixtures pin the contract per rule on every CI
run.

The rules fall into three groups:

* the legality-checked re-expression of the classic flat-plan passes (dead
  node elimination + the four quantize-chain fusions);
* passes the flat form could not express without re-deriving def-use chains
  per sweep: common-subexpression elimination across residual branches,
  and identity/constant folding of statically-determined chains;
* the int8 residual superfusion ``qconv_dequant -> add [-> requantize]``
  into a single ``qconv_add`` step.

:func:`run_pipeline` runs the standard ordering and returns per-rule
application counts (the ``pass_stats`` threaded through ``plan_stats`` and
the metrics registry).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .ir import Graph, Node, RewriteRule, Value


def _single_use_feeder(value: Value, graph: Graph,
                       op: str) -> Optional[Node]:
    """The producer of ``value`` if it is an ``op`` node whose output has
    exactly this one use (and is not the graph output) — the shared
    precondition of every absorbing fusion."""
    producer = value.producer
    if producer is None or producer.op != op:
        return None
    if graph.use_count(value) != 1:
        return None
    return producer


# ---------------------------------------------------------------------------
# Classic passes, re-expressed
# ---------------------------------------------------------------------------
class DeadNodeElimination(RewriteRule):
    """Erase pure nodes whose output nothing reads.

    Precondition: the node is not ``opaque`` (opaque steps call live modules
    whose forward hooks may observe or mutate state) and its output has zero
    uses.  Visiting in reverse program order lets whole dead chains die in a
    single sweep.
    """

    name = "dead_node_elimination"

    def matches(self, graph: Graph) -> List[Node]:
        return list(reversed(graph.nodes))

    def precondition(self, node: Node, graph: Graph) -> bool:
        return node.op != "opaque" and graph.use_count(node.output) == 0

    def rewrite(self, node: Node, graph: Graph) -> bool:
        graph.erase_node(node)
        return True


class DequantizeIntoAdd(RewriteRule):
    """``dequantize -> add``: dequantize the int8 operand inside the add.

    Precondition (per operand position): the operand is produced by a
    ``dequantize`` whose output has exactly this one use.  The fused kernel
    (:func:`~repro.runtime.kernels.fused_add` with ``in_scale_*``) replays
    :func:`~repro.runtime.kernels.dequantize_int8` verbatim — bit-exact.
    """

    name = "dequantize_into_add"

    def precondition(self, node: Node, graph: Graph) -> bool:
        return node.op == "add" and any(
            _single_use_feeder(value, graph, "dequantize") is not None
            for value in node.inputs)

    def rewrite(self, node: Node, graph: Graph) -> bool:
        changed = False
        for position, value in enumerate(list(node.inputs)):
            feeder = _single_use_feeder(value, graph, "dequantize")
            if feeder is None:
                continue
            node.attrs = dict(node.attrs)
            node.attrs[f"in_scale_{position}"] = feeder.attrs["scale"]
            graph.replace_input(node, position, feeder.inputs[0])
            graph.erase_node(feeder)
            changed = True
        return changed


class AddQuantizeFusion(RewriteRule):
    """``add -> quantize``: the add requantizes its activated sum to int8.

    Precondition: the quantize's input is an ``add`` with a single use and
    no ``out_scale`` yet.  The add takes over the quantize's output value,
    so the fused register keeps the quantize's name (memory plans and
    snapshots recorded downstream stay valid).
    """

    name = "add_quantize_fusion"

    def precondition(self, node: Node, graph: Graph) -> bool:
        if node.op != "quantize":
            return False
        feeder = _single_use_feeder(node.inputs[0], graph, "add")
        return feeder is not None and "out_scale" not in feeder.attrs

    def rewrite(self, node: Node, graph: Graph) -> bool:
        value = node.inputs[0]                 # the add's soon-dead output
        feeder = value.producer
        out_scale = node.attrs["scale"]
        feeder.attrs = dict(feeder.attrs)
        feeder.attrs["out_scale"] = out_scale
        output = node.output
        value.consumers.remove(node)
        node.inputs = []
        graph.nodes.remove(node)
        graph.take_over_output(feeder, output)
        output.dtype, output.scale = "int8", float(out_scale)
        return True


class DequantizeQuantizeToRequantize(RewriteRule):
    """``dequantize -> quantize`` collapses to one ``qrequantize`` node.

    Precondition: the quantize's input is a single-use ``dequantize``.  The
    :func:`~repro.runtime.kernels.requantize_codes` kernel replays the
    dequantize and quantize steps through a scratch buffer — bit-exact.
    """

    name = "dequantize_quantize_to_requantize"

    def precondition(self, node: Node, graph: Graph) -> bool:
        return node.op == "quantize" and \
            _single_use_feeder(node.inputs[0], graph, "dequantize") is not None

    def rewrite(self, node: Node, graph: Graph) -> bool:
        feeder = node.inputs[0].producer
        fused = Node(op="qrequantize", name=node.name,
                     inputs=[feeder.inputs[0]], output=node.output,
                     attrs={"in_scale": feeder.attrs["scale"],
                            "scale": node.attrs["scale"]})
        node.output.producer = fused
        feeder.inputs[0].consumers.append(fused)
        graph.nodes[graph.nodes.index(node)] = fused
        node.inputs[0].consumers.remove(node)
        node.inputs = []
        graph.erase_node(feeder)
        return True


class SameScaleRequantizeCollapse(RewriteRule):
    """``requantize -> quantize`` at the same scale drops the requantize.

    Precondition: scales are exactly equal and the requantize is single-use.
    Exactness: ``round(round(x/s)*s/s) == round(x/s)`` for every int8 code
    magnitude (the inner rounding lands on exact grid multiples whose
    division by ``s`` round-trips in double precision for ``|code| <= 127``).
    """

    name = "same_scale_requantize_collapse"

    def precondition(self, node: Node, graph: Graph) -> bool:
        if node.op != "quantize":
            return False
        feeder = _single_use_feeder(node.inputs[0], graph, "requantize")
        return feeder is not None and \
            feeder.attrs["scale"] == node.attrs["scale"]

    def rewrite(self, node: Node, graph: Graph) -> bool:
        feeder = node.inputs[0].producer
        graph.replace_input(node, 0, feeder.inputs[0])
        graph.erase_node(feeder)
        return True


# ---------------------------------------------------------------------------
# Folding of statically-determined chains (bit-exact subset)
# ---------------------------------------------------------------------------
class IdentityActElimination(RewriteRule):
    """An ``act`` node with ``act=None`` is a pure copy — forward its input.

    Precondition: the node's output is not the graph output (the output
    register name must survive).  Consumers read the identical bytes from
    the act's input value instead.
    """

    name = "identity_act_elimination"

    def precondition(self, node: Node, graph: Graph) -> bool:
        return node.op == "act" and node.attrs.get("act") is None \
            and node.output is not graph.output

    def rewrite(self, node: Node, graph: Graph) -> bool:
        graph.redirect_uses(node.output, node.inputs[0])
        graph.erase_node(node)
        return True


class QuantizeDequantizeIdentity(RewriteRule):
    """``quantize(dequantize(q, s), s)`` forwards the original codes ``q``.

    Exactness needs the typed IR: the rewrite is only legal when ``q`` is
    *known* to carry codes in ``[-127, 127]`` — i.e. its inferred dtype is
    int8, which the type inference only assigns to ops that clamp to the
    symmetric grid.  For those codes ``rint(q*s/s) == q`` exactly (the
    float64 division error is far below 0.5) and the clamp is a no-op, so
    the round-trip is the identity on the bytes.  Raw graph inputs are
    untyped and never match — an int8 input *could* hold -128, which the
    quantize clamp would move to -127.
    """

    name = "quantize_dequantize_identity"

    def precondition(self, node: Node, graph: Graph) -> bool:
        if node.op != "quantize" or node.output is graph.output:
            return False
        feeder = node.inputs[0].producer
        return feeder is not None and feeder.op == "dequantize" \
            and feeder.attrs["scale"] == node.attrs["scale"] \
            and feeder.inputs[0].dtype == "int8"

    def rewrite(self, node: Node, graph: Graph) -> bool:
        codes = node.inputs[0].producer.inputs[0]
        graph.redirect_uses(node.output, codes)
        graph.erase_node(node)        # the dequantize dies via DSE if unused
        return True


class ActIntoProducerFolding(RewriteRule):
    """Fold a standalone ``act`` into the producer's empty ``act`` slot.

    Precondition: the act's input is single-use and produced by a
    ``conv`` / ``linear`` / ``bn`` / ``add`` whose ``act`` attr is None —
    and, for ``add``, no ``out_scale`` (the fused add applies the activation
    *before* requantizing, so an act following an int8-producing add is a
    different computation).  The kernels apply the activation in place on
    the op's result buffer, which is the identical arithmetic to the
    standalone act step — bit-exact.  The producer takes over the act's
    output value, preserving the register name.
    """

    name = "act_into_producer_folding"

    _PRODUCERS = ("conv", "linear", "bn", "add")

    def precondition(self, node: Node, graph: Graph) -> bool:
        if node.op != "act" or node.attrs.get("act") is None:
            return False
        value = node.inputs[0]
        feeder = value.producer
        if feeder is None or feeder.op not in self._PRODUCERS:
            return False
        if graph.use_count(value) != 1:
            return False
        if feeder.attrs.get("act") is not None:
            return False
        if feeder.op == "add" and feeder.attrs.get("out_scale") is not None:
            return False
        return True

    def rewrite(self, node: Node, graph: Graph) -> bool:
        feeder = node.inputs[0].producer
        feeder.attrs = dict(feeder.attrs)
        feeder.attrs["act"] = node.attrs["act"]
        output = node.output
        node.inputs[0].consumers.remove(node)
        node.inputs = []
        graph.nodes.remove(node)
        graph.take_over_output(feeder, output)
        return True


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------
class CommonSubexpressionElimination(RewriteRule):
    """Merge pure nodes computing the identical value.

    Two nodes are congruent when they run the same op over the *same* input
    values with equal attrs and element-equal static arrays, carry no live
    module reference, and are not ``opaque`` — every kernel in the plan
    vocabulary is deterministic, so congruent nodes produce identical bytes
    and the later one can forward the earlier one's value.  The classic win
    is residual branches dequantizing the same register at the same scale on
    both sides of a fork.

    Precondition (on the duplicate): its output is not the graph output
    (the output register name must survive).
    """

    name = "common_subexpression_elimination"

    def run(self, graph: Graph) -> int:
        applied = 0
        seen: Dict[tuple, List[Node]] = {}
        for node in list(graph.nodes):
            key = self._key(node)
            if key is None:
                continue
            bucket = seen.setdefault(key, [])
            original = next((cand for cand in bucket
                             if self._arrays_equal(cand, node)), None)
            if original is None or node.output is graph.output:
                bucket.append(node)
                continue
            graph.redirect_uses(node.output, original.output)
            graph.erase_node(node)
            applied += 1
        if applied:
            graph.validate()
        return applied

    # CSE is a whole-graph value-numbering sweep rather than a per-node
    # match/rewrite pair; precondition/rewrite delegate to run().
    def precondition(self, node: Node, graph: Graph) -> bool:  # pragma: no cover
        raise NotImplementedError("CSE matches globally; use run()")

    def rewrite(self, node: Node, graph: Graph) -> bool:  # pragma: no cover
        raise NotImplementedError("CSE matches globally; use run()")

    @staticmethod
    def _key(node: Node) -> Optional[tuple]:
        if node.op == "opaque" or node.module is not None:
            return None
        try:
            attrs = tuple(sorted(node.attrs.items()))
        except TypeError:                      # unhashable attr value
            return None
        arrays = tuple(sorted((key, array.dtype.str, array.shape)
                              for key, array in node.arrays.items()))
        return (node.op, tuple(value.name for value in node.inputs),
                attrs, arrays)

    @staticmethod
    def _arrays_equal(a: Node, b: Node) -> bool:
        for key, array in a.arrays.items():
            other = b.arrays[key]
            if array is not other and not np.array_equal(array, other):
                return False
        return True


# ---------------------------------------------------------------------------
# Residual superfusion
# ---------------------------------------------------------------------------
class QConvAddSuperfusion(RewriteRule):
    """``qconv_dequant -> add [-> requantize]`` becomes one ``qconv_add``.

    The int8 residual pattern: a projection convolution dequantizes its
    int32 accumulator to float and feeds a residual add (whose quantize
    neighbours were already folded in as ``in_scale_*`` / ``out_scale``).
    The fused ``qconv_add`` step runs the identical
    :func:`~repro.runtime.kernels.fused_qconv_dequant` followed by the
    identical :func:`~repro.runtime.kernels.fused_add` — bit-exact by
    construction — and drops the full-size float intermediate register.

    Precondition: one add operand is produced by a single-use
    ``qconv_dequant`` and arrives as float (its position carries no
    ``in_scale`` — verified against the typed value, which must be
    float32).  Only the first matching position fuses (a block whose both
    operands are projections keeps the second as a plain input).
    """

    name = "qconv_add_superfusion"

    def precondition(self, node: Node, graph: Graph) -> bool:
        return node.op == "add" and self._fusable_position(node, graph) is not None

    @staticmethod
    def _fusable_position(node: Node, graph: Graph) -> Optional[int]:
        for position, value in enumerate(node.inputs):
            if node.attrs.get(f"in_scale_{position}") is not None:
                continue
            if value.dtype != "float32":
                continue
            feeder = _single_use_feeder(value, graph, "qconv_dequant")
            if feeder is not None and feeder.module is None:
                return position
        return None

    def rewrite(self, node: Node, graph: Graph) -> bool:
        position = self._fusable_position(node, graph)
        if position is None:                   # pragma: no cover - guarded
            return False
        feeder = node.inputs[position].producer
        other = node.inputs[1 - position]
        attrs = {key: feeder.attrs.get(key)
                 for key in ("stride", "padding", "groups", "act",
                             "acc_bound")}
        attrs.update({
            "conv_name": feeder.name,
            "position": position,
            "add_act": node.attrs.get("act"),
            "other_scale": node.attrs.get(f"in_scale_{1 - position}"),
            "out_scale": node.attrs.get("out_scale"),
        })
        fused = Node(op="qconv_add", name=node.name,
                     inputs=[feeder.inputs[0], other],
                     output=node.output, arrays=feeder.arrays, attrs=attrs)
        node.output.producer = fused
        feeder.inputs[0].consumers.append(fused)
        other.consumers.append(fused)
        graph.nodes[graph.nodes.index(node)] = fused
        for value in node.inputs:
            value.consumers.remove(node)
        node.inputs = []
        graph.erase_node(feeder)
        return True


# ---------------------------------------------------------------------------
# Standard pipeline
# ---------------------------------------------------------------------------
#: The quantize-chain fusion group.
FUSION_RULES = (DequantizeIntoAdd, AddQuantizeFusion,
                DequantizeQuantizeToRequantize, SameScaleRequantizeCollapse)

#: Bit-exact folding of statically-determined chains.
FOLD_RULES = (IdentityActElimination, QuantizeDequantizeIdentity,
              ActIntoProducerFolding)

#: Full optimization pipeline, in order.  Folding runs before fusion so
#: same-scale round-trips vanish instead of becoming qrequantize nodes; CSE
#: runs before superfusion so a deduplicated projection conv correctly
#: blocks fusing (it is no longer single-use); a final DSE sweeps up
#: producers orphaned by the folds.
PIPELINE = ((DeadNodeElimination,)
            + FOLD_RULES + FUSION_RULES
            + (CommonSubexpressionElimination, QConvAddSuperfusion,
               DeadNodeElimination))


def run_pipeline(graph: Graph,
                 rules: Tuple[type, ...] = PIPELINE) -> Dict[str, int]:
    """Run ``rules`` over ``graph`` in order; per-rule application counts.

    Rules appearing multiple times (the DSE bookends) accumulate into one
    counter.  Every rule run re-validates the def-use invariants when it
    changed the graph.
    """
    stats: Dict[str, int] = {}
    for rule_cls in rules:
        rule = rule_cls()
        stats[rule.name] = stats.get(rule.name, 0) + rule.run(graph)
    return stats
