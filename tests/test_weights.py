import copy
import pickle
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from brute import (
    brute_composite_census,
    brute_increasing_tree_census,
    brute_inverse_census,
    isomorphic,
    shape_text,
)
from derivgraph import enumeration, skeletons
from derivgraph.enumeration import (
    DerivativeGraph,
    Regime,
    WeightedGraph,
    enumerate_composite,
    enumerate_graphs,
    enumerate_inverse,
    enumerate_ode,
    weigh,
)
from derivgraph.formulas import render_derivative
from derivgraph.oracle import Mismatch, TermValue, verify
from derivgraph.skeletons import parse_skeleton
from derivgraph.trees import Colour, Tree, format_trees, make_palette
from test_enumeration import SKELETONS

CHAIN = parse_skeleton("f(g(x))")


def coloured_leaf_graph(black: int, white: int) -> DerivativeGraph:
    """Root over black and white entrance leaves, composite regime."""
    pal = make_palette("b", "w", "F")
    tree = Tree(pal["F"], (Tree(pal["b"]),) * black + (Tree(pal["w"]),) * white)
    return DerivativeGraph(tree, Regime.COMPOSITE)


class TestComposite:
    def test_simple_mapping_weighs_one(self):
        for n in range(1, 7):
            pal = make_palette("x", "f")
            tree = Tree(pal["f"], (Tree(pal["x"]),) * n)
            wg = weigh(DerivativeGraph(tree, Regime.COMPOSITE))
            assert wg.weight == 1 and wg.sign == 1

    def test_binomial_graph(self):
        wg = weigh(coloured_leaf_graph(2, 3))
        assert wg.graph.tree.symmetry == 12
        assert wg.weight == 10 == comb(5, 2)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_binomial_coefficients_all_k(self, n):
        for k in range(n + 1):
            if n == 0:
                continue
            assert weigh(coloured_leaf_graph(k, n - k)).weight == comb(n, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_are_positive_integers(self, n):
        for g in enumerate_composite(CHAIN, n):
            wg = weigh(g)
            assert wg.sign == 1
            assert wg.weight.denominator == 1 and wg.weight >= 1

    # A graph is totally symmetric when all its concrete members coincide
    # (weight 1), and totally asymmetric when only the identity fixes it (n!).
    def test_totally_symmetric_star(self):
        pal = make_palette("x", "f")
        g = DerivativeGraph(Tree(pal["f"], (Tree(pal["x"]),) * 4), Regime.COMPOSITE)
        assert weigh(g).weight == 1 != factorial(g.order)

    def test_totally_asymmetric_distinct_colour_chain(self):
        pal = make_palette("x", "g", "f")
        chain = Tree(pal["f"], (Tree(pal["g"], (Tree(pal["x"]),)),))
        g = DerivativeGraph(chain, Regime.COMPOSITE)
        # n = 1: weight 1 = 1! so the chain is both extremes at once
        assert weigh(g).weight == 1 == factorial(g.order)

    def test_binomial_graph_is_neither_extreme(self):
        g = coloured_leaf_graph(2, 3)
        assert weigh(g).weight not in (1, factorial(g.order))


class TestInverse:
    def test_order_two(self):
        (wg,) = [weigh(g) for g in enumerate_inverse(2)]
        assert (wg.sign, wg.weight) == (-1, 1)

    def test_order_three_signed_weights(self):
        signed = [(wg.sign, wg.weight) for wg in map(weigh, enumerate_inverse(3))]
        assert signed == [(1, 3), (-1, 1)]

    def test_sign_tracks_internal_vertex_parity(self):
        def internal(t: Tree) -> int:
            return 0 if t.is_leaf else 1 + sum(internal(c) for c in t.children)

        for n in range(2, 8):
            for g in enumerate_inverse(n):
                assert weigh(g).sign == (-1) ** internal(g.tree)


class TestRegimeSpelling:
    @pytest.mark.parametrize(
        "regime,skeleton,orders",
        [
            (Regime.ODE, None, range(1, 6)),
            (Regime.INVERSE, None, range(1, 6)),
            (Regime.COMPOSITE, CHAIN, range(1, 4)),
        ],
        ids=["ode", "inverse", "composite"],
    )
    def test_value_string_is_its_member(self, regime, skeleton, orders):
        # *{*{},*{*{}}} at ode 4 weighs 3, not the n!/S = 2 of its entrances.
        for g in (g for n in orders for g in enumerate_graphs(regime, n, skeleton)):
            spelt = g._replace(regime=g.regime.value)
            assert weigh(spelt)[1:] == weigh(g)[1:]
            assert spelt.order == g.order

    def test_other_value_raises(self):
        (g,) = enumerate_ode(1)
        for value in ["bogus", []]:  # an unhashable value too
            bogus = g._replace(regime=value)
            for call in [weigh, lambda graph: graph.order]:
                with pytest.raises(ValueError, match=re.escape(f"{value!r} is not a valid Regime")):
                    call(bogus)


class TestOde:
    def test_order_four_weights(self):
        weights = [weigh(g).weight for g in enumerate_ode(4)]
        assert weights == [1, 1, 3, 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_count_increasing_labellings(self, n):
        census = brute_increasing_tree_census(n)
        assert sum(count for _, count in census) == factorial(n - 1)
        for g in enumerate_ode(n):
            wg = weigh(g)
            matches = [count for rep, count in census if isomorphic(g.tree, rep)]
            assert matches == [wg.weight]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_sum_to_factorial(self, n):
        total = sum((weigh(g).weight for g in enumerate_ode(n)), Fraction(0))
        assert total == factorial(n - 1)

    def test_single_vertex(self):
        (wg,) = [weigh(g) for g in enumerate_ode(1)]
        assert (wg.sign, wg.weight, wg.graph.tree.symmetry, wg.graph.tree.complexity) == (
            1,
            Fraction(1),
            1,
            1,
        )


def census(regime: Regime, n: int, skeleton=None):
    """The brute-force labelled census of ``regime``'s order-n shapes."""
    if regime is Regime.INVERSE:
        return brute_inverse_census(n)
    return brute_composite_census(skeleton, n)


def disagreements(counts, regime: Regime, n: int, skeleton=None) -> list[str]:
    """The order-n shapes whose labelled census count is not their weight,
    by ``weigh`` or in the coefficient rows every command reads."""
    graphs = enumerate_graphs(regime, n, skeleton)
    weighed = {shape_text(g.tree): enumeration.weigh(g).weight for g in graphs}
    family, runs, coefficients = enumeration._request(regime, n, skeleton)
    root = family.palette[family.root]
    rows = {shape_text(Tree(root, run)): row[3] for run, row in zip(runs, coefficients)}
    assert len(weighed) == len(rows) == len(graphs)  # isomorphic shapes have equal texts
    shapes = counts.keys() | weighed.keys() | rows.keys()
    return sorted(s for s in shapes if not counts.get(s) == weighed.get(s) == rows.get(s))


# OEIS A000311: Schröder's fourth problem, the labelled hierarchies on n items, n = 1..7.
A000311 = [1, 1, 4, 26, 236, 2752, 39208]
# Bell numbers, the terms of Faà di Bruno's formula, n = 1..7.
BELL = [1, 2, 5, 15, 52, 203, 877]
# Every skeleton the tests read, each to order 4, and two chains further.
CENSUS_ORDERS = {
    **dict.fromkeys(SKELETONS, 4),
    **dict.fromkeys(["f(x)", "f(g(h(x)))", "F(f(x),g(h(x),x))", "F(f(x),f(y),g_1(x))"], 4),
    **dict.fromkeys(["F(x,y)", "f(x,x,y)"], 4),
    "f(g(x))": 7,
    "f(g(h(k(x))))": 6,
}


class TestLabelledCensus:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_inverse_weights_count_total_partitions(self, n):
        counts = census(Regime.INVERSE, n)
        assert sum(counts.values()) == A000311[n - 1]
        assert disagreements(counts, Regime.INVERSE, n) == []

    @pytest.mark.parametrize("text", CENSUS_ORDERS)
    def test_composite_weights_count_chain_rule_terms(self, text):
        skeleton = parse_skeleton(text)
        for n in range(1, CENSUS_ORDERS[text] + 1):
            counts = census(Regime.COMPOSITE, n, skeleton)
            assert disagreements(counts, Regime.COMPOSITE, n, skeleton) == [], n
            if text == "f(g(x))":
                assert sum(counts.values()) == BELL[n - 1]

    # Two graphs in one oracle monomial, whose swapped weights the oracle passes.
    @pytest.mark.parametrize(
        "regime,text,n,swapped",
        [
            (
                Regime.INVERSE,
                None,
                6,
                (
                    "*{*{},*{*{},*{*{},*{*{},*{*{},*{}}}}}}",
                    "*{*{},*{*{},*{*{*{},*{}},*{*{},*{}}}}}",
                ),
            ),
            (
                Regime.COMPOSITE,
                "f(g(h(k(x))))",
                6,
                (
                    "f{g{h{k{x{}}},h{k{x{}},k{x{},x{},x{},x{}}}}}",
                    "f{g{h{k{x{},x{},x{},x{}}},h{k{x{}},k{x{}}}}}",
                ),
            ),
        ],
        ids=["inverse-6", "f(g(h(k(x))))-6"],
    )
    def test_a_weight_swap_fails_the_census(self, monkeypatch, regime, text, n, swapped):
        skeleton = text and parse_skeleton(text)
        graphs = enumerate_graphs(regime, n, skeleton)
        a, b = [g for g in graphs if format_trees([g.tree])[0] in swapped]
        weights = {a.tree: weigh(b).weight, b.tree: weigh(a).weight}
        assert len(set(weights.values())) == 2

        def swapping(graph):
            wg = weigh(graph)
            return wg._replace(weight=weights[graph.tree]) if graph.tree in weights else wg

        counts = census(regime, n, skeleton)
        assert disagreements(counts, regime, n, skeleton) == []
        monkeypatch.setattr(enumeration, "weigh", swapping)
        assert disagreements(counts, regime, n, skeleton) == sorted(map(shape_text, weights))


def test_weights_are_ints(monkeypatch):
    # A weight counts labellings: an int in every regime and every record that carries it.
    skeleton = parse_skeleton("F(f(x),g(h(x),x))")
    for graphs in (enumerate_ode(8), enumerate_inverse(8), enumerate_composite(skeleton, 5)):
        assert {type(weigh(g).weight) for g in graphs} == {int}
    for regime, sk in [(Regime.ODE, None), (Regime.INVERSE, None), (Regime.COMPOSITE, skeleton)]:
        terms = render_derivative(regime, 5, skeleton=sk).terms
        assert {type(term.weight) for term in terms} == {int}
    rule = enumeration._COEFFICIENTS[Regime.INVERSE]
    monkeypatch.setitem(
        enumeration._COEFFICIENTS, Regime.INVERSE, lambda *a: rule(*a)[:3] + (rule(*a)[3] + 1,)
    )
    report = verify(Regime.INVERSE, 5, trials=1)
    assert report.mismatches
    assert {type(tv.weight) for tv in report.mismatches[0].terms} == {int}


def test_weigh_rebuilds_no_family():
    # The composite family cache holds one skeleton's family: a weight rule
    # that reached family_of would rebuild a family at each change of skeleton.
    one = enumerate_composite(CHAIN, 4)
    two = enumerate_composite(parse_skeleton("F(f(x),g(x))"), 4)
    misses = skeletons._composite_family.cache_info().misses
    weighed = [weigh((one, two)[i % 2][i // 2 % len(one)]) for i in range(100)]
    assert skeletons._composite_family.cache_info().misses == misses
    assert {wg.graph.skeleton for wg in weighed} == {CHAIN, two[0].skeleton}


def _records():
    """(built, made) pairs: each public record as the library builds it and
    as its public constructor builds it from the same fields."""
    skeleton = parse_skeleton("F(f(x),g(x))")
    built = [enumerate_ode(4)[2], enumerate_inverse(4)[1], enumerate_composite(skeleton, 3)[3]]
    pairs = {}
    for g in built:
        made = DerivativeGraph(g.tree, g.regime, g.skeleton)
        wg = weigh(g)
        pairs[f"graph-{g.regime.value}"] = (g, made)
        pairs[f"weighted-{g.regime.value}"] = (wg, WeightedGraph(made, wg.sign, wg.weight))
    formula = render_derivative(Regime.INVERSE, 4)
    term = TermValue("*{*{},*{}}", -1, 3, Fraction(-2, 3))
    mismatch = Mismatch(2, Fraction(1), Fraction(5, 3), (term,))
    others = {
        "colour": make_palette("x", "f")["f"],
        "formula-term": formula.terms[1],
        "formula": formula,
        "term-value": term,
        "mismatch": mismatch,
        "report": verify(Regime.INVERSE, 4, trials=2),
    }
    pairs.update((name, (r, type(r)(*r))) for name, r in others.items())
    return pairs


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_one_contract(name):
    built, made = RECORDS[name]
    cls = type(built)
    assert type(made) is cls and not hasattr(built, "__dict__")
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    fields = ", ".join(f"{f}={getattr(built, f)!r}" for f in cls._fields)
    assert repr(built) == f"{cls.__name__}({fields})"
    for r in (built, made):
        assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r
        assert r._replace() == r
        for f in cls._fields:
            # No field holds either value; a colour's name must be one the notation reads.
            changed = "unheld" if (cls, f) == (Colour, "name") else 2**70
            assert getattr(r._replace(**{f: changed}), f) is changed
            assert r._replace(**{f: changed}) != r
            with pytest.raises(AttributeError):
                setattr(r, f, getattr(r, f))
