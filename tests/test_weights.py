import copy
import pickle
from fractions import Fraction
from math import comb, factorial

import pytest

from brute import brute_increasing_tree_census, isomorphic
from derivgraph.enumeration import (
    DerivativeGraph,
    Regime,
    enumerate_composite,
    enumerate_inverse,
    enumerate_ode,
)
from derivgraph.formulas import render_derivative
from derivgraph.skeletons import parse_skeleton
from derivgraph.trees import Tree, make_palette
from derivgraph.verify import Mismatch, TermValue, verify
from derivgraph.weights import WeightedGraph, totally_asymmetric, totally_symmetric, weigh

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

    def test_totally_symmetric_star(self):
        pal = make_palette("x", "f")
        g = DerivativeGraph(Tree(pal["f"], (Tree(pal["x"]),) * 4), Regime.COMPOSITE)
        assert totally_symmetric(g) and not totally_asymmetric(g)

    def test_totally_asymmetric_distinct_colour_chain(self):
        pal = make_palette("x", "g", "f")
        chain = Tree(pal["f"], (Tree(pal["g"], (Tree(pal["x"]),)),))
        g = DerivativeGraph(chain, Regime.COMPOSITE)
        # n = 1: weight 1 = 1! so the chain is both extremes at once
        assert totally_symmetric(g) and totally_asymmetric(g)

    def test_binomial_graph_is_neither_extreme(self):
        g = coloured_leaf_graph(2, 3)
        assert not totally_symmetric(g) and not totally_asymmetric(g)


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

    def test_equal_weights_share_one_fraction(self):
        # ode order 12 has 4766 trees but 308 distinct weights.
        by_value = {}
        for wg in map(weigh, enumerate_ode(8)):
            assert by_value.setdefault(wg.weight, wg.weight) is wg.weight
        assert len(by_value) < len(enumerate_ode(8))

    def test_single_vertex(self):
        (wg,) = [weigh(g) for g in enumerate_ode(1)]
        assert (wg.sign, wg.weight, wg.graph.tree.symmetry, wg.graph.tree.complexity) == (
            1,
            Fraction(1),
            1,
            1,
        )



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
    term = TermValue("*{*{},*{}}", -1, Fraction(3), Fraction(-2, 3))
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
    changed = 2**70  # no field holds it, and it is a valid colour index
    for r in (built, made):
        assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r
        assert r._replace() == r
        for f in cls._fields:
            assert getattr(r._replace(**{f: changed}), f) is changed
            assert r._replace(**{f: changed}) != r
            with pytest.raises(AttributeError):
                setattr(r, f, getattr(r, f))
