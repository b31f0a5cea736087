import copy
import gc
import json
import pickle
import random
import sys
import weakref
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivgraph import trees
from derivgraph.brute import brute_automorphism_count, brute_rooted_trees, isomorphic
from derivgraph.enumeration import DerivativeGraph, Regime, enumerate_ode
from derivgraph.formulas import render_term
from derivgraph.trees import (
    LEAF,
    MAX_NESTING,
    Colour,
    Tree,
    TreeSyntaxError,
    canonicalize,
    cardinality,
    compare_trees,
    complexity_number,
    entrance_count,
    format_tree,
    make_palette,
    parse_tree,
    symmetry_number,
    tree_from_dict,
    tree_to_dict,
)
from derivgraph.weights import weigh


def chain(n: int) -> Tree:
    t = LEAF
    for _ in range(n - 1):
        t = Tree(children=(t,))
    return t


def star(n: int) -> Tree:
    return Tree(children=(LEAF,) * n)


def all_trees_upto(max_vertices: int) -> list[Tree]:
    out = []
    for n in range(1, max_vertices + 1):
        out.extend(canonicalize(t) for t in brute_rooted_trees(n))
    return out


def shuffled(t: Tree, rng: random.Random) -> Tree:
    kids = [shuffled(c, rng) for c in t.children]
    rng.shuffle(kids)
    return Tree(t.colour, tuple(kids))


class TestCompare:
    def test_leaf_precedes_chain(self):
        assert compare_trees(LEAF, chain(2)) == -1

    def test_reflexive(self):
        t = parse_tree("*{*{},*{*{}}}")
        assert compare_trees(t, t) == 0

    def test_order_4_natural_order(self):
        trees = [
            chain(4),
            Tree(children=(Tree(children=(LEAF, LEAF)),)),
            Tree(children=(LEAF, chain(2))),
            star(3),
        ]
        for a, b in zip(trees, trees[1:]):
            assert compare_trees(a, b) == -1

    def test_colour_precedes_degree(self):
        black, white = Colour(0, "b"), Colour(1, "w")
        # black with two children still precedes white leaf
        assert compare_trees(Tree(black, (Tree(black), Tree(black))), Tree(white)) == -1

    def test_total_order_exhaustive(self):
        trees = all_trees_upto(5)
        for a, b in product(trees, repeat=2):
            ab, ba = compare_trees(a, b), compare_trees(b, a)
            assert ab == -ba
            assert (ab == 0) == (format_tree(a) == format_tree(b))
        for a, b, c in product(trees, repeat=3):
            if compare_trees(a, b) <= 0 and compare_trees(b, c) <= 0:
                assert compare_trees(a, c) <= 0

    def test_equal_iff_isomorphic(self):
        trees = all_trees_upto(5)
        for a, b in product(trees, repeat=2):
            assert (compare_trees(a, b) == 0) == isomorphic(a, b)


class TestCanonicalize:
    def test_child_order_irrelevant(self):
        a = Tree(children=(LEAF, chain(2)))
        b = Tree(children=(chain(2), LEAF))
        assert canonicalize(a) == canonicalize(b)

    def test_idempotent(self):
        t = Tree(children=(chain(3), LEAF, chain(2)))
        assert canonicalize(canonicalize(t)) == canonicalize(t)

    def test_random_shuffles_converge(self):
        rng = random.Random(7)
        for n in range(1, 8):
            for t in brute_rooted_trees(n):
                reference = canonicalize(t)
                for _ in range(10):
                    assert canonicalize(shuffled(t, rng)) == reference


class TestSymmetry:
    @pytest.mark.parametrize(
        "tree,expected",
        [
            (chain(4), 1),
            (star(3), 6),
            (canonicalize(Tree(children=(LEAF, chain(2)))), 1),
        ],
    )
    def test_paper_values(self, tree, expected):
        assert symmetry_number(tree) == expected

    def test_coloured_binomial_graph(self):
        pal = make_palette("b", "w", "F")
        t = canonicalize(
            Tree(pal["F"], (Tree(pal["b"]),) * 2 + (Tree(pal["w"]),) * 3)
        )
        assert symmetry_number(t) == 12

    def test_deep_chain_built_in_code(self):
        # S is a stored field, and printing and the dict form are folds over
        # an explicit stack, so trees far deeper than the recursion limit
        # need no recursion.
        deep = chain(5000)
        assert symmetry_number(deep) == 1
        notation = "*{" * 4999 + "*{}" + "}" * 4999
        assert format_tree(deep) == notation
        assert tree_from_dict(tree_to_dict(deep)) is deep
        wg = weigh(DerivativeGraph(deep, Regime.ODE))
        assert render_term(wg, "text") == "f(y)" + "·Df(y)" * 4999
        assert render_term(wg, "latex") == "f(y)" + r"\cdot Df(y)" * 4999
        assert render_term(wg, "machine") == (
            f"(term (regime ode) (sign 1) (weight 1) (tree {notation}))"
        )

        # An inverse comb: each inner vertex has a leaf and the rest of the comb.
        comb = Tree(children=(LEAF, LEAF))
        for _ in range(4999):
            comb = Tree(children=(LEAF, comb))
        wg = weigh(DerivativeGraph(comb, Regime.INVERSE))
        wedge = "⟩·D²f(g(y))·Dg(y)"
        assert render_term(wg) == (
            "⟨Dg(y)," * 4999 + "⟨Dg(y),Dg(y)" + wedge + wedge * 4999
        )

    def test_matches_brute_force_automorphisms(self):
        for t in all_trees_upto(7):
            assert symmetry_number(t) == brute_automorphism_count(t)

    def test_degree_factorial_formula_when_siblings_isomorphic(self):
        def siblings_all_isomorphic(t: Tree) -> bool:
            own = all(
                compare_trees(t.children[0], c) == 0 for c in t.children
            ) if t.children else True
            return own and all(siblings_all_isomorphic(c) for c in t.children)

        def degree_factorial_product(t: Tree) -> int:
            out = factorial(t.degree)
            for c in t.children:
                out *= degree_factorial_product(c)
            return out

        checked = 0
        for t in all_trees_upto(7):
            if siblings_all_isomorphic(t):
                assert symmetry_number(t) == degree_factorial_product(t)
                checked += 1
        assert checked > 10


class TestComplexity:
    def test_chain_of_four(self):
        assert complexity_number(chain(4)) == 6

    def test_star(self):
        assert complexity_number(star(3)) == 1

    def test_single_vertex(self):
        assert complexity_number(LEAF) == 1

    def test_chain_is_factorial(self):
        for n in range(1, 9):
            assert complexity_number(chain(n)) == factorial(n - 1)


class TestCounts:
    def test_cardinality_and_entrances(self):
        assert (cardinality(LEAF), entrance_count(LEAF)) == (1, 1)
        assert (cardinality(chain(4)), entrance_count(chain(4))) == (4, 1)
        t = canonicalize(Tree(children=(LEAF, chain(2))))
        assert (cardinality(t), entrance_count(t)) == (4, 2)


class TestNotation:
    def test_round_trip(self):
        for t in all_trees_upto(6):
            assert parse_tree(format_tree(t)) == t

    def test_chain_notation(self):
        assert format_tree(chain(3)) == "*{*{*{}}}"
        assert parse_tree("*{*{*{}}}") == chain(3)

    def test_bare_star_is_leaf(self):
        assert parse_tree("*") == LEAF

    def test_coloured_round_trip(self):
        pal = make_palette("x", "g", "f")
        t = Tree(pal["f"], (Tree(pal["g"], (Tree(pal["x"]),)),))
        assert parse_tree(format_tree(t), pal) == t

    def test_error_carries_position(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree("*{*{},")
        assert err.value.position == 6

    def test_unknown_colour_rejected(self):
        with pytest.raises(TreeSyntaxError):
            parse_tree("h{}", make_palette("f"))

    def test_nesting_limit(self):
        assert parse_tree("*{" * MAX_NESTING + "}" * MAX_NESTING).vertices == MAX_NESTING
        for depth in (MAX_NESTING + 1, 2000):
            with pytest.raises(TreeSyntaxError) as err:
                parse_tree("*{" * depth + "}" * depth)
            assert err.value.position == 2 * MAX_NESTING + 1


class TestJson:
    def test_round_trip(self):
        pal = make_palette("x", "f")
        t = Tree(pal["f"], (Tree(pal["x"]), Tree(pal["x"])))
        blob = json.dumps(tree_to_dict(t))
        assert tree_from_dict(json.loads(blob)) == t


class TestInterning:
    def test_equal_structure_is_the_same_node(self):
        assert Tree(children=(LEAF, chain(2))) is Tree(children=[LEAF, chain(2)])
        assert Tree(Colour(0, "*")) is LEAF

    def test_copies_and_round_trips_return_the_node(self):
        pal = make_palette("x", "f")
        coloured = Tree(pal["f"], (Tree(pal["x"]), Tree(pal["f"], (Tree(pal["x"]),))))
        for t in all_trees_upto(5) + [coloured]:
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t
            assert tree_from_dict(tree_to_dict(t)) is t
        for t in all_trees_upto(5):
            assert parse_tree(format_tree(t)) is t
        assert parse_tree(format_tree(coloured), pal) is coloured

    def test_nodes_are_immutable(self):
        t = chain(3)
        with pytest.raises(AttributeError):
            t.children = ()
        with pytest.raises(AttributeError):
            t.symmetry = 2
        with pytest.raises(AttributeError):
            del t.colour
        assert t is chain(3) and t.children == (chain(2),)

    def test_canonical_flag(self):
        raw = Tree(children=(chain(2), LEAF))
        assert not raw.canonical
        assert not Tree(children=(raw,)).canonical
        t = canonicalize(raw)
        assert t.canonical and canonicalize(t) is t

    def test_table_forgets_collected_nodes(self):
        gc.collect()
        before = len(trees._INTERNED)
        graphs = enumerate_ode(9)
        assert len(trees._INTERNED) > before
        texts = [format_tree(g.tree) for g in graphs]
        del graphs
        gc.collect()
        assert len(trees._INTERNED) == before
        parsed = [parse_tree(text) for text in texts]
        assert all(p is g.tree for p, g in zip(parsed, enumerate_ode(9)))

    def test_deep_chain_teardown_is_silent(self):
        gc.collect()
        before = len(trees._INTERNED)
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            deep = chain(5000)
            del deep
            gc.collect()
        finally:
            sys.unraisablehook = hook
        assert unraisable == []
        assert len(trees._INTERNED) == before

    def test_unreferenced_nodes_are_released(self):
        t = Tree(Colour(7, "transient"), (LEAF, LEAF))
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None


class TestColourIdentity:
    def test_name_breaks_a_rank_tie(self):
        a, b = Tree(Colour(0, "x")), Tree(Colour(0, "y"))
        assert a is not b
        assert compare_trees(a, b) == -1 and compare_trees(b, a) == 1

    def test_compare_is_zero_iff_same_node(self):
        clash = [Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]
        trees = all_trees_upto(4) + [Tree(c) for c in clash]
        trees += [Tree(c, (Tree(d),)) for c in clash for d in clash]
        for a, b in product(trees, repeat=2):
            assert (compare_trees(a, b) == 0) == (a is b)


PALETTE = make_palette("a", "b")


def raw_trees(colours):
    """Random trees with children in arbitrary order and at most 7 vertices."""
    colour = st.sampled_from(colours)
    return st.recursive(
        colour.map(Tree),
        lambda kids: st.builds(Tree, colour, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=5,
    ).filter(lambda t: t.vertices <= 7)


class TestInterningProperties:
    @settings(max_examples=150, deadline=None)
    @given(raw_trees(list(PALETTE.values())), st.randoms(use_true_random=False))
    def test_canonical_form_and_stored_symmetry(self, t, rng):
        c = canonicalize(t)
        assert c.canonical
        assert canonicalize(shuffled(t, rng)) is c
        assert symmetry_number(c) == brute_automorphism_count(t)
        assert parse_tree(format_tree(t), PALETTE) is t
        assert tree_from_dict(tree_to_dict(t)) is t

    @settings(max_examples=150, deadline=None)
    @given(raw_trees([Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]), st.data())
    def test_compare_is_zero_iff_same_node(self, a, data):
        b = data.draw(st.sampled_from([a, canonicalize(a), *a.children, LEAF]))
        assert (compare_trees(a, b) == 0) == (a is b)
