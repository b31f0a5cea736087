import copy
import gc
import pickle
import random
import sys
import timeit
import weakref
from functools import partial
from itertools import product
from math import factorial
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivgraph import formulas, trees
from brute import brute_automorphism_count, brute_rooted_trees, isomorphic
from derivgraph.enumeration import (
    DerivativeGraph,
    Regime,
    enumerate_ode,
    family_of,
    weigh,
)
from derivgraph.formulas import parse_machine_term
from derivgraph.skeletons import Skeleton, parse_skeleton
from derivgraph.trees import (
    DEFAULT_COLOUR,
    Colour,
    Tree,
    TreeSyntaxError,
    canonicalize,
    compare_trees,
    format_trees,
    make_palette,
    parse_tree,
)


def chain(n: int) -> Tree:
    t = Tree()
    for _ in range(n - 1):
        t = Tree(children=(t,))
    return t


def star(n: int) -> Tree:
    return Tree(children=(Tree(),) * n)


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
        assert compare_trees(Tree(), chain(2)) == -1

    def test_reflexive(self):
        t = parse_tree("*{*{},*{*{}}}")
        assert compare_trees(t, t) == 0

    def test_order_4_natural_order(self):
        trees = [
            chain(4),
            Tree(children=(Tree(children=(Tree(), Tree())),)),
            Tree(children=(Tree(), chain(2))),
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
            assert (ab == 0) == (str(a) == str(b))
        for a, b, c in product(trees, repeat=3):
            if compare_trees(a, b) <= 0 and compare_trees(b, c) <= 0:
                assert compare_trees(a, c) <= 0

    def test_equal_iff_isomorphic(self):
        trees = all_trees_upto(5)
        for a, b in product(trees, repeat=2):
            assert (compare_trees(a, b) == 0) == isomorphic(a, b)


class TestCanonicalize:
    def test_child_order_irrelevant(self):
        a = Tree(children=(Tree(), chain(2)))
        b = Tree(children=(chain(2), Tree()))
        assert canonicalize(a) == canonicalize(b)

    def test_idempotent(self):
        t = Tree(children=(chain(3), Tree(), chain(2)))
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
            (canonicalize(Tree(children=(Tree(), chain(2)))), 1),
        ],
    )
    def test_paper_values(self, tree, expected):
        assert tree.symmetry == expected

    def test_coloured_binomial_graph(self):
        pal = make_palette("b", "w", "F")
        t = canonicalize(
            Tree(pal["F"], (Tree(pal["b"]),) * 2 + (Tree(pal["w"]),) * 3)
        )
        assert t.symmetry == 12

    def test_deep_chain_built_in_code(self):
        # S is a stored field, printing and canonicalize walk an explicit
        # stack, and the parser keeps its open brackets on one, so trees far
        # deeper than the recursion limit need no recursion.
        deep = chain(5000)
        assert deep.symmetry == 1
        notation = "*{" * 4999 + "*{}" + "}" * 4999
        assert str(deep) == notation
        unsorted, ordered = Tree(children=(chain(2), Tree())), Tree(children=(Tree(), chain(2)))
        for _ in range(4996):
            unsorted, ordered = Tree(children=(unsorted,)), Tree(children=(ordered,))
        assert ordered.vertices == 5000 and canonicalize(unsorted) is not unsorted
        assert canonicalize(unsorted) is ordered
        wg = weigh(DerivativeGraph(deep, Regime.ODE))
        assert parse_tree(notation) is deep
        machine = f"(term (regime ode) (sign 1) (weight 1) (tree {notation}))"
        assert parse_machine_term(machine) == wg

    def test_deep_chains_compare_and_sort(self):
        # The order is walked on an explicit stack, so chains that differ
        # only at the bottom compare and sort far below the recursion limit.
        low, high = Tree(children=(Tree(),)), Tree(children=(Tree(), Tree()))
        for _ in range(4998):
            low, high = Tree(children=(low,)), Tree(children=(high,))
        assert low.vertices == high.vertices - 1 == 5000
        assert compare_trees(low, high) == -1 and compare_trees(high, low) == 1
        assert canonicalize(Tree(children=(high, low))) is Tree(children=(low, high))

    def test_matches_brute_force_automorphisms(self):
        for t in all_trees_upto(7):
            assert t.symmetry == brute_automorphism_count(t)

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
                assert t.symmetry == degree_factorial_product(t)
                checked += 1
        assert checked > 10


class TestComplexity:
    def test_chain_of_four(self):
        assert chain(4).complexity == 6

    def test_star(self):
        assert star(3).complexity == 1

    def test_single_vertex(self):
        assert Tree().complexity == 1

    def test_chain_is_factorial(self):
        for n in range(1, 9):
            assert chain(n).complexity == factorial(n - 1)


class TestCounts:
    def test_cardinality_and_entrances(self):
        assert (Tree().vertices, Tree().entrances) == (1, 1)
        assert (chain(4).vertices, chain(4).entrances) == (4, 1)
        t = canonicalize(Tree(children=(Tree(), chain(2))))
        assert (t.vertices, t.entrances) == (4, 2)


class TestNotation:
    def test_round_trip(self):
        for t in all_trees_upto(6):
            assert parse_tree(str(t)) == t

    def test_chain_notation(self):
        assert str(chain(3)) == "*{*{*{}}}"
        assert parse_tree("*{*{*{}}}") == chain(3)

    def test_bare_star_is_leaf(self):
        assert parse_tree("*") == Tree()

    def test_coloured_round_trip(self):
        pal = make_palette("x", "g", "f")
        t = Tree(pal["f"], (Tree(pal["g"], (Tree(pal["x"]),)),))
        assert parse_tree(str(t), pal) == t

    def test_error_carries_position(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree("*{*{},")
        assert err.value.position == 6

    def test_unknown_colour_rejected(self):
        with pytest.raises(TreeSyntaxError):
            parse_tree("h{}", make_palette("f"))

    def test_nesting_limit(self):
        # There is none: a tree nests as deep as its text.
        for depth in (2000, 10_000):
            assert parse_tree("*{" * depth + "}" * depth) is chain(depth)


# Malformed notation: (text, palette names or None, message, position).
MALFORMED_TREES = [
    ("", None, "expected a colour name", 0),
    ("   ", None, "expected a colour name", 3),
    ("{}", None, "expected a colour name", 0),
    ("*{*", None, "expected ',' or '}'", 3),
    ("*{*{}", None, "expected ',' or '}'", 5),
    ("*{*;*}", None, "expected ',' or '}'", 3),
    ("*{*,}", None, "expected a colour name", 4),
    ("*{,}", None, "expected a colour name", 2),
    ("*{} *", None, "trailing input after tree", 4),
    ("*}", None, "trailing input after tree", 1),
    ("h{x{}", ("x", "f"), "unknown colour 'h'", 0),
    ("f{h{},;", ("x", "f"), "unknown colour 'h'", 2),
]


@pytest.mark.parametrize("text,names,message,position", MALFORMED_TREES)
def test_parse_tree_error_is_pinned(text, names, message, position):
    palette = None if names is None else make_palette(*names)
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text, palette)
    assert type(err.value) is TreeSyntaxError
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


class TestInterning:
    def test_equal_structure_is_the_same_node(self):
        assert Tree(children=(Tree(), chain(2))) is Tree(children=[Tree(), chain(2)])
        assert Tree(Colour(0, "*")) is Tree()

    def test_the_key_is_class_colour_and_children(self):
        # A freshly built colour equal to the node's, name and all, finds the node.
        kids = (Tree(), Tree(Colour(3, "fg"), (Tree(),)))
        t = Tree(Colour(3, "fg"), kids)
        fresh = Colour(3, "".join(("f", "g")))
        assert fresh is not t.colour and fresh.name is not t.colour.name
        assert Tree(fresh, kids) is t
        assert Tree(Colour(2, "fg"), kids) is not t and Tree(Colour(3, "gf"), kids) is not t
        # A tree with a skeleton's colour and the same (no) children is another node.
        s = parse_skeleton("f(x)").children[0]
        twin = Tree(s.colour)
        assert twin is not s and type(twin) is Tree and twin.children == s.children == ()
        assert Tree(s.colour) is twin and Skeleton("x") is s

    def test_copies_and_round_trips_return_the_node(self):
        pal = make_palette("x", "f")
        coloured = Tree(pal["f"], (Tree(pal["x"]), Tree(pal["f"], (Tree(pal["x"]),))))
        for t in all_trees_upto(5) + [coloured]:
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t
        for t in all_trees_upto(5):
            assert parse_tree(str(t)) is t
        assert parse_tree(str(coloured), pal) is coloured

    def test_repr_is_the_constructor_call(self):
        def reference(t: Tree) -> str:
            return f"Tree({t.colour!r}, {tuple(ReprOf(c) for c in t.children)!r})"

        class ReprOf:
            def __init__(self, t):
                self.t = t

            def __repr__(self):
                return reference(self.t)

        pal = make_palette("x", "f")
        coloured = Tree(pal["f"], (Tree(pal["x"]), Tree(pal["f"], (Tree(pal["x"]),))))
        for t in all_trees_upto(5) + [coloured]:
            assert repr(t) == reference(t)
        assert repr(Tree()) == "Tree(Colour(index=0, name='*'), ())"
        assert repr(chain(2)) == f"Tree(Colour(index=0, name='*'), ({Tree()!r},))"

    def test_deep_chain_repr_pickle_and_copy(self):
        # repr and the flat pickle encoding are folds: no recursion, and
        # copies are still the interned node.
        deep = chain(5000)
        head = "Tree(Colour(index=0, name='*'), ("
        assert repr(deep) == head * 5000 + "))" + ",))" * 4999
        assert pickle.loads(pickle.dumps(deep)) is deep
        assert copy.deepcopy(deep) is deep and copy.copy(deep) is deep
        graph = DerivativeGraph(deep, Regime.ODE)
        for wrapper in (graph, weigh(graph)):
            assert repr(deep) in repr(wrapper)
            assert pickle.loads(pickle.dumps(wrapper)) == wrapper
            assert copy.deepcopy(wrapper) == wrapper
        assert pickle.loads(pickle.dumps(graph)).tree is deep
        assert copy.deepcopy(weigh(graph)).graph.tree is deep

    def test_nodes_are_immutable(self):
        t = chain(3)
        with pytest.raises(AttributeError):
            t.children = ()
        with pytest.raises(AttributeError):
            t.symmetry = 2
        with pytest.raises(AttributeError):
            del t.colour
        with pytest.raises(AttributeError):
            t.key = ()
        with pytest.raises(AttributeError):
            t.canonical = False
        with pytest.raises(AttributeError):
            t.internal = 0
        assert t is chain(3) and t.children == (chain(2),)

    def test_canonical_flag(self):
        raw = Tree(children=(chain(2), Tree()))
        assert canonicalize(raw) is not raw
        assert canonicalize(Tree(children=(raw,))) is not Tree(children=(raw,))
        t = canonicalize(raw)
        assert t is not raw and canonicalize(t) is t

    def test_table_forgets_collected_nodes(self):
        gc.collect()
        before = len(trees._INTERNED)
        graphs = enumerate_ode(9)
        assert len(trees._INTERNED) > before
        texts = [str(g.tree) for g in graphs]
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
        t = Tree(Colour(7, "transient"), (Tree(), Tree()))
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None


class TestColourIdentity:
    def test_negative_index_is_rejected(self):
        for make in (lambda: Colour(-1, "x"), lambda: Colour(0, "x")._replace(index=-1)):
            with pytest.raises(ValueError, match="non-negative"):
                make()

    @pytest.mark.parametrize("name", ["a,b", "", "1x", "x y", "f{}", "x*", 5, None, b"x"])
    def test_names_the_notation_cannot_read_are_rejected(self, name):
        # Colour(0, "a,b") would print a,b{q{}}, which parse_tree cannot read back;
        # Colour(0, 5) would print nothing: format_trees would fail inside the writer.
        for make in (lambda: Colour(0, name), lambda: Colour(0, "x")._replace(name=name)):
            with pytest.raises(ValueError, match="is not a colour name"):
                make()

    @pytest.mark.parametrize("index", [0.5, "0", None, 2.0])
    def test_an_index_that_is_not_an_int_is_rejected(self, index):
        for make in (lambda: Colour(index, "x"), lambda: Colour(0, "x")._replace(index=index)):
            with pytest.raises(ValueError, match="non-negative int"):
                make()

    def test_the_package_palettes_build_and_read_back(self):
        palette = family_of(Regime.COMPOSITE, parse_skeleton("F(f(x),f(y),g_1(x))")).palette
        assert [c.name for c in palette] == ["x", "y", "F", "f", "f.2", "g_1"]
        names = {c.name: c for c in (DEFAULT_COLOUR, *palette)}
        for colour in names.values():
            t = Tree(colour, (Tree(colour),))
            assert parse_tree(str(t), names) is t

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
        assert canonicalize(c) is c
        assert canonicalize(shuffled(t, rng)) is c
        assert c.symmetry == brute_automorphism_count(t)
        assert parse_tree(str(t), PALETTE) is t

    @settings(max_examples=150, deadline=None)
    @given(raw_trees([Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]), st.data())
    def test_compare_is_zero_iff_same_node(self, a, data):
        b = data.draw(st.sampled_from([a, canonicalize(a), *a.children, Tree()]))
        assert (compare_trees(a, b) == 0) == (a is b)


class _Bare(Tree):
    """A subclass, whose nodes, like a skeleton's, store no counts, S or tau:
    for chains deeper than a test can afford as trees, since a 40,000-vertex
    chain stores tau = k! at depth k, about 1.4 GB of integers."""

    __slots__ = ()


class TestWriters:
    @settings(max_examples=150, deadline=None)
    @given(raw_trees([Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]))
    def test_one_tree_writes_as_the_shared_fold(self, t):
        assert str(t) == format_trees([t])[0]
        assert eval(repr(t), {"Tree": Tree, "Colour": Colour}) is t

    def test_mixed_palettes_and_more_names_than_the_head_cache(self):
        # Clashing ranks and names, and 600 names: more than the head cache holds.
        x, y, x1 = CLASHING
        clash = Tree(x1, (Tree(x), Tree(y), Tree(x1, (Tree(x),))))
        wide = Tree(x, tuple(Tree(Colour(i, f"c{i}"), (Tree(),)) for i in range(600)))
        roots = [clash, wide, Tree(y, (wide,)), wide.children[0], clash]
        assert format_trees(roots) == list(map(str, roots)) == list(map(reference_notation, roots))
        assert str(clash) == "x{x{},y{},x{x{}}}"

    def test_writers_take_linear_time(self):
        # Doubling the depth at most doubles the time, with room for noise.
        t, chains = _Bare(), {}
        for depth in range(2, 40_001):
            t = _Bare(children=(t,))
            if depth in (20_000, 40_000):
                chains[depth] = t
        assert str(chains[40_000]) == "*{" * 39_999 + "*{}" + "}" * 39_999

        def format_one(t):
            return format_trees([t])[0]

        def ode_body(t):
            # The root's children, a run, stand for the root t itself.
            ode = family_of(Regime.ODE, None)
            return formulas._term_texts(ode, [t.children], Regime.ODE, "text")[0]

        def root_text(t):
            # The root's children, a run, written with one join over their texts.
            return trees.format_roots(t.colour, [t.children])[0]

        assert ode_body(chains[20_000]) == "f(y)" + "·Df(y)" * 19_999
        assert all(root_text(t) == str(t) for t in chains.values())
        for write in (repr, str, format_one, ode_body, root_text):
            # Each round times the two depths in turn, so that a drift in the
            # host's speed hits both; the median round ignores the rounds that
            # noise hit on one side.  Best times, taken from different rounds,
            # would not cancel the drift.
            rounds = [[timeit.timeit(partial(write, t), number=1) for t in chains.values()]
                      for _ in range(15)]
            ratio = median(large / small for small, large in rounds)
            assert ratio <= 2.5, (write, ratio, rounds)


def runs_of(regime: Regime, text: str | None, n: int):
    family = family_of(regime, text and parse_skeleton(text))
    return family.palette[family.root], family.roots(n), family.trees(n)


@pytest.mark.parametrize("regime, text, n", [
    (Regime.ODE, None, 1), (Regime.ODE, None, 9),
    (Regime.INVERSE, None, 1), (Regime.INVERSE, None, 8),
    (Regime.COMPOSITE, "F(f(x),g(h(x),x))", 4), (Regime.COMPOSITE, "f(g(h(k(x))))", 6),
])
def test_format_roots_hands_write_trees_no_run(monkeypatch, regime, text, n):
    # The runs' distinct children are written by the one walker, and each
    # run's text is joined from theirs: no run is walked as a root.
    colour, runs, built = runs_of(regime, text, n)
    expected = format_trees(built)
    calls, write = [], trees.write_trees

    def recording(roots, *args):
        roots = list(roots)
        calls.append(roots)
        return write(roots, *args)

    monkeypatch.setattr(trees, "write_trees", recording)
    assert trees.format_roots(colour, runs) == expected
    assert len(calls) == 1
    assert not any(type(root) is tuple for root in calls[0])


@pytest.mark.parametrize("regime, text", [
    (Regime.ODE, None), (Regime.INVERSE, None),
    (Regime.COMPOSITE, "F(x,x)"), (Regime.COMPOSITE, "F(f(x),g(h(x),x))"),
])
def test_format_roots_takes_any_runs(regime, text):
    colour, runs, _ = runs_of(regime, text, 5)
    assert runs
    # All runs, one run twice, none, and a leaf root; each also as a generator.
    for listed in (runs, runs[-1:] * 2, [], [()]):
        expected = format_trees([Tree(colour, run) for run in listed])
        assert trees.format_roots(colour, listed) == expected, listed
        assert trees.format_roots(colour, (run for run in listed)) == expected, listed


def reference_notation(t: Tree) -> str:
    return t.colour.name + "{" + ",".join(map(reference_notation, t.children)) + "}"


def subtrees(t: Tree) -> list[Tree]:
    return [t, *(s for c in t.children for s in subtrees(c))]


CLASHING = [Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]  # shared ranks and names


class TestManyTrees:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_trees(CLASHING), min_size=1, max_size=6), st.data())
    def test_notation_matches_a_reference(self, drawn, data):
        # Later roots repeat earlier ones or their subtrees: nodes already written.
        pool = [s for t in drawn for s in subtrees(t)]
        roots = drawn + data.draw(st.lists(st.sampled_from(pool), max_size=8))
        assert format_trees(iter(roots)) == list(map(reference_notation, roots))


def reference_key(t: Tree) -> tuple:
    return (t.colour.index, t.colour.name, t.degree, tuple(reference_key(c) for c in t.children))


def reference_canonical(t: Tree) -> bool:
    keys = [reference_key(c) for c in t.children]
    return keys == sorted(keys) and all(reference_canonical(c) for c in t.children)


def reference_canonicalize(t: Tree) -> Tree:
    kids = sorted((reference_canonicalize(c) for c in t.children), key=reference_key)
    return Tree(t.colour, tuple(kids))


class TestReferenceOrder:
    @settings(max_examples=150, deadline=None)
    @given(raw_trees([Colour(0, "x"), Colour(0, "y"), Colour(1, "x")]), st.data())
    def test_order_and_canonical_form_match_a_reference(self, a, data):
        # b is unrelated to a, or shares its nodes, or differs only in order.
        clash = raw_trees([Colour(0, "x"), Colour(0, "y"), Colour(1, "x")])
        b = data.draw(st.one_of(clash, st.sampled_from([a, canonicalize(a), *a.children])))
        ka, kb = reference_key(a), reference_key(b)
        assert compare_trees(a, b) == (ka > kb) - (ka < kb) == -compare_trees(b, a)
        assert canonicalize(a) is reference_canonicalize(a)
        assert (canonicalize(a) is a) == reference_canonical(a)
