import operator
from bisect import bisect_left
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brute import (
    brute_inverse_trees,
    brute_rooted_trees,
    integer_partitions,
    isomorphic,
)
from derivgraph import enumeration, trees
from derivgraph.cli import main
from derivgraph.enumeration import (
    DerivativeGraph,
    Regime,
    enumerate_composite,
    enumerate_graphs,
    enumerate_inverse,
    enumerate_ode,
    family_of,
    in_regime,
)
from derivgraph.formulas import parse_machine_term, render_derivative
from derivgraph.oracle import verify
from derivgraph.skeletons import Skeleton, parse_skeleton
from derivgraph.trees import (
    DEFAULT_COLOUR,
    Colour,
    Tree,
    canonicalize,
    compare_trees,
    parse_tree,
)

CHAIN = parse_skeleton("f(g(x))")
TWO_COLOUR = parse_skeleton("F(f(x),g(x))")

# OEIS A000081: rooted trees by vertices, n = 1..13.
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]
# OEIS A000669: series-reduced rooted trees by leaves, n = 2..11.
A000669 = [1, 2, 5, 12, 33, 90, 261, 766, 2312, 7068]

SKELETONS = [
    "f(g(x))",
    "f(g(h(k(x))))",
    "F(f(x),g(x))",
    "F(f(x),f(x))",
    "F(f(x),g(x),h(x))",
    "F(x,x)",
    "F(x,g(x,y))",
    "f(g(x),y)",
    "f(f(f(x)))",
    "f(g(x),h(x,y))",
    "f(c(),x)",
    "F(x,y,z)",
    "G(f(x),g(x),h(x))",
    "h(F(x,x),G(y,x))",
    "F(G(x,y),G(y,x))",
    "F()",
]


def names(skeleton):
    """The composite palette of ``skeleton`` by name, as ``parse_tree`` takes it."""
    return {c.name: c for c in family_of(Regime.COMPOSITE, skeleton).palette}


def assert_canonical_and_sorted(graphs):
    """Strictly increasing in natural order: canonical, sorted, no duplicates."""
    assert all(canonicalize(g.tree) is g.tree for g in graphs)
    for a, b in zip(graphs, graphs[1:]):
        assert compare_trees(a.tree, b.tree) < 0


class TestComposite:
    def test_variable_root_is_rejected_by_the_family(self):
        # Skeleton("x") never meets the parser, whose error carries a position.
        with pytest.raises(ValueError) as err:
            enumerate_composite(Skeleton("x"), 1)
        assert type(err.value) is ValueError
        assert str(err.value) == "skeleton root must be a function"
        assert err.traceback[-1].name == "_composite_family"

    def test_first_derivative_is_the_chain_rule(self):
        graphs = enumerate_composite(CHAIN, 1)
        assert [str(g.tree) for g in graphs] == ["f{g{x{}}}"]

    def test_order_three_faa_di_bruno_terms(self):
        graphs = enumerate_composite(CHAIN, 3)
        pal = names(CHAIN)
        expected = [
            parse_tree(s, pal)
            for s in ("f{g{x{},x{},x{}}}", "f{g{x{}},g{x{},x{}}}", "f{g{x{}},g{x{}},g{x{}}}")
        ]
        assert [g.tree for g in graphs] == expected

    def test_binomial_graph_present_at_order_five(self):
        graphs = enumerate_composite(TWO_COLOUR, 5)
        pal = names(TWO_COLOUR)
        wanted = canonicalize(
            parse_tree("F{f{x{}},f{x{}},g{x{}},g{x{}},g{x{}}}", pal)
        )
        assert any(g.tree == wanted for g in graphs)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_graphs_biject_with_partitions(self, n):
        graphs = enumerate_composite(CHAIN, n)
        seen = set()
        for g in graphs:
            # each child of the root is one g-derivative branch
            part = tuple(sorted((c.entrances for c in g.tree.children), reverse=True))
            assert sum(part) == n
            seen.add(part)
        assert len(seen) == len(graphs)
        assert seen == set(integer_partitions(n))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            enumerate_composite(CHAIN, 0)

    @pytest.mark.parametrize("text", ["x(x)", "f(g(f))"])
    def test_rejects_a_name_used_for_a_function_and_a_variable(self, text):
        # The two would share one palette entry and so one colour.
        with pytest.raises(ValueError, match="both a function and a variable"):
            enumerate_composite(parse_skeleton(text), 2)

    @pytest.mark.parametrize("skeleton", [CHAIN, TWO_COLOUR])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_graph_has_an_entrance_deletion_parent(self, skeleton, n):
        previous = {g.tree for g in enumerate_composite(skeleton, n - 1)}
        for g in enumerate_composite(skeleton, n):
            assert any(d in previous for d in _entrance_deletions(g.tree)), str(g.tree)

    def test_no_duplicates(self):
        assert_canonical_and_sorted(enumerate_composite(TWO_COLOUR, 6))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("text", SKELETONS)
    def test_canonical_in_natural_order(self, text, n):
        graphs = enumerate_composite(parse_skeleton(text), n)
        assert_canonical_and_sorted(graphs)
        assert all(g.tree.entrances == n for g in graphs)

    @pytest.mark.parametrize(
        "text,count",
        [
            ("F(x,x)", lambda n: 1),
            ("F(x,y)", lambda n: n + 1),
            ("F(x,y,z)", lambda n: (n + 1) * (n + 2) // 2),
            ("F()", lambda n: 0),
        ],
    )
    def test_closed_form_counts(self, text, count):
        for n in range(1, 9):
            assert len(enumerate_composite(parse_skeleton(text), n)) == count(n)

    def test_repeated_slot_is_one_kind_of_child(self):
        graphs = enumerate_composite(parse_skeleton("F(x,x)"), 2)
        assert [str(g.tree) for g in graphs] == ["F{x{},x{}}"]

    def test_family_of_an_equal_skeleton_finds_its_positions(self):
        # The family is cached by skeleton value; a caller's own copy of the
        # skeleton gets the same family object.
        family = family_of(Regime.COMPOSITE, parse_skeleton("f(g(x))"))
        assert family_of(Regime.COMPOSITE, parse_skeleton("f(g(x))")) is family
        x, f, g = range(3)
        assert [c.name for c in family.palette] == ["x", "f", "g"]
        assert family.root == f
        assert family.nodes == (Skeleton("x"), *map(parse_skeleton, ("f(g(x))", "g(x)")))
        assert family.children == {f: (g,), g: (x,)}

    def test_ode_and_inverse_families_have_no_nodes(self):
        assert family_of(Regime.ODE, None).nodes == family_of(Regime.INVERSE, None).nodes == ()

    @pytest.mark.parametrize("text", SKELETONS)
    def test_a_family_names_its_skeleton(self, text):
        # The skeleton its graphs carry: the one passed in, interned, or None outside composite.
        skeleton = parse_skeleton(text)
        assert family_of(Regime.COMPOSITE, skeleton).skeleton is skeleton
        for regime in (Regime.ODE, Regime.INVERSE):
            assert family_of(regime, skeleton).skeleton is None
        assert all(g.skeleton is skeleton for g in enumerate_composite(skeleton, 2))

    def test_repeated_function_positions_are_named_by_path(self):
        # Positions are coloured in preorder: the first f is "f", the second "f.2".
        family = family_of(Regime.COMPOSITE, parse_skeleton("F(f(x),f(x))"))
        assert [c.name for c in family.palette] == ["x", "F", "f", "f.2"]
        x, F, f, f2 = range(4)
        assert family.children == {F: (f, f2), f: (x,), f2: (x,)}
        # The same sub-skeleton sits at two positions.
        at = [ci for ci, node in enumerate(family.nodes) if node == parse_skeleton("f(x)")]
        assert at == [f, f2]


def _entrance_deletions(t: Tree):
    """Each tree reachable by removing one entrance and its unary stem."""
    results = []

    def prune(node: Tree) -> list[Tree | None]:
        # All variants of node with one entrance removed somewhere below;
        # None means the node itself vanishes entirely.
        out: list[Tree | None] = []
        for i, c in enumerate(node.children):
            if c.is_leaf:
                rest = node.children[:i] + node.children[i + 1 :]
                out.append(Tree(node.colour, rest) if rest else None)
            else:
                for variant in prune(c):
                    if variant is None:
                        rest = node.children[:i] + node.children[i + 1 :]
                        out.append(Tree(node.colour, rest) if rest else None)
                    else:
                        out.append(
                            Tree(
                                node.colour,
                                node.children[:i] + (variant,) + node.children[i + 1 :],
                            )
                        )
        return out

    for variant in prune(t):
        if variant is not None:
            results.append(canonicalize(variant))
    return results


class TestOde:
    def test_order_one_is_the_bare_field(self):
        graphs = enumerate_ode(1)
        assert [str(g.tree) for g in graphs] == ["*{}"]

    def test_order_four_has_four_trees(self):
        assert len(enumerate_ode(4)) == 4

    @pytest.mark.parametrize("n,count", list(enumerate(A000081, start=1)))
    def test_counts_match_independent_enumeration(self, n, count):
        graphs = enumerate_ode(n)
        assert len(graphs) == count
        assert_canonical_and_sorted(graphs)
        if n > 8:  # the brute-force enumeration is exponential
            return
        brute = brute_rooted_trees(n)
        assert len(brute) == count
        for g in graphs:
            assert sum(1 for b in brute if isomorphic(g.tree, b)) == 1

    def test_no_duplicates(self):
        assert_canonical_and_sorted(enumerate_ode(7))

    def test_regime_tag_and_order(self):
        g = enumerate_ode(5)[0]
        assert g.regime is Regime.ODE
        assert g.order == 5


class TestInverse:
    def test_order_two_single_tree(self):
        graphs = enumerate_inverse(2)
        assert [str(g.tree) for g in graphs] == ["*{*{},*{}}"]

    def test_order_three_two_trees(self):
        assert [str(g.tree) for g in enumerate_inverse(3)] == [
            "*{*{},*{*{},*{}}}",
            "*{*{},*{},*{}}",
        ]

    def test_order_four_five_trees(self):
        graphs = enumerate_inverse(4)
        assert len(graphs) == 5
        brute = brute_inverse_trees(4)
        assert len(brute) == 5
        for g in graphs:
            assert sum(1 for b in brute if isomorphic(g.tree, b)) == 1

    def test_internal_degree_at_least_two(self):
        def check(t: Tree):
            assert t.is_leaf or t.degree >= 2
            for c in t.children:
                check(c)

        for n in range(2, 8):
            for g in enumerate_inverse(n):
                check(g.tree)
                assert g.tree.entrances == n

    @pytest.mark.parametrize("n,count", list(enumerate(A000669, start=2)))
    def test_counts_follow_a000669(self, n, count):
        graphs = enumerate_inverse(n)
        assert len(graphs) == count
        assert_canonical_and_sorted(graphs)

    def test_order_one_is_the_lone_leaf(self):
        # Dg = (Df(g))^-1: one entrance and no inner vertex.
        assert enumerate_inverse(1) == [DerivativeGraph(Tree(), Regime.INVERSE)]
        assert in_regime(DerivativeGraph(Tree(), Regime.INVERSE))

    @pytest.mark.parametrize("n", [0, -3])
    def test_order_below_one_is_named_as_in_the_other_regimes(self, n):
        # Every regime names a non-positive order the same way.
        for call in [
            enumerate_inverse,
            lambda n: verify(Regime.INVERSE, n),
            lambda n: render_derivative(Regime.INVERSE, n),
        ]:
            with pytest.raises(ValueError, match=r"^order must be >= 1$"):
                call(n)

    def test_no_duplicates(self):
        assert_canonical_and_sorted(enumerate_inverse(7))


@pytest.mark.parametrize("regime,n", [(Regime.ODE, 5), (Regime.INVERSE, 5)])
def test_a_skeleton_is_dropped_outside_the_composite_regime(regime, n):
    graphs = enumerate_graphs(regime, n, parse_skeleton("f(x)"))
    assert graphs == enumerate_graphs(regime, n)
    assert all(g.skeleton is None for g in graphs)


class TestRegimeValues:
    """A regime may be passed as its member or its value string, never as anything else."""

    @pytest.mark.parametrize("regime,n", [(Regime.ODE, 4), (Regime.INVERSE, 4), (Regime.ODE, 1)])
    def test_the_value_string_is_the_member(self, regime, n):
        by_value = enumerate_graphs(regime.value, n)
        assert by_value == enumerate_graphs(regime, n)
        assert all(g.regime is regime for g in by_value)
        assert all(in_regime(DerivativeGraph(g.tree, regime.value)) for g in by_value)
        machine = render_derivative(regime, n, "machine")
        assert render_derivative(regime.value, n, "machine") == machine
        report = verify(regime.value, n, trials=3)
        assert report.passed and report == verify(regime, n, trials=3)

    def test_the_ode_string_runs_the_ode_rules(self):
        assert len(enumerate_graphs("ode", 4)) == A000081[3] == 4
        assert len(enumerate_graphs("inverse", 4)) == A000669[2] == 5
        assert render_derivative("ode", 3).terms == render_derivative(Regime.ODE, 3).terms

    def test_the_composite_string_reads_the_skeleton(self):
        assert enumerate_graphs("composite", 3, CHAIN) == enumerate_composite(CHAIN, 3)
        assert verify("composite", 3, trials=2, skeleton=CHAIN).passed

    @pytest.mark.parametrize("bad", ["ODE", "odes", "", None, 0])
    def test_any_other_value_is_refused(self, bad):
        for call in [
            lambda: enumerate_graphs(bad, 3),
            lambda: render_derivative(bad, 3),
            lambda: verify(bad, 3),
            lambda: in_regime(DerivativeGraph(Tree(), bad)),
        ]:
            with pytest.raises(ValueError, match="is not a valid Regime"):
                call()


def distinct_nodes(roots: list[Tree]) -> int:
    seen, stack = set(), list(roots)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(t.children)
    return len(seen)


class TestBuiltOnce:
    @pytest.fixture
    def tree_calls(self, monkeypatch) -> list[tuple]:
        calls = []

        def counting_tree(*args):
            calls.append(args)
            return Tree(*args)

        monkeypatch.setattr(enumeration, "Tree", counting_tree)
        return calls

    def test_ode_12_builds_each_tree_of_at_most_12_vertices_once(self, tree_calls):
        graphs = enumerate_ode(12)
        assert len(tree_calls) == distinct_nodes([g.tree for g in graphs]) == sum(A000081[:12]) == 7813

    @pytest.mark.parametrize(
        "enumerate_graphs",
        [
            lambda: enumerate_ode(1),
            lambda: enumerate_inverse(9),
            lambda: enumerate_composite(parse_skeleton("f(g(h(k(x))))"), 8),
            lambda: enumerate_composite(parse_skeleton("h(F(x,x),G(y,x))"), 6),
        ],
        ids=["ode-1", "inverse-9", "composite-f_g_h_k_x-8", "composite-h_F_G-6"],
    )
    def test_each_tree_is_built_once(self, enumerate_graphs, tree_calls):
        graphs = enumerate_graphs()
        assert len(tree_calls) == distinct_nodes([g.tree for g in graphs])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--regime", "ode", "--order", "7"],
            ["formula", "--regime", "inverse", "--order", "6"],
            ["formula", "--style", "latex", "--regime", "composite", "--skeleton", "F(f(x),g(x))", "--order", "5"],
            ["trees", "--style", "machine", "--regime", "composite", "--skeleton", "F(x,x)", "--order", "4"],
            ["verify", "--regime", "ode", "--order", "6"],
            ["verify", "--regime", "composite", "--skeleton", "F(f(x),g(h(x),x))", "--order", "4"],
        ],
    )
    def test_no_command_reads_key_or_canonical(self, argv, monkeypatch, capsys):
        # No command orders trees: neither the natural-order sort key nor
        # compare_trees is called.
        def unordered(*args):
            raise AssertionError("trees were ordered")

        monkeypatch.setattr(trees, "compare_trees", unordered)
        monkeypatch.setattr(trees, "sort_key", unordered)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class _ComprehensionFamily(enumeration._Family):
    """A family whose ``_inner`` builds ``at_most`` as a comprehension that
    tests every pool position against every measure left."""

    __slots__ = ()

    def _inner(self, colour, size, memo):
        budget = size - 1 if self.measure == "vertices" else size
        cap = budget - self.min_degree + 1
        kinds = sorted(self.children.get(colour, ())) if cap > 0 else []
        pool = [t for c in kinds for t in memo[c, cap]]
        measures = [getattr(t, self.measure) for t in pool]
        at_most = [[i for i, m in enumerate(measures) if m <= r] for r in range(budget + 1)]
        runs = [((), 0, budget)]
        degree = 0
        while runs:
            longer = []
            for kids, start, left in runs:
                positions = at_most[left]
                for i in positions[bisect_left(positions, start) :]:
                    longer.append((kids + (pool[i],), i, left - measures[i]))
            runs = longer
            degree += 1
            if degree >= self.min_degree:
                yield from runs


@pytest.mark.parametrize(
    "regime, text, sizes",
    [(Regime.ODE, None, range(1, 13)), (Regime.INVERSE, None, range(2, 11))]
    + [(Regime.COMPOSITE, text, range(1, 6)) for text in SKELETONS],
)
def test_at_most_lists_the_comprehension_positions(regime, text, sizes):
    family = family_of(regime, text and parse_skeleton(text))
    reference = _ComprehensionFamily(*family)
    for n in sizes:
        built, expected = family.trees(n), reference.trees(n)
        assert len(built) == len(expected)
        assert all(map(operator.is_, built, expected)), (regime, text, n)


def test_full_runs_never_read_the_index(monkeypatch):
    # A run with no measure left grows no child, so it bisects no index: no
    # tree measures 0, and at_most[0] is empty.
    def bisect_nonempty(positions, start):
        assert positions, "bisected an empty index"
        return bisect_left(positions, start)

    monkeypatch.setattr(enumeration, "bisect_left", bisect_nonempty)
    for n in range(1, 13):
        assert len(family_of(Regime.ODE, None).roots(n)) == A000081[n - 1]


def test_the_composite_family_is_built_in_skeletons():
    # Only the composite regime loads skeletons: enumeration holds no copy.
    from derivgraph import skeletons

    assert not hasattr(enumeration, "_composite_family")
    for text in SKELETONS:
        s = parse_skeleton(text)
        assert family_of(Regime.COMPOSITE, s) is skeletons._composite_family(s)


@pytest.mark.parametrize(
    "regime, text", [(Regime.ODE, None), (Regime.INVERSE, None), (Regime.COMPOSITE, "F(f(x),g(x))")]
)
def test_the_family_names_an_order_below_one(regime, text):
    # The one order check: every caller reaches it through roots or trees.
    family = family_of(regime, text and parse_skeleton(text))
    for k in (0, -1):
        for call in (family.roots, family.trees):
            with pytest.raises(ValueError, match=r"^order must be >= 1$"):
                call(k)


@pytest.mark.parametrize(
    "regime, text, sizes",
    [(Regime.ODE, None, range(1, 11)), (Regime.INVERSE, None, range(1, 10))]
    + [(Regime.COMPOSITE, text, range(1, 6)) for text in SKELETONS],
)
def test_roots_are_the_listed_trees_children(regime, text, sizes):
    # The listings write each row from its root's children: the run, the
    # numbers read from it and its text are those of the root trees() builds.
    family = family_of(regime, text and parse_skeleton(text))
    colour = family.palette[family.root]
    for n in sizes:
        built = family.trees(n)
        runs = family.roots(n)
        assert runs == [t.children for t in built], (regime, text, n)
        assert trees.format_roots(colour, runs) == trees.format_trees(built)
        nodes = []  # fold visits each distinct node once
        trees.fold(built, lambda t, kids: nodes.append(t))
        for t in nodes:
            assert trees.numbers(t.children) == (t.vertices, t.entrances, t.symmetry, t.complexity)


@cache
def listing(regime: Regime, text: str | None) -> tuple[list[Colour], list[Tree]]:
    """The regime's palette plus colours clashing with it, and its trees of order <= 6."""
    if text is None:
        colours = [DEFAULT_COLOUR, Colour(0, "y"), Colour(1, "*")]
    else:
        colours = [*family_of(Regime.COMPOSITE, parse_skeleton(text)).palette, Colour(0, "z")]
    skeleton = text and parse_skeleton(text)
    listed = [g.tree for n in range(1, 7) for g in enumerate_graphs(regime, n, skeleton)]
    return colours, listed


def candidate_trees(colours: list[Colour], listed: list[Tree]):
    """Raw trees over ``colours``, listed trees, and listed trees with one vertex more."""
    colour = st.sampled_from(colours)
    raw = st.recursive(
        colour.map(Tree),
        lambda kids: st.builds(Tree, colour, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=6,
    )
    near = st.builds(
        lambda t, c, wrap: Tree(c, (t,)) if wrap else Tree(t.colour, t.children + (Tree(c),)),
        st.sampled_from(listed),
        colour,
        st.booleans(),
    )
    return st.one_of(raw, st.sampled_from(listed), near)


class TestInRegime:
    @pytest.mark.parametrize(
        "regime,text",
        [
            (Regime.ODE, None),
            (Regime.INVERSE, None),
            (Regime.COMPOSITE, "F(f(x),g(x))"),
            (Regime.COMPOSITE, "h(F(x,x),G(y,x))"),
        ],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_in_regime_iff_enumerated(self, regime, text, data):
        colours, listed = listing(regime, text)
        t = data.draw(candidate_trees(colours, listed))
        graph = DerivativeGraph(t, regime, text and parse_skeleton(text))
        assume(graph.order <= 6)
        assert in_regime(graph) == (t in set(listed))

    def test_unsorted_children_are_not_in_the_regime(self):
        # Every rule but the child order holds: enumerate_graphs lists *{*{},*{*{}}} only.
        raw = parse_tree("*{*{*{}},*{}}")
        assert not in_regime(DerivativeGraph(raw, Regime.ODE))
        assert in_regime(DerivativeGraph(canonicalize(raw), Regime.ODE))

    def test_composite_without_a_skeleton_is_refused(self):
        term = "(term (regime composite) (sign 1) (weight 1) (tree f{g{x{}}}))"
        for call in [
            lambda: enumerate_graphs(Regime.COMPOSITE, 2),
            lambda: render_derivative(Regime.COMPOSITE, 2),
            lambda: verify(Regime.COMPOSITE, 2),
            lambda: parse_machine_term(term),
        ]:
            with pytest.raises(ValueError, match="composite regime requires a skeleton"):
                call()
