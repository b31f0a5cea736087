import importlib
import json
import random
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import integer_partitions
from derivgraph.enumeration import Regime, enumerate_graphs, family_of
from derivgraph.jets import Jet, compose, identity_jet, jet_ode_flow, jet_reverse
from derivgraph.skeletons import parse_skeleton
from derivgraph.trees import Tree, format_tree
from derivgraph.verify import verify
from derivgraph.weights import weigh

verify_module = importlib.import_module("derivgraph.verify")
jets_module = importlib.import_module("derivgraph.jets")

CHAIN = parse_skeleton("f(g(x))")
TWO_COLOUR = parse_skeleton("F(f(x),g(x))")
GOLDEN = Path(__file__).resolve().parent / "golden"


def crooked(monkeypatch):
    """Make ``verify`` weigh every graph 1/7 too heavily; return the crooked ``weigh``."""
    real = verify_module.weigh

    def weigh_plus_one_seventh(graph):
        wg = real(graph)
        return wg._replace(weight=wg.weight + Fraction(1, 7))

    monkeypatch.setattr(verify_module, "weigh", weigh_plus_one_seventh)
    return weigh_plus_one_seventh


def tree_values(trees, vertex_factor):
    """Independent reference: each tree's value, its vertex factor times its children's.

    A memo keyed by node identity evaluates a subtree shared by many trees
    once.  ``verify`` instead collects like terms; it is checked against this.
    """
    memo: dict[Tree, Fraction] = {}

    def value(t: Tree) -> Fraction:
        v = memo.get(t)
        if v is None:
            v = vertex_factor(t)
            for c in t.children:
                v *= value(c)
            memo[t] = v
        return v

    return [value(t) for t in trees]


@cache
def grouped(regime: Regime, n: int, skeleton: str | None = None):
    """The (tree, sign, weight) rows ``verify`` groups, and its grouping of them."""
    graphs = enumerate_graphs(regime, n, skeleton and parse_skeleton(skeleton))
    rows = [(wg.graph.tree, wg.sign, wg.weight) for wg in map(weigh, graphs)]
    return rows, verify_module._like_terms(rows)


GROUPED_CASES = (
    [(Regime.ODE, n, None) for n in range(1, 10)]
    + [(Regime.INVERSE, n, None) for n in range(2, 9)]
    + [(Regime.COMPOSITE, n, "f(g(x))") for n in range(1, 8)]
    + [(Regime.COMPOSITE, n, "F(f(x),g(x))") for n in range(1, 7)]
    + [(Regime.COMPOSITE, n, "F(x,x)") for n in range(1, 7)]
    + [(Regime.COMPOSITE, n, "F(x,y,z)") for n in range(1, 6)]
    + [(Regime.COMPOSITE, n, "h(F(x,x),G(y,x))") for n in range(1, 5)]
    + [(Regime.COMPOSITE, n, "F(f(x),f(x))") for n in range(1, 6)]
)


def draw_with_reference(regime: Regime, n: int, skeleton: str | None, seed: int):
    """One trial's draw from ``verify``, and the Fraction vertex factor built from its draws.

    The reference is the factor as rationals: k! f_k for ode, k! f_k Dg (Dg
    at a leaf) for inverse, alpha! c_alpha, 0 or 1 for composite.  For ode
    and inverse it also gives the expected value through the public jets.
    """
    drawn = []
    real = verify_module._random_fraction

    def record(rng, nonzero=False):
        drawn.append(real(rng, nonzero))
        return drawn[-1]

    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "_random_fraction", record)
        if regime is Regime.COMPOSITE:
            family = family_of(regime, parse_skeleton(skeleton))
            arities = {len(c) for c in family.children.values()}
            exponents = {m: verify_module._exponents(m, n) for m in arities}
            expected, q, factor = verify_module._draw_composite(family, exponents, n, rng)
        elif regime is Regime.ODE:
            expected, q, factor = verify_module._draw_ode(n, rng)
        else:
            expected, q, factor = verify_module._draw_inverse(n, rng)

    if regime is Regime.ODE:
        field = Jet(drawn[: n + 1])
        direct = jet_ode_flow(field, drawn[n + 1], n)[n] * factorial(n)
        return expected, q, factor, direct, lambda key: field.derivative_at_zero(len(key) - 1)
    if regime is Regime.INVERSE:
        f = Jet([0, drawn[n + 1]] + drawn[2 : n + 1])
        direct = jet_reverse(f)[n] * factorial(n)
        dg = 1 / f[1]
        return expected, q, factor, direct, lambda key: (
            f.derivative_at_zero(len(key) - 1) * dg if len(key) > 1 else dg
        )
    values = iter(drawn)
    classes = family.children
    outer = {ci: {a: next(values) for a in exponents[len(c)] if any(a)} for ci, c in classes.items()}

    def reference(key):
        if key[0] not in outer:
            return Fraction(1)
        alpha = tuple(map(key[1:].count, classes[key[0]]))
        if sum(alpha) != len(key) - 1:
            return Fraction(0)
        return prod(map(factorial, alpha)) * outer[key[0]][alpha]

    return expected, q, factor, expected, reference


class TestLikeTerms:
    @pytest.mark.parametrize("regime,n,skeleton", GROUPED_CASES)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_monomials_match_per_tree_products(self, regime, n, skeleton, data):
        rows, (row_monomial, monomials, coefficients) = grouped(regime, n, skeleton)
        keys = sorted({k for m in monomials for k, _ in m})
        nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
        factor = dict(zip(keys, data.draw(st.lists(nonzero, min_size=len(keys), max_size=len(keys)))))
        values = [prod(factor[k] ** c for k, c in m) for m in monomials]
        vertex_key = verify_module._vertex_key
        reference = tree_values([t for t, _, _ in rows], lambda t: factor[vertex_key(t)])
        assert [values[m] for m in row_monomial] == reference
        assert sum(c * v for c, v in zip(coefficients, values)) == sum(
            sign * weight * v for (_, sign, weight), v in zip(rows, reference)
        )

        # verify's own draw: monomial m is N_m / q^(v_m), v_m its vertex
        # count, and that is the product of the Fraction vertex factors.
        seed = data.draw(st.integers(0, 2**32 - 1))
        expected, q, factor, direct, fraction_factor = draw_with_reference(regime, n, skeleton, seed)
        assert expected == direct
        for m in monomials:
            size = sum(c for _, c in m)
            assert Fraction(prod(factor(k) ** c for k, c in m), q**size) == prod(
                fraction_factor(k) ** c for k, c in m
            )

    def test_one_monomial_per_partition_of_n_minus_one(self):
        # Pins the grouping key: a coarser one merges monomials, a finer one splits them.
        build = grouped.__wrapped__  # the large orders are not kept in the cache
        for regime, orders in [(Regime.ODE, range(1, 13)), (Regime.INVERSE, range(2, 12))]:
            for n in orders:
                _, (_, monomials, _) = build(regime, n)
                assert len(monomials) == len(integer_partitions(n - 1)), n
        _, (_, monomials, _) = build(Regime.INVERSE, 8)
        assert len(monomials) == 15

    def test_two_variables_give_one_monomial_per_graph(self):
        for n in range(1, 9):
            rows, (_, monomials, _) = grouped(Regime.COMPOSITE, n, "F(x,y)")
            assert len(rows) == len(monomials) == n + 1


# The per-slot oracle's vertex factor summed alpha! c_alpha over these; it
# is the reference for the per-class draw.
def _assignments(
    slot_root: tuple[int, ...], child_colours: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """How many ways each multi-index alpha arises when children pick slots.

    Each child goes to any argument slot whose root colour is its own;
    alpha counts the children per slot.
    """
    ways = {(0,) * len(slot_root): 1}
    for colour in child_colours:
        step: dict[tuple[int, ...], int] = {}
        for alpha, count in ways.items():
            for s, root in enumerate(slot_root):
                if root == colour:
                    beta = alpha[:s] + (alpha[s] + 1,) + alpha[s + 1 :]
                    step[beta] = step.get(beta, 0) + count
        ways = step
    return ways


def per_class(slot_root, c):
    """c~_beta = sum of c_alpha over the alpha that add up to beta per slot colour."""
    classes = tuple(dict.fromkeys(slot_root))
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, value in c.items():
        beta = tuple(sum(a for a, r in zip(alpha, slot_root) if r == colour) for colour in classes)
        out[beta] = out.get(beta, 0) + value
    return classes, out


@st.composite
def slot_draws(draw):
    """A position's slot root colours (repeats allowed), order, c and child colours."""
    slot_root = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    n = draw(st.integers(1, 4))
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    exponents = [a for a in verify_module._exponents(len(slot_root), n) if any(a)]
    c = dict(zip(exponents, draw(st.lists(rational, min_size=len(exponents), max_size=len(exponents)))))
    # Colour 4 is in no class; so is any of 1..3 that no slot has.
    children = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=n))))
    inners = {
        colour: Jet([0] + draw(st.lists(rational, min_size=n, max_size=n)))
        for colour in set(slot_root)
    }
    return slot_root, n, c, children, inners


class TestSlotColours:
    """One argument per slot colour is F restricted to equal arguments per colour."""

    @settings(max_examples=100, deadline=None)
    @given(slot_draws())
    def test_per_class_draw_is_the_pushforward_of_the_per_slot_draw(self, case):
        slot_root, n, c, children, inners = case
        classes, c_tilde = per_class(slot_root, c)

        # The graph side: the old sum over assignments is beta! c~_beta.
        old = sum(
            (count * prod(map(factorial, a)) * c[a] for a, count in _assignments(slot_root, children).items()),
            Fraction(0),
        )
        beta = tuple(map(children.count, classes))
        fits = sum(beta) == len(children)
        assert old == (prod(map(factorial, beta)) * c_tilde[beta] if fits else 0)

        # The direct side: one inner jet per slot or one per class, same jet.
        per_slot = compose(c, [inners[r] for r in slot_root], n)
        assert per_slot == compose(c_tilde, [inners[r] for r in classes], n)

        # verify's own draw, fed c~ in its draw order, agrees with both.
        exponents = verify_module._exponents(len(classes), n)
        drawn = iter([c_tilde[a] for a in exponents if any(a)])
        family = SimpleNamespace(children={0: classes}, leaves=range(1, 5), root=0)
        original = verify_module._random_fraction
        verify_module._random_fraction = lambda rng: next(drawn)
        try:
            expected, q, factor = verify_module._draw_composite(
                family, {len(classes): exponents}, n, None
            )
        finally:
            verify_module._random_fraction = original
        assert Fraction(factor((0,) + children), q) == old
        assert expected == compose(c, [identity_jet(n)] * len(slot_root), n)[n] * factorial(n)

    @pytest.mark.parametrize(
        "text,n,draws",
        [("F(" + ",".join(["x"] * 40) + ")", 2, 2), ("F(f(x),g(h(x),x))", 3, 9 + 3 + 9 + 3)],
    )
    def test_one_draw_per_multi_index_over_slot_colours(self, monkeypatch, text, n, draws):
        # C(n+m, m) - 1 per position and trial, m the number of distinct slot
        # colours; where no slot colour repeats, m is the arity.  One draw
        # per slot would take C(42, 2) - 1 = 860 for 40 x at order 2.
        calls = []
        real = verify_module._random_fraction
        monkeypatch.setattr(
            verify_module, "_random_fraction", lambda *a: calls.append(1) or real(*a)
        )
        skeleton = parse_skeleton(text)
        family = family_of(Regime.COMPOSITE, skeleton)
        per_trial = sum(comb(n + len(r), n) - 1 for r in family.children.values())
        assert per_trial == draws
        assert verify_module.verify(Regime.COMPOSITE, n, 3, 0, skeleton).passed
        assert len(calls) == 3 * draws


class TestComposite:
    def test_chain_order_four_passes(self):
        report = verify(Regime.COMPOSITE, 4, trials=20, seed=1, skeleton=CHAIN)
        assert report.passed
        assert report.graph_count == 5

    def test_partition_weights_at_order_four(self):
        from derivgraph.enumeration import enumerate_composite
        from derivgraph.weights import weigh

        by_partition = {}
        for g in enumerate_composite(CHAIN, 4):
            part = tuple(
                sorted((c.entrances for c in g.tree.children), reverse=True)
            )
            by_partition[part] = weigh(g).weight
        assert by_partition == {
            (1, 1, 1, 1): 1,
            (2, 1, 1): 6,
            (2, 2): 3,
            (3, 1): 4,
            (4,): 1,
        }

    def test_two_colour_passes(self):
        for n in range(1, 8):
            assert verify(Regime.COMPOSITE, n, 5, 3, TWO_COLOUR).passed

    def test_requires_skeleton(self):
        with pytest.raises(ValueError):
            verify(Regime.COMPOSITE, 3, 5, 0)

    @pytest.mark.parametrize(
        "text,top",
        [
            ("F(x,y,z)", 5),
            ("F(x,x)", 6),
            ("G(f(x),g(x),h(x))", 5),
            ("f(x,x,y)", 5),
            ("h(F(x,x),G(y,x))", 5),
            ("F(G(x,y),G(y,x))", 5),
            ("f(c(),x)", 5),
            ("F()", 5),
            ("F(x,g(x,y))", 5),
            ("F(" + ",".join(["x"] * 40) + ")", 4),
            ("F(" + ",".join(["x"] * 12) + ")", 6),
        ],
    )
    def test_any_arity_and_repeated_slots_pass(self, text, top):
        skeleton = parse_skeleton(text)
        for n in range(1, top + 1):
            assert verify(Regime.COMPOSITE, n, 5, 2, skeleton).passed

    @pytest.mark.parametrize("names", [["x"] * 1000, [f"x{i}" for i in range(1000)]])
    def test_a_thousand_arguments_verify_at_order_one(self, names):
        # One repeated slot (one graph) or a thousand distinct ones (one per slot).
        skeleton = parse_skeleton("F(" + ",".join(names) + ")")
        report = verify(Regime.COMPOSITE, 1, 2, 0, skeleton)
        assert report.passed
        assert report.graph_count == len(set(names))

    def test_deep_chain_passes(self):
        deep = parse_skeleton("f(g(h(x)))")
        for n in range(1, 6):
            assert verify(Regime.COMPOSITE, n, 5, 9, deep).passed

    def test_repeated_function_positions_pass(self):
        # f and f.2 are distinct positions with independent random jets.
        twin = parse_skeleton("F(f(x),f(x))")
        for n in range(1, 6):
            assert verify(Regime.COMPOSITE, n, 5, 4, twin).passed


class TestOde:
    def test_order_four_passes_with_paper_weights(self):
        report = verify(Regime.ODE, 4, trials=20, seed=1)
        assert report.passed
        assert report.graph_count == 4

    @pytest.mark.parametrize("n", range(1, 12))
    def test_all_orders(self, n):
        assert verify(Regime.ODE, n, 5, 11).passed


class TestInverse:
    def test_order_two_single_negative_term(self):
        report = verify(Regime.INVERSE, 2, trials=20, seed=1)
        assert report.passed
        assert report.graph_count == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_all_orders(self, n):
        assert verify(Regime.INVERSE, n, 5, 13).passed


class TestReport:
    def test_deterministic_for_equal_seed(self):
        a = verify(Regime.ODE, 5, 10, 42)
        b = verify(Regime.ODE, 5, 10, 42)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_dict_shape(self):
        report = verify(Regime.INVERSE, 3, 2, 0)
        d = report.to_dict()
        assert d["passed"] is True
        assert d["regime"] == "inverse"
        assert d["graphs"] == 2
        assert d["mismatches"] == []

    def test_text_states_pass(self):
        assert verify(Regime.ODE, 3, 2, 0).to_text().endswith("PASS")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verify(Regime.ODE, 3, 0, 0)

    def test_a_passing_run_formats_no_tree(self, monkeypatch):
        # Only a failing report prints the trees.
        def refuse(trees):
            raise AssertionError("format_trees called on a passing run")

        monkeypatch.setattr(verify_module, "format_trees", refuse)
        for regime, n, skeleton in [
            (Regime.ODE, 6, None),
            (Regime.INVERSE, 6, None),
            (Regime.INVERSE, 1, None),
            (Regime.COMPOSITE, 4, TWO_COLOUR),
        ]:
            assert verify_module.verify(regime, n, 5, 0, skeleton).passed

    def test_trials_build_no_fraction_per_term(self, monkeypatch):
        # Each trial builds its n + 2 drawn rationals (and a zero linear term's
        # redraw now and then), the expected value and one quotient for the
        # sum; the jets and monomials are ints.  Counted as the difference of
        # a 40- and a 20-trial run, so the per-run grouping cancels.  With
        # Fraction jets it was 41 a trial at order 8; here it is 12.05.
        built = []

        class Counting(Fraction):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(verify_module, "Fraction", Counting)
        monkeypatch.setattr(jets_module, "Fraction", Counting)
        n, counts = 8, []
        for trials in (20, 40):
            built.clear()
            assert verify_module.verify(Regime.INVERSE, n, trials, 0).passed
            counts.append(len(built))
        assert counts[1] - counts[0] < 20 * (n + 5)

    def test_corrupted_weight_is_detected(self, monkeypatch):
        weigh = crooked(monkeypatch)
        for regime, n, skeleton in [
            (Regime.ODE, 4, None),
            (Regime.INVERSE, 5, None),
            (Regime.COMPOSITE, 4, TWO_COLOUR),
            (Regime.COMPOSITE, 4, parse_skeleton("F(x,x)")),
            (Regime.COMPOSITE, 3, parse_skeleton("F(x,y,z)")),
            (Regime.COMPOSITE, 4, parse_skeleton("f(x,x,y)")),
            (Regime.COMPOSITE, 3, parse_skeleton("h(F(x,x),G(y,x))")),
        ]:
            report = verify_module.verify(regime, n, 3, 5, skeleton)
            assert not report.passed
            assert all(m.discrepancy != 0 for m in report.mismatches)
            text = report.to_text()
            assert "FAIL" in text and "max" in text

            # Every mismatch lists every graph, in enumeration order, with
            # the weight it was checked with and its value in that trial.
            graphs = enumerate_graphs(regime, n, skeleton)
            for m in report.mismatches:
                assert [tv.tree for tv in m.terms] == [format_tree(g.tree) for g in graphs]
                assert [(tv.sign, tv.weight) for tv in m.terms] == [
                    (wg.sign, wg.weight) for wg in map(weigh, graphs)
                ]
                assert m.actual == sum(tv.sign * tv.weight * tv.value for tv in m.terms)

    def test_failing_report_on_distinct_slots_matches_golden(self, monkeypatch):
        # Pins the draw order where no slot colour repeats: the file is this
        # report's to_dict() as json.dumps(..., indent=2) plus a newline.
        crooked(monkeypatch)
        skeleton = parse_skeleton("F(f(x),g(h(x),x))")
        report = verify_module.verify(Regime.COMPOSITE, 4, 3, 5, skeleton)
        golden = GOLDEN / "verify-composite-F_f_x_g_h_x_x-4-fail.json"
        assert json.dumps(report.to_dict(), indent=2) + "\n" == golden.read_text()

    def test_failing_report_on_repeated_slots_matches_golden(self, monkeypatch):
        # Pins the draw order per slot colour: F(x,x) has one class, G(y,x)
        # two, in slot order.  Same file format as above.
        crooked(monkeypatch)
        skeleton = parse_skeleton("h(F(x,x),G(y,x))")
        report = verify_module.verify(Regime.COMPOSITE, 3, 3, 5, skeleton)
        golden = GOLDEN / "verify-composite-h_F_x_x_G_y_x-3-fail.json"
        assert json.dumps(report.to_dict(), indent=2) + "\n" == golden.read_text()

    @pytest.mark.parametrize("regime", [Regime.INVERSE, Regime.ODE])
    def test_failing_report_on_one_colour_matches_golden(self, monkeypatch, regime):
        # Pins the ode and inverse draws and every term value of a failing
        # report, in the file format above.
        crooked(monkeypatch)
        report = verify_module.verify(regime, 8, 3, 5)
        golden = GOLDEN / f"verify-{regime.value}-8-fail.json"
        assert json.dumps(report.to_dict(), indent=2) + "\n" == golden.read_text()
