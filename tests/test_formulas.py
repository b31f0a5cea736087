import re
from itertools import combinations

import pytest

from derivgraph.enumeration import DerivativeGraph, Regime, enumerate_graphs
from derivgraph.formulas import (
    parse_machine_term,
    render_derivative,
    render_term,
)
from derivgraph.skeletons import parse_skeleton
from derivgraph.trees import LEAF, Tree
from derivgraph.weights import weigh

CHAIN = parse_skeleton("f(g(x))")
TWO_COLOUR = parse_skeleton("F(f(x),g(x))")


class TestOdeText:
    def test_single_vertex(self):
        assert str(render_derivative(Regime.ODE, 1)) == "f(y)"

    def test_second_derivative(self):
        assert str(render_derivative(Regime.ODE, 2)) == "f(y)·Df(y)"

    def test_third_derivative(self):
        assert (
            str(render_derivative(Regime.ODE, 3))
            == "f(y)·Df(y)·Df(y) + ⟨f(y),f(y)⟩·D²f(y)"
        )

    def test_fourth_derivative_weights(self):
        formula = render_derivative(Regime.ODE, 4)
        assert [(t.sign, t.weight) for t in formula.terms] == [
            (1, 1),
            (1, 1),
            (1, 3),
            (1, 1),
        ]
        assert "3⟨f(y),f(y)·Df(y)⟩·D²f(y)" in str(formula)


class TestInverseText:
    def test_closed_form_first_derivative(self):
        assert str(render_derivative(Regime.INVERSE, 1)) == "(Df(g(y)))⁻¹"

    def test_second_derivative(self):
        assert (
            str(render_derivative(Regime.INVERSE, 2))
            == "-⟨Dg(y),Dg(y)⟩·D²f(g(y))·Dg(y)"
        )

    def test_third_derivative(self):
        assert str(render_derivative(Regime.INVERSE, 3)) == (
            "3⟨Dg(y),⟨Dg(y),Dg(y)⟩·D²f(g(y))·Dg(y)⟩·D²f(g(y))·Dg(y)"
            " - ⟨Dg(y),Dg(y),Dg(y)⟩·D³f(g(y))·Dg(y)"
        )

    def test_hand_built_unary_vertex(self):
        # Not an inverse graph (inner vertices have degree >= 2), but render_term
        # takes it, and a degree-1 vertex prints a first derivative Df.
        graph = DerivativeGraph(Tree(children=(Tree(children=(LEAF, LEAF)),)), Regime.INVERSE)
        wg = weigh(graph)
        assert render_term(wg) == "⟨⟨Dg(y),Dg(y)⟩·D²f(g(y))·Dg(y)⟩·Df(g(y))·Dg(y)"
        assert render_term(wg, "latex") == (
            r"\langle \langle Dg(y),Dg(y)\rangle \cdot D^{2}f(g(y))\cdot Dg(y)\rangle "
            r"\cdot Df(g(y))\cdot Dg(y)"
        )


class TestCompositeText:
    def test_chain_rule(self):
        formula = render_derivative(Regime.COMPOSITE, 1, skeleton=CHAIN)
        assert str(formula) == "f′(g(x))·g′(x)"

    def test_order_three(self):
        formula = render_derivative(Regime.COMPOSITE, 3, skeleton=CHAIN)
        assert str(formula) == (
            "f′(g(x))·g‴(x) + 3⟨g′(x),g″(x)⟩·f″(g(x))"
            " + ⟨g′(x),g′(x),g′(x)⟩·f‴(g(x))"
        )

    def test_two_colour_names_both_branches(self):
        formula = render_derivative(Regime.COMPOSITE, 2, skeleton=TWO_COLOUR)
        text = str(formula)
        assert "f″(x)" in text and "g″(x)" in text and "F″(f(x),g(x))" in text


class TestLatex:
    def test_ode(self):
        assert (
            str(render_derivative(Regime.ODE, 3, style="latex"))
            == r"f(y)\cdot Df(y)\cdot Df(y) + \langle f(y),f(y)\rangle \cdot D^{2}f(y)"
        )

    def test_composite_primes(self):
        assert (
            str(render_derivative(Regime.COMPOSITE, 1, style="latex", skeleton=CHAIN))
            == r"f'(g(x))\cdot g'(x)"
        )


class TestInjectivity:
    @pytest.mark.parametrize(
        "regime,skeleton,orders",
        [
            (Regime.ODE, None, range(1, 7)),
            (Regime.INVERSE, None, range(2, 7)),
            (Regime.COMPOSITE, CHAIN, range(1, 7)),
            (Regime.COMPOSITE, TWO_COLOUR, range(1, 7)),
        ],
    )
    def test_distinct_graphs_render_distinctly(self, regime, skeleton, orders):
        for style in ("text", "latex", "machine"):
            rendered = []
            for n in orders:
                for g in enumerate_graphs(regime, n, skeleton):
                    rendered.append(render_term(weigh(g), style))
            assert len(rendered) == len(set(rendered))


class TestMachineRoundTrip:
    @pytest.mark.parametrize(
        "regime,skeleton,orders",
        [
            (Regime.ODE, None, range(1, 7)),
            (Regime.INVERSE, None, range(2, 7)),
            (Regime.COMPOSITE, CHAIN, range(1, 7)),
        ],
    )
    def test_round_trip(self, regime, skeleton, orders):
        for n in orders:
            for g in enumerate_graphs(regime, n, skeleton):
                wg = weigh(g)
                assert parse_machine_term(render_term(wg, "machine"), skeleton) == wg

    @pytest.mark.parametrize(
        "regime,orders", [(Regime.ODE, range(1, 7)), (Regime.INVERSE, range(2, 7))]
    )
    def test_round_trip_drops_a_skeleton_outside_the_composite_regime(self, regime, orders):
        for n in orders:
            for g in enumerate_graphs(regime, n):
                wg = weigh(g)
                parsed = parse_machine_term(render_term(wg, "machine"), TWO_COLOUR)
                assert parsed == wg and parsed.graph.skeleton is None

    def test_tampered_weight_is_rejected(self):
        wg = weigh(enumerate_graphs(Regime.ODE, 4, None)[2])
        text = render_term(wg, "machine").replace("(weight 3)", "(weight 4)")
        with pytest.raises(ValueError):
            parse_machine_term(text)

    @pytest.mark.parametrize(
        "text,skeleton",
        [
            # Not canonical: the stored S is 1, the canonical tree has S 2 and weight 6.
            ("(term (regime ode) (sign 1) (weight 12) (tree *{*{},*{*{}},*{}}))", None),
            # Unsorted: *{*{},*{*{}}} is listed, with sign 1 and weight 3.
            ("(term (regime ode) (sign 1) (weight 3) (tree *{*{*{}},*{}}))", None),
            # Inverse order 1 is the closed form; inner vertices have degree >= 2.
            ("(term (regime inverse) (sign 1) (weight 1) (tree *{}))", None),
            ("(term (regime inverse) (sign -1) (weight 1) (tree *{*{}}))", None),
            # f(g(x)) has no x child under f, and its root is f.
            ("(term (regime composite) (sign 1) (weight 1) (tree f{x{}}))", CHAIN),
            ("(term (regime composite) (sign 1) (weight 1) (tree x{}))", CHAIN),
        ],
    )
    def test_tree_outside_the_regime_is_rejected(self, text, skeleton):
        regime = re.search(r"\(regime (\w+)\)", text).group(1)
        with pytest.raises(ValueError, match=rf"^\S+ is not a canonical {regime} graph$"):
            parse_machine_term(text, skeleton)

    def test_unsupported_style_rejected(self):
        wg = weigh(enumerate_graphs(Regime.ODE, 2, None)[0])
        with pytest.raises(ValueError):
            render_term(wg, "html")

    def test_text_outside_the_grammar_is_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_machine_term("x")
        assert str(err.value) == "not a machine-style term: 'x'"


class TestRenderDerivative:
    # Inverse order 1 is the closed form: the style is checked before it.
    @pytest.mark.parametrize("regime,n", [(Regime.ODE, 3), (Regime.INVERSE, 1)])
    def test_unsupported_style_rejected(self, regime, n):
        with pytest.raises(ValueError) as err:
            render_derivative(regime, n, "bogus")
        assert str(err.value) == "unsupported style 'bogus'"

    def test_machine_formula_is_one_term_a_line(self):
        assert str(render_derivative(Regime.ODE, 3, "machine")) == (
            "(term (regime ode) (sign 1) (weight 1) (tree *{*{*{}}}))\n"
            "(term (regime ode) (sign 1) (weight 1) (tree *{*{},*{}}))"
        )
