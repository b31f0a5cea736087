import re

import pytest

from derivgraph.enumeration import Regime
from derivgraph.formulas import parse_machine_term, render_derivative
from derivgraph.skeletons import parse_skeleton

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

    def test_thousand_deep_chain(self):
        # f0′(f1(…f999(x)…))·f1′(f2(…f999(x)…))·…·f999′(x): 3.0 M characters.
        depth = 1000
        skeleton = parse_skeleton("".join(f"f{i}(" for i in range(depth)) + "x" + ")" * depth)
        (term,) = render_derivative(Regime.COMPOSITE, 1, "text", skeleton).terms
        point = ["x"]  # point[j]: the argument text of f(depth - 1 - j)
        for i in reversed(range(1, depth)):
            point.append(f"f{i}({point[-1]})")
        expected = "·".join(f"f{i}′({point[depth - 1 - i]})" for i in range(depth))
        assert (term.sign, term.weight, term.text) == (1, 1, expected)
        assert term.text.startswith("f0′(f1(f2(") and term.text.endswith("·f998′(f999(x))·f999′(x)")


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
                formula = render_derivative(regime, n, style, skeleton)
                rendered.extend(term.text for term in formula.terms)
            assert len(rendered) == len(set(rendered))


class TestMachineRoundTrip:
    @pytest.mark.parametrize(
        "regime,skeleton,orders",
        [
            (Regime.ODE, None, range(1, 7)),
            (Regime.INVERSE, None, range(1, 7)),
            (Regime.COMPOSITE, CHAIN, range(1, 7)),
            (Regime.COMPOSITE, parse_skeleton("f(g(h(k(x))))"), range(1, 6)),
        ],
    )
    def test_round_trip(self, regime, skeleton, orders):
        for n in orders:
            for term in render_derivative(regime, n, "machine", skeleton).terms:
                assert parse_machine_term(term.text, skeleton) == term.graph

    @pytest.mark.parametrize(
        "regime,orders", [(Regime.ODE, range(1, 7)), (Regime.INVERSE, range(1, 7))]
    )
    def test_round_trip_drops_a_skeleton_outside_the_composite_regime(self, regime, orders):
        for n in orders:
            for term in render_derivative(regime, n, "machine").terms:
                parsed = parse_machine_term(term.text, TWO_COLOUR)
                assert parsed == term.graph and parsed.graph.skeleton is None

    def test_inverse_order_one_is_the_leaf_term(self):
        (term,) = render_derivative(Regime.INVERSE, 1, "machine").terms
        assert term.text == "(term (regime inverse) (sign 1) (weight 1) (tree *{}))"

    def test_weight_spellings_of_one_value_parse(self):
        # The grammar reads a weight as a rational: "6/2" and "03" are the weight 3.
        term = render_derivative(Regime.ODE, 4, "machine").terms[2]
        for weight in ["6/2", "03", "3/01"]:
            text = term.text.replace("(weight 3)", f"(weight {weight})")
            assert parse_machine_term(text) == term.graph

    def test_tampered_weight_is_rejected(self):
        term = render_derivative(Regime.ODE, 4, "machine").terms[2]
        text = term.text.replace("(weight 3)", "(weight 4)")
        with pytest.raises(ValueError):
            parse_machine_term(text)

    @pytest.mark.parametrize(
        "text,skeleton",
        [
            # Not canonical: the stored S is 1, the canonical tree has S 2 and weight 6.
            ("(term (regime ode) (sign 1) (weight 12) (tree *{*{},*{*{}},*{}}))", None),
            # Unsorted: *{*{},*{*{}}} is listed, with sign 1 and weight 3.
            ("(term (regime ode) (sign 1) (weight 3) (tree *{*{*{}},*{}}))", None),
            # Inverse inner vertices have degree >= 2.
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

    def test_text_outside_the_grammar_is_rejected(self):
        for text in [
            "x",
            "(term (regime ode) (sign 1) (weight 1/0) (tree *{}))",
            "(term (regime ode) (sign 1) (weight 0/0) (tree *{}))",
        ]:
            with pytest.raises(ValueError) as err:
                parse_machine_term(text)
            assert str(err.value) == f"not a machine-style term: {text!r}"


class TestRenderDerivative:
    # The style is checked before any graph is enumerated or weighed.
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (("bogus", 0, "bogus"), "'bogus' is not a valid Regime"),
            ((Regime.COMPOSITE, 0, "bogus"), "unsupported style 'bogus'"),
            ((Regime.COMPOSITE, 0, "text"), "composite regime requires a skeleton"),
            ((Regime.COMPOSITE, 0, "text", CHAIN), "order must be >= 1"),
        ],
    )
    def test_the_first_error_is_reported(self, args, message):
        # The regime, then the style, then the skeleton, then the order.
        with pytest.raises(ValueError) as err:
            render_derivative(*args)
        assert str(err.value) == message
