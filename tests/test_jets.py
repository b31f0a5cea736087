from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivgraph.jets import Jet, compose, identity_jet, jet_ode_flow, jet_reverse

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)
# Wide rationals for the integer kernels: the scaled integers grow with D.
wide = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def jets(order: int, zero_constant: bool = False, nonzero_linear: bool = False):
    def build(coeffs):
        if zero_constant:
            coeffs = [Fraction(0)] + coeffs[1:]
        if nonzero_linear and coeffs[1] == 0:
            coeffs = coeffs[:1] + [Fraction(1)] + coeffs[2:]
        return Jet(coeffs)

    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(build)


# Independent univariate references: repeated Jet products, no power table.
# ``compose``, ``jet_reverse`` and ``jet_ode_flow`` are checked against them.


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Taylor coefficients of outer(inner(x)); inner must have c_0 = 0."""
    if inner[0] != 0:
        raise ValueError("inner jet must have zero constant term")
    n = min(outer.order, inner.order)
    result = Jet([outer[0]], order=n)
    power = Jet([1], order=n)
    for k in range(1, n + 1):
        power = power * inner
        result = result + power * outer[k]
    return result


def reference_ode_flow(f: Jet, y0, order: int) -> Jet:
    """The O(N^4) flow: a full ``jet_compose`` for every order gained."""
    y = [Fraction(y0)] + [Fraction(0)] * order
    for k in range(order):
        shifted = Jet([y[0] - Fraction(y0)] + y[1 : k + 1], order=k)
        rate = jet_compose(Jet(f.coeffs, order=k), shifted)
        y[k + 1] = rate[k] / (k + 1)
    return Jet(y)


class TestCompose:
    def test_identity_outer(self):
        g = Jet([0, 2, Fraction(1, 3), -1])
        assert jet_compose(identity_jet(3), g) == g

    def test_hand_expanded_example(self):
        outer = Jet([1, 1, 1, 1])
        inner = Jet([0, 1, 1, 0])
        assert jet_compose(outer, inner) == Jet([1, 1, 2, 3])

    def test_rejects_nonzero_inner_constant(self):
        with pytest.raises(ValueError):
            jet_compose(Jet([1, 1]), Jet([1, 1]))

    @settings(max_examples=50, deadline=None)
    @given(jets(8), jets(8, zero_constant=True), jets(8, zero_constant=True))
    def test_associativity(self, f, g, h):
        assert jet_compose(jet_compose(f, g), h) == jet_compose(f, jet_compose(g, h))


class TestReverse:
    def test_identity(self):
        assert jet_reverse(identity_jet(4)) == identity_jet(4)

    def test_hand_solved_example(self):
        assert jet_reverse(Jet([0, 1, 1, 0])) == Jet([0, 1, -1, 2])

    def test_rejects_zero_linear_term(self):
        with pytest.raises(ValueError):
            jet_reverse(Jet([0, 0, 1]))

    def test_a_constant_has_no_linear_term(self):
        # An order-0 jet has no c_1 to read: the same refusal, not an IndexError.
        with pytest.raises(ValueError, match="zero linear term"):
            jet_reverse(Jet([0]))

    def test_rejects_a_nonzero_constant_term(self):
        with pytest.raises(ValueError) as err:
            jet_reverse(Jet([1, 1]))
        assert str(err.value) == "series must have zero constant term"

    def test_catalan_numbers(self):
        # x - x^2 reverses to sum_k C_{k-1} x^k.
        g = jet_reverse(Jet([0, 1, -1], order=12))
        catalan = [comb(2 * m, m) // (m + 1) for m in range(12)]
        assert g == Jet([0] + catalan)

    def test_order_one_closed_form(self):
        assert jet_reverse(Jet([0, Fraction(-3, 4)])) == Jet([0, Fraction(-4, 3)])

    def test_order_two_closed_form(self):
        # g_2 = -f_2 / f_1^3
        f1, f2 = Fraction(2, 3), Fraction(-5, 7)
        assert jet_reverse(Jet([0, f1, f2])) == Jet([0, 1 / f1, -f2 / f1**3])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_two_sided_inverse(self, data):
        for order in range(1, 13):
            f = data.draw(jets(order, zero_constant=True, nonzero_linear=True))
            g = jet_reverse(f)
            ident = identity_jet(order)
            assert jet_compose(f, g) == ident
            assert jet_compose(g, f) == ident


class TestIntegerKernels:
    """``jet_reverse`` and ``jet_ode_flow`` run on D·f in ints; checked on wide rationals."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_reverse_is_a_two_sided_inverse(self, data):
        # Linear terms of either sign and any size, denominators to 10^6.
        order = data.draw(st.integers(1, 12))
        tail = data.draw(st.lists(wide, min_size=order - 1, max_size=order - 1))
        f = Jet([0, data.draw(wide.filter(bool))] + tail)
        g = jet_reverse(f)
        ident = identity_jet(order)
        assert jet_compose(f, g) == ident
        assert jet_compose(g, f) == ident
        # The integrality the kernel rests on: a^(2k-1) g_k / D^k is an integer.
        d = lcm(*(c.denominator for c in f.coeffs))
        a = f[1] * d
        assert all((g[k] * a ** (2 * k - 1) / d**k).denominator == 1 for k in range(1, order + 1))

    def test_reverse_with_negative_non_unit_linear_term(self):
        f = Jet([0, Fraction(-999999, 1000000), Fraction(5, 999983), Fraction(-3, 7)])
        g = jet_reverse(f)
        assert jet_compose(f, g) == identity_jet(3)
        f1, f2, f3 = f.coeffs[1:]
        # g_2 = -f_2 / f_1^3, g_3 = (2 f_2^2 - f_1 f_3) / f_1^5
        assert g == Jet([0, 1 / f1, -f2 / f1**3, (2 * f2**2 - f1 * f3) / f1**5])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda m: st.lists(wide, min_size=m + 1, max_size=m + 1)), wide)
    def test_flow_matches_the_reference_flow(self, coeffs, y0):
        # Field jets shorter than the flow order (f.order < order) and longer.
        f = Jet(coeffs)
        reference = reference_ode_flow(f, y0, 12)
        for order in range(1, 13):
            assert jet_ode_flow(f, y0, order) == Jet(reference.coeffs, order=order)
        # k! D^k u_k is an integer, D the lcm of f_0 .. f_11's denominators.
        d = lcm(*(c.denominator for c in f.coeffs[:12]))
        assert all((reference[k] * factorial(k) * d**k).denominator == 1 for k in range(1, 13))


class TestOdeFlow:
    def test_exponential(self):
        # y' = y, y(0) = 1: the field's jet in (y - 1) around 1 is 1 + u
        flow = jet_ode_flow(Jet([1, 1], order=6), 1, 6)
        assert flow == Jet([Fraction(1, factorial(k)) for k in range(7)])

    def test_geometric(self):
        # y' = y^2, y(0) = 1: y = 1/(1-t), field jet (1 + u)^2 around 1
        flow = jet_ode_flow(Jet([1, 2, 1], order=6), 1, 6)
        assert flow == Jet([1] * 7)

    def test_constant_field(self):
        flow = jet_ode_flow(Jet([5], order=3), 2, 3)
        assert flow == Jet([2, 5, 0, 0])

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            jet_ode_flow(Jet([1, 1]), 0, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 17).flatmap(jets), rationals)
    def test_matches_the_reference_flow(self, f, y0):
        # Field jets shorter than, as long as and longer than the flow order.
        # The reference's first N passes are its whole order-N run, so one
        # order-16 reference serves every N <= 16.
        reference = reference_ode_flow(f, y0, 16)
        for order in range(1, 17):
            assert jet_ode_flow(f, y0, order) == Jet(reference.coeffs, order=order)


class TestArithmetic:
    def test_mul_truncates_to_lowest_order(self):
        assert (Jet([1, 1, 1]) * Jet([1, 1])).order == 1

    def test_exactness(self):
        j = Jet([Fraction(1, 3)] * 4)
        assert (3 * j)[0] == 1

    def test_derivative_at_zero(self):
        j = Jet([5, 4, 3, 2])
        assert j.derivative_at_zero(3) == 12

    def test_empty_jet_is_rejected(self):
        with pytest.raises(ValueError) as err:
            Jet([])
        assert str(err.value) == "a jet needs at least the constant coefficient"

    def test_repr_prints_exact_coefficients(self):
        assert repr(Jet([0, Fraction(1, 2)])) == "Jet(['0', '1/2'])"


class TestBivariate:
    def test_linear_sum_gives_binomials(self):
        # F(u, v) = u + v composed with f = g = t reproduces (nothing to mix)
        t = identity_jet(4)
        assert compose({(1, 0): 1, (0, 1): 1}, [t, t], 4) == Jet([0, 2, 0, 0, 0])

    def test_product_function(self):
        f = Jet([0, 1, 1], order=4)
        g = Jet([0, 2], order=4)
        assert compose({(1, 1): 1}, [f, g], 4) == Jet([0, 0, 2, 2, 0])

    def test_partial_at_zero(self):
        # F = u^2 v / 2 has F_uuv = 1; F(x, x) = x^3 / 2, and its third
        # derivative sums F_uuv over the 3 ways to give two of x, x, x to u.
        t = identity_jet(3)
        assert compose({(2, 1): Fraction(1, 2)}, [t, t], 3).derivative_at_zero(3) == 3


class TestMultivariate:
    def test_three_arguments(self):
        # F = u v w + u with u = x + x^2, v = 2x, w = -x.
        u, v, w = Jet([0, 1, 1], order=4), Jet([0, 2], order=4), Jet([0, -1], order=4)
        assert compose({(1, 1, 1): 1, (1, 0, 0): 1}, [u, v, w], 4) == Jet([0, 1, 1, -2, -2])

    def test_repeated_argument(self):
        # F(x, x) for F = a u^2 + b u v + c v^2: F_uu + 2 F_uv + F_vv = 2(a + b + c).
        a, b, c = Fraction(1, 3), Fraction(-2), Fraction(5, 7)
        t = identity_jet(2)
        jet = compose({(2, 0): a, (1, 1): b, (0, 2): c}, [t, t], 2)
        assert jet.derivative_at_zero(2) == 2 * (a + b + c)

    def test_no_arguments_is_a_constant(self):
        assert compose({(): 5}, [], 3) == Jet([5, 0, 0, 0])

    def test_terms_above_the_order_vanish(self):
        t = identity_jet(2)
        assert compose({(1, 0): 1, (2, 1): 1}, [t, t], 2) == Jet([0, 1, 0])

    def test_rejects_nonzero_inner_constant(self):
        with pytest.raises(ValueError):
            compose({(1,): 1}, [Jet([1, 1])], 1)

    @pytest.mark.parametrize("outer,inners", [({(0, 2): 1}, [identity_jet(4)]), ({(1,): 1}, [])])
    def test_rejects_a_multi_index_of_the_wrong_length(self, outer, inners):
        # Zipping would drop the extra or missing exponents and return the constant 1.
        with pytest.raises(ValueError, match="one per inner"):
            compose(outer, inners, 4)

    def test_rejects_a_negative_exponent(self):
        # Indexing the power table with -1 would read its last row: x^3 here.
        with pytest.raises(ValueError, match="negative exponent"):
            compose({(-1,): 1}, [identity_jet(3)], 3)
        with pytest.raises(ValueError, match="negative exponent"):
            compose({(2, -1): 1}, [identity_jet(3)] * 2, 3)

    def test_truncates_only_at_the_inners_a_term_uses(self):
        a, b = Jet([0, 1, 1, 1, 1]), Jet([0, 2, 1])
        # b is an argument, but no term raises it to a positive power.
        assert compose({(1, 0): 1}, [a, b], 4) == Jet([0, 1, 1, 1, 1])
        # Once a term uses b, the result is known only to b's order 2.
        assert compose({(1, 0): 1, (0, 1): 1}, [a, b], 4) == Jet([0, 3, 2])

    @settings(max_examples=50, deadline=None)
    @given(jets(8), jets(8, zero_constant=True))
    def test_unary_outer_matches_jet_compose(self, outer, inner):
        coeffs = {(k,): c for k, c in enumerate(outer.coeffs)}
        assert compose(coeffs, [inner], 8) == jet_compose(outer, inner)
