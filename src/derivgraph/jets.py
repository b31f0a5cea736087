"""Truncated power series with exact rational coefficients.

This is the brute-force side of every cross-check: composition, reversion
and ODE flow computed directly on coefficients, with tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Rat = int | Fraction


class Jet:
    """Univariate series c_0 + c_1 x + ... + c_N x^N, truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a jet needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Jet({[str(c) for c in self.coeffs]})"

    def _coerce(self, other: "Jet | Rat") -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet([other], order=self.order)

    def __add__(self, other: "Jet | Rat") -> "Jet":
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet([self.coeffs[k] + o.coeffs[k] for k in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet([-c for c in self.coeffs])

    def __sub__(self, other: "Jet | Rat") -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Rat) -> "Jet":
        return (-self) + other

    def __mul__(self, other: "Jet | Rat") -> "Jet":
        if not isinstance(other, Jet):
            return Jet([c * Fraction(other) for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Jet(out)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "Jet":
        return Jet(self.coeffs, order=order)

    def derivative_at_zero(self, k: int) -> Fraction:
        """k-th derivative at the expansion point: k! * c_k."""
        f = 1
        for i in range(2, k + 1):
            f *= i
        return self.coeffs[k] * f


def identity_jet(order: int) -> Jet:
    return Jet([0, 1], order=order)


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


def jet_reverse(f: Jet) -> Jet:
    """Compositional inverse g with f(g(x)) = x to the truncation order.

    Requires c_0 = 0 and c_1 != 0.  Solved coefficient by coefficient: the
    k-th coefficient of f(g) is f_1 g_k + sum_{j>=2} f_j [x^k] g^j, and for
    j >= 2 the term [x^k] g^j needs only g_1 .. g_{k-1}.  A table of those
    power coefficients grows by one column per order, so the whole
    reversion costs O(N^3) coefficient products.
    """
    if f[0] != 0:
        raise ValueError("series must have zero constant term")
    if f[1] == 0:
        raise ValueError("series with zero linear term has no compositional inverse")
    n = f.order
    g = [Fraction(0), 1 / Fraction(f[1])] + [Fraction(0)] * (n - 1)
    # power[j][m] = [x^m] g^j; power[1] is g itself, filled as g is solved.
    power = [[Fraction(1)] + [Fraction(0)] * n, g]
    power += [[Fraction(0)] * (n + 1) for _ in range(2, n + 1)]
    for k in range(2, n + 1):
        residue = Fraction(0)
        for j in range(2, k + 1):
            lower = power[j - 1]
            # g^j = g * g^(j-1), and g^(j-1) starts at x^(j-1).
            power[j][k] = sum(g[i] * lower[k - i] for i in range(1, k - j + 2))
            residue += f[j] * power[j][k]
        g[k] = -residue / f[1]
    return Jet(g)


def jet_ode_flow(f: Jet, y0: Rat, order: int) -> Jet:
    """Taylor jet in t of the solution of y' = f(y), y(0) = y0.

    ``f`` is the field's jet in (y - y0) around y0.  Each pass through the
    recurrence y_{k+1} = [f(y - y0)]_k / (k+1) gains one exact order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    y = [Fraction(y0)] + [Fraction(0)] * order
    for k in range(order):
        shifted = Jet([y[0] - Fraction(y0)] + y[1 : k + 1], order=k)
        rate = jet_compose(f.truncated(k), shifted)
        y[k + 1] = rate[k] / (k + 1)
    return Jet(y)


def compose(outer: dict[tuple[int, ...], Rat], inners: list[Jet], order: int) -> Jet:
    """Jet of x -> F(u_1(x), ..., u_k(x)) = sum_alpha c_alpha prod u_i^alpha_i.

    ``outer`` is F's sparse Taylor series: a dict from multi-index alpha
    (one exponent per argument) to c_alpha.  The inners must have zero
    constant terms; the result is truncated at ``order``, or at the lowest
    inner order if that is lower.  With no inners F is a constant.
    """
    if any(u[0] != 0 for u in inners):
        raise ValueError("inner jets must have zero constant terms")
    # powers[i][e] = u_i^e; exponents above the order contribute nothing.
    powers = []
    for u in inners:
        row = [Jet([1], order=order)]
        for _ in range(order):
            row.append(row[-1] * u)
        powers.append(row)
    result = Jet([0], order=order)
    for alpha, c in outer.items():
        if sum(alpha) <= order:
            term = Jet([c], order=order)
            for row, e in zip(powers, alpha):
                term = term * row[e]
            result = result + term
    return result
