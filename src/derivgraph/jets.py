"""Truncated power series with exact rational coefficients.

This is the brute-force side of every cross-check: composition, reversion
and ODE flow computed directly on coefficients, with tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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

    def derivative_at_zero(self, k: int) -> Fraction:
        """k-th derivative at the expansion point: k! * c_k."""
        return self.coeffs[k] * factorial(k)


def identity_jet(order: int) -> Jet:
    return Jet([0, 1], order=order)


def _power_table(u: list[Fraction], rows: int) -> list[list[Fraction]]:
    """power[j][m] = [x^m] u^j for j <= rows, m < len(u), where u_0 = 0.

    Row 1 *is* the list ``u``, so a caller may solve u in place, one
    coefficient at a time; rows j >= 2 start at zero for ``_fill_column``.
    """
    zeros = [Fraction(0)] * (len(u) - 1)
    return [[Fraction(1)] + zeros, u] + [[Fraction(0)] + zeros for _ in range(2, rows + 1)]


def _fill_column(power: list[list[Fraction]], m: int) -> None:
    """Fill power[j][m] for 2 <= j <= m; it needs only u_1 .. u_{m-1}."""
    u = power[1]
    for j in range(2, m + 1):
        lower = power[j - 1]
        # u^j = u * u^(j-1), and u^(j-1) starts at x^(j-1).
        power[j][m] = sum(u[i] * lower[m - i] for i in range(1, m - j + 2))


def jet_reverse(f: Jet) -> Jet:
    """Compositional inverse g with f(g(x)) = x to the truncation order.

    Requires c_0 = 0 and c_1 != 0.  Solved coefficient by coefficient: the
    k-th coefficient of f(g) is f_1 g_k + sum_{j>=2} f_j [x^k] g^j, and for
    j >= 2 the term [x^k] g^j needs only g_1 .. g_{k-1}.  The power table
    of g grows by one column per order, so the whole reversion costs
    O(N^3) coefficient products.
    """
    if f[0] != 0:
        raise ValueError("series must have zero constant term")
    if f[1] == 0:
        raise ValueError("series with zero linear term has no compositional inverse")
    n = f.order
    g = [Fraction(0), 1 / Fraction(f[1])] + [Fraction(0)] * (n - 1)
    power = _power_table(g, n)
    for k in range(2, n + 1):
        _fill_column(power, k)
        g[k] = -sum(f[j] * power[j][k] for j in range(2, k + 1)) / f[1]
    return Jet(g)


def jet_ode_flow(f: Jet, y0: Rat, order: int) -> Jet:
    """Taylor jet in t of the solution of y' = f(y), y(0) = y0.

    ``f`` is the field's jet in u = y - y0.  As in reversion, u is solved
    one coefficient at a time, u_{k+1} = [f(u)]_k / (k+1), from the power
    table of u, so the flow costs O(N^3) coefficient products.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    u = [Fraction(0)] * (order + 1)
    power = _power_table(u, order)
    for k in range(order):
        _fill_column(power, k)
        rate = sum(f[j] * power[j][k] for j in range(min(k, f.order) + 1))
        u[k + 1] = rate / (k + 1)
    return Jet([y0] + u[1:])


def compose(outer: dict[tuple[int, ...], Rat], inners: list[Jet], order: int) -> Jet:
    """Jet of x -> F(u_1(x), ..., u_k(x)) = sum_alpha c_alpha prod u_i^alpha_i.

    ``outer`` is F's sparse Taylor series: a dict from multi-index alpha
    (one exponent per argument) to c_alpha.  The inners must have zero
    constant terms.  Terms with |alpha| > ``order`` are dropped; the result
    is truncated at ``order`` and at the order of each inner that a kept
    term raises to a positive power.  With no inners F is a constant.
    """
    if any(u[0] != 0 for u in inners):
        raise ValueError("inner jets must have zero constant terms")
    # powers[i][e] = u_i^e for e <= order, known to min(order, u_i.order).
    powers = []
    for u in inners:
        power = _power_table(list(u.coeffs[: order + 1]), order)
        for m in range(2, len(power[1])):
            _fill_column(power, m)
        powers.append([Jet(row) for row in power])
    result = Jet([0], order=order)
    for alpha, c in outer.items():
        if sum(alpha) <= order:
            term = Jet([c], order=order)
            for row, e in zip(powers, alpha):
                if e:  # u_i^0 = 1 is known to every order
                    term = term * row[e]
            result = result + term
    return result
