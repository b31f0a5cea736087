"""Truncated power series with exact rational coefficients.

This is the brute-force side of every cross-check: composition, reversion
and ODE flow computed directly on coefficients, with tolerance zero.
Reversion and flow run on ints: for F = D·f, D the lcm of f's denominators,
a^(2k-1)·g_k (a = F_1; Knuth, TAOCP 2, §4.7) and k!·D^k·u_k are integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Sequence

Rat = int | Fraction


class Jet:
    """Univariate series c_0 + c_1 x + ... + c_N x^N, truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
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

    def __add__(self, other: "Jet | Rat") -> "Jet":
        o = other if isinstance(other, Jet) else Jet([other], order=self.order)
        n = min(self.order, o.order)
        return Jet([self.coeffs[k] + o.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "Jet | Rat") -> "Jet":
        if not isinstance(other, Jet):
            return Jet([c * Fraction(other) for c in self.coeffs])
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return Jet(out)

    __rmul__ = __mul__

    def derivative_at_zero(self, k: int) -> Fraction:
        """k-th derivative at the expansion point: k! * c_k."""
        return self.coeffs[k] * factorial(k)


def identity_jet(order: int) -> Jet:
    return Jet([0, 1], order=order)


def _power_table(u: list[Rat], rows: int) -> list[list[Rat]]:
    """power[j][m] = [x^m] u^j for j <= rows, m < len(u), where u_0 = 0.

    Row 1 *is* the list ``u``, so a caller may solve u in place, one coefficient
    at a time; rows j >= 2 start at 0 for ``_fill_column``, int or ``Fraction``.
    """
    zeros = [0] * (len(u) - 1)
    return [[1] + zeros, u] + [[0] + zeros for _ in range(2, rows + 1)]


def _fill_column(power: list[list[Rat]], m: int, u: list[Rat] | None = None) -> None:
    """Fill power[j][m] for 2 <= j <= m from u_1 .. u_{m-1}: row 1, or u if given."""
    u = power[1] if u is None else u
    for j in range(2, m + 1):
        lower = power[j - 1]
        # u^j = u * u^(j-1), and u^(j-1) starts at x^(j-1).
        power[j][m] = sum(u[i] * lower[m - i] for i in range(1, m - j + 2))


def _scaled(coeffs: Sequence[Rat]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators, and the integers D·c."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _reverse(f: list[int]) -> list[int]:
    """N with N(t) = t - sum_{j>=2} f_j a^(j-2) N(t)^j, a = f_1: O(N^3) int products.

    [t^k] N^j needs only N_1 .. N_{k-1} for j >= 2, so N is solved one coefficient,
    one power-table column at a time.  For F = D·f and g(x) = a N(D x / a^2),
    F(g) = D x reads a^2 N + sum_{j>=2} F_j a^j N^j = a^2 t: g_k = N_k D^k / a^(2k-1).
    """
    a, n = f[1], len(f) - 1
    g = [0, 1] + [0] * (n - 1)
    lifted = [0, 0] + [f[j] * a ** (j - 2) for j in range(2, n + 1)]
    power = _power_table(g, n)
    for k in range(2, n + 1):
        _fill_column(power, k)
        g[k] = -sum(lifted[j] * power[j][k] for j in range(2, k + 1))
    return g


def _flow(f: list[int], order: int) -> list[int]:
    """U with U_{k+1} = sum_j f_j E^j_k, E^j_m = sum_i C(m, i) U_i E^(j-1)_(m-i).

    For F = D·f and u_k = U_k / (k! D^k), E^j_m = m! D^m [t^m] u^j is u's power
    table, and u_{k+1} = [F(u)]_k / ((k+1) D), which needs only F_0 .. F_k, is
    this recursion, solved one coefficient at a time in O(N^3) int products.
    """
    u = [0] * (order + 1)
    power = _power_table(u, order)
    for k in range(order):
        _fill_column(power, k, [comb(k, i) * c for i, c in enumerate(u[:k])])
        u[k + 1] = sum(f[j] * power[j][k] for j in range(min(k, len(f) - 1) + 1))
    return u


def jet_reverse(f: Jet) -> Jet:
    """Compositional inverse g, f(g(x)) = x to f's order; needs c_0 = 0 and c_1 != 0."""
    if f[0] != 0:
        raise ValueError("series must have zero constant term")
    if f.order < 1 or f[1] == 0:
        raise ValueError("series with zero linear term has no compositional inverse")
    d, scaled = _scaled(f.coeffs)
    a, g = scaled[1], _reverse(scaled)
    return Jet([0] + [Fraction(g[k] * d**k, a ** (2 * k - 1)) for k in range(1, len(g))])


def jet_ode_flow(f: Jet, y0: Rat, order: int) -> Jet:
    """Taylor jet in t of the solution of y' = f(y), y(0) = y0; ``f`` is a jet in y - y0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    d, scaled = _scaled(f.coeffs[:order])
    u = _flow(scaled, order)
    return Jet([y0] + [Fraction(u[k], factorial(k) * d**k) for k in range(1, order + 1)])


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
        if len(alpha) != len(inners):
            raise ValueError(f"multi-index {alpha} needs {len(inners)} exponents, one per inner")
        if min(alpha, default=0) < 0:
            raise ValueError(f"multi-index {alpha} has a negative exponent")
        if sum(alpha) <= order:
            term = Jet([c], order=order)
            for row, e in zip(powers, alpha):
                if e:  # u_i^0 = 1 is known to every order
                    term = term * row[e]
            result = result + term
    return result
