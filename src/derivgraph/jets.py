"""Truncated power series with exact rational coefficients.

The public ``Fraction`` face of ``oracle``'s one integer series kernel, the
flow its trials run with no ``Jet`` and no ``Fraction``: ODE flow and reversion
scale f to ints, run it and give the result back as a ``Jet``.  Reversion is
the flow of x' = 1/f'(x), in z = x/a, a = D·f_1: k!·g_k = U_k / a^(2k-1).
Series compose by ``Jet`` products: F(u_1, ..., u_m) = sum_alpha c_alpha
prod u_i^alpha_i, one product per unit of alpha.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable

from .oracle import _flow, _reverse, _scaled

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


def jet_reverse(f: Jet) -> Jet:
    """Compositional inverse g, f(g(x)) = x to f's order; needs c_0 = 0 and c_1 != 0."""
    if f[0] != 0:
        raise ValueError("series must have zero constant term")
    if f.order < 1 or f[1] == 0:
        raise ValueError("series with zero linear term has no compositional inverse")
    d, scaled = _scaled([c.as_integer_ratio() for c in f.coeffs])
    a, u = scaled[1], _reverse(scaled, d)
    return Jet([0] + [Fraction(u[k], factorial(k) * a ** (2 * k - 1)) for k in range(1, len(u))])


def jet_ode_flow(f: Jet, y0: Rat, order: int) -> Jet:
    """Taylor jet in t of the solution of y' = f(y), y(0) = y0; ``f`` is a jet in y - y0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    d, scaled = _scaled([c.as_integer_ratio() for c in f.coeffs[:order]])
    u = _flow(scaled, order)
    return Jet([y0] + [Fraction(u[k], factorial(k) * d**k) for k in range(1, order + 1)])
