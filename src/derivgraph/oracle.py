"""Oracle drivers: emitted graphs versus direct truncated-series computation.

Each trial draws small random rationals as reduced int pairs, evaluates the
weighted-graph expansion of the requested derivative and the same derivative
computed directly, by int kernels, and compares the two exactly, in ints.  A
composite jet is scaled by powers of q, the lcm of F's denominators.  Ode and
inverse share one recursion, ``_flow``: for F = D·f, D the lcm of f's
denominators (``_scaled``), the flow's k!·D^k·u_k are integers, and
``_reverse`` gives the inverse g, the flow of x' = 1/f'(x), as
k!·g_k = U_k / a^(2k-1), a = F_1, from the int field of z = x/a.  Only a
mismatch builds ``Fraction``s, to report the per-term breakdown.  Nothing is
ever compared with a tolerance.  A row is a run of ``_Family.roots`` (a
root's children) with its coefficient rule's sign and weight: no root or
record is built.  Only composite loads ``composite_draw``.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from math import comb, factorial, gcd, lcm, prod
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .enumeration import Regime, _request
from .trees import Tree, format_roots

if TYPE_CHECKING:
    from fractions import Fraction

    from .skeletons import Skeleton

Pair = tuple[int, int]  # a rational as (numerator, denominator), denominator nonzero


def _random_rational(rng: random.Random, nonzero: bool = False) -> Pair:
    """A reduced pair p/q, -9 <= p <= 9 and 1 <= q <= 9."""
    while True:
        p, q = rng.randint(-9, 9), rng.randint(1, 9)
        if p or not nonzero:
            g = gcd(p, q)
            return p // g, q // g


class TermValue(NamedTuple):
    tree: str
    sign: int
    weight: int
    value: Fraction


class Mismatch(NamedTuple):
    trial: int
    expected: Fraction
    actual: Fraction
    terms: tuple[TermValue, ...]

    @property
    def discrepancy(self) -> Fraction:
        return self.actual - self.expected


class Report(NamedTuple):
    regime: Regime
    n: int
    trials: int
    seed: int
    graph_count: int
    mismatches: tuple[Mismatch, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_text(self) -> str:
        head = (
            f"verify regime={self.regime.value} order={self.n} "
            f"trials={self.trials} seed={self.seed} graphs={self.graph_count}: "
        )
        if self.passed:
            return head + "PASS"
        lines = [head + f"FAIL ({len(self.mismatches)} mismatching trials)"]
        for m in self.mismatches:
            lines.append(
                f"  trial {m.trial}: expected {m.expected}, got {m.actual} "
                f"(discrepancy {m.discrepancy})"
            )
            worst = max(m.terms, key=lambda tv: abs(tv.value), default=None)
            for tv in m.terms:
                marker = "  <- max " if tv is worst else ""
                lines.append(f"    {tv.sign:+d} {tv.weight} * {tv.tree} = {tv.value}{marker}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "order": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "graphs": self.graph_count,
            "passed": self.passed,
            "mismatches": [
                {
                    "trial": m.trial,
                    "expected": str(m.expected),
                    "actual": str(m.actual),
                    "terms": [
                        dict(tv._asdict(), weight=str(tv.weight), value=str(tv.value))
                        for tv in m.terms
                    ],
                }
                for m in self.mismatches
            ],
        }


def verify(
    regime: Regime, n: int, trials: int = 20, seed: int = 0, skeleton: Skeleton | None = None
) -> Report:
    """Run ``trials`` independent exact comparisons at order ``n``."""
    regime = Regime(regime)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    family, runs, rows = _request(regime, n, skeleton)
    rows = [row[2:] for row in rows]  # (sign, weight)
    row_monomial, monomials, coefficients = _like_terms(family.root, runs, rows)

    rng = random.Random(seed)
    draw = partial(_draw_ode if regime is Regime.ODE else _draw_inverse, n)
    if regime is Regime.COMPOSITE:
        from .composite_draw import _draw_composite, _exponents  # only composite compiles it

        arities = {len(c) for c in family.children.values()}
        draw = partial(_draw_composite, family, {m: _exponents(m, n) for m in arities}, n)

    # Monomial m is N_m / q^(v_m), v_m vertices, with coefficient C_m: sum C_m N_m q^(V-v_m) / q^V.
    sizes = [sum(c for _, c in m) for m in monomials]
    top = max(sizes, default=0)
    texts: list[str] | None = None  # only a failing report prints the trees
    mismatches: list[Mismatch] = []
    for trial in range(trials):
        (num, den), q, factor = draw(rng)
        values = [prod(factor(k) ** c for k, c in m) for m in monomials]
        total = sum(c * v * q ** (top - s) for c, v, s in zip(coefficients, values, sizes))
        if num * q**top != total * den:  # num/den == total/q^top, in ints
            from fractions import Fraction  # only a failing report holds rationals

            if texts is None:
                texts = format_roots(family.palette[family.root], runs)
            terms = tuple(
                TermValue(text, sign, weight, Fraction(values[m], q ** sizes[m]))
                for text, (sign, weight), m in zip(texts, rows, row_monomial)
            )
            mismatches.append(Mismatch(trial, Fraction(num, den), Fraction(total, q**top), terms))
    return Report(regime, n, trials, seed, len(runs), tuple(mismatches))


def _vertex_key(t: Tree) -> tuple[int, ...]:
    """The vertex colour and its children's colours: all that its factor depends on."""
    return (t.colour.index,) + tuple(c.colour.index for c in t.children)


def _like_terms(root: int, runs: list, rows: list) -> tuple[list[int], list, list[int]]:
    """Group the roots of colour ``root`` over ``runs`` into like terms, once for all trials.

    A tree's value is the product of its vertex factors, each fixed by the
    vertex's ``_vertex_key``, so trees with equal key multisets are like
    terms.  Returns each row's monomial, each monomial as sorted (key, count)
    pairs, and each monomial's coefficient: its rows' summed sign times weight.
    """
    index: dict[tuple, int] = {}  # a tree's sorted vertex keys -> its monomial
    key_of: dict[Tree, tuple[int, ...]] = {}  # each distinct node's _vertex_key
    row_monomial = []
    for run in runs:
        # The root's key, then every vertex below, on an explicit stack: no depth limit.
        keys, stack = [(root,) + tuple(c.colour.index for c in run)], list(run)
        while stack:
            t = stack.pop()
            key = key_of.get(t)
            if key is None:
                key = key_of[t] = _vertex_key(t)
            keys.append(key)
            stack.extend(t.children)
        row_monomial.append(index.setdefault(tuple(sorted(keys)), len(index)))
    coefficients = [0] * len(index)
    for m, (sign, weight) in zip(row_monomial, rows):
        coefficients[m] += sign * weight
    return row_monomial, [tuple(Counter(keys).items()) for keys in index], coefficients


def _scaled(pairs: Sequence[Pair]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators, and the integers D·p/q."""
    d = lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]


def _reverse(f: list[int], d: int) -> list[int]:
    """U with k! g_k = U_k / a^(2k-1), g the inverse of the series f / d, a = f_1.

    x = g(y) is the flow of x' = 1/f'(x); so z = x / a flows by z' = S(z) / a^2 for
    S = d / (1 + sum_{i>=1} (i+1) f_{i+1} a^(i-1) z^i), whose coefficients are ints:
    ``_flow`` gives k! z_k = U_k / a^(2k), and g_k = a z_k.
    """
    a, n = f[1], len(f) - 1
    lifted = [(i + 1) * f[i + 1] * a ** (i - 1) for i in range(1, n)]
    s = [d]
    for k in range(1, n):
        s.append(-sum(c * s[k - i] for i, c in enumerate(lifted[:k], 1)))
    return _flow(s, n)


def _flow(f: list[int], order: int) -> list[int]:
    """U with U_{k+1} = sum_j f_j E^j_k, E^j_m = sum_i C(m, i) U_i E^(j-1)_(m-i).

    For F = D·f and u_k = U_k / (k! D^k), E^j_m = m! D^m [t^m] u^j is u's power
    table, and u_{k+1} = [F(u)]_k / ((k+1) D), which needs only F_0 .. F_k, is
    this recursion, solved one coefficient at a time in O(N^3) int products.
    """
    u = [0] * (order + 1)
    # power[j] is E^j, zero below t^j: row 1 is u itself, solved in place, and
    # row j >= 2 is u times row j - 1, filled one column k at a time.
    power = [[1] + [0] * order, u] + [[0] * (order + 1) for _ in range(2, order)]
    for k in range(order):
        c = [comb(k, i) * x for i, x in enumerate(u[:k])]
        for j in range(2, k + 1):
            lower = power[j - 1]
            power[j][k] = sum(c[i] * lower[k - i] for i in range(1, k - j + 2))
        u[k + 1] = sum(f[j] * power[j][k] for j in range(min(k, len(f) - 1) + 1))
    return u


# One draw per trial and regime: random rationals, in a fixed order, the expected
# derivative as a pair, a base q and a function from vertex key to the vertex factor times q.
Draw = tuple[Pair, int, Callable[[tuple], int]]


def _draw_ode(n: int, rng: random.Random) -> Draw:
    field = [_random_rational(rng) for _ in range(n + 2)]  # the last is y0, which no term needs
    # n vertices; one with k < n children (its key has k + 1 entries) is k! f_k = k! F_k / D.
    d, f = _scaled(field[:n])
    factor = [factorial(k) * c for k, c in enumerate(f)]
    return (_flow(f, n)[n], d**n), d, lambda key: factor[len(key) - 1]


def _draw_inverse(n: int, rng: random.Random) -> Draw:
    drawn = [_random_rational(rng) for _ in range(n + 1)]
    # f(0) = 0 and f'(0) != 0, so f has an inverse g.  drawn[:2] are
    # replaced, not skipped, so each seed keeps its draws.
    d, f = _scaled([(0, 1), _random_rational(rng, nonzero=True)] + drawn[2:])
    # Over q = a = F_1: a leaf is Dg = D/a, an inner vertex k! f_k Dg = k! F_k / a.
    factor = [d] + [factorial(k) * c for k, c in enumerate(f) if k]
    return (_reverse(f, d)[n], f[1] ** (2 * n - 1)), f[1], lambda key: factor[len(key) - 1]
