"""Oracle drivers: emitted graphs versus direct truncated-series computation.

Each trial draws small random rational jets, evaluates the weighted-graph
expansion of the requested derivative and the same derivative computed
directly by jet composition, reversion or ODE flow, and compares the two
exactly.  A mismatch is reported with the per-term breakdown; nothing is
ever compared with a tolerance.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from typing import Callable, NamedTuple

from .enumeration import Regime, _Family, enumerate_graphs, family_of
from .jets import _flow, _reverse, _scaled, compose, identity_jet
from .trees import LEAF, Tree, format_trees
from .weights import weigh


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value != 0 or not nonzero:
            return value


def _exponents(arity: int, n: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``arity`` entries and total at most ``n``, in lexicographic order."""
    out = []
    for m in range(n + 1):
        # One per multiset of m argument slots, as its count per slot.
        for slots in combinations_with_replacement(range(arity), m):
            alpha = [0] * arity
            for s in slots:
                alpha[s] += 1
            out.append(tuple(alpha))
    return sorted(out)


class TermValue(NamedTuple):
    tree: str
    sign: int
    weight: Fraction
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
    closed_form = regime is Regime.INVERSE and n == 1
    if closed_form:
        # No graph: the closed form (Df)^-1 = Dg is the value of a lone leaf.
        graphs, rows = [], [(LEAF, 1, Fraction(1))]
    else:
        graphs = enumerate_graphs(regime, n, skeleton)
        rows = [(wg.graph.tree, wg.sign, wg.weight) for wg in map(weigh, graphs)]
    row_monomial, monomials, coefficients = _like_terms(rows)

    rng = random.Random(seed)
    draw = partial(_draw_ode if regime is Regime.ODE else _draw_inverse, n)
    if regime is Regime.COMPOSITE:
        family = family_of(regime, skeleton)
        arities = {len(c) for c in family.children.values()}
        draw = partial(_draw_composite, family, {m: _exponents(m, n) for m in arities}, n)

    # Monomial m is N_m / q^(v_m), v_m vertices; C_m = K_m / L: sum K_m N_m q^(V-v_m) / (L q^V).
    sizes = [sum(c for _, c in m) for m in monomials]
    top = max(sizes, default=0)
    denominator, numerators = _scaled(coefficients)
    texts: list[str] | None = None  # only a failing report prints the trees
    mismatches: list[Mismatch] = []
    for trial in range(trials):
        expected, q, factor = draw(rng)
        values = [prod(factor(k) ** c for k, c in m) for m in monomials]
        total = sum(c * v * q ** (top - s) for c, v, s in zip(numerators, values, sizes))
        actual = Fraction(total, denominator * q**top)
        if actual != expected:
            if texts is None:
                texts = ["(closed form)"] if closed_form else format_trees(t for t, _, _ in rows)
            terms = tuple(
                TermValue(text, sign, weight, Fraction(values[m], q ** sizes[m]))
                for text, (_, sign, weight), m in zip(texts, rows, row_monomial)
            )
            mismatches.append(Mismatch(trial, expected, actual, terms))
    return Report(regime, n, trials, seed, len(graphs), tuple(mismatches))


def _vertex_key(t: Tree) -> tuple[int, ...]:
    """The vertex colour and its children's colours: all that its factor depends on."""
    return (t.colour.index,) + tuple(c.colour.index for c in t.children)


def _like_terms(rows: list[tuple[Tree, int, Fraction]]) -> tuple[list[int], list, list[Fraction]]:
    """Group (tree, sign, weight) rows into like terms, once for all trials.

    A tree's value is the product of its vertex factors, each fixed by the
    vertex's ``_vertex_key``, so trees with equal key multisets are like
    terms.  Returns each row's monomial, each monomial as sorted (key, count)
    pairs, and each monomial's coefficient: its rows' summed sign times weight.
    """
    index: dict[tuple, int] = {}  # a tree's sorted vertex keys -> its monomial
    key_of: dict[Tree, tuple[int, ...]] = {}  # each distinct node's _vertex_key
    row_monomial = []
    for tree, _, _ in rows:
        keys, stack = [], [tree]  # every vertex, on an explicit stack: no depth limit
        while stack:
            t = stack.pop()
            key = key_of.get(t)
            if key is None:
                key = key_of[t] = _vertex_key(t)
            keys.append(key)
            stack.extend(t.children)
        row_monomial.append(index.setdefault(tuple(sorted(keys)), len(index)))
    coefficients = [Fraction(0)] * len(index)
    for m, (_, sign, weight) in zip(row_monomial, rows):
        coefficients[m] += sign * weight
    return row_monomial, [tuple(Counter(keys).items()) for keys in index], coefficients


# One draw per trial and regime: random jets, in a fixed order, the expected
# derivative, a base q and a function from vertex key to the vertex factor times q.
Draw = tuple[Fraction, int, Callable[[tuple], int]]


def _draw_ode(n: int, rng: random.Random) -> Draw:
    field = [_random_fraction(rng) for _ in range(n + 2)]  # the last is y0, which no term needs
    # n vertices; one with k < n children (its key has k + 1 entries) is k! f_k = k! F_k / D.
    d, f = _scaled(field[:n])
    factor = [factorial(k) * c for k, c in enumerate(f)]
    return Fraction(_flow(f, n)[n], d**n), d, lambda key: factor[len(key) - 1]


def _draw_inverse(n: int, rng: random.Random) -> Draw:
    drawn = [_random_fraction(rng) for _ in range(n + 1)]
    # f(0) = 0 and f'(0) != 0, so f has an inverse g.  drawn[:2] are
    # replaced, not skipped, so each seed keeps its draws.
    d, f = _scaled([0, _random_fraction(rng, nonzero=True)] + drawn[2:])
    a = f[1]
    expected = Fraction(_reverse(f)[n] * d**n * factorial(n), a ** (2 * n - 1))
    # Over q = a: a leaf is Dg = D/a, an inner vertex k! f_k Dg = k! F_k / a.
    factor = [d] + [factorial(k) * c for k, c in enumerate(f) if k]
    return expected, a, lambda key: factor[len(key) - 1]


def _draw_composite(
    family: _Family, exponents: dict[int, list[tuple[int, ...]]], n: int, rng: random.Random
) -> Draw:
    # F's Taylor coefficients c_alpha, 1 <= |alpha| <= n, per position, with
    # one exponent per slot colour: slots of one colour are one base
    # variable, so they always receive the same inner jet.
    classes = family.children
    outer = {
        ci: {a: _random_fraction(rng) for a in exponents[len(cls)] if any(a)}
        for ci, cls in classes.items()
    }
    # Positions are coloured in preorder, so a position's arguments have
    # higher colours: highest first, each argument's jet is ready in time.
    jets = {ci: identity_jet(n) for ci in family.leaves}
    for ci in reversed(classes):
        jets[ci] = compose(outer[ci], [jets[c] for c in classes[ci]], n)
    expected = jets[family.root][n] * factorial(n)

    # D^k F[v_1..v_k] is d^alpha F(0) = alpha! c_alpha, alpha counting the children per slot
    # colour; 0 if a child fits no slot, 1 at a variable.  q: lcm of the drawn denominators.
    q = lcm(*(c.denominator for cs in outer.values() for c in cs.values()))
    factors: dict[tuple[int, ...], int] = {}

    def vertex_factor(key: tuple[int, ...]) -> int:
        ci = key[0]
        if ci not in outer:
            return q  # a variable
        if key not in factors:
            alpha = tuple(map(key[1:].count, classes[ci]))
            c = outer[ci][alpha] if sum(alpha) == len(key) - 1 else 0
            factors[key] = prod(map(factorial, alpha)) * c.numerator * (q // c.denominator)
        return factors[key]

    return expected, q, vertex_factor
