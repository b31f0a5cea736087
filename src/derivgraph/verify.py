"""Oracle drivers: emitted graphs versus direct truncated-series computation.

Each trial draws small random rational jets, evaluates the weighted-graph
expansion of the requested derivative and the same derivative computed
directly by jet composition, reversion or ODE flow, and compares the two
exactly.  A mismatch is reported with the per-term breakdown; nothing is
ever compared with a tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from operator import mul
from typing import Callable

from .enumeration import DerivativeGraph, Regime, composite_context, enumerate_graphs
from .jets import Jet, compose, identity_jet, jet_ode_flow, jet_reverse
from .skeletons import Skeleton
# format_tree is not called here, but stays bound: benchmarks/tracing.py
# wraps it in this module by name.
from .trees import Tree, format_tree, format_trees  # noqa: F401
from .weights import weigh


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value != 0 or not nonzero:
            return value


def _random_jet(
    rng: random.Random,
    order: int,
    zero_constant: bool = False,
    nonzero_linear: bool = False,
) -> Jet:
    coeffs = [_random_fraction(rng) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    if nonzero_linear:
        coeffs[1] = _random_fraction(rng, nonzero=True)
    return Jet(coeffs)


def _exponents(arity: int, n: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``arity`` entries and total at most ``n``, in lexicographic order."""
    if arity == 0:
        return [()]
    return [(a,) + rest for a in range(n + 1) for rest in _exponents(arity - 1, n - a)]


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


@dataclass(frozen=True)
class TermValue:
    tree: str
    sign: int
    weight: Fraction
    value: Fraction


@dataclass(frozen=True)
class Mismatch:
    trial: int
    expected: Fraction
    actual: Fraction
    terms: tuple[TermValue, ...]

    @property
    def discrepancy(self) -> Fraction:
        return self.actual - self.expected


@dataclass(frozen=True)
class Report:
    regime: Regime
    n: int
    trials: int
    seed: int
    graph_count: int
    mismatches: tuple[Mismatch, ...] = field(default_factory=tuple)

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
                lines.append(
                    f"    {tv.sign:+d} {tv.weight} * {tv.tree} = {tv.value}{marker}"
                )
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
                        {
                            "tree": tv.tree,
                            "sign": tv.sign,
                            "weight": str(tv.weight),
                            "value": str(tv.value),
                        }
                        for tv in m.terms
                    ],
                }
                for m in self.mismatches
            ],
        }


def verify(
    regime: Regime,
    n: int,
    trials: int = 20,
    seed: int = 0,
    skeleton: Skeleton | None = None,
) -> Report:
    """Run ``trials`` independent exact comparisons at order ``n``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    if regime is Regime.COMPOSITE:
        runner = _CompositeTrial(skeleton, n)
    elif regime is Regime.ODE:
        runner = _OdeTrial(n)
    else:
        runner = _InverseTrial(n)

    mismatches: list[Mismatch] = []
    for trial in range(trials):
        expected, values = runner.run(rng)
        actual = sum(map(mul, runner.coefficients, values), Fraction(0))
        if actual != expected:
            terms = tuple(TermValue(*row, value) for row, value in zip(runner.rows, values))
            mismatches.append(Mismatch(trial, expected, actual, terms))
    return Report(regime, n, trials, seed, runner.graph_count, tuple(mismatches))


def _derivatives(jet: Jet, n: int) -> list[Fraction]:
    return [jet.derivative_at_zero(k) for k in range(n + 1)]


class _Trial:
    """The graphs of one regime and order, weighed and formatted once for all trials.

    ``rows`` holds each graph's (formatted tree, sign, weight) in enumeration
    order, and ``coefficients`` each row's sign times weight.  A subclass's
    ``run`` draws one trial's jets and returns the expected derivative
    together with the value of every row.
    """

    def __init__(self, graphs: list[DerivativeGraph]):
        weighted = [weigh(g) for g in graphs]
        self.graph_count = len(weighted)
        self.trees = [wg.graph.tree for wg in weighted]
        texts = format_trees(self.trees)
        self.rows = [(text, wg.sign, wg.weight) for text, wg in zip(texts, weighted)]
        self.coefficients = [wg.sign * wg.weight for wg in weighted]

    def values(self, vertex_factor: Callable[[Tree], Fraction]) -> list[Fraction]:
        """Each tree's value: its vertex factor times its children's values.

        Trees are interned, so a subtree shared by many graphs is one node;
        the memo (one per trial, keyed by node identity) evaluates it once.
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

        return [value(t) for t in self.trees]


class _OdeTrial(_Trial):
    def __init__(self, n: int):
        super().__init__(enumerate_graphs(Regime.ODE, n))
        self.n = n

    def run(self, rng: random.Random) -> tuple[Fraction, list[Fraction]]:
        field_jet = _random_jet(rng, self.n)
        y0 = _random_fraction(rng)
        flow = jet_ode_flow(field_jet, y0, self.n)
        expected = flow[self.n] * factorial(self.n)
        derivs = _derivatives(field_jet, self.n)
        return expected, self.values(lambda t: derivs[t.degree])


class _InverseTrial(_Trial):
    def __init__(self, n: int):
        super().__init__([] if n == 1 else enumerate_graphs(Regime.INVERSE, n))
        self.n = n
        if n == 1:
            self.rows = [("(closed form)", 1, Fraction(1))]
            self.coefficients = [Fraction(1)]

    def run(self, rng: random.Random) -> tuple[Fraction, list[Fraction]]:
        f = _random_jet(rng, self.n, zero_constant=True, nonzero_linear=True)
        g = jet_reverse(f)
        expected = g[self.n] * factorial(self.n)
        dg = 1 / f[1]
        if self.n == 1:
            return expected, [dg]
        # One Dg per entrance plus one per internal vertex wedge.  Inner
        # vertices have degree >= 2, so slot 0 is free for the leaf factor.
        factor = [dg] + [d * dg for d in _derivatives(f, self.n)[1:]]
        return expected, self.values(lambda t: factor[t.degree])


class _CompositeTrial(_Trial):
    def __init__(self, skeleton: Skeleton | None, n: int):
        if skeleton is None:
            raise ValueError("composite regime requires a skeleton")
        self.n = n
        self.ctx = composite_context(skeleton)
        super().__init__(enumerate_graphs(Regime.COMPOSITE, n, skeleton))

    def run(self, rng: random.Random) -> tuple[Fraction, list[Fraction]]:
        # F's Taylor coefficients c_alpha, 1 <= |alpha| <= n, per position.
        outer = {
            ci: {a: _random_fraction(rng) for a in _exponents(node.arity, self.n) if any(a)}
            for ci, node in self.ctx.node_by_colour.items()
        }

        def evaluate(node: Skeleton, path: tuple[int, ...] = ()) -> Jet:
            if node.is_variable:
                return identity_jet(self.n)
            args = [evaluate(c, path + (i,)) for i, c in enumerate(node.children)]
            return compose(outer[self.ctx.node_colour(path).index], args, self.n)

        direct = evaluate(self.ctx.skeleton)
        expected = direct[self.n] * factorial(self.n)

        # D^k F[v_1..v_k] at a vertex: the sum of d^alpha F(0) = alpha! c_alpha
        # over every assignment of its children to matching slots.  It
        # depends only on the vertex colour and the children's colours.
        factors: dict[tuple[int, ...], Fraction] = {}

        def vertex_factor(t: Tree) -> Fraction:
            ci = t.colour.index
            if ci not in outer:
                return Fraction(1)  # a variable
            key = (ci,) + tuple(c.colour.index for c in t.children)
            if key not in factors:
                ways = _assignments(self.ctx.slot_root[ci], key[1:])
                factors[key] = sum(
                    (count * prod(map(factorial, a)) * outer[ci][a] for a, count in ways.items()),
                    Fraction(0),
                )
            return factors[key]

        return expected, self.values(vertex_factor)
