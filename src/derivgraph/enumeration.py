"""Derivative graphs of the three regimes: their order, trees, signs and weights.

One generator serves every regime (Otter's multiset recursion): a tree is a
leaf, or a root over a non-decreasing sequence of smaller trees drawn from a
pool in natural order.  Picking the children in pool order, one degree at a
time, yields each isomorphism class once, canonical and already sorted.

Composite and inverse graphs with n entrances weigh n!/S; an ODE tree with
n vertices weighs (n-1)!/(S*tau).  Both count labellings (of the
entrances; of the vertices, increasing from the root), so every weight is an
int.  The inverse regime alternates sign with the number of internal
vertices; every other regime is positive.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import accumulate, starmap
from math import factorial
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .trees import DEFAULT_COLOUR, Colour, Tree, compare_trees, fold, numbers

if TYPE_CHECKING:
    from .skeletons import Skeleton


class Regime(str, Enum):
    COMPOSITE = "composite"
    INVERSE = "inverse"
    ODE = "ode"


class DerivativeGraph(NamedTuple):
    """A canonical virtual graph tagged with its regime.

    Composite graphs carry their skeleton; vertex colours name the skeleton
    position (function) or base variable (entrance) they stand for, and a
    vertex's derivative order is its degree.  Only differentiated branches
    are materialized: evaluation points are recovered from the skeleton.
    """

    tree: Tree
    regime: Regime
    skeleton: Skeleton | None = None

    @property
    def order(self) -> int:
        regime = Regime(self.regime)  # the value string works too; any other value raises
        return self.tree.vertices if regime is Regime.ODE else self.tree.entrances


class WeightedGraph(NamedTuple):
    graph: DerivativeGraph
    sign: int  # +1 or -1
    weight: int


# Each regime's coefficient rule, the one place it lives: a tree's (S, tau
# column, sign, weight) from its trees.numbers (vertices, entrances, S, tau).
# The tau column is tau where the weight divides by it (ode) and 1 elsewhere.
# A value string finds its member's rule.
_COEFFICIENTS: dict[Regime, Callable[[int, int, int, int], tuple[int, int, int, int]]] = {
    Regime.ODE: lambda v, e, s, tau: (s, tau, 1, factorial(v - 1) // (s * tau)),
    Regime.INVERSE: lambda v, e, s, tau: (s, 1, (-1) ** (v - e), factorial(e) // s),
    Regime.COMPOSITE: lambda v, e, s, tau: (s, 1, 1, factorial(e) // s),
}


def weigh(graph: DerivativeGraph) -> WeightedGraph:
    """Attach the regime weight and sign to a canonical graph."""
    try:
        rule = _COEFFICIENTS[graph.regime]
    except (KeyError, TypeError):  # not a regime's value: Regime raises
        rule = _COEFFICIENTS[Regime(graph.regime)]
    t = graph.tree
    _, _, sign, weight = rule(t.vertices, t.entrances, t.symmetry, t.complexity)
    return tuple.__new__(WeightedGraph, (graph, sign, weight))  # as in enumerate_graphs


# ---------------------------------------------------------------------------
# The generator.


class _Family(NamedTuple):
    """The trees one regime enumerates; colours are indices into ``palette``.

    Every tree has root colour ``root``.  ``measure`` names the count a tree
    is sized by, "vertices" or "entrances".  A leaf has a colour in
    ``leaves``; an inner vertex has at least ``min_degree`` children,
    coloured from ``children[colour]``, which lists each colour once.
    ``nodes`` holds each colour's skeleton node (composite only, else empty).
    """

    palette: tuple[Colour, ...]
    root: int
    children: dict[int, tuple[int, ...]]
    leaves: frozenset[int]
    min_degree: int
    measure: str
    nodes: tuple[Skeleton, ...] = ()

    @property
    def skeleton(self) -> Skeleton | None:
        """The skeleton whose graphs these are, its root's node; None outside composite."""
        return self.nodes[self.root] if self.nodes else None

    def trees(self, size: int) -> list[Tree]:
        """Every canonical tree with measure ``size``, in natural order."""
        return [Tree(self.palette[self.root], kids) for kids in self.roots(size)]

    def roots(self, size: int) -> list[tuple[Tree, ...]]:
        """The children of each tree that ``trees(size)`` lists, building no root."""
        if size < 1:
            raise ValueError("order must be >= 1")
        # memo maps (colour, size) to _up_to's result for each argument colour,
        # sizes ascending (up to size - 1 for the root's colour).  Colours
        # with no arguments come first, then the deepest: a colour's arguments
        # rank above it (in ode and inverse, they are it).
        memo: dict[tuple[int, int], list[Tree]] = {}
        kinds = {c for kids in self.children.values() for c in kids}
        for colour in sorted(kinds, key=lambda c: (c in self.children, -c)):
            for s in range(1, size + (colour != self.root)):
                memo[colour, s] = self._up_to(colour, s, memo)
        out = [()] if size == 1 and self.root in self.leaves else []
        out.extend(kids for kids, _, left in self._inner(self.root, size, memo) if not left)
        return out

    def keeps(self, t: Tree, kids: list[bool]) -> bool:
        """A fold vertex: whether every vertex under ``t`` keeps the rules above,
        its children sorted in natural order as ``trees`` builds them."""
        if not kids:
            return t.colour.index in self.leaves
        allowed = {self.palette[i] for i in self.children.get(t.colour.index, ())}
        cs = t.children
        if not (all(kids) and len(cs) >= self.min_degree and {c.colour for c in cs} <= allowed):
            return False
        return all(compare_trees(a, b) <= 0 for a, b in zip(cs, cs[1:]))

    def _up_to(self, colour: int, size: int, memo: dict) -> list[Tree]:
        """Every canonical tree with root ``colour`` and measure at most ``size``.

        Each isomorphism class comes once, in natural order, and is built
        once.  ``memo`` holds the results for this colour's smaller sizes and
        for its arguments' colours.
        """
        # The trees measuring less than size are _up_to(colour, size - 1), in
        # the same natural order: take each from there instead of building it
        # again.  Natural order compares degree before children, so the leaf
        # is first.
        smaller = iter(memo[colour, size - 1] if size > 1 else ())
        root = self.palette[colour]
        out = [next(smaller) if size > 1 else Tree(root)] if colour in self.leaves else []
        out.extend(
            next(smaller) if left else Tree(root, kids)
            for kids, _, left in self._inner(colour, size, memo)
        )
        return out

    def _inner(self, colour: int, size: int, memo: dict):
        """Every inner tree with root ``colour`` and measure at most ``size``,
        in natural order, as (children, least next pool position, measure left).
        """
        # Measure left for the children: the root is one vertex but no entrance.
        budget = size - 1 if self.measure == "vertices" else size
        cap = budget - self.min_degree + 1  # the most one child can take
        # Natural order compares colour first, so the pool is sorted as built.
        kinds = sorted(self.children.get(colour, ())) if cap > 0 else []
        pool = [t for c in kinds for t in memo[c, cap]]
        measures = list(map(attrgetter(self.measure), pool))
        # Ascending pool positions of the trees measuring exactly r, one append
        # each, then at most r: at_most[r - 1] and exactly[r] merged in one sort.
        exactly = [[] for _ in range(budget + 1)]
        for i, m in enumerate(measures):
            exactly[m].append(i)
        at_most = list(accumulate(exactly, lambda below, more: sorted(below + more)))
        # Non-decreasing runs of pool positions: one more child per pass, and
        # in natural order within a pass.  A full run, with no measure left,
        # grows no further (no tree measures 0), so it never reads the index.
        runs = [((), 0, budget)]  # (children, least next position, measure left)
        degree = 0
        while runs:
            longer = []
            for kids, start, left in filter(itemgetter(2), runs):
                positions = at_most[left]
                for i in positions[bisect_left(positions, start) :]:
                    longer.append((kids + (pool[i],), i, left - measures[i]))
            runs = longer
            degree += 1
            if degree >= self.min_degree:
                yield from runs


# ---------------------------------------------------------------------------
# The regimes.  ODE, y' = f(y): order n = vertex count; a vertex of degree k
# carries the k-th derivative of the field.


_ODE = _Family((DEFAULT_COLOUR,), 0, {0: (0,)}, frozenset({0}), min_degree=1, measure="vertices")

# Inverse, x = g(y) for y = f(x): order n = entrance count; internal vertices
# have degree >= 2 (unary first-derivative wedges cancel against Dg and are
# never drawn) and a degree-k vertex carries the k-th derivative of f.  A
# leaf is Dg itself, so order 1 is the lone leaf.
_INVERSE = _Family(_ODE.palette, 0, _ODE.children, _ODE.leaves, min_degree=2, measure="entrances")


def family_of(regime: Regime, skeleton: Skeleton | None) -> _Family:
    """The generator of ``regime``'s trees: the one place each regime's rules live."""
    if regime is Regime.COMPOSITE:
        if skeleton is None:
            raise ValueError("composite regime requires a skeleton")
        from .skeletons import _composite_family  # only the composite regime builds one

        return _composite_family(skeleton)
    if regime is not Regime.ODE and regime is not Regime.INVERSE:
        return family_of(Regime(regime), skeleton)  # a value string; any other value raises
    return _ODE if regime is Regime.ODE else _INVERSE


def _request(regime: Regime, n: int, skeleton: Skeleton | None):
    """The one path of every command: the family, each order-n root's children
    (a run) and, lazily, each run's (S, tau column, sign, weight)."""
    family = family_of(regime, skeleton)
    runs = family.roots(n)
    return family, runs, starmap(_COEFFICIENTS[regime], map(numbers, runs))


def enumerate_graphs(
    regime: Regime, n: int, skeleton: Skeleton | None = None
) -> list[DerivativeGraph]:
    """All order-n derivative graphs of ``regime``, canonical, in natural order.

    ``skeleton`` is read in the composite regime only; other graphs carry none.
    """
    regime = Regime(regime)  # the value string works too; any other value raises
    family = family_of(regime, skeleton)
    skeleton = family.skeleton  # only composite graphs carry one
    # tuple.__new__ builds the record without the constructor's Python-level call.
    return [tuple.__new__(DerivativeGraph, (t, regime, skeleton)) for t in family.trees(n)]


def enumerate_ode(n: int) -> list[DerivativeGraph]:
    """All rooted trees with n vertices, isomorph-free, in natural order."""
    return enumerate_graphs(Regime.ODE, n)


def enumerate_inverse(n: int) -> list[DerivativeGraph]:
    """All inverse-regime trees with n entrances; n = 1 is the lone leaf, Dg."""
    return enumerate_graphs(Regime.INVERSE, n)


def enumerate_composite(skeleton: Skeleton, n: int) -> list[DerivativeGraph]:
    """All order-n derivative graphs of the joint mapping; order counts entrances.

    n must be >= 1: the order-0 "derivative" is the skeleton itself.
    """
    return enumerate_graphs(Regime.COMPOSITE, n, skeleton)


def in_regime(graph: DerivativeGraph) -> bool:
    """Whether ``enumerate_graphs`` lists ``graph`` at its order; one fold, no enumeration."""
    family, tree = family_of(graph.regime, graph.skeleton), graph.tree
    return tree.colour == family.palette[family.root] and fold((tree,), family.keeps)[0]
