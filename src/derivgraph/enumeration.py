"""Duplicate-free generation of derivative graphs for the three regimes.

One generator serves every regime (Otter's multiset recursion): a tree is a
leaf, or a root over a non-decreasing sequence of smaller trees drawn from a
pool in natural order.  Picking the children in pool order, one degree at a
time, yields each isomorphism class once, canonical and already sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .trees import DEFAULT_COLOUR, Colour, Tree, compare_trees, fold


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
        if self.regime is Regime.ODE:
            return self.tree.vertices
        return self.tree.entrances


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

    def trees(self, size: int) -> list[Tree]:
        """Every canonical tree with measure ``size``, in natural order."""
        # memo maps (colour, size) to _up_to's result for each argument colour,
        # sizes ascending (up to size - 1 for the root, built here).  Colours
        # with no arguments come first, then the deepest: a colour's arguments
        # rank above it (in ode and inverse, they are it).
        memo: dict[tuple[int, int], list[Tree]] = {}
        kinds = {c for kids in self.children.values() for c in kids}
        for colour in sorted(kinds, key=lambda c: (c in self.children, -c)):
            for s in range(1, size + (colour != self.root)):
                memo[colour, s] = self._up_to(colour, s, memo)
        root = self.palette[self.root]
        out = [Tree(root)] if size == 1 and self.root in self.leaves else []
        runs = self._inner(self.root, size, memo)
        out.extend(Tree(root, kids) for kids, _, left in runs if not left)
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
        measures = [getattr(t, self.measure) for t in pool]
        # Ascending pool positions of the trees measuring at most r, one append each.
        at_most = [[] for _ in range(budget + 1)]
        for i, m in enumerate(measures):
            for r in range(m, budget + 1):
                at_most[r].append(i)
        # Non-decreasing runs of pool positions: one more child per pass, and
        # in natural order within a pass.
        runs = [((), 0, budget)]  # (children, least next position, measure left)
        degree = 0
        while runs:
            longer = []
            for kids, start, left in runs:
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
# never drawn) and a degree-k vertex carries the k-th derivative of f.
_INVERSE = _Family(_ODE.palette, 0, _ODE.children, _ODE.leaves, min_degree=2, measure="entrances")


@lru_cache(maxsize=1)  # the latest skeleton's: a dropped one is freed
def _composite_family(skeleton: Skeleton) -> _Family:
    """The family of a skeleton's graphs, from one preorder walk of its positions.

    Base variables get the lowest colour ranks in order of first appearance,
    followed by function positions in preorder, so a position's arguments
    have higher colours than the position itself.  A function name occurring
    at several positions is disambiguated with an ordinal suffix (f, f.2, ...).
    ``children`` holds each position's slot colours once, in slot order: x in
    F(x,x) is one kind of child, and F() has none, so no graph.
    """
    from .skeletons import Skeleton, positions  # only the composite regime reads one

    if skeleton.is_variable:
        raise ValueError("skeleton root must be a function")
    variables: dict[str, int] = {}  # each variable's rank, by first appearance
    functions: list[Skeleton] = []  # each function position's node, in preorder
    codes: list[int] = []  # each position's variable rank, or ~ its function's number
    slots: list[list[int]] = []  # each function's argument codes, in slot order
    for parent, node in positions(skeleton):
        if node.is_variable:
            code = variables.setdefault(node.name, len(variables))
        else:
            code = ~len(functions)
            functions.append(node)
            slots.append([])
        if parent >= 0:
            slots[~codes[parent]].append(code)
        codes.append(code)
    first = len(variables)  # the colour of the first function, the root
    labels = list(variables)
    count: dict[str, int] = {}
    for node in functions:
        if node.name in variables:
            raise ValueError(f"{node.name!r} names both a function and a variable")
        count[node.name] = count.get(node.name, 0) + 1
        labels.append(node.name if count[node.name] == 1 else f"{node.name}.{count[node.name]}")
    # Each function's distinct argument colours, in slot order: the draw order.
    kinds = [tuple(c if c >= 0 else first + ~c for c in dict.fromkeys(cs)) for cs in slots]
    palette = tuple(Colour(ci, label) for ci, label in enumerate(labels))
    nodes = (*map(Skeleton, variables), *functions)  # a variable's node is interned
    children = dict(enumerate(kinds, first))
    return _Family(palette, first, children, frozenset(range(first)), 1, "entrances", nodes)


def family_of(regime: Regime, skeleton: Skeleton | None) -> _Family:
    """The generator of ``regime``'s trees: the one place each regime's rules live."""
    if regime is Regime.COMPOSITE:
        if skeleton is None:
            raise ValueError("composite regime requires a skeleton")
        return _composite_family(skeleton)
    if regime is not Regime.ODE and regime is not Regime.INVERSE:
        return family_of(Regime(regime), skeleton)  # a value string; any other value raises
    return _ODE if regime is Regime.ODE else _INVERSE


def enumerate_graphs(
    regime: Regime, n: int, skeleton: Skeleton | None = None
) -> list[DerivativeGraph]:
    """All order-n derivative graphs of ``regime``, canonical, in natural order.

    ``skeleton`` is read in the composite regime only; other graphs carry none.
    """
    regime = Regime(regime)  # the value string works too; any other value raises
    family = family_of(regime, skeleton)
    if n < 1:
        raise ValueError("order must be >= 1")
    if regime is Regime.INVERSE and n < 2:
        raise ValueError("inverse regime needs order >= 2 (order 1 is the closed form)")
    if regime is not Regime.COMPOSITE:
        skeleton = None  # only composite graphs carry one
    # tuple.__new__ builds the record without the constructor's Python-level call.
    return [tuple.__new__(DerivativeGraph, (t, regime, skeleton)) for t in family.trees(n)]


def enumerate_ode(n: int) -> list[DerivativeGraph]:
    """All rooted trees with n vertices, isomorph-free, in natural order."""
    return enumerate_graphs(Regime.ODE, n)


def enumerate_inverse(n: int) -> list[DerivativeGraph]:
    """All order-n inverse-regime trees; n = 1 is the closed form, rejected."""
    return enumerate_graphs(Regime.INVERSE, n)


def enumerate_composite(skeleton: Skeleton, n: int) -> list[DerivativeGraph]:
    """All order-n derivative graphs of the joint mapping; order counts entrances.

    n must be >= 1: the order-0 "derivative" is the skeleton itself.
    """
    return enumerate_graphs(Regime.COMPOSITE, n, skeleton)


def in_regime(graph: DerivativeGraph) -> bool:
    """Whether ``enumerate_graphs`` lists ``graph`` at its order; one fold, no enumeration."""
    family, tree = family_of(graph.regime, graph.skeleton), graph.tree
    if tree.is_leaf and family.min_degree > 1:
        return False  # the inverse order 1: the closed form, no graph
    return tree.colour == family.palette[family.root] and fold((tree,), family.keeps)[0]
