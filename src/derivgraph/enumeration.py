"""Duplicate-free generation of derivative graphs for the three regimes.

Composite graphs are grown inductively: differentiating a function vertex
raises its derivative order by one and attaches a fresh first-derivative
chain descending to one base variable.  ODE trees grow by attaching one
vertex at every position.  Both build each successor canonical directly and
deduplicate the frontier.  Inverse trees are assembled from multisets of
subtrees so that every internal vertex keeps degree >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

from .skeletons import Skeleton, base_variables
from .trees import LEAF, Colour, Tree, canonicalize, sort_key


class Regime(str, Enum):
    COMPOSITE = "composite"
    INVERSE = "inverse"
    ODE = "ode"


@dataclass(frozen=True)
class DerivativeGraph:
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
# Composite regime.


class CompositeContext:
    """Colour palette and differentiation chains derived from a skeleton.

    Base variables get the lowest colour ranks in order of first appearance,
    followed by function positions in preorder.  A function name occurring at
    several positions is disambiguated with an ordinal suffix (f, f.2, ...).
    A position is named by its path: the argument indices leading to it from
    the root, () for the root itself.
    """

    def __init__(self, skeleton: Skeleton):
        if skeleton.is_variable:
            raise ValueError("skeleton root must be a function")
        self.skeleton = skeleton
        self.palette: dict[str, Colour] = {}
        for name in base_variables(skeleton):
            self.palette[name] = Colour(len(self.palette), name)
        self.variable_colours = frozenset(c.index for c in self.palette.values())

        self._colour_at: dict[tuple[int, ...], Colour] = {}  # path -> colour
        self.node_by_colour: dict[int, Skeleton] = {}
        name_count: dict[str, int] = {}

        def assign(node: Skeleton, path: tuple[int, ...]) -> None:
            if node.is_variable:
                return
            name_count[node.name] = name_count.get(node.name, 0) + 1
            label = node.name
            if name_count[node.name] > 1:
                label = f"{node.name}.{name_count[node.name]}"
            colour = Colour(len(self.palette), label)
            self.palette[label] = colour
            self._colour_at[path] = colour
            self.node_by_colour[colour.index] = node
            for i, c in enumerate(node.children):
                assign(c, path + (i,))

        assign(skeleton, ())
        self.root_colour = self._colour_at[()]

        # Differentiation chains per function colour: one branch per path
        # from an argument down to a base variable.
        self.branches: dict[int, tuple[Tree, ...]] = {}
        for path, colour in self._colour_at.items():
            node = self.node_by_colour[colour.index]
            self.branches[colour.index] = tuple(
                b
                for i, child in enumerate(node.children)
                for b in self._chains(child, path + (i,))
            )

        # Evaluation-point expressions (the undifferentiated sub-skeletons).
        self.point: dict[int, str] = {
            ci: ",".join(str(c) for c in node.children)
            for ci, node in self.node_by_colour.items()
        }

        # Root colour of a branch descending through each argument slot.
        self.slot_root: dict[int, tuple[int, ...]] = {
            colour.index: tuple(
                self._position_colour(child, path + (i,)).index
                for i, child in enumerate(self.node_by_colour[colour.index].children)
            )
            for path, colour in self._colour_at.items()
        }

    def _position_colour(self, node: Skeleton, path: tuple[int, ...]) -> Colour:
        return self.palette[node.name] if node.is_variable else self._colour_at[path]

    def _chains(self, node: Skeleton, path: tuple[int, ...]) -> list[Tree]:
        colour = self._position_colour(node, path)
        if node.is_variable:
            return [Tree(colour)]
        return [
            Tree(colour, (sub,))
            for i, child in enumerate(node.children)
            for sub in self._chains(child, path + (i,))
        ]

    def colour_of(self, name: str) -> Colour:
        return self.palette[name]

    def node_colour(self, position: Skeleton | tuple[int, ...]) -> Colour:
        """Colour of one function position of the skeleton.

        ``position`` is a path of argument indices from the root, or a
        sub-skeleton equal to the one at exactly one function position.
        """
        if not isinstance(position, Skeleton):
            return self._colour_at[position]
        found = [c for c in self._colour_at.values() if self.node_by_colour[c.index] == position]
        if len(found) != 1:
            raise KeyError(f"{position} is at {len(found)} function positions; pass a path")
        return found[0]


@lru_cache(maxsize=None)
def composite_context(skeleton: Skeleton) -> CompositeContext:
    return CompositeContext(skeleton)


def _successors(t: Tree, branches: dict[int, tuple[Tree, ...]]):
    """Canonical trees one step larger than canonical ``t``.

    A step attaches one of ``branches[colour]`` under a vertex of that
    colour.  Children are canonical already, so each rebuilt level needs one
    sort.  Of a run of equal siblings only the first is grown: growing any
    other gives the same tree.
    """
    kids = t.children
    for b in branches.get(t.colour.index, ()):
        yield Tree(t.colour, tuple(sorted(kids + (b,), key=sort_key)))
    prev = None
    for i, c in enumerate(kids):
        if c is prev:
            continue
        prev = c
        for grown in _successors(c, branches):
            rest = kids[:i] + (grown,) + kids[i + 1 :]
            yield Tree(t.colour, tuple(sorted(rest, key=sort_key)))


def _grow(seed: Tree, branches: dict[int, tuple[Tree, ...]], steps: int) -> list[Tree]:
    """All distinct trees ``steps`` steps larger than ``seed``, sorted."""
    frontier = {seed}
    for _ in range(steps):
        frontier = {g for t in frontier for g in _successors(t, branches)}
    return sorted(frontier, key=sort_key)


def enumerate_composite(skeleton: Skeleton, n: int) -> list[DerivativeGraph]:
    """All order-n derivative graphs of the joint mapping, canonical, sorted.

    Order counts entrances.  n must be >= 1: the order-0 "derivative" is the
    skeleton itself and is not a graph of this family.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    ctx = composite_context(skeleton)
    # A nullary skeleton has no branches: constant, no derivatives.
    trees = _grow(Tree(ctx.root_colour), ctx.branches, n)
    return [DerivativeGraph(t, Regime.COMPOSITE, skeleton) for t in trees]


# ---------------------------------------------------------------------------
# ODE regime: y' = f(y).  Order n = vertex count; a vertex of degree k
# carries the k-th derivative of the field.


_ODE_BRANCHES = {LEAF.colour.index: (LEAF,)}


def enumerate_ode(n: int) -> list[DerivativeGraph]:
    """All rooted trees with n vertices, isomorph-free, in natural order."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return [DerivativeGraph(t, Regime.ODE) for t in _grow(LEAF, _ODE_BRANCHES, n - 1)]


# ---------------------------------------------------------------------------
# Inverse regime: x = g(y) for y = f(x).  Order n = entrance count; internal
# vertices have degree >= 2 (unary first-derivative wedges cancel against Dg
# and are never drawn) and a degree-k vertex carries the k-th derivative of f.


@cache
def _inverse_trees(n: int) -> tuple[Tree, ...]:
    # All trees with n entrances whose internal vertices have degree >= 2;
    # for n == 1 that is the bare entrance.
    if n == 1:
        return (LEAF,)
    candidates: list[tuple[Tree, int]] = []
    for k in range(1, n):
        for t in _inverse_trees(k):
            candidates.append((t, k))

    results: list[Tree] = []

    def choose(start: int, remaining: int, picked: list[Tree]) -> None:
        if remaining == 0:
            if len(picked) >= 2:
                results.append(Tree(children=tuple(picked)))
            return
        for i in range(start, len(candidates)):
            t, leaves = candidates[i]
            if leaves <= remaining:
                picked.append(t)
                choose(i, remaining - leaves, picked)
                picked.pop()

    # candidates are generated in a fixed order; non-decreasing picks give
    # each multiset exactly once, and sorting by leaf count keeps children
    # tuples canonical only after a final canonicalize.
    choose(0, n, [])
    return tuple(sorted({canonicalize(t) for t in results}, key=sort_key))


def enumerate_inverse(n: int) -> list[DerivativeGraph]:
    """All order-n inverse-regime trees; n = 1 is the closed form, rejected."""
    if n < 2:
        raise ValueError("inverse regime needs order >= 2 (order 1 is the closed form)")
    return [DerivativeGraph(t, Regime.INVERSE) for t in _inverse_trees(n)]


def enumerate_graphs(
    regime: Regime, n: int, skeleton: Skeleton | None = None
) -> list[DerivativeGraph]:
    if regime is Regime.COMPOSITE:
        if skeleton is None:
            raise ValueError("composite regime requires a skeleton")
        return enumerate_composite(skeleton, n)
    if regime is Regime.ODE:
        return enumerate_ode(n)
    return enumerate_inverse(n)
