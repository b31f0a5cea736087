"""Canonical coloured rooted trees and their structural numbers.

A virtual graph is an isomorphism class of decorated rooted trees.  We keep
exactly one representative per class: children are stored sorted under the
total order :func:`compare_trees`, so structural equality of canonical trees
coincides with isomorphism of the classes they represent.  Leaves are the
entrances of a graph, the root is its outlet.

Trees are hash-consed: ``Tree(colour, children)`` returns the one live node
with that colour and those (already interned) children, so structural
equality is identity and ``==`` is ``is``.  Each node computes its
natural-order key and its structural numbers once, from its children's
(Butcher's bottom-up tree functions: order, sigma = S, gamma = tau).
A tree's notation, its dict form and its formula bodies in
:mod:`derivgraph.formulas` are bottom-up :func:`fold` results, which visit
each shared node once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, TypeVar
from weakref import ref


@dataclass(frozen=True)
class Colour:
    """A rank in a totally ordered palette of vertex kinds."""

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("colour index must be non-negative")


DEFAULT_COLOUR = Colour(0, "*")


class _Ref(ref):
    """Weak reference to an interned node that remembers the node's table key."""

    __slots__ = ("ident",)


# (colour index, colour name, children) -> weak reference to the live node.
# Colour equality is exactly that index and name, and children are interned,
# so the key hashes in C, children by identity.  A node leaves the table when
# it is collected.
_INTERNED: dict[tuple, _Ref] = {}


def _forget(dead: _Ref, table: dict[tuple, _Ref] = _INTERNED) -> None:
    # The table is bound as a default so that this still works while the
    # interpreter tears the module's globals down.  A node rebuilt after the
    # collected one may already own the entry; that entry stays.
    if table.get(dead.ident) is dead:
        del table[dead.ident]


class Tree:
    """Interned coloured rooted tree.  Canonical iff every child tuple is sorted.

    Fields are computed once when the node is first built and never change:

    - ``key``: the natural-order sort key (colour index, colour name, degree,
      children's keys left to right)
    - ``vertices``, ``entrances`` and ``internal`` (non-leaf vertex) counts
    - ``symmetry``: S, the order of the colour-preserving automorphism group
      (meaningful for canonical trees)
    - ``complexity``: tau, the product over all vertices of the
      cardinalities of their child subtrees
    - ``canonical``: every child tuple in the tree is sorted by ``key``
    """

    __slots__ = (
        "colour",
        "children",
        "key",
        "vertices",
        "entrances",
        "internal",
        "symmetry",
        "complexity",
        "canonical",
        "__weakref__",
    )

    colour: Colour
    children: tuple[Tree, ...]
    key: tuple
    vertices: int
    entrances: int
    internal: int
    symmetry: int
    complexity: int
    canonical: bool

    def __new__(cls, colour: Colour = DEFAULT_COLOUR, children: tuple[Tree, ...] = ()):
        children = tuple(children)
        ident = (colour.index, colour.name, children)
        known = _INTERNED.get(ident)
        if known is not None:
            node = known()
            if node is not None:
                return node

        vertices, entrances, internal, complexity = 1, 0, 0, 1
        symmetry, run, canonical, prev = 1, 0, True, None
        for c in children:
            vertices += c.vertices
            entrances += c.entrances
            internal += c.internal
            complexity *= c.vertices * c.complexity
            symmetry *= c.symmetry
            # Equal siblings are adjacent in a canonical child tuple; each
            # run of k of them contributes k! automorphisms.
            if c is prev:
                run += 1
                symmetry *= run
            else:
                run = 1
                if prev is not None and c.key < prev.key:
                    canonical = False
            canonical = canonical and c.canonical
            prev = c

        node = object.__new__(cls)
        init = object.__setattr__
        init(node, "colour", colour)
        init(node, "children", children)
        key = (colour.index, colour.name, len(children), tuple(c.key for c in children))
        init(node, "key", key)
        init(node, "vertices", vertices)
        init(node, "entrances", entrances or 1)
        init(node, "internal", internal + 1 if children else 0)
        init(node, "symmetry", symmetry)
        init(node, "complexity", complexity)
        init(node, "canonical", canonical)
        entry = _Ref(node, _forget)
        entry.ident = ident
        _INTERNED[ident] = entry
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tree nodes are interned and immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Tree nodes are interned and immutable")

    def __reduce__(self):
        # Copies and unpickled trees go back through the intern table.
        return (Tree, (self.colour, self.children))

    def __repr__(self) -> str:
        return f"Tree({self.colour!r}, {self.children!r})"

    @property
    def degree(self) -> int:
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return format_tree(self)


LEAF = Tree()


def compare_trees(a: Tree, b: Tree) -> int:
    """Total order on trees: -1, 0 or +1.  Zero iff ``a is b``.

    Lexicographic: colour rank first, then colour name (a tie-break; ranks
    are unique within a palette), then degree, then children left to right.
    On canonical trees, zero means isomorphic.
    """
    ka, kb = a.key, b.key
    return (ka > kb) - (ka < kb)


# Sort key realising the compare_trees order.
sort_key = attrgetter("key")


def canonicalize(raw: Tree) -> Tree:
    """Sort children recursively; idempotent, isomorphism-invariant."""
    if raw.canonical:
        return raw
    return Tree(raw.colour, tuple(sorted(map(canonicalize, raw.children), key=sort_key)))


def cardinality(t: Tree) -> int:
    """Number of vertices."""
    return t.vertices


def entrance_count(t: Tree) -> int:
    """Number of leaves; a lone vertex is its own entrance."""
    return t.entrances


def symmetry_number(t: Tree) -> int:
    """Order of the colour-preserving automorphism group of a canonical tree.

    Children are grouped into isomorphism classes with multiplicities
    m_1..m_r; each vertex contributes prod(m_i!), on top of the children's
    own symmetry numbers.  When all siblings are isomorphic everywhere this
    reduces to the product of degree factorials.
    """
    return t.symmetry


def complexity_number(t: Tree) -> int:
    """Product over all vertices of the cardinalities of their child subtrees."""
    return t.complexity


# ---------------------------------------------------------------------------
# Bottom-up folds.

N = TypeVar("N")
R = TypeVar("R")


def fold(
    roots: Iterable[N],
    vertex: Callable[[N, list[R]], R],
    children: Callable[[N], Iterable[N]] = attrgetter("children"),
) -> list[R]:
    """``vertex(node, child_results)`` of every root, children before parents.

    Each distinct node under ``roots`` is visited once, however many roots
    share it: interned trees share their equal subtrees, so this is one step
    per node of the shared DAG.  Explicit stacks replace recursion, so depth
    is unbounded.  Nodes are told apart by ``id``: every node stays reachable
    from ``roots`` for the whole call, so no id is reused.  A result is kept
    only until its last use, and nothing outlives the call.
    """
    roots = list(roots)
    # First pass: the distinct nodes in post-order, and how many times each
    # is used, as a child of a distinct node or as a root.
    uses: dict[int, int] = {}
    order: list[N] = []
    for root in roots:
        if id(root) in uses:
            uses[id(root)] += 1
            continue
        uses[id(root)] = 1
        stack = [(root, iter(children(root)))]
        while stack:
            node, kids = stack[-1]
            for c in kids:
                if id(c) in uses:
                    uses[id(c)] += 1
                else:
                    uses[id(c)] = 1
                    stack.append((c, iter(children(c))))
                    break
            else:
                stack.pop()
                order.append(node)
    # Second pass: a child's result is dropped after its last use, so a deep
    # chain holds two results at a time, not every prefix of its output.
    memo: dict[int, R] = {}
    for node in order:
        kids = children(node)
        memo[id(node)] = vertex(node, [memo[id(c)] for c in kids])
        for c in kids:
            uses[id(c)] -= 1
            if not uses[id(c)]:
                del memo[id(c)]
    return [memo[id(root)] for root in roots]


# ---------------------------------------------------------------------------
# Textual notation: name{child,child,...}; a leaf may be written name{} or,
# for the single default colour, just "*".


class TreeSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _notation(t: Tree, inner: list[str]) -> str:
    return t.colour.name + "{" + ",".join(inner) + "}"


def format_trees(roots: Iterable[Tree]) -> list[str]:
    """Each tree's notation; a subtree shared by several trees is printed once."""
    return fold(roots, _notation)


def format_tree(t: Tree) -> str:
    return fold((t,), _notation)[0]


def make_palette(*names: str) -> dict[str, Colour]:
    """Palette with the given colour names ranked in declaration order."""
    return {name: Colour(i, name) for i, name in enumerate(names)}


_NAME = re.compile(r"\*|[A-Za-z_][A-Za-z0-9_.]*")

# Deepest bracket nesting the parsers accept: they and the code after them recurse.
MAX_NESTING = 100


def parse_tree(text: str, palette: dict[str, Colour] | None = None) -> Tree:
    """Parse the textual notation.

    With ``palette=None`` colours are assigned ranks by first appearance
    ("*" alone yields the default colour).  The result is returned exactly
    as written; apply :func:`canonicalize` if canonical order is needed.
    """
    auto = palette is None
    pal: dict[str, Colour] = {} if auto else dict(palette)

    def colour_for(name: str, pos: int) -> Colour:
        if name not in pal:
            if not auto:
                raise TreeSyntaxError(f"unknown colour {name!r}", pos)
            pal[name] = Colour(len(pal), name)
        return pal[name]

    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def node(depth: int) -> Tree:
        nonlocal pos
        skip_ws()
        m = _NAME.match(text, pos)
        if m is None:
            raise TreeSyntaxError("expected a colour name", pos)
        colour = colour_for(m.group(), pos)
        pos = m.end()
        skip_ws()
        children: list[Tree] = []
        if pos < len(text) and text[pos] == "{":
            if depth == MAX_NESTING:
                raise TreeSyntaxError(f"nesting deeper than {MAX_NESTING}", pos)
            pos += 1
            skip_ws()
            if pos < len(text) and text[pos] == "}":
                pos += 1
            else:
                while True:
                    children.append(node(depth + 1))
                    skip_ws()
                    if pos < len(text) and text[pos] == ",":
                        pos += 1
                        continue
                    if pos < len(text) and text[pos] == "}":
                        pos += 1
                        break
                    raise TreeSyntaxError("expected ',' or '}'", pos)
        return Tree(colour, tuple(children))

    t = node(0)
    skip_ws()
    if pos != len(text):
        raise TreeSyntaxError("trailing input after tree", pos)
    return t


# ---------------------------------------------------------------------------
# Structured (JSON-ready) serialization.


def _to_dict(t: Tree, children: list[dict]) -> dict:
    return {"colour": {"index": t.colour.index, "name": t.colour.name}, "children": children}


def _from_dict(d: dict, children: list[Tree]) -> Tree:
    return Tree(Colour(d["colour"]["index"], d["colour"]["name"]), tuple(children))


def tree_to_dict(t: Tree) -> dict:
    """Nested ``{"colour": {"index", "name"}, "children": [...]}`` form.

    A subtree that occurs several times is one dict object, shared; treat
    the result as read-only or copy it before changing it.
    """
    return fold((t,), _to_dict)[0]


def tree_from_dict(d: dict) -> Tree:
    return fold((d,), _from_dict, itemgetter("children"))[0]
