"""Canonical coloured rooted trees and their structural numbers.

A virtual graph is an isomorphism class of decorated rooted trees.  We keep
exactly one representative per class: children are stored sorted under the
total order :func:`compare_trees`, so structural equality of canonical trees
coincides with isomorphism of the classes they represent.  Leaves are the
entrances of a graph, the root is its outlet.

Trees are hash-consed: ``Tree(colour, children)`` returns the one live node
with that colour and those (already interned) children, so structural
equality is identity and ``==`` is ``is``.  A tree node computes its counts
and structural numbers once, when it is built, from its children's
(Butcher's bottom-up tree functions: order, sigma = S, gamma = tau).  The
natural order is walked, not stored: :func:`compare_trees` steps down both
trees with an explicit stack and skips every node they share.  A tree's
canonical form is a bottom-up :func:`fold` result, which visits each shared
node once.  Every text (the notation, ``repr``, a skeleton's ``str`` and the
formula bodies in :mod:`derivgraph.formulas`) is written by
:func:`write_trees`, in time linear in the output.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cmp_to_key, lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Sequence, TypeVar
from weakref import ref

# A colour name as the notation writes it: "*", or an identifier that may hold
# dots, such as the composite label "f.2".
_NAME = re.compile(r"\*|[A-Za-z_][A-Za-z0-9_.]*")


class Colour(namedtuple("Colour", "index name")):
    """A rank in a totally ordered palette of vertex kinds: (index, name)."""

    __slots__ = ()

    def __new__(cls, index: int, name: str):
        if index < 0:
            raise ValueError("colour index must be non-negative")
        if isinstance(name, str) and not _NAME.fullmatch(name):
            raise ValueError(f"{name!r} is not a colour name")
        return tuple.__new__(cls, (index, name))

    @classmethod
    def _make(cls, fields) -> Colour:  # _replace builds through this: check it too
        return cls(*fields)


DEFAULT_COLOUR = Colour(0, "*")


class _Ref(ref):
    """Weak reference to an interned node that remembers the node's table key."""

    __slots__ = ("ident",)


# (class, colour, children) -> weak reference to the live node.  A colour is
# the tuple (index, name), so it hashes and compares as that pair; children
# are interned, so the key hashes in C, children by identity.  The class
# keeps a subclass's nodes, such as skeletons, apart from trees of the same
# colours.  A node leaves the table when it is collected.
_INTERNED: dict[tuple, _Ref] = {}


def _forget(dead: _Ref, table: dict[tuple, _Ref] = _INTERNED) -> None:
    # The table is bound as a default so that this still works while the
    # interpreter tears the module's globals down.  A node rebuilt after the
    # collected one may already own the entry; that entry stays.
    if table.get(dead.ident) is dead:
        del table[dead.ident]


class Tree:
    """Interned coloured rooted tree.

    Canonical iff every child tuple is sorted under :func:`compare_trees`,
    that is iff ``canonicalize(t) is t``.

    A ``Tree`` node computes these fields once, when it is first built (a subclass's
    node, such as a skeleton, stores only ``colour`` and ``children``):

    - ``vertices`` and ``entrances`` counts (``internal`` is their difference)
    - ``symmetry``: S, the colour-preserving automorphism count of a canonical tree
    - ``complexity``: tau, the product over all vertices of the
      cardinalities of their child subtrees
    """

    __slots__ = (
        "colour",
        "children",
        "vertices",
        "entrances",
        "symmetry",
        "complexity",
        "__weakref__",
    )

    colour: Colour
    children: tuple[Tree, ...]
    vertices: int
    entrances: int
    symmetry: int
    complexity: int

    def __new__(cls, colour: Colour = DEFAULT_COLOUR, children: tuple[Tree, ...] = ()):
        children = tuple(children)
        ident = (cls, colour, children)
        known = _INTERNED.get(ident)
        if known is not None:
            node = known()
            if node is not None:
                return node

        node = object.__new__(cls)
        _set_colour(node, colour)
        _set_children(node, children)
        if cls is Tree:
            vertices, entrances, complexity = 1, 0, 1
            symmetry, run, prev = 1, 0, None
            for c in children:
                vertices += c.vertices
                entrances += c.entrances
                complexity *= c.vertices * c.complexity
                symmetry *= c.symmetry
                # Equal siblings are adjacent in a canonical child tuple; each
                # run of k of them contributes k! automorphisms.
                if c is prev:
                    run += 1
                    symmetry *= run
                else:
                    run = 1
                prev = c
            _set_vertices(node, vertices)
            _set_entrances(node, entrances or 1)
            _set_symmetry(node, symmetry)
            _set_complexity(node, complexity)
        entry = _Ref(node, _forget)
        entry.ident = ident
        _INTERNED[ident] = entry
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tree nodes are interned and immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Tree nodes are interned and immutable")

    def __reduce__(self):
        # Copies and unpickled trees go back through the intern table.  The
        # nodes are listed flat, so depth is unbounded: each distinct node
        # once, children first, as its class, its colour and its children's
        # positions.
        nodes: list[tuple[type, Colour, tuple[int, ...]]] = []

        def number(t: Tree, kids: list[int]) -> int:
            nodes.append((type(t), t.colour, tuple(kids)))
            return len(nodes) - 1

        fold((self,), number)
        return (_rebuild, (tuple(nodes),))

    def __repr__(self) -> str:
        return write_trees((self,), _repr_parts, ", ")[0]

    @property
    def internal(self) -> int:
        return self.vertices - self.entrances  # the leaves are the entrances

    @property
    def degree(self) -> int:
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return write_trees((self,), _braces, ",")[0]


# __setattr__ refuses every write; the slot descriptors' own setters are how
# a node is filled in, and the cheapest way to do it.
_set_colour = Tree.colour.__set__
_set_children = Tree.children.__set__
_set_vertices = Tree.vertices.__set__
_set_entrances = Tree.entrances.__set__
_set_symmetry = Tree.symmetry.__set__
_set_complexity = Tree.complexity.__set__

LEAF = Tree()


def _rebuild(nodes: tuple[tuple[type, Colour, tuple[int, ...]], ...]) -> Tree:
    """The last tree of ``Tree.__reduce__``'s flat list, built children first."""
    built: list[Tree] = []
    for cls, colour, kids in nodes:
        built.append(Tree.__new__(cls, colour, tuple(map(built.__getitem__, kids))))
    return built[-1]


def _repr_parts(t: Tree) -> tuple[str, str]:
    # The tail closes the repr of the children tuple: "()", "(a,)" or "(a, b)".
    return f"{type(t).__name__}({t.colour!r}, (", ",))" if len(t.children) == 1 else "))"


def compare_trees(a: Tree, b: Tree) -> int:
    """Total order on trees: -1, 0 or +1.  Zero iff ``a is b``.

    Lexicographic: colour rank first, then colour name (a tie-break; ranks
    are unique within a palette), then degree, then children left to right.
    On canonical trees, zero means isomorphic.  Node pairs are walked first
    children first on an explicit stack, skipping shared nodes: no depth limit.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        ka = (a.colour, len(a.children))  # a colour compares as (index, name)
        kb = (b.colour, len(b.children))
        if ka != kb:
            return -1 if ka < kb else 1
        stack.extend(zip(reversed(a.children), reversed(b.children)))
    return 0


# Sort key realising the compare_trees order.
sort_key = cmp_to_key(compare_trees)


# ---------------------------------------------------------------------------
# Bottom-up folds.

N = TypeVar("N")
R = TypeVar("R")


def fold(
    roots: Iterable[N],
    vertex: Callable[[N, list[R]], R],
    children: Callable[[N], Sequence[N]] = attrgetter("children"),
) -> list[R]:
    """``vertex(node, child_results)`` of every root, children before parents.

    Each distinct node under ``roots`` is visited once, however many roots
    share it: interned trees share their equal subtrees, so this is one step
    per node of the shared DAG.  An explicit stack replaces recursion, so
    depth is unbounded.  Nodes are dict keys, so they must be hashable;
    interned trees hash and compare by identity.  Only the roots' results
    outlive the call.
    """
    roots = list(roots)
    memo: dict[N, R] = {}
    result = memo.__getitem__
    # Frames: a node, its children and those not yet visited; None tops the roots.
    stack = [(None, roots, iter(roots))]
    while stack:
        node, kids, pending = stack[-1]
        for c in pending:
            if c not in memo:
                grandkids = children(c)
                stack.append((c, grandkids, iter(grandkids)))
                break
        else:
            stack.pop()
            if stack:
                memo[node] = vertex(node, list(map(result, kids)))
    return list(map(result, roots))


def canonicalize(raw: Tree) -> Tree:
    """Sort children at every vertex; idempotent, isomorphism-invariant.

    ``raw`` is canonical exactly when ``canonicalize(raw) is raw``.
    """
    return fold((raw,), lambda t, kids: Tree(t.colour, tuple(sorted(kids, key=sort_key))))[0]


# ---------------------------------------------------------------------------
# Textual notation: name{child,child,...}; a leaf may be written name{} or,
# for the single default colour, just "*".


class TreeSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def write_trees(
    roots: Iterable[N],
    parts: Callable[[N], tuple[str, str]],
    sep: str,
    children: Callable[[N], Sequence[N]] = attrgetter("children"),
) -> list[str]:
    """Each root's text: at each node, ``parts(node)[0]``, the texts of its
    ``children`` joined by ``sep``, then ``parts(node)[1]``.

    The pieces go to one list on an explicit stack: the time is linear in the
    output and depth is unbounded.  A node met again is not walked again: the
    span of its first text is joined once and reused; a root's, when it is done.
    """
    roots = list(roots)
    out: list[str] = []
    written: dict[N, slice | str] = {}  # each node written -> its span in out, or its text
    # A frame is a node, an iterator over its children, its closing part and
    # where its text starts in out; None is the virtual top over the roots.
    stack = [(None, iter(roots), "", 0)]
    while stack:
        node, kids, tail, start = stack[-1]
        for c in kids:
            span = written.get(c)
            if span is None:
                head, end = parts(c)
                grandkids = children(c)
                if grandkids:
                    stack.append((c, iter(grandkids), end, len(out)))
                    out.append(head)
                    break
                span = written[c] = head + end
            elif type(span) is slice:
                span = written[c] = "".join(out[span])
            out += (span, sep)
        else:
            stack.pop()
            if stack:
                out[-1] = tail  # in place of the sep after the last child
                written[node] = slice(start, len(out)) if len(stack) > 1 else "".join(out[start:])
                out.append(sep)
    return list(map(written.__getitem__, roots))


@lru_cache(maxsize=256)
def _brace_parts(name: str) -> tuple[str, str]:
    return name + "{", "}"


def _braces(t: Tree) -> tuple[str, str]:
    return _brace_parts(t.colour.name)  # one pair per colour, not per node


def format_trees(roots: Iterable[Tree]) -> list[str]:
    """Each tree's notation; a subtree shared by several trees is printed once."""
    return write_trees(roots, _braces, ",")


def make_palette(*names: str) -> dict[str, Colour]:
    """Palette with the given colour names ranked in declaration order."""
    return {name: Colour(i, name) for i, name in enumerate(names)}


_SPACE = re.compile(r"\s*")


def scan_brackets(
    text: str,
    pattern: re.Pattern,
    brackets: str,
    error: Callable[[str, int], Exception],
    expected: str,
    what: str,
    name: Callable[[str, int], N],
    node: Callable[[N, list[R] | None], R],
) -> R:
    """Descent over ``name`` and ``name<open>child,...<close>``, on an explicit stack.

    ``name(token, position)`` is called as soon as a name is read, so it can
    reject the name before a later syntax error.  ``node(named, children)``
    gets ``children=None`` when no bracket follows the name.  Errors are
    ``error(message, position)``; ``expected`` and ``what`` name a missing
    name and the whole input in their messages.  Brackets nest as deep as
    the input goes.
    """
    opening, closing = brackets
    pos = 0
    # The brackets still open: each one's name and the children read so far.
    unclosed: list[tuple[N, list[R]]] = []
    while True:
        pos = _SPACE.match(text, pos).end()
        m = pattern.match(text, pos)
        if m is None:
            raise error(f"expected {expected}", pos)
        named = name(m.group(), pos)
        pos = _SPACE.match(text, m.end()).end()
        if text[pos : pos + 1] != opening:
            done = node(named, None)
        else:
            pos = _SPACE.match(text, pos + 1).end()
            if text[pos : pos + 1] != closing:
                unclosed.append((named, []))
                continue
            pos += 1
            done = node(named, [])
        # Close every bracket that ends here; after a ',' the next child starts.
        while unclosed:
            pos = _SPACE.match(text, pos).end()
            sep = text[pos : pos + 1]
            if sep not in (",", closing):
                raise error(f"expected ',' or '{closing}'", pos)
            pos += 1
            unclosed[-1][1].append(done)
            if sep == ",":
                break
            done = node(*unclosed.pop())
        else:
            pos = _SPACE.match(text, pos).end()
            if pos != len(text):
                raise error(f"trailing input after {what}", pos)
            return done


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

    def node(colour: Colour, children: list[Tree] | None) -> Tree:
        return Tree(colour, tuple(children or ()))  # name{} and name are the same leaf

    return scan_brackets(
        text, _NAME, "{}", TreeSyntaxError, "a colour name", "tree", colour_for, node
    )
