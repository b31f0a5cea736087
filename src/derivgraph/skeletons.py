"""Composition skeletons: nested named functions over base variables.

A skeleton declares the joint mapping whose higher derivatives are to be
expanded, e.g. ``f(g(x))`` or ``F(f(x),g(x))``.  Bare identifiers are base
variables; identifiers followed by parentheses are functions with the
written arity.  Argument positions are meaningful and ordered.  A skeleton's
generator family is built here, by ``_composite_family``: ode and inverse
requests never load this module, so they never compile it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

from .enumeration import _Family
from .trees import Colour, Tree, TreeSyntaxError, scan_brackets, write_trees

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Skeleton(Tree):
    """An interned tree: a function has colour rank 1, a base variable rank 0."""

    __slots__ = ()
    children: tuple[Skeleton, ...]

    def __new__(cls, name: str, children: tuple[Skeleton, ...] = (), function: bool = False):
        if not _IDENT.fullmatch(name):
            raise ValueError(f"{name!r} is not an identifier")
        if not function and children:
            raise ValueError("a base variable cannot take arguments")
        return Tree.__new__(cls, Colour(1 if function else 0, name), children)

    name = property(lambda self: self.colour.name)
    function = property(lambda self: self.colour.index == 1)
    is_variable = property(lambda self: self.colour.index == 0)
    arity = Tree.degree

    def __str__(self) -> str:
        return write_trees((self,), _skeleton_parts, ",")[0]


def _skeleton_parts(s: Skeleton) -> tuple[str, str]:
    return (s.name + "(", ")") if s.function else (s.name, "")


class SkeletonSyntaxError(TreeSyntaxError):
    """Malformed skeleton text: a tree syntax error in the skeleton grammar."""


def _name(token: str, pos: int) -> str:
    return token


def _skeleton_node(name: str, children: list[Skeleton] | None) -> Skeleton:
    # f() is a nullary function, f a variable.
    return Skeleton(name) if children is None else Skeleton(name, tuple(children), function=True)


def parse_skeleton(text: str) -> Skeleton:
    s = scan_brackets(
        text, _IDENT, "()", SkeletonSyntaxError, "an identifier", "skeleton", _name, _skeleton_node
    )
    if s.is_variable:
        raise SkeletonSyntaxError("skeleton root must be a function", 0)
    return s


def positions(s: Skeleton) -> Iterator[tuple[int, Skeleton]]:
    """Each position under ``s`` in preorder, with its parent's preorder number (-1 for ``s``).

    f(x) in F(f(x),f(x)) is one node but two positions.  No depth limit.
    """
    stack = [(-1, s)]
    number = 0
    while stack:
        parent, node = stack.pop()
        yield parent, node
        stack.extend((number, c) for c in reversed(node.children))
        number += 1


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
