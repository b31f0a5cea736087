"""Composition skeletons: nested named functions over base variables.

A skeleton declares the joint mapping whose higher derivatives are to be
expanded, e.g. ``f(g(x))`` or ``F(f(x),g(x))``.  Bare identifiers are base
variables; identifiers followed by parentheses are functions with the
written arity.  Argument positions are meaningful and ordered.
"""

from __future__ import annotations

import re
from typing import Iterator

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
