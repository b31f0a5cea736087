"""Composition skeletons: nested named functions over base variables.

A skeleton declares the joint mapping whose higher derivatives are to be
expanded, e.g. ``f(g(x))`` or ``F(f(x),g(x))``.  Bare identifiers are base
variables; identifiers followed by parentheses are functions with the
written arity.  Argument positions are meaningful and ordered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .trees import scan_brackets


@dataclass(frozen=True)
class Skeleton:
    name: str
    children: tuple["Skeleton", ...] = ()
    function: bool = False

    def __post_init__(self) -> None:
        if not self.function and self.children:
            raise ValueError("a base variable cannot take arguments")

    @property
    def arity(self) -> int:
        return len(self.children)

    @property
    def is_variable(self) -> bool:
        return not self.function

    def __str__(self) -> str:
        if self.is_variable:
            return self.name
        return f"{self.name}({','.join(str(c) for c in self.children)})"


class SkeletonSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Deepest nesting parse_skeleton accepts: __str__ and CompositeContext recurse.
MAX_NESTING = 100


def _name(token: str, pos: int) -> str:
    return token


def _skeleton_node(name: str, children: list[Skeleton] | None) -> Skeleton:
    # f() is a nullary function, f a variable.
    return Skeleton(name) if children is None else Skeleton(name, tuple(children), function=True)


def parse_skeleton(text: str) -> Skeleton:
    s = scan_brackets(
        text, _IDENT, "()", SkeletonSyntaxError, "an identifier", "skeleton", _name, _skeleton_node,
        MAX_NESTING,
    )
    if s.is_variable:
        raise SkeletonSyntaxError("skeleton root must be a function", 0)
    return s


def base_variables(s: Skeleton) -> list[str]:
    """Variable names in order of first appearance."""
    seen: list[str] = []

    def walk(node: Skeleton) -> None:
        if node.is_variable:
            if node.name not in seen:
                seen.append(node.name)
        else:
            for c in node.children:
                walk(c)

    walk(s)
    return seen
