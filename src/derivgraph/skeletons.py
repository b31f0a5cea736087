"""Composition skeletons: nested named functions over base variables.

A skeleton declares the joint mapping whose higher derivatives are to be
expanded, e.g. ``f(g(x))`` or ``F(f(x),g(x))``.  Bare identifiers are base
variables; identifiers followed by parentheses are functions with the
written arity.  Argument positions are meaningful and ordered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .trees import MAX_NESTING


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


def parse_skeleton(text: str) -> Skeleton:
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def node(depth: int) -> Skeleton:
        nonlocal pos
        skip_ws()
        m = _IDENT.match(text, pos)
        if m is None:
            raise SkeletonSyntaxError("expected an identifier", pos)
        name = m.group()
        pos = m.end()
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            if depth == MAX_NESTING:
                raise SkeletonSyntaxError(f"nesting deeper than {MAX_NESTING}", pos)
            pos += 1
            skip_ws()
            children: list[Skeleton] = []
            if pos < len(text) and text[pos] == ")":
                pos += 1
            else:
                while True:
                    children.append(node(depth + 1))
                    skip_ws()
                    if pos < len(text) and text[pos] == ",":
                        pos += 1
                        continue
                    if pos < len(text) and text[pos] == ")":
                        pos += 1
                        break
                    raise SkeletonSyntaxError("expected ',' or ')'", pos)
            return Skeleton(name, tuple(children), function=True)
        return Skeleton(name)

    s = node(0)
    skip_ws()
    if pos != len(text):
        raise SkeletonSyntaxError("trailing input after skeleton", pos)
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
