"""Symbolic rendering of weighted graphs as derivative formulas.

Three styles: ``text`` (unicode, human-readable), ``latex``, and ``machine``
(a stable parenthesized prefix grammar that round-trips through
:func:`parse_machine_term`).  Multilinear arguments are always printed in
canonical tree order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import (
    DerivativeGraph,
    Regime,
    composite_context,
    enumerate_graphs,
)
from .skeletons import Skeleton
# format_tree is not called here, but stays bound: benchmarks/tracing.py
# wraps it in this module by name.
from .trees import DEFAULT_COLOUR, Tree, fold, format_tree, format_trees, parse_tree  # noqa: F401
from .weights import WeightedGraph, weigh

STYLES = ("text", "latex", "machine")

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(k: int) -> str:
    return str(k).translate(_SUPERSCRIPTS)


def _d_op(k: int, style: str) -> str:
    if k == 1:
        return "D"
    return f"D^{{{k}}}" if style == "latex" else "D" + _sup(k)


def _prime(k: int, style: str) -> str:
    if style == "latex":
        return "'" * k if k <= 3 else f"^{{({k})}}"
    marks = {1: "′", 2: "″", 3: "‴"}
    return marks[k] if k <= 3 else "⁽" + _sup(k) + "⁾"


def _joiners(style: str) -> tuple[str, str, str]:
    if style == "latex":
        return r"\langle ", r"\rangle ", r"\cdot "
    return "⟨", "⟩", "·"


# ---------------------------------------------------------------------------
# Per-regime term bodies (unsigned, weight-free), one fold vertex each: a
# node's body from its children's bodies.


def _ode_vertex(style: str):
    lbr, rbr, dot = _joiners(style)

    def body(t: Tree, args: list[str]) -> str:
        k = len(args)
        if k == 0:
            return "f(y)"
        if k == 1:
            return args[0] + dot + "Df(y)"
        return lbr + ",".join(args) + rbr + dot + _d_op(k, style) + "f(y)"

    return body


def _inverse_vertex(style: str):
    lbr, rbr, dot = _joiners(style)

    def body(t: Tree, args: list[str]) -> str:
        if not args:
            return "Dg(y)"
        wedge = _d_op(len(args), style) + "f(g(y))" + dot + "Dg(y)"
        return lbr + ",".join(args) + rbr + dot + wedge

    return body


def _composite_vertex(style: str, skeleton: Skeleton):
    lbr, rbr, dot = _joiners(style)
    ctx = composite_context(skeleton)

    def body(t: Tree, args: list[str]) -> str:
        ci = t.colour.index
        if ci in ctx.variable_colours:
            return ""  # increments are implicit in the printed multilinear form
        head = ctx.node_by_colour[ci].name + _prime(len(args), style) + "(" + ctx.point[ci] + ")"
        parts = [p for p in args if p]
        if not parts:
            return head
        if len(args) == 1:
            return head + dot + parts[0]
        return lbr + ",".join(parts) + rbr + dot + head

    return body


def _term_texts(
    wgs: list[WeightedGraph], regime: Regime, skeleton: Skeleton | None, style: str
) -> list[str]:
    """Each graph's term text, printing a subtree shared by several graphs once."""
    trees = [wg.graph.tree for wg in wgs]
    if style == "machine":
        return [_machine_term(wg, tree) for wg, tree in zip(wgs, format_trees(trees))]
    if regime is Regime.ODE:
        vertex = _ode_vertex(style)
    elif regime is Regime.INVERSE:
        vertex = _inverse_vertex(style)
    else:
        vertex = _composite_vertex(style, skeleton)
    return fold(trees, vertex)


def render_term(wg: WeightedGraph, style: str = "text") -> str:
    """Render one weighted graph, without its sign and weight prefix."""
    if style not in STYLES:
        raise ValueError(f"unsupported style {style!r}")
    return _term_texts([wg], wg.graph.regime, wg.graph.skeleton, style)[0]


# ---------------------------------------------------------------------------
# Whole-derivative formulas.


@dataclass(frozen=True)
class FormulaTerm:
    sign: int
    weight: Fraction
    text: str
    graph: WeightedGraph | None = None  # None only for closed forms


@dataclass(frozen=True)
class Formula:
    regime: Regime
    order: int
    style: str
    terms: tuple[FormulaTerm, ...]

    def __str__(self) -> str:
        if self.style == "machine":
            return "\n".join(term.text for term in self.terms)
        pieces: list[str] = []
        for i, term in enumerate(self.terms):
            body = term.text if term.weight == 1 else f"{term.weight}{term.text}"
            if i == 0:
                pieces.append("-" + body if term.sign < 0 else body)
            else:
                pieces.append((" - " if term.sign < 0 else " + ") + body)
        return "".join(pieces)


_INVERSE_ORDER_1 = {
    "text": "(Df(g(y)))⁻¹",
    "latex": "(Df(g(y)))^{-1}",
    "machine": "(term (regime inverse) (order 1) (closed-form))",
}


def render_derivative(
    regime: Regime,
    n: int,
    style: str = "text",
    skeleton: Skeleton | None = None,
) -> Formula:
    """Enumerate, weigh and render the full order-n derivative."""
    if style not in STYLES:
        raise ValueError(f"unsupported style {style!r}")
    if regime is Regime.INVERSE and n == 1:
        term = FormulaTerm(1, Fraction(1), _INVERSE_ORDER_1[style])
        return Formula(regime, 1, style, (term,))
    wgs = [weigh(graph) for graph in enumerate_graphs(regime, n, skeleton)]
    texts = _term_texts(wgs, regime, skeleton, style)
    terms = (FormulaTerm(wg.sign, wg.weight, text, wg) for wg, text in zip(wgs, texts))
    return Formula(regime, n, style, tuple(terms))


# ---------------------------------------------------------------------------
# Machine grammar: (term (regime R) (sign S) (weight W) (tree T))


def _machine_term(wg: WeightedGraph, tree: str) -> str:
    return (
        f"(term (regime {wg.graph.regime.value}) (sign {wg.sign}) "
        f"(weight {wg.weight}) (tree {tree}))"
    )


_MACHINE = re.compile(
    r"\(term \(regime (?P<regime>\w+)\) \(sign (?P<sign>[+-]?\d+)\) "
    r"\(weight (?P<weight>-?\d+(?:/\d+)?)\) \(tree (?P<tree>[^)\s]+)\)\)"
)


def parse_machine_term(text: str, skeleton: Skeleton | None = None) -> WeightedGraph:
    """Invert :func:`render_term` for the machine style.

    Composite terms need the original skeleton to resolve colour names.  The
    embedded sign and weight are recomputed and verified.
    """
    m = _MACHINE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a machine-style term: {text!r}")
    regime = Regime(m.group("regime"))
    if regime is Regime.COMPOSITE:
        if skeleton is None:
            raise ValueError("composite terms need their skeleton to be parsed")
        palette = composite_context(skeleton).palette
    else:
        palette = {DEFAULT_COLOUR.name: DEFAULT_COLOUR}
        skeleton = None
    tree = parse_tree(m.group("tree"), palette)
    wg = weigh(DerivativeGraph(tree, regime, skeleton))
    if wg.sign != int(m.group("sign")) or wg.weight != Fraction(m.group("weight")):
        raise ValueError("embedded sign/weight disagree with the graph")
    return wg
