"""Symbolic rendering of weighted graphs as derivative formulas.

Three styles: ``text`` (unicode, human-readable), ``latex``, and ``machine``
(a stable parenthesized prefix grammar that round-trips through
:func:`parse_machine_term`).  Multilinear arguments are always printed in
canonical tree order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .enumeration import DerivativeGraph, Regime, enumerate_graphs, family_of, in_regime
from .skeletons import Skeleton
from .trees import Tree, fold, format_trees, parse_tree
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
    family = family_of(Regime.COMPOSITE, skeleton)
    # Each position's evaluation point: its undifferentiated arguments.
    point = [",".join(map(str, node.children)) for node in family.nodes]

    def body(t: Tree, args: list[str]) -> str:
        ci = t.colour.index
        if ci in family.leaves:
            return ""  # increments are implicit in the printed multilinear form
        head = family.nodes[ci].name + _prime(len(args), style) + "(" + point[ci] + ")"
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


class FormulaTerm(NamedTuple):
    sign: int
    weight: Fraction
    text: str
    graph: WeightedGraph | None = None  # None only for closed forms


class Formula(NamedTuple):
    regime: Regime
    order: int
    style: str
    terms: tuple[FormulaTerm, ...]

    def __str__(self) -> str:
        if self.style == "machine":
            return "\n".join(term.text for term in self.terms)
        if not self.terms:
            return "0"  # the derivative of a constant
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

    Composite terms need the original skeleton to resolve colour names;
    other regimes ignore it, so one skeleton serves a mix of terms.  The graph
    must be one ``enumerate_graphs`` lists, with the sign and weight it has.
    """
    m = _MACHINE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a machine-style term: {text!r}")
    regime = Regime(m.group("regime"))
    palette = {c.name: c for c in family_of(regime, skeleton).palette}
    if regime is not Regime.COMPOSITE:
        skeleton = None  # only composite graphs carry one
    graph = DerivativeGraph(parse_tree(m.group("tree"), palette), regime, skeleton)
    if not in_regime(graph):
        raise ValueError(f"{m.group('tree')} is not a canonical {regime.value} graph")
    wg = weigh(graph)
    if wg.sign != int(m.group("sign")) or wg.weight != Fraction(m.group("weight")):
        raise ValueError("embedded sign/weight disagree with the graph")
    return wg
