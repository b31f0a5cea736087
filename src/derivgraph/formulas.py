"""Symbolic rendering of weighted graphs as derivative formulas.

Three styles: ``text`` (unicode, human-readable), ``latex``, and ``machine``
(a stable parenthesized prefix grammar that round-trips through
:func:`parse_machine_term`).  Multilinear arguments are always printed in
canonical tree order.
"""

from __future__ import annotations

import re
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .enumeration import DerivativeGraph, Regime, WeightedGraph, enumerate_graphs, family_of
from .enumeration import in_regime, weigh
from .trees import Tree, format_trees, parse_tree, write_trees

if TYPE_CHECKING:
    from .skeletons import Skeleton

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
    return ("", "′", "″", "‴")[k] if k <= 3 else "⁽" + _sup(k) + "⁾"


def _joiners(style: str) -> tuple[str, str, str]:
    if style == "latex":
        return r"\langle ", r"\rangle ", r"\cdot "
    return "⟨", "⟩", "·"


# ---------------------------------------------------------------------------
# Per-regime term bodies (unsigned, weight-free): each vertex's text before
# and after its arguments' texts, which are joined by commas.  In the ode and
# inverse regimes they depend on the degree only.


def _degree_parts(regime: Regime, style: str):
    lbr, rbr, dot = _joiners(style)
    # A leaf prints `leaf`; a degree-k vertex the k-th derivative of f, then `point`.
    if regime is Regime.ODE:
        leaf, point = "f(y)", "f(y)"
    else:
        leaf, point = "Dg(y)", "f(g(y))" + dot + "Dg(y)"

    @cache
    def parts(k: int) -> tuple[str, str]:
        if not k:
            return leaf, ""
        tail = dot + _d_op(k, style) + point
        if k == 1:
            return "", tail  # an ode chain prints unbracketed: f(y)·Df(y)
        return lbr, rbr + tail

    return lambda t: parts(len(t.children))


def _composite_parts(style: str, skeleton: Skeleton):
    from .skeletons import _skeleton_parts  # only the composite regime reads one

    lbr, rbr, dot = _joiners(style)
    family = family_of(Regime.COMPOSITE, skeleton)
    # Each position's evaluation point "(…)": its text minus its name, in one pass.
    texts = write_trees(family.nodes, _skeleton_parts, ",")
    point = [text[len(node.name) :] for node, text in zip(family.nodes, texts)]

    # Increments are implicit in the multilinear form: a variable prints nothing.
    variables = {Tree(family.palette[i]) for i in family.leaves}

    def printed(t: Tree) -> list[Tree]:
        return [c for c in t.children if c not in variables]

    def parts(t: Tree) -> tuple[str, str]:
        ci = t.colour.index
        head = family.nodes[ci].name + _prime(len(t.children), style) + point[ci]
        if variables.issuperset(t.children):
            return head, ""
        if len(t.children) == 1:
            return head + dot, ""
        return lbr, rbr + dot + head

    return parts, printed


def _term_texts(
    wgs: list[WeightedGraph], regime: Regime, skeleton: Skeleton | None, style: str
) -> list[str]:
    """Each graph's term text, printing a subtree shared by several graphs once."""
    trees = [wg.graph.tree for wg in wgs]
    if style == "machine":
        return [_machine_term(wg, tree) for wg, tree in zip(wgs, format_trees(trees))]
    if regime is Regime.COMPOSITE:
        parts, printed = _composite_parts(style, skeleton)
        return write_trees(trees, parts, ",", printed)
    return write_trees(trees, _degree_parts(regime, style), ",")


# ---------------------------------------------------------------------------
# Whole-derivative formulas.


class FormulaTerm(NamedTuple):
    """One signed, weighted term: the text of its graph in the formula's style."""

    sign: int
    weight: int
    text: str
    graph: WeightedGraph


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


# The inverse order 1 is the lone leaf, Dg(y), printed as its closed form.
_INVERSE_ORDER_1 = {"text": "(Df(g(y)))⁻¹", "latex": "(Df(g(y)))^{-1}"}


def render_derivative(
    regime: Regime,
    n: int,
    style: str = "text",
    skeleton: Skeleton | None = None,
) -> Formula:
    """Enumerate, weigh and render the full order-n derivative."""
    regime = Regime(regime)
    if style not in STYLES:
        raise ValueError(f"unsupported style {style!r}")
    wgs = [weigh(graph) for graph in enumerate_graphs(regime, n, skeleton)]
    texts = _term_texts(wgs, regime, skeleton, style)
    if regime is Regime.INVERSE and n == 1 and style in _INVERSE_ORDER_1:
        texts = [_INVERSE_ORDER_1[style]]
    terms = (FormulaTerm(wg.sign, wg.weight, text, wg) for wg, text in zip(wgs, texts))
    return Formula(regime, n, style, tuple(terms))


# ---------------------------------------------------------------------------
# Machine grammar: (term (regime R) (sign S) (weight W) (tree T))


def _machine_term(wg: WeightedGraph, tree: str) -> str:
    return (
        f"(term (regime {wg.graph.regime.value}) (sign {wg.sign}) "
        f"(weight {wg.weight}) (tree {tree}))"
    )


# Compiled when a term is first parsed (re caches it), not when a formula is rendered.
_MACHINE = (
    r"\(term \(regime (?P<regime>\w+)\) \(sign (?P<sign>[+-]?\d+)\) "
    r"\(weight (?P<weight>-?\d+(?:/0*[1-9]\d*)?)\) \(tree (?P<tree>[^)\s]+)\)\)"
)


def parse_machine_term(text: str, skeleton: Skeleton | None = None) -> WeightedGraph:
    """Invert a machine-style term of :func:`render_derivative`.

    Composite terms need the original skeleton to resolve colour names;
    other regimes ignore it, so one skeleton serves a mix of terms.  The graph
    must be one ``enumerate_graphs`` lists, with the sign and weight it has.
    """
    from fractions import Fraction  # only the grammar's optional /d needs one

    m = re.fullmatch(_MACHINE, text.strip())
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
