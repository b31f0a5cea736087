"""Symbolic rendering of weighted graphs as derivative formulas.

Three styles: ``text`` (unicode, human-readable), ``latex``, and ``machine``
(a stable parenthesized prefix grammar that round-trips through
:func:`parse_machine_term`).  Multilinear arguments are always printed in
canonical tree order.

A term is written from its root's children, a run of ``_Family.roots``, so
the ``formula`` command builds no root and no record; :func:`render_derivative`
builds each term's graph record on top.
"""

from __future__ import annotations

import re
from functools import cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .enumeration import DerivativeGraph, Regime, WeightedGraph, _request, family_of
from .enumeration import in_regime, weigh
from .trees import Tree, format_roots, parse_tree, write_trees

if TYPE_CHECKING:
    from .enumeration import _Family
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
# inverse regimes they depend on the degree only.  Only these bodies hand
# ``write_trees`` a run, a root's children tuple, to walk as the root over it.


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

    return lambda t: parts(len(_children(t)))


def _children(t: Tree | tuple[Tree, ...]) -> tuple[Tree, ...]:
    return t if type(t) is tuple else t.children


def _composite_parts(style: str, family: _Family):
    from .skeletons import _skeleton_parts  # only the composite regime reads one

    lbr, rbr, dot = _joiners(style)
    # Each position's evaluation point "(…)": its text minus its name, in one pass.
    texts = write_trees(family.nodes, _skeleton_parts, ",")
    point = [text[len(node.name) :] for node, text in zip(family.nodes, texts)]

    # Increments are implicit in the multilinear form: a variable prints
    # nothing, so only the positions with a variable slot drop children.
    variables = {Tree(family.palette[i]) for i in family.leaves}
    mixed = {ci for ci, kinds in family.children.items() if not family.leaves.isdisjoint(kinds)}

    @cache
    def part(ci: int, k: int, shown: bool) -> tuple[str, str]:
        head = family.nodes[ci].name + _prime(k, style) + point[ci]
        if not shown:
            return head, ""
        if k == 1:
            return head + dot, ""
        return lbr, rbr + dot + head

    def parts(t) -> tuple[str, str]:
        ci, kids = (family.root, t) if type(t) is tuple else (t.colour.index, t.children)
        return part(ci, len(kids), ci not in mixed or not variables.issuperset(kids))

    def printed(t) -> tuple[Tree, ...] | list[Tree]:
        ci, kids = (family.root, t) if type(t) is tuple else (t.colour.index, t.children)
        return [c for c in kids if c not in variables] if ci in mixed else kids

    return parts, printed


def _term_texts(family: _Family, runs: list[tuple], regime: Regime, style: str) -> list[str]:
    """Each run's term body, or its tree's notation in the machine style; a
    subtree shared by several terms is printed once."""
    if style == "machine":
        return format_roots(family.palette[family.root], runs)
    if regime is Regime.COMPOSITE:
        parts, printed = _composite_parts(style, family)
        return write_trees(runs, parts, ",", printed)
    return write_trees(runs, _degree_parts(regime, style), ",", _children)


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
        return _join(self.style, (term[:3] for term in self.terms))


def _join(style: str, rows: Iterable[tuple[int, int, str]]) -> str:
    """A formula's text from its terms' (sign, weight, text): one machine term
    a line, or the signed sum, "0" for the derivative of a constant."""
    if style == "machine":
        return "\n".join(text for _, _, text in rows)
    signed = "".join(
        (" - " if sign < 0 else " + ") + ("" if weight == 1 else str(weight)) + text
        for sign, weight, text in rows
    )
    if not signed:
        return "0"
    # The first sign is written without spaces, and a plus not at all.
    return ("-" if signed[1] == "-" else "") + signed[3:]


# The inverse order 1 is the lone leaf, Dg(y), printed as its closed form.
_INVERSE_ORDER_1 = {"text": "(Df(g(y)))⁻¹", "latex": "(Df(g(y)))^{-1}"}


def _terms(regime: Regime, n: int, style: str, skeleton: Skeleton | None):
    """The family, each order-n root's children (a run) and its term's
    (sign, weight, text), building no root: a term is written from its run."""
    if style not in STYLES:
        raise ValueError(f"unsupported style {style!r}")
    family, runs, coefficients = _request(regime, n, skeleton)
    coefficients = [coefficient[2:] for coefficient in coefficients]
    texts = _term_texts(family, runs, regime, style)
    if style == "machine":  # the grammar below
        texts = [
            f"(term (regime {regime.value}) (sign {sign}) (weight {weight}) (tree {tree}))"
            for (sign, weight), tree in zip(coefficients, texts)
        ]
    elif regime is Regime.INVERSE and n == 1:
        texts = [_INVERSE_ORDER_1[style]]
    return family, runs, [(*coefficient, text) for coefficient, text in zip(coefficients, texts)]


def render_derivative(
    regime: Regime,
    n: int,
    style: str = "text",
    skeleton: Skeleton | None = None,
) -> Formula:
    """The full order-n derivative: the ``formula`` command's terms, each with its graph."""
    regime = Regime(regime)
    family, runs, rows = _terms(regime, n, style, skeleton)
    root = family.palette[family.root]
    graphs = (DerivativeGraph(Tree(root, run), regime, family.skeleton) for run in runs)
    terms = (FormulaTerm(*row, WeightedGraph(g, *row[:2])) for g, row in zip(graphs, rows))
    return Formula(regime, n, style, tuple(terms))


# ---------------------------------------------------------------------------
# Machine grammar: (term (regime R) (sign S) (weight W) (tree T))

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
    family = family_of(regime, skeleton)
    palette = {c.name: c for c in family.palette}
    graph = DerivativeGraph(parse_tree(m.group("tree"), palette), regime, family.skeleton)
    if not in_regime(graph):
        raise ValueError(f"{m.group('tree')} is not a canonical {regime.value} graph")
    wg = weigh(graph)
    if wg.sign != int(m.group("sign")) or wg.weight != Fraction(m.group("weight")):
        raise ValueError("embedded sign/weight disagree with the graph")
    return wg
