"""Signs and rational weights of virtual graphs.

Composite and inverse graphs with n entrances weigh n!/S; an ODE tree with
n vertices weighs (n-1)!/(S*tau).  The inverse regime alternates sign with
the number of internal vertices; every other regime is positive.  All
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .enumeration import DerivativeGraph, Regime
from .trees import complexity_number, symmetry_number


@dataclass(frozen=True)
class StructuralSummary:
    order_n: int
    symmetry: int
    complexity: int


@dataclass(frozen=True)
class WeightedGraph:
    graph: DerivativeGraph
    summary: StructuralSummary
    sign: int  # +1 or -1
    weight: Fraction


def weigh(graph: DerivativeGraph) -> WeightedGraph:
    """Attach the regime weight and sign to a canonical graph."""
    n = graph.order
    s = symmetry_number(graph.tree)
    tau = complexity_number(graph.tree)
    if graph.regime is Regime.ODE:
        weight = Fraction(factorial(n - 1), s * tau)
        sign = 1
    else:
        weight = Fraction(factorial(n), s)
        sign = (-1) ** graph.tree.internal if graph.regime is Regime.INVERSE else 1
    return WeightedGraph(graph, StructuralSummary(n, s, tau), sign, weight)


def totally_symmetric(graph: DerivativeGraph) -> bool:
    """All concrete members coincide: weight 1."""
    return weigh(graph).weight == 1


def totally_asymmetric(graph: DerivativeGraph) -> bool:
    """Only the identity fixes the representing graph: weight n!."""
    wg = weigh(graph)
    return wg.weight == factorial(wg.summary.order_n)
