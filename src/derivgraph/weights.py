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


@dataclass(frozen=True)
class WeightedGraph:
    graph: DerivativeGraph
    sign: int  # +1 or -1
    weight: Fraction


def weigh(graph: DerivativeGraph) -> WeightedGraph:
    """Attach the regime weight and sign to a canonical graph."""
    n, tree = graph.order, graph.tree
    if graph.regime is Regime.ODE:
        weight = Fraction(factorial(n - 1), tree.symmetry * tree.complexity)
        sign = 1
    else:
        weight = Fraction(factorial(n), tree.symmetry)
        sign = (-1) ** tree.internal if graph.regime is Regime.INVERSE else 1
    return WeightedGraph(graph, sign, weight)


def totally_symmetric(graph: DerivativeGraph) -> bool:
    """All concrete members coincide: weight 1."""
    return weigh(graph).weight == 1


def totally_asymmetric(graph: DerivativeGraph) -> bool:
    """Only the identity fixes the representing graph: weight n!."""
    return weigh(graph).weight == factorial(graph.order)
