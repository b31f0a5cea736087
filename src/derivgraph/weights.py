"""Signs and rational weights of virtual graphs.

Composite and inverse graphs with n entrances weigh n!/S; an ODE tree with
n vertices weighs (n-1)!/(S*tau).  The inverse regime alternates sign with
the number of internal vertices; every other regime is positive.  All
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .enumeration import DerivativeGraph, Regime


class WeightedGraph(NamedTuple):
    graph: DerivativeGraph
    sign: int  # +1 or -1
    weight: Fraction


def weigh(graph: DerivativeGraph) -> WeightedGraph:
    """Attach the regime weight and sign to a canonical graph."""
    tree, regime = graph.tree, graph.regime
    if regime is Regime.ODE:
        weight = Fraction(factorial(tree.vertices - 1), tree.symmetry * tree.complexity)
        sign = 1
    else:
        weight = Fraction(factorial(tree.entrances), tree.symmetry)
        sign = (-1) ** tree.internal if regime is Regime.INVERSE else 1
    return tuple.__new__(WeightedGraph, (graph, sign, weight))  # as in enumerate_graphs


def totally_symmetric(graph: DerivativeGraph) -> bool:
    """All concrete members coincide: weight 1."""
    return weigh(graph).weight == 1


def totally_asymmetric(graph: DerivativeGraph) -> bool:
    """Only the identity fixes the representing graph: weight n!."""
    return weigh(graph).weight == factorial(graph.order)
