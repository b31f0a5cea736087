"""Signs and rational weights of virtual graphs.

Composite and inverse graphs with n entrances weigh n!/S; an ODE tree with
n vertices weighs (n-1)!/(S*tau).  The inverse regime alternates sign with
the number of internal vertices; every other regime is positive.  All
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .enumeration import DerivativeGraph, Regime


class WeightedGraph(NamedTuple):
    graph: DerivativeGraph
    sign: int  # +1 or -1
    weight: Fraction


# Many trees share a weight (ode order 12: 4766 trees, 308 weights), and a
# Fraction is immutable: each distinct weight is built and reduced once.
_fraction = lru_cache(maxsize=4096)(Fraction)


def weigh(graph: DerivativeGraph) -> WeightedGraph:
    """Attach the regime weight and sign to a canonical graph.

    Graphs of equal weight may share one ``Fraction`` object.
    """
    tree, regime = graph.tree, graph.regime
    if regime is Regime.ODE:
        weight = _fraction(factorial(tree.vertices - 1), tree.symmetry * tree.complexity)
        sign = 1
    else:
        weight = _fraction(factorial(tree.entrances), tree.symmetry)
        sign = (-1) ** tree.internal if regime is Regime.INVERSE else 1
    return tuple.__new__(WeightedGraph, (graph, sign, weight))  # as in enumerate_graphs


def totally_symmetric(graph: DerivativeGraph) -> bool:
    """All concrete members coincide: weight 1."""
    return weigh(graph).weight == 1


def totally_asymmetric(graph: DerivativeGraph) -> bool:
    """Only the identity fixes the representing graph: weight n!."""
    return weigh(graph).weight == factorial(graph.order)
