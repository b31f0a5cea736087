"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison here is exact (integers and rationals); no
tolerances are involved anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

from brute import (
    brute_automorphism_count,
    brute_increasing_tree_census,
    brute_rooted_trees,
    isomorphic,
)
from derivgraph.enumeration import (
    DerivativeGraph,
    Regime,
    enumerate_inverse,
    enumerate_ode,
    weigh,
)
from derivgraph.oracle import verify
from derivgraph.skeletons import parse_skeleton
from derivgraph.trees import (
    Tree,
    canonicalize,
    compare_trees,
    make_palette,
)


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_ode_table_reproduction():
    started = time.monotonic()
    rows = [
        (wg.graph.tree.symmetry, wg.graph.tree.complexity, wg.weight)
        for wg in map(weigh, enumerate_ode(4))
    ]
    assert rows == [(1, 6, 1), (2, 3, 1), (1, 2, 3), (6, 1, 1)]
    assert [w for _, _, w in rows].count(3) == 1  # only the third tree weighs 3
    assert time.monotonic() - started < 1.0
    _report("1 ode order-4 table (S, tau, weight)")


def test_criterion_2_inverse_reproduction():
    two = [(wg.sign * wg.weight) for wg in map(weigh, enumerate_inverse(2))]
    three = [(wg.sign * wg.weight) for wg in map(weigh, enumerate_inverse(3))]
    assert two == [-1]
    assert three == [3, -1]
    _report("2 inverse orders 2 and 3 signed weights (-1; +3, -1)")


def test_criterion_3_binomial_weights():
    pal = make_palette("b", "w", "F")

    def coloured(k: int, n: int) -> DerivativeGraph:
        tree = Tree(pal["F"], (Tree(pal["b"]),) * k + (Tree(pal["w"]),) * (n - k))
        return DerivativeGraph(canonicalize(tree), Regime.COMPOSITE)

    wg = weigh(coloured(2, 5))
    assert wg.graph.tree.symmetry == factorial(2) * factorial(3)
    assert wg.weight == Fraction(120, 12) == 10 == comb(5, 2)
    for n in range(1, 9):
        for k in range(n + 1):
            assert weigh(coloured(k, n)).weight == comb(n, k)
    _report("3 coloured-entrance weights equal binomial coefficients, n <= 8")


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    chain = parse_skeleton("f(g(x))")
    two_colour = parse_skeleton("F(f(x),g(x))")
    for n in range(1, 9):
        assert verify(Regime.COMPOSITE, n, trials=20, seed=1, skeleton=chain).passed
    for n in range(1, 7):
        assert verify(Regime.COMPOSITE, n, trials=20, seed=1, skeleton=two_colour).passed
    for n in range(1, 8):
        assert verify(Regime.INVERSE, n, trials=20, seed=1).passed
    for n in range(1, 9):
        assert verify(Regime.ODE, n, trials=20, seed=1).passed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(f"4 oracle equivalence, 20 exact trials per order ({elapsed:.1f} s)")


def test_criterion_5_counting_identities():
    expected_counts = [1, 1, 2, 4, 9, 20, 48, 115]
    for n, expected in enumerate(expected_counts, start=1):
        graphs = enumerate_ode(n)
        assert len(graphs) == expected
        assert len(brute_rooted_trees(n)) == expected
        census = brute_increasing_tree_census(n)
        assert sum(count for _, count in census) == factorial(n - 1)
        total = Fraction(0)
        for g in graphs:
            weight = weigh(g).weight
            matches = [count for rep, count in census if isomorphic(g.tree, rep)]
            assert matches == [weight]
            total += weight
        assert total == factorial(n - 1)
    _report("5 ode counts 1,1,2,4,9,20,48,115 and weight sums (n-1)!")


def test_criterion_6_structural_property_suite():
    trees_by_size = {n: [canonicalize(t) for t in brute_rooted_trees(n)] for n in range(1, 8)}

    small = [t for n in range(1, 6) for t in trees_by_size[n]]
    for a, b in product(small, repeat=2):
        ab, ba = compare_trees(a, b), compare_trees(b, a)
        assert ab in (-1, 0, 1) and ab == -ba
        assert (ab == 0) == (str(a) == str(b))
    for a, b, c in product(small, repeat=3):
        if compare_trees(a, b) <= 0 and compare_trees(b, c) <= 0:
            assert compare_trees(a, c) <= 0

    rng = random.Random(2024)

    def shuffled(t: Tree) -> Tree:
        kids = [shuffled(c) for c in t.children]
        rng.shuffle(kids)
        return Tree(t.colour, tuple(kids))

    for n in range(1, 8):
        for t in trees_by_size[n]:
            assert canonicalize(t) == t  # idempotence on canonical input
            for _ in range(5):
                assert canonicalize(shuffled(t)) == t

    for n in range(1, 8):
        for t in trees_by_size[n]:
            assert t.symmetry == brute_automorphism_count(t)
    _report("6 total order, canonical idempotence, symmetry vs brute force")
