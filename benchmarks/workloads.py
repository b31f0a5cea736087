"""The benchmark's workloads and the checks applied to every request's output.

Each check recomputes the expected answer without importing derivgraph:
tree counts come from Euler transforms of the counting sequences (OEIS
A000081, A000669 and iterated partitions), weight sums from exact
``Fraction`` power series.  A check returns ``None`` for a correct output
and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

VERIFY_TRIALS = 20
CHAIN = "f(g(h(k(x))))"
CHAIN_DEPTH = 4

# sha256 of stdout at the full workload order, recorded when the benchmark
# was defined.  derivgraph promises byte-identical stdout for identical
# arguments, so any change to these bytes is a failed request.
DIGESTS = {
    ("ode-table", 12): "084adf65260cdd1fc0f55e41dd9bd7ca1cbbc6f7fd667e8da14bc73b685d6537",
    ("composite-formula", 8): "6c146f25e7afe6ba23c8fcf92c43c3515b4cf8a9b908c03d19de7329284fdaf6",
}


# ---------------------------------------------------------------------------
# Independent counts and series.


def multiset_counts(kinds: list[int], n: int) -> list[int]:
    """c[m] for m <= n: multisets of total size m with kinds[k] item kinds of size k."""
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        if kinds[k] == 0:
            continue
        counts = [
            sum(counts[m - k * j] * comb(kinds[k] + j - 1, j) for j in range(m // k + 1))
            for m in range(n + 1)
        ]
    return counts


def rooted_trees(n: int) -> int:
    """A000081: rooted trees with n vertices (a root over a multiset of subtrees)."""
    r = [0] * (n + 1)
    r[1] = 1
    for m in range(2, n + 1):
        r[m] = multiset_counts(r, m - 1)[m - 1]
    return r[n]


def series_reduced_trees(n: int) -> int:
    """A000669: trees by leaves whose internal vertices have >= 2 children."""
    a = [0] * (n + 1)
    a[1] = 1
    for m in range(2, n + 1):
        a[m] = multiset_counts(a, m)[m]  # a[m] is still 0: only smaller children
    return a[n]


def chain_terms(depth: int, n: int) -> int:
    """Faa di Bruno terms of an n-th derivative of a chain of `depth` functions.

    A term of f1(...(fd(x))) is a multiset of terms of the chain one shorter,
    so depth 2 gives the partitions of n.
    """
    t = [0] + [1] * n
    for _ in range(depth - 1):
        t = [0] + multiset_counts(t, n)[1:]
    return t[n]


def _compose(outer: list[Fraction], inner: list[Fraction]) -> list[Fraction]:
    """Coefficients of outer(inner(x)) truncated to len(outer); inner(0) = 0."""
    n = len(outer) - 1
    out = [outer[0]] + [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        power = [sum(power[i] * inner[m - i] for i in range(m + 1)) for m in range(n + 1)]
        for m in range(n + 1):
            out[m] += outer[k] * power[m]
    return out


def chain_weight_sum(depth: int, n: int) -> int:
    """n! [x^n] E o ... o E with E = e^x - 1: every derivative of every function is 1."""
    e = [Fraction(0)] + [Fraction(1, factorial(k)) for k in range(1, n + 1)]
    series = e
    for _ in range(depth - 1):
        series = _compose(e, series)
    return int(series[n] * factorial(n))


# ---------------------------------------------------------------------------
# Output checks.


def _digest_problem(workload: str, order: int, stdout: bytes) -> str | None:
    want = DIGESTS.get((workload, order))
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded sha256"
    return None


def check_ode_table(stdout: bytes, order: int, seed: int) -> str | None:
    lines = stdout.decode("utf-8").splitlines()
    if not lines or lines[0].split() != ["tree", "S", "tau", "sign", "weight"]:
        return "missing table header"
    rows = lines[1:]
    if len(rows) != rooted_trees(order):
        return f"{len(rows)} rows, expected {rooted_trees(order)}"
    try:
        total = sum(Fraction(row.split()[-1]) for row in rows)
    except (ValueError, IndexError):
        return "unparseable weight column"
    if total != factorial(order - 1):
        return f"weights sum to {total}, expected {factorial(order - 1)}"
    return _digest_problem("ode-table", order, stdout)


def check_composite_formula(stdout: bytes, order: int, seed: int) -> str | None:
    text = stdout.decode("utf-8")
    if not text.endswith("\n") or "\n" in text[:-1]:
        return "formula is not one line"
    terms = text[:-1].split(" + ")
    if len(terms) != chain_terms(CHAIN_DEPTH, order):
        return f"{len(terms)} terms, expected {chain_terms(CHAIN_DEPTH, order)}"
    total = sum(int(re.match(r"\d*", term).group() or 1) for term in terms)
    if total != chain_weight_sum(CHAIN_DEPTH, order):
        return f"weights sum to {total}, expected {chain_weight_sum(CHAIN_DEPTH, order)}"
    return _digest_problem("composite-formula", order, stdout)


def check_inverse_verify(stdout: bytes, order: int, seed: int) -> str | None:
    want = (
        f"verify regime=inverse order={order} trials={VERIFY_TRIALS} seed={seed} "
        f"graphs={series_reduced_trees(order)}: PASS\n"
    )
    if stdout.decode("utf-8") != want:
        return f"expected {want.strip()!r}"
    return None


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Workload:
    """One request type, repeated in a closed loop.

    ``argv(order, seed)`` gives the CLI arguments; ``seed`` is the request's
    own seed, which only workloads with random input use.  ``graphs(order)``
    is the work one request emits: graphs, or graphs x trials for verify.
    """

    name: str
    order: int
    argv: Callable[[int, int], list[str]]
    check: Callable[[bytes, int, int], str | None]
    graphs: Callable[[int], int]


WORKLOADS = {
    w.name: w
    for w in (
        # Deepest grow/canonicalize/dedup path; the oracle is never touched.
        Workload(
            "ode-table",
            12,
            lambda n, seed: ["table", "--regime", "ode", "--order", str(n), "--max-order", str(n)],
            check_ode_table,
            rooted_trees,
        ),
        # Coloured, branch-restricted enumeration; the only workload that renders.
        Workload(
            "composite-formula",
            8,
            lambda n, seed: ["formula", "--regime", "composite", "--skeleton", CHAIN, "--order", str(n)],
            check_composite_formula,
            lambda n: chain_terms(CHAIN_DEPTH, n),
        ),
        # The oracle does the work and enumeration little.
        Workload(
            "inverse-verify",
            8,
            lambda n, seed: [
                "verify", "--regime", "inverse", "--order", str(n),
                "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
            ],
            check_inverse_verify,
            lambda n: series_reduced_trees(n) * VERIFY_TRIALS,
        ),
    )
}
