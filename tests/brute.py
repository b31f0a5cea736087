"""Independent brute-force enumerators and counters used for cross-checks.

Nothing here shares an algorithm with the production paths: isomorphism is
decided by explicit child matching (not canonical forms), rooted trees are
generated from parent arrays, automorphisms are counted by trying every
vertex permutation, inverse-regime trees come from labelled set
partitions, composite terms from the chain rule applied one step at a
time, shapes are compared by sorted child texts, and a multivariate
series is composed one ``Jet`` product at a time, as are the ODE flow and
the compositional inverse built on it.  ``Jet``
is this module's own series class: the package's series code is int kernels
that these references check.  Slow on purpose; used only at test scale.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Iterable

from derivgraph.trees import Tree

Rat = int | Fraction


class Jet:
    """Univariate series c_0 + c_1 x + ... + c_N x^N, truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if order is not None:
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a jet needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Jet({[str(c) for c in self.coeffs]})"

    def __add__(self, other: Jet | Rat) -> Jet:
        o = other if isinstance(other, Jet) else Jet([other], order=self.order)
        n = min(self.order, o.order)
        return Jet([self.coeffs[k] + o.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: Jet | Rat) -> Jet:
        if not isinstance(other, Jet):
            return Jet([c * Fraction(other) for c in self.coeffs])
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return Jet(out)

    __rmul__ = __mul__

    def derivative_at_zero(self, k: int) -> Fraction:
        """k-th derivative at the expansion point: k! * c_k."""
        return self.coeffs[k] * factorial(k)


def isomorphic(a: Tree, b: Tree) -> bool:
    """Coloured rooted-tree isomorphism by exhaustive child matching."""
    if a.colour != b.colour or a.degree != b.degree:
        return False
    if not a.children:
        return True
    for perm in permutations(range(a.degree)):
        if all(isomorphic(a.children[i], b.children[p]) for i, p in enumerate(perm)):
            return True
    return False


def _parent_array_to_tree(parents: tuple[int, ...]) -> Tree:
    n = len(parents) + 1
    kids: list[list[int]] = [[] for _ in range(n)]
    for child, parent in enumerate(parents, start=1):
        kids[parent].append(child)

    def build(v: int) -> Tree:
        return Tree(children=tuple(build(c) for c in kids[v]))

    return build(0)


def _parent_arrays(n: int):
    # parent[i] < i: every rooted tree on n vertices appears (as an
    # increasing labelling), (n-1)! arrays in total.
    def rec(prefix: list[int], i: int):
        if i == n:
            yield tuple(prefix)
            return
        for p in range(i):
            prefix.append(p)
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([], 1)


def brute_rooted_trees(n: int) -> list[Tree]:
    """All rooted trees on n vertices, deduplicated by pairwise isomorphism."""
    found: list[Tree] = []
    for parents in _parent_arrays(n):
        t = _parent_array_to_tree(parents)
        if not any(isomorphic(t, seen) for seen in found):
            found.append(t)
    return found


def brute_increasing_tree_census(n: int) -> list[tuple[Tree, int]]:
    """(tree, count) pairs: how many increasing labellings each shape has.

    Counts sum to (n-1)! because parent arrays with parent[i] < i are in
    bijection with increasing trees.
    """
    census: list[tuple[Tree, int]] = []
    for parents in _parent_arrays(n):
        t = _parent_array_to_tree(parents)
        for i, (rep, count) in enumerate(census):
            if isomorphic(t, rep):
                census[i] = (rep, count + 1)
                break
        else:
            census.append((t, 1))
    return census


def brute_automorphism_count(t: Tree) -> int:
    """Count vertex permutations preserving root, colours and edges."""
    parent: dict[int, int] = {}
    colour: dict[int, int] = {}
    order: list[int] = []

    def walk(node: Tree, pid: int) -> None:
        vid = len(order)
        order.append(vid)
        colour[vid] = node.colour.index
        parent[vid] = pid
        for c in node.children:
            walk(c, vid)

    walk(t, -1)
    n = len(order)
    count = 0
    for perm in permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(
            colour[perm[v]] == colour[v] and perm[parent[v]] == parent[perm[v]]
            for v in range(1, n)
        ):
            count += 1
    return count


def brute_inverse_trees(n: int) -> list[Tree]:
    """Rooted trees with n leaves, internal degree >= 2, via set partitions."""

    def hierarchies(items: tuple[int, ...]) -> list[Tree]:
        if len(items) == 1:
            return [Tree()]
        out: list[Tree] = []
        for split in _set_partitions(items):
            if len(split) < 2:
                continue
            choices = [hierarchies(block) for block in split]
            out.extend(_products(choices))
        return out

    def _products(choices: list[list[Tree]]) -> list[Tree]:
        trees = [()]
        for block_choices in choices:
            trees = [kids + (c,) for kids in trees for c in block_choices]
        return [Tree(children=kids) for kids in trees]

    found: list[Tree] = []
    for t in hierarchies(tuple(range(n))):
        if not any(isomorphic(t, seen) for seen in found):
            found.append(t)
    return found


def _set_partitions(items: tuple[int, ...]):
    """All set partitions of items (as lists of blocks)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + (first,)] + sub[i + 1 :]
        yield sub + [(first,)]


def shape_text(t: Tree) -> str:
    """A tree's text with its children's texts sorted: equal exactly for isomorphic trees."""
    return t.colour.name + "{" + ",".join(sorted(map(shape_text, t.children))) + "}"


def brute_inverse_census(n: int) -> Counter:
    """Each inverse shape's ``shape_text`` and its number of labelled hierarchies on n items.

    A hierarchy (a total partition) is a lone item, or a partition of its
    items into at least two blocks, each a hierarchy: Schröder's fourth
    problem, so the counts sum to A000311(n).  Every one is listed.
    """

    def hierarchies(items: tuple[int, ...]) -> list[str]:
        if len(items) == 1:
            return ["*{}"]
        return [
            "*{" + ",".join(sorted(kids)) + "}"
            for split in _set_partitions(items)
            if len(split) > 1
            for kids in product(*map(hierarchies, split))
        ]

    return Counter(hierarchies(tuple(range(n))))


def brute_composite_census(skeleton: Tree, n: int) -> Counter:
    """Each shape's ``shape_text`` and its number of terms in ``skeleton``'s order-n derivative.

    A term is a tree of skeleton positions over base-variable leaves; the
    0th derivative is the root position alone.  One chain-rule step
    differentiates one function vertex of a term: it adds a child that is a
    first-order path from one of the vertex's distinct slots down to a base
    variable (a variable slot is its leaf; a function slot is its vertex
    over a path from one of its own slots).  Each sequence of n steps is one
    term, its k-th leaf labelled k, and every one is listed.  The slots come
    from the skeleton's nodes: a variable is one slot however often a
    position takes it, a function argument is a slot of its own.  A
    position is named as the notation names it: f, then f.2, ... in preorder.
    """
    names: list[str] = []
    slots: list[list] = []  # each position's distinct slots: a variable's name, or a position
    seen: dict[str, int] = {}

    def walk(node: Tree) -> int:
        i = len(names)
        seen[node.name] = seen.get(node.name, 0) + 1
        names.append(node.name if seen[node.name] == 1 else f"{node.name}.{seen[node.name]}")
        slots.append([])
        for c in node.children:
            slot = c.name if c.is_variable else walk(c)
            if slot not in slots[i]:
                slots[i].append(slot)
        return i

    walk(skeleton)

    # A leaf is its variable's name; a function vertex is (position, children).
    def paths(slot):
        if isinstance(slot, str):
            return [slot]
        return [(slot, (p,)) for s in slots[slot] for p in paths(s)]

    def steps(term):
        i, kids = term
        for p in (p for s in slots[i] for p in paths(s)):
            yield i, kids + (p,)
        for k, kid in enumerate(kids):
            if not isinstance(kid, str):
                yield from ((i, kids[:k] + (g,) + kids[k + 1 :]) for g in steps(kid))

    def text(term) -> str:
        if isinstance(term, str):
            return term + "{}"
        return names[term[0]] + "{" + ",".join(sorted(map(text, term[1]))) + "}"

    terms = [(0, ())]
    for _ in range(n):
        terms = [grown for term in terms for grown in steps(term)]
    return Counter(map(text, terms))


def integer_partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, maximum: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def compose(outer: dict[tuple[int, ...], object], inners: list[Jet], order: int) -> Jet:
    """Jet of x -> F(u_1(x), ..., u_k(x)) = sum_alpha c_alpha prod u_i^alpha_i.

    ``outer`` maps each multi-index alpha (one exponent per inner) to c_alpha.
    Each term is c_alpha times its inners, one ``Jet`` product per unit of
    alpha, so it is known to the order of each inner it uses; terms with
    |alpha| > ``order`` are dropped.  The inners need zero constant terms.
    """
    if any(u[0] != 0 for u in inners):
        raise ValueError("inner jets must have zero constant terms")
    result = Jet([0], order=order)
    for alpha, c in outer.items():
        if len(alpha) != len(inners):
            raise ValueError(f"multi-index {alpha} needs {len(inners)} exponents, one per inner")
        if min(alpha, default=0) < 0:
            raise ValueError(f"multi-index {alpha} has a negative exponent")
        if sum(alpha) <= order:
            term = Jet([c], order=order)
            for u, e in zip(inners, alpha):
                for _ in range(e):
                    term = term * u
            result = result + term
    return result


def reference_ode_flow(f: Jet, y0, order: int) -> Jet:
    """The O(N^4) flow of y' = f(y - y0), y(0) = y0: a full ``compose`` for every order gained."""
    y = [Fraction(y0)] + [Fraction(0)] * order
    for k in range(order):
        shifted = Jet([0] + y[1 : k + 1], order=k)
        rate = compose({(j,): c for j, c in enumerate(f.coeffs)}, [shifted], k)
        y[k + 1] = rate[k] / (k + 1)
    return Jet(y)


def reference_reverse(f: Jet) -> Jet:
    """The compositional inverse of f, f_0 = 0 and f_1 != 0, to f's order N.

    g <- (x - sum_{j>=2} f_j g^j) / f_1, N times from g = 0: each pass fixes
    one more coefficient of f(g(x)) = x.
    """
    n = f.order
    x, g = Jet([0, 1], order=n), Jet([0], order=n)
    higher = {(j,): -f[j] for j in range(2, n + 1)}
    for _ in range(n):
        g = (x + compose(higher, [g], n)) * (1 / f[1])
    return g
