"""Independent brute-force enumerators and counters used for cross-checks.

Nothing here shares an algorithm with the production paths: isomorphism is
decided by explicit child matching (not canonical forms), rooted trees are
generated from parent arrays, automorphisms are counted by trying every
vertex permutation, and inverse-regime trees come from labelled set
partitions.  Slow on purpose; used only at test scale.
"""

from __future__ import annotations

from itertools import permutations

from derivgraph.trees import Tree


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
