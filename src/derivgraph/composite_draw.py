"""The oracle's composite draw, in ints: F's Taylor coefficients per skeleton
position, the positions' composed jets and each vertex's factor.  Only a
composite ``verify`` imports it, so ode and inverse requests never compile it.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import factorial, prod

from .enumeration import _Family
from .oracle import Draw, _random_rational, _scaled


def _exponents(arity: int, n: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``arity`` entries and total at most ``n``, in lexicographic order."""
    out = []
    for m in range(n + 1):
        # One per multiset of m argument slots, as its count per slot.
        for slots in combinations_with_replacement(range(arity), m):
            alpha = [0] * arity
            for s in slots:
                alpha[s] += 1
            out.append(tuple(alpha))
    return sorted(out)


def _draw_composite(
    family: _Family, exponents: dict[int, list[tuple[int, ...]]], n: int, rng: random.Random
) -> Draw:
    # F's Taylor coefficients c_alpha, 1 <= |alpha| <= n, per position, with
    # one exponent per slot colour: slots of one colour are one base
    # variable, so they always receive the same inner jet.  outer holds the
    # integers q c_alpha, q the lcm of the drawn denominators.
    classes = family.children
    keys = {ci: [a for a in exponents[len(cls)] if any(a)] for ci, cls in classes.items()}
    q, scaled = _scaled([_random_rational(rng) for alphas in keys.values() for _ in alphas])
    values = iter(scaled)
    outer = {ci: {a: next(values) for a in alphas} for ci, alphas in keys.items()}
    # A jet (U, h) is u_k = U_k / q^(h k); a variable is (t, 0).  At a position, h is
    # its arguments' largest height and U~_i(t) = u_i(q^h t), so u(q^h t) = P(t) / q for
    # P = sum q c_alpha prod U~_i^alpha_i, P_0 = 0: its jet is (P_k q^(k-1), h + 1).
    # Positions are coloured in preorder, so a position's arguments have
    # higher colours: highest first, each argument's jet is ready in time.
    jets = {ci: ([0, 1] + [0] * (n - 1), 0) for ci in family.leaves}
    for ci in reversed(classes):
        args = [jets[c] for c in classes[ci]]
        h = max((hi for _, hi in args), default=0)
        lifted = [[u * q ** ((h - hi) * k) for k, u in enumerate(U)] for U, hi in args]
        # Sorted, alpha follows alpha - e_j, j its first slot in use: U~_j times that.
        monomial, p = {(0,) * len(args): [1] + [0] * n}, [0] * (n + 1)
        for alpha, c in outer[ci].items():
            j = next(i for i, e in enumerate(alpha) if e)
            m, u = monomial[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]], lifted[j]
            m = monomial[alpha] = [sum(m[i] * u[k - i] for i in range(k)) for k in range(n + 1)]
            p = [s + c * x for s, x in zip(p, m)]
        jets[ci] = ([0] + [p[k] * q ** (k - 1) for k in range(1, n + 1)], h + 1)

    # D^k F[v_1..v_k] is d^alpha F(0) = alpha! c_alpha, alpha counting the children per slot
    # colour; 0 if a child fits no slot, 1 at a variable.
    factors: dict[tuple[int, ...], int] = {}

    def vertex_factor(key: tuple[int, ...]) -> int:
        ci = key[0]
        if ci not in outer:
            return q  # a variable
        if key not in factors:
            alpha = tuple(map(key[1:].count, classes[ci]))
            c = outer[ci][alpha] if sum(alpha) == len(key) - 1 else 0
            factors[key] = prod(map(factorial, alpha)) * c
        return factors[key]

    u, h = jets[family.root]
    return (factorial(n) * u[n], q ** (h * n)), q, vertex_factor
