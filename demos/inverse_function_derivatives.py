"""Derivatives of an inverse function g = f^(-1).

The trees have n entrances and no unary internal vertices: every wedge of a
first derivative of f cancels against a Dg factor, which is re-inserted in
the printed expression.  Signs alternate with the number of internal
vertices; weights are n!/S.
"""

from fractions import Fraction

from derivgraph import Regime, enumerate_inverse, render_derivative, verify, weigh

print("== derivative formulas ==")
for n in range(1, 5):
    print(f"  D^{n}g = {render_derivative(Regime.INVERSE, n)}")

print()
print("== signed weights per tree ==")
for n in range(1, 6):
    parts = [
        f"{'+' if wg.sign > 0 else '-'}{wg.weight} * {str(wg.graph.tree)}"
        for wg in map(weigh, enumerate_inverse(n))
    ]
    print(f"  n={n}: " + ",  ".join(parts))

print()
print("== series reversion agrees coefficient by coefficient ==")
# g = f^(-1) for f(x) = x + x^2 solves g + g^2 = x: g_1 = 1 and, for k >= 2,
# g_k = -sum_{i=1}^{k-1} g_i g_{k-i}.
g = [Fraction(0), Fraction(1)]
for k in range(2, 6):
    g.append(-sum(g[i] * g[k - i] for i in range(1, k)))
print("  reverse(x + x^2):", [str(c) for c in g])
assert g == [0, 1, -1, 2, -5, 14]  # the signed Catalan numbers (-1)^(k-1) C_(k-1)

for n in range(1, 8):
    report = verify(Regime.INVERSE, n, trials=20, seed=7)
    print(" ", report.to_text())
    assert report.passed
