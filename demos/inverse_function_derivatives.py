"""Derivatives of an inverse function g = f^(-1).

The trees have n entrances and no unary internal vertices: every wedge of a
first derivative of f cancels against a Dg factor, which is re-inserted in
the printed expression.  Signs alternate with the number of internal
vertices; weights are n!/S.
"""

from derivgraph import (
    Jet,
    Regime,
    enumerate_inverse,
    format_tree,
    jet_reverse,
    render_derivative,
    verify,
    weigh,
)

print("== derivative formulas ==")
for n in range(1, 5):
    print(f"  D^{n}g = {render_derivative(Regime.INVERSE, n)}")

print()
print("== signed weights per tree ==")
for n in range(2, 6):
    parts = [
        f"{'+' if wg.sign > 0 else '-'}{wg.weight} * {format_tree(wg.graph.tree)}"
        for wg in map(weigh, enumerate_inverse(n))
    ]
    print(f"  n={n}: " + ",  ".join(parts))

print()
print("== series reversion agrees coefficient by coefficient ==")
f = Jet([0, 1, 1], order=5)  # f(x) = x + x^2
g = jet_reverse(f)
print("  reverse(x + x^2):", [str(c) for c in g.coeffs])

for n in range(1, 8):
    report = verify(Regime.INVERSE, n, trials=20, seed=7)
    print(" ", report.to_text())
    assert report.passed
