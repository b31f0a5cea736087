"""Derivatives of the flow of y' = f(y), term by term.

Each derivative y^(n) is a sum over rooted trees with n vertices: a vertex
of degree k stands for the k-th derivative of the field.  The weight of a
tree is (n-1)! divided by its symmetry number S and complexity number tau,
and it counts the increasing labellings of the tree.
"""

from fractions import Fraction

from derivgraph import (
    Jet,
    Regime,
    enumerate_ode,
    jet_ode_flow,
    render_derivative,
    verify,
    weigh,
)

print("== trees, structure numbers and weights for y'''' ==")
for graph in enumerate_ode(4):
    t = graph.tree
    print(
        f"  {str(t):<16} S={t.symmetry}  "
        f"tau={t.complexity}  weight={weigh(graph).weight}"
    )

print()
print("== symbolic derivatives up to order 5 ==")
for n in range(1, 6):
    print(f"  y^({n}) = {render_derivative(Regime.ODE, n)}")

print()
print("== sanity: y' = y^2, y(0) = 1 has the geometric flow 1/(1-t) ==")
field = Jet([1, 2, 1], order=6)  # (1 + u)^2 around y0 = 1
flow = jet_ode_flow(field, 1, 6)
print("  flow coefficients:", [str(c) for c in flow.coeffs])
assert flow.coeffs == tuple([Fraction(1)] * 7)

print()
print("== oracle: weighted trees vs direct flow recurrence, orders 1..8 ==")
for n in range(1, 9):
    report = verify(Regime.ODE, n, trials=20, seed=7)
    print(" ", report.to_text())
    assert report.passed
