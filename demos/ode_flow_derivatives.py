"""Derivatives of the flow of y' = f(y), term by term.

Each derivative y^(n) is a sum over rooted trees with n vertices: a vertex
of degree k stands for the k-th derivative of the field.  The weight of a
tree is (n-1)! divided by its symmetry number S and complexity number tau,
and it counts the increasing labellings of the tree.
"""

from fractions import Fraction

from derivgraph import Regime, enumerate_ode, render_derivative, verify, weigh

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
# The Taylor coefficients of y' = y^2: (k + 1) y_{k+1} = sum_i y_i y_{k-i}.
flow = [Fraction(1)]
for k in range(6):
    flow.append(sum(flow[i] * flow[k - i] for i in range(k + 1)) / (k + 1))
print("  flow coefficients:", [str(c) for c in flow])
assert flow == [1] * 7

print()
print("== oracle: weighted trees vs direct flow recurrence, orders 1..8 ==")
for n in range(1, 9):
    report = verify(Regime.ODE, n, trials=20, seed=7)
    print(" ", report.to_text())
    assert report.passed
