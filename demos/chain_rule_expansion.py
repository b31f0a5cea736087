"""Higher chain rule for composed mappings, driven by a declared skeleton.

Graphs of a composite derivative are grown vertex by vertex: each
differentiation step raises one vertex's order and sends a fresh
first-derivative chain down to a base variable.  For f(g(x)) the order-n
graphs are in bijection with the integer partitions of n; for a two-argument
outer function the entrance colours split and weights become binomial.
The oracle checks outer functions of any arity, repeated arguments included.
"""

from math import comb

from derivgraph import (
    Regime,
    enumerate_composite,
    parse_skeleton,
    render_derivative,
    verify,
    weigh,
)

chain = parse_skeleton("f(g(x))")

print("== f(g(x)): graphs and weights up to order 4 ==")
for n in range(1, 5):
    print(f"  order {n}:")
    for graph in enumerate_composite(chain, n):
        wg = weigh(graph)
        print(f"    weight {str(wg.weight):<3} {str(graph.tree)}")
    print(f"    D^{n} = {render_derivative(Regime.COMPOSITE, n, skeleton=chain)}")

print()
print("== F(f(x),g(x)): entrance colours and binomial weights ==")
two_colour = parse_skeleton("F(f(x),g(x))")
n = 5
for graph in enumerate_composite(two_colour, n):
    # pick the graphs where F carries the full fifth derivative
    if graph.tree.degree == n:
        k = sum(1 for c in graph.tree.children if c.colour.name == "f")
        wg = weigh(graph)
        print(f"  k={k}: weight {wg.weight} = C({n},{k}) = {comb(n, k)}")
        assert wg.weight == comb(n, k)

print()
print("== oracle: graphs vs jet composition ==")
# F(x,x) feeds one variable to both slots: a vertex sums its derivative
# over every way its children can fill the slots.  F(x,y,z) has three.
for skeleton, top in [
    (chain, 8),
    (two_colour, 6),
    (parse_skeleton("F(x,x)"), 6),
    (parse_skeleton("F(x,y,z)"), 5),
]:
    for n in range(1, top + 1):
        report = verify(Regime.COMPOSITE, n, trials=20, seed=7, skeleton=skeleton)
        print(f"  {skeleton}: {report.to_text()}")
        assert report.passed
