"""The natural order on trees and the structure numbers behind the weights.

Trees compare lexicographically: colour rank first, then degree (a bare
entrance sorts before anything differentiated), then children left to
right, smallest first.  Symmetry numbers are automorphism-group orders and
reduce to products of degree factorials when all siblings coincide.
"""

from derivgraph import (
    Tree,
    canonicalize,
    enumerate_ode,
    format_tree,
    make_palette,
    parse_tree,
    weigh,
)

print("== natural order of the 9 rooted trees on 5 vertices ==")
for graph in enumerate_ode(5):
    t = graph.tree
    print(
        f"  {format_tree(t):<20} S={t.symmetry:<3} "
        f"tau={t.complexity:<3} weight={weigh(graph).weight}"
    )

print()
print("== canonical form ignores how children were written ==")
a = parse_tree("*{*{},*{*{}}}")
b = parse_tree("*{*{*{}},*{}}")
print(f"  {format_tree(a)} and {format_tree(b)} canonicalize to "
      f"{format_tree(canonicalize(b))}")
assert canonicalize(a) == canonicalize(b)

print()
print("== coloured entrances: 2 black and 3 white under one root ==")
pal = make_palette("b", "w", "F")
binomial = canonicalize(
    Tree(pal["F"], (Tree(pal["b"]),) * 2 + (Tree(pal["w"]),) * 3)
)
print(f"  {format_tree(binomial)}: S = {binomial.symmetry} = 2! * 3!")
