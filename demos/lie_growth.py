"""Graded Lie data and the growth identity.

The graded Lie ring attached to a graph group interpolates between the
free Lie algebra (no edges) and an abelian one (complete graph). Its
graded dimensions d_n tie the commutation graph to the growth of the
associated monomial algebra through

    prod_n (1 - t^n)^(-d_n)  ==  1 / sum_j c_j (-t)^j,

with c_j the number of j-cliques. This script prints both sides for a
few graphs and locates the graphs whose Lie ring has central elements.

Run as: python3 demos/lie_growth.py
"""

import itertools

from raag.graphs import Graph
from raag.nilpotent import lie_center_trivial, lie_graded_dims

GRAPHS = [
    ("free, 2 generators", Graph(["a", "b"], [])),
    ("free, 3 generators", Graph(["a", "b", "c"], [])),
    ("path a-b-c", Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])),
    ("triangle", Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])),
    ("square", Graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )),
]


def clique_counts(graph):
    out = []
    for size in range(graph.n + 1):
        count = 0
        for combo in itertools.combinations(range(graph.n), size):
            if all(w in graph.adj[v] for v, w in itertools.combinations(combo, 2)):
                count += 1
        out.append(count)
    return out


def growth_from_dims(dims, upto):
    series = [1] + [0] * upto
    for n, d in enumerate(dims, start=1):
        for _ in range(d):
            nxt = series[:]
            for k in range(n, upto + 1):
                nxt[k] = series[k] + nxt[k - n]
            series = nxt
    return series


def main():
    print(f"{'graph':<22} {'d_1..d_5':<18} growth to degree 5   cliques")
    for label, graph in GRAPHS:
        dims = tuple(lie_graded_dims(graph, 5))
        growth = growth_from_dims(dims, 5)
        print(f"{label:<22} {str(dims):<18} {str(growth):<20} {clique_counts(graph)}")
    print()

    print("Centers (a vertex adjacent to all others makes the center grow):")
    for label, graph in GRAPHS:
        central = [graph.vertices[v] for v in graph.center_vertices()]
        trivial = lie_center_trivial(graph)
        print(f"  {label:<22} central vertices: {central or '-'};"
              f" Lie center trivial in every degree: {trivial}")


if __name__ == "__main__":
    main()
