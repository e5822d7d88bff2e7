"""Finite simplicial graphs with a fixed vertex order.

Vertices are named by nonempty strings without whitespace or '^', which
split the tokens of a word (see words.parse), and other than "1", the word
for the identity. The order in which they are listed is significant: it
fixes the letter order used for canonical words, pivot choices, and every
other tie-break in the package. All computational code refers to a vertex
by its index in that order; names only matter at the parsing and printing
boundary.
"""

import json
from functools import cached_property

from ._checks import vertex_set

__all__ = ["Graph", "load_graph"]


class Graph:
    """A finite simplicial graph.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> g.adjacent(0, 1), g.adjacent(0, 2)
    (True, False)
    >>> sorted(g.link(1))
    [0, 2]
    """

    def __init__(self, vertices, edges=()):
        self.vertices = list(vertices)
        for name in self.vertices:
            if not isinstance(name, str) or name.split() != [name] or "^" in name:
                raise ValueError("vertex names must be nonempty strings without whitespace or '^'")
            if name == "1":
                raise ValueError("vertex name '1' is the identity word")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex name")
        self.n = len(self.vertices)
        self.index = {name: i for i, name in enumerate(self.vertices)}
        adj = [set() for _ in self.vertices]
        for e in edges:
            # a two-letter string or a two-key dict unpacks too; neither is a pair
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = e
            try:
                known = u in self.index and v in self.index
            except TypeError:  # an unhashable endpoint names no vertex
                known = False
            if not known:
                raise ValueError(f"edge {list(e)!r} uses an unknown vertex")
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            adj[self.index[u]].add(self.index[v])
            adj[self.index[v]].add(self.index[u])
        self.adj = [frozenset(s) for s in adj]

    @cached_property
    def dependents(self):
        """Per vertex, the vertices it does not commute with (the
        non-neighbours). Built on first use: it is quadratic in the vertex
        count, and the Lie dimensions of a large sparse graph never need it."""
        return [
            tuple(j for j in range(self.n) if j != i and j not in self.adj[i])
            for i in range(self.n)
        ]

    @cached_property
    def letter_links(self):
        """Per vertex v, the triple (near, lower, cost) that words._canonical
        reads when it inserts a letter of v: the signed letters of v's
        neighbours, those of its neighbours before v, and what piling the
        letter would cost, 2 * (non-neighbours + 1) deque steps."""
        return [
            (
                frozenset(s * (j + 1) for j in self.adj[i] for s in (1, -1)),
                frozenset(s * (j + 1) for j in self.adj[i] if j < i for s in (1, -1)),
                2 * (self.n - len(self.adj[i])),
            )
            for i in range(self.n)
        ]

    @cached_property
    def adj_masks(self):
        """Per vertex, its neighbours as a bitmask, bit j for vertex j: the
        vertices whose letters a letter of it commutes with, read by the
        heap scans in module words."""
        return [sum(1 << j for j in s) for s in self.adj]

    def adjacent(self, i, j):
        return j in self.adj[i]

    def link(self, i):
        return self.adj[i]

    def edges(self):
        return [
            (self.vertices[i], self.vertices[j])
            for i in range(self.n)
            for j in sorted(self.adj[i])
            if i < j
        ]

    def center_vertices(self):
        """Indices of vertices adjacent to every other vertex."""
        return [i for i in range(self.n) if len(self.adj[i]) == self.n - 1]

    def full_subgraph(self, keep):
        """Induced subgraph on the vertex indices `keep`, order inherited.
        Raises ValueError if `keep` holds a non-vertex index."""
        keep = sorted(vertex_set(self, keep))
        names = [self.vertices[i] for i in keep]
        edges = [
            (self.vertices[i], self.vertices[j])
            for i in keep
            for j in keep
            if i < j and j in self.adj[i]
        ]
        return Graph(names, edges)

    def to_dict(self):
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("graph description must be a JSON object")
        unknown = set(data) - {"vertices", "edges"}
        if unknown:
            raise ValueError(f"unknown keys in graph description: {sorted(unknown)}")
        if "vertices" not in data or not isinstance(data["vertices"], list):
            raise ValueError('graph description needs a "vertices" list')
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise ValueError('"edges" must be a list of pairs')
        return cls(data["vertices"], edges)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((tuple(self.vertices), tuple(self.adj)))

    def __repr__(self):
        return f"Graph({self.vertices!r}, {self.edges()!r})"


def load_graph(path):
    """Read a graph from a JSON file of the form
    {"vertices": ["a", "b"], "edges": [["a", "b"]]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})")
    return Graph.from_dict(data)
