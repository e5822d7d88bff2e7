"""Fixed graphs and seeded random words shared by every workload.

Graphs are plain (names, edges) data here; the library's Graph objects are
built from them during set-up. F2, P3 and C5 are read from graphs/NAME.json,
the files the `raag` CLI is given in cli_oneshot. Words are tuples of signed ints, vertex i
appearing as +-(i+1), the same letter encoding the library uses.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GRAPH_FILES = BENCH_DIR / "graphs"


def _path(names):
    return list(zip(names, names[1:]))


def _from_file(name):
    with open(GRAPH_FILES / f"{name}.json") as fh:
        data = json.load(fh)
    return data["vertices"], [tuple(e) for e in data["edges"]]


def _random_graph(n, seed):
    """G(n, 1/2) from a fixed seed, so the graph is the same on every run."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return names, edges


# name -> (vertex names, edges); the order of names fixes letter order
GRAPHS = {
    "F2": _from_file("F2"),
    "F3": (["a", "b", "c"], []),
    "P3": _from_file("P3"),
    "P4": (["a", "b", "c", "d"], _path(["a", "b", "c", "d"])),
    "C5": _from_file("C5"),
    "rand8": _random_graph(8, "rand8"),
    "rand32": _random_graph(32, "rand32"),
}


def adjacency(name):
    """Neighbour sets by vertex index, computed from the edge list alone."""
    names, edges = GRAPHS[name]
    index = {v: i for i, v in enumerate(names)}
    adj = [set() for _ in names]
    for u, v in edges:
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return [frozenset(s) for s in adj]


def graph_file(name):
    """Path of a graph's JSON file, relative to the repository root."""
    return str((GRAPH_FILES / f"{name}.json").relative_to(ROOT))


def build_graph(name):
    from raag.graphs import Graph

    names, edges = GRAPHS[name]
    return Graph(names, edges)


def rng_for(seed, *tags):
    """An independent stream per (seed, tags); string seeds hash stably."""
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def random_word(rng, verts, length):
    """Raw word of `length` letters over the vertex indices `verts`."""
    letters = [s * (v + 1) for v in verts for s in (1, -1)]
    return tuple(rng.choices(letters, k=length))
