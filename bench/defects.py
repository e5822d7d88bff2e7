"""Known wrong answers of the library, probed apart from the timed workloads.

    python3 bench/defects.py

Every query in a timed workload must be answered correctly, or every run
of that workload would fail its checks; so a query the library is known
to answer wrongly lives here instead, where it stays visible. Each probe
is a conjugate pair, so its correct answer is NOT_FOUND (no separating
level exists). The seed library reports a separation at p = 100003: its
modular solver works in int64, which overflows once q^2 > 2^63 (q = p^m).

Prints one line per probe, then one JSON object with attempted, failed and
error_ratio. Exits 0 when the probes ran, whatever they found.
"""

from __future__ import annotations

import json
import sys

import fixtures
from fixtures import rng_for
from workloads import conjugate_pair

PRIME = 100003
MAX_DEGREE = 3


def probes(seed=0):
    """(graph name, g, h) conjugate pairs: the README's pair, then seeded ones."""
    out = [("F2", (1, 2), (2, 1))]
    rng = rng_for(seed, "defects")
    for gname in ("F2", "P3"):
        for _ in range(3):
            out.append((gname, *conjugate_pair(rng, fixtures.adjacency(gname), 3, 2)))
    return out


def main():
    sys.path.insert(0, str(fixtures.SRC))
    from raag.nilpotent import NOT_FOUND, find_separating_level
    from raag.words import Element

    failed = 0
    cases = probes()
    for gname, g, h in cases:
        graph = fixtures.build_graph(gname)
        res = find_separating_level(Element(graph, g), Element(graph, h), PRIME, max_d=MAX_DEGREE)
        wrong = res is not NOT_FOUND
        failed += wrong
        print(f"{'WRONG' if wrong else 'ok   '} find_separating_level on {gname}, {g} ~ {h}, "
              f"p={PRIME}: expected NOT_FOUND, got {res}")
    print(json.dumps({"attempted": len(cases), "failed": failed, "error_ratio": failed / len(cases)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
