"""Self-test of the benchmark's checks: each must accept the library's real
answer and reject the same answer with its witness corrupted or its
verdict flipped. run.py runs this before every measurement and refuses to
measure if it fails.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys

import fixtures
import reference as ref
import workloads as wl
from reference import CheckFailed, inverse


def run():
    """The list of problems found; empty when every check behaves."""
    from raag import conjugacy, cosets, nilpotent
    from raag.words import Element

    problems = []

    def accepts(name, check, answer):
        try:
            check(answer)
        except CheckFailed as exc:
            problems.append(f"{name}: rejected the correct answer ({exc})")

    def rejects(name, check, answer):
        try:
            check(answer)
        except CheckFailed:
            return
        problems.append(f"{name}: accepted a wrong answer")

    p4 = fixtures.build_graph("P4")
    adj = fixtures.adjacency("P4")

    g = (1, 3, -2, 4, 3)
    s = (3, 1, 3)
    h = s + g + inverse(s)
    res = conjugacy.conjugate(Element(p4, g), Element(p4, h))
    accepts("conjugate", wl._check_conjugate(adj, g, h, True), res)
    rejects("conjugate, corrupted witness", wl._check_conjugate(adj, g, h, True),
            conjugacy.Conjugate(Element(p4, res.conjugator.letters + (1,))))
    rejects("conjugate, flipped verdict", wl._check_conjugate(adj, g, h, False), res)
    rejects("conjugate_under, witness outside the subgroup",
            lambda sigma: ref.check_conjugator(adj, sigma, (1,), (1,), frozenset({0})), (2,))

    x = (1, 3, 4, -2, 3)
    a_verts, b_verts = frozenset({0, 1}), frozenset({1, 2})
    y = (2, 1) + x + (3,)
    res = cosets.in_double_coset(Element(p4, y), Element(p4, x), a_verts, b_verts, conjugacy._tester)
    accepts("in_double_coset", wl._check_double_coset(adj, x, y, a_verts, b_verts, True), res)
    rejects("in_double_coset, corrupted witness",
            wl._check_double_coset(adj, x, y, a_verts, b_verts, True),
            cosets.CosetFactors(Element(p4, res.left.letters + (1,)), res.right))
    rejects("in_double_coset, flipped verdict",
            wl._check_double_coset(adj, x, y, a_verts, b_verts, False), res)

    gens = conjugacy.centralizer(Element(p4, g))
    accepts("centralizer", wl._check_centralizer(adj, g), gens)
    rejects("centralizer, corrupted generator", wl._check_centralizer(adj, g),
            cosets.make_gens(list(gens) + [Element(p4, (1,))]))

    raw = (2, 4) + (1, 3, -4, 2) + (-4, -2)
    conj, core = Element(p4, raw).cyclic_normal_form()
    accepts("cyclic_normal_form", lambda r: wl._check_cyclic(adj, raw, 4, r), (conj, core))
    rejects("cyclic_normal_form, corrupted core", lambda r: wl._check_cyclic(adj, raw, 4, r),
            (conj, Element(p4, core.letters + (1,))))

    p3 = fixtures.build_graph("P3")
    adj3 = fixtures.adjacency("P3")
    g3, s3 = (1, 3, -2), (3, 1)
    h3 = s3 + g3 + inverse(s3)
    checker = ref.UnitChecker(adj3, 4, 4, fixtures.rng_for(0, "selftest"))
    res = nilpotent.magnus_conjugate_test(Element(p3, g3), Element(p3, h3), 4, 2, 2)
    accepts("magnus unit", wl._check_magnus(checker, g3, h3, True), res)
    coeffs = dict(res.unit.coeffs)
    mono = next(m for m in coeffs if len(m) == 2)
    coeffs[mono] = (coeffs[mono] + 1) % 4
    bad = nilpotent.NotSeparatedAtThisLevel(nilpotent.TruncatedAlgebraElement(p3, 4, 4, coeffs))
    rejects("magnus unit, corrupted witness", wl._check_magnus(checker, g3, h3, True), bad)
    rejects("magnus, flipped verdict", wl._check_magnus(checker, g3, h3, True), nilpotent.Separated(4, 2, 2))

    want = ref.lie_dims(fixtures.adjacency("C5"), 4)
    accepts("lie_graded_dims", wl._check_lie(want), nilpotent.lie_graded_dims(fixtures.build_graph("C5"), 4))
    rejects("lie_graded_dims, corrupted", wl._check_lie(want), want[:-1] + (want[-1] + 1,))

    params = (2, 2, 1, 1)
    relations, cls, h_in = wl.pgroup_query(params)
    check = wl._check_pgroup(params)
    accepts("pgroup", check, (relations, cls, h_in))
    rejects("pgroup, flipped verdict", check, (relations, cls, True))
    rejects("pgroup, corrupted class", check, (relations, set(list(cls)[1:]), h_in))

    rejects("equal, flipped verdict", wl._expect(True), False)
    rejects("cli, output the README does not document", wl._cli_exact("EQUAL"), (0, "NOT EQUAL\n", ""))
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(fixtures.SRC))
    found = run()
    for p in found:
        print(f"FAIL {p}")
    print("self-test: " + ("failed" if found else "every check accepts real answers and rejects corrupted ones"))
    sys.exit(1 if found else 0)
