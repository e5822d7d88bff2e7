"""End-to-end checks of the package's headline guarantees.

One test per guarantee. Each prints a single summary line with the counts
it verified, so `pytest -v` reads as a checklist. All sampling is seeded;
reruns perform the identical computation.
"""

import itertools
import random
import time

import pytest

from oracles import (
    NotInBall,
    all_words,
    ball_oracle_conjugate,
    canonical_double_coset_data,
    cayley_ball,
    grid_separating_level,
    poincare_series_product,
    reference_normal_form,
    subgroup_ball,
    trace_monoid_growth,
    witt_free_lie_dims,
)
from raag.conjugacy import (
    Conjugate,
    NotConjugate,
    centralizer,
    conjugate,
)
from raag.cosets import (
    CosetFactors,
    NotMember,
    in_double_coset,
    intersect_conjugated,
)
from raag.graphs import Graph
from raag.nilpotent import (
    NOT_FOUND,
    TruncatedAlgebraElement,
    find_separating_level,
    lie_graded_dims,
    magnus_image,
)
from raag.pgroup import WitnessGroup, WitnessParams
from raag.words import Element

K1 = Graph(["a"], [])
F2 = Graph(["a", "b"], [])
K2 = Graph(["a", "b"], [("a", "b")])
F3 = Graph(["a", "b", "c"], [])
EDGE_ISO = Graph(["a", "b", "c"], [("a", "b")])
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

# every isomorphism type on at most three vertices
ALL_SMALL = [K1, F2, K2, F3, EDGE_ISO, P3, K3]
RANK3 = [F3, EDGE_ISO, P3, K3]


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def rand_element(rng, graph, max_len):
    length = rng.randrange(max_len + 1)
    letters = tuple(
        rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(length)
    )
    return Element(graph, letters)


# ---------------------------------------------------------------------------
# guarantee 1: the word problem against an independent rewriting closure


def test_criterion_1_word_problem_oracle():
    t0 = time.monotonic()
    checked = 0
    bad = []
    for graph in ALL_SMALL:
        memo = {}
        for length in range(7):
            for w in all_words(graph.n, length):
                want = reference_normal_form(graph.adj, w, memo)
                got = Element(graph, w).letters
                if got != want:
                    bad.append((graph.vertices, w, got, want))
                checked += 1
    elapsed = time.monotonic() - t0
    report(
        "words length <= 6 on all graphs with <= 3 vertices",
        not bad and elapsed <= 120.0,
        f"{checked} words, {len(bad)} disagreements, {elapsed:.1f}s (limit 120s)",
    )


# ---------------------------------------------------------------------------
# guarantees 2, 3, 8 share one seeded corpus of conjugacy decisions

CORPUS_GRAPHS = (("discrete", F3), ("edge+isolated", EDGE_ISO), ("path", P3), ("triangle", K3))


@pytest.fixture(scope="module")
def conjugacy_corpus():
    rng = random.Random(411019)
    records = []
    t0 = time.monotonic()
    for key, graph in CORPUS_GRAPHS:
        for _ in range(520):
            g = rand_element(rng, graph, 6)
            h = rand_element(rng, graph, 6)
            if rng.random() < 0.4:
                # steer a share of the corpus toward genuine conjugate pairs
                sigma = rand_element(rng, graph, 3)
                cand = sigma * g * sigma.inverse()
                if len(cand) <= 6:
                    h = cand
            eng = conjugate(g, h)
            orc = ball_oracle_conjugate(g, h, 6)
            records.append((key, g, h, eng, orc))
    return {"records": records, "elapsed": time.monotonic() - t0}


def test_criterion_2_conjugacy_vs_ball_oracle(conjugacy_corpus):
    records = conjugacy_corpus["records"]
    contradictions = 0
    inconclusive = 0
    for _, g, h, eng, orc in records:
        if not isinstance(eng, (Conjugate, NotConjugate)):
            inconclusive += 1
        if isinstance(orc, Conjugate) and isinstance(eng, NotConjugate):
            contradictions += 1
        if (
            isinstance(eng, Conjugate)
            and isinstance(orc, NotInBall)
            and len(eng.conjugator) <= 6
        ):
            contradictions += 1
    elapsed = conjugacy_corpus["elapsed"]
    report(
        "conjugacy decisions vs radius-6 ball oracle",
        len(records) >= 2000
        and contradictions == 0
        and inconclusive == 0
        and elapsed <= 600.0,
        f"{len(records)} pairs, {contradictions} contradictions, "
        f"{inconclusive} undecided, {elapsed:.1f}s (limit 600s)",
    )


def test_criterion_3_witness_soundness(conjugacy_corpus):
    total = 0
    bad = 0
    for _, g, h, eng, _ in conjugacy_corpus["records"]:
        if isinstance(eng, Conjugate):
            total += 1
            s = eng.conjugator
            if s * g * s.inverse() != h:
                bad += 1
    report(
        "conjugator witnesses re-verified by multiplication",
        total > 0 and bad == 0,
        f"{total} witnesses, {bad} failures",
    )


# ---------------------------------------------------------------------------
# guarantee 4: centralizer generators, compared on a radius-5 ball


def test_criterion_4_centralizer_ball_equality():
    rng = random.Random(77003)
    checked = 0
    bad = []
    for graph in RANK3:
        ball5 = cayley_ball(graph, 5)
        done = 0
        while done < 50:
            g = rand_element(rng, graph, 5)
            if g.is_identity():
                continue
            done += 1
            gens = centralizer(g)
            assert gens.complete
            via_gens = subgroup_ball(graph, list(gens), 5, slack=6)
            direct = {s for s in ball5 if s * g == g * s}
            if via_gens != direct:
                bad.append((graph.vertices, g))
            checked += 1
    report(
        "centralizer subgroup vs commuting set on ball(5)",
        checked == 200 and not bad,
        f"{checked} elements, {len(bad)} set mismatches",
    )


# ---------------------------------------------------------------------------
# guarantee 5: the explicit finite p-group witness


def test_criterion_5_pgroup_witness():
    t0 = time.monotonic()
    failures = []
    for p, n, r, s in ((2, 2, 1, 1), (3, 2, 1, 1), (2, 3, 1, 2), (2, 3, 2, 1)):
        grp = WitnessGroup(WitnessParams(p, n, r, s))
        tag = f"p={p} n={n} r={r} s={s}"
        if not grp.verify_relations():
            failures.append(tag + " relations")
        if grp.alpha_order() != p**r:
            failures.append(tag + " alpha order")
        g_img = grp.phi("g")
        expected = {
            grp.element(grp.alpha_apply(g_img.vector, k)) for k in range(p**r)
        }
        cls = grp.conjugacy_class(g_img)
        if cls != expected or len(cls) != p**r:
            failures.append(tag + " class shape")
        if grp.phi("h") in cls:
            failures.append(tag + " h not separated")
    elapsed = time.monotonic() - t0
    report(
        "finite p-group witness on all four parameter sets",
        not failures and elapsed <= 60.0,
        f"4 parameter sets, failures: {failures or 'none'}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# guarantee 6: graded Lie dimensions


def test_criterion_6_lie_graded_dims():
    problems = []
    free2 = tuple(lie_graded_dims(F2, 5))
    if free2 != (2, 1, 2, 3, 6) or list(free2) != witt_free_lie_dims(2, 5):
        problems.append(f"free rank 2 gave {free2}")
    names = ["a", "b", "c", "d"]
    for r in range(1, 5):
        kr = Graph(names[:r], list(itertools.combinations(names[:r], 2)))
        dims = tuple(lie_graded_dims(kr, 5))
        if dims != (r, 0, 0, 0, 0):
            problems.append(f"complete rank {r} gave {dims}")
    rng = random.Random(90125)
    for _ in range(10):
        nv = rng.randrange(1, 5)
        edges = [e for e in itertools.combinations(names[:nv], 2) if rng.random() < 0.5]
        graph = Graph(names[:nv], edges)
        dims = tuple(lie_graded_dims(graph, 5))
        if poincare_series_product(dims, 5) != trace_monoid_growth(graph.adj, 5):
            problems.append(f"growth identity failed on {nv} vertices, edges {edges}")
    report(
        "graded Lie dimensions vs Witt and growth-series oracles",
        not problems,
        f"free + 4 complete + 10 random graphs, problems: {problems or 'none'}",
    )


# ---------------------------------------------------------------------------
# guarantee 7: short elements survive into the mod-2 unit quotients


def test_criterion_7_nontrivial_magnus_images():
    total = 0
    trivial = []
    for graph in ALL_SMALL:
        one = TruncatedAlgebraElement(graph, 6, 2, {(): 1})
        for x in cayley_ball(graph, 5):
            if x.is_identity():
                continue
            total += 1
            if magnus_image(x, 6, 2, 1) == one:
                trivial.append((graph.vertices, x))
    report(
        "non-identity elements of length <= 5 seen mod 2 by degree <= 6",
        not trivial,
        f"{total} elements, {len(trivial)} with trivial image",
    )


# ---------------------------------------------------------------------------
# guarantee 8: separating levels for certified non-conjugate pairs


def test_criterion_8_separating_levels(conjugacy_corpus):
    records = conjugacy_corpus["records"]
    nonconj = [
        (g, h)
        for _, g, h, eng, orc in records
        if isinstance(eng, NotConjugate) and isinstance(orc, NotInBall)
    ]
    conj_pairs = [(g, h) for _, g, h, eng, _ in records if isinstance(eng, Conjugate)]
    rng = random.Random(181181)
    hits = 0
    for g, h in rng.sample(nonconj, 100):
        level = find_separating_level(g, h, 2)
        if level is NOT_FOUND:
            level = find_separating_level(g, h, 3)
        if level is not NOT_FOUND:
            d, m = level
            assert d <= 6 and m <= 2
            hits += 1
    false_separations = 0
    for g, h in rng.sample(conj_pairs, min(24, len(conj_pairs))):
        for p in (2, 3):
            # the grid is scanned in full: find_separating_level alone
            # would decide these pairs conjugate before any Magnus test
            if grid_separating_level(g, h, p) is not NOT_FOUND:
                false_separations += 1
            if find_separating_level(g, h, p) is not NOT_FOUND:
                false_separations += 1
    report(
        "separating levels d <= 6, m <= 2 for p in {2, 3}",
        hits >= 95 and false_separations == 0,
        f"{hits}/100 non-conjugate pairs separated, "
        f"{false_separations} false separations on {min(24, len(conj_pairs))} conjugate pairs",
    )


# ---------------------------------------------------------------------------
# guarantee 9: double cosets and conjugated-subgroup intersections

COSET_CONFIGS = (
    (F2, ((frozenset({0}), frozenset({0})), (frozenset({0}), frozenset({1})))),
    (K2, ((frozenset({0}), frozenset({1})), (frozenset({0, 1}), frozenset({0})))),
    (F3, ((frozenset({0}), frozenset({1})),)),
    (EDGE_ISO, ((frozenset({0, 1}), frozenset({2})),)),
    (P3, ((frozenset({0, 1}), frozenset({1, 2})),)),
    (K3, ((frozenset({0, 1}), frozenset({1, 2})),)),
)


def test_criterion_9_double_coset_equivalence():
    checked = 0
    inconclusive = 0
    mismatches = []
    for graph, subset_pairs in COSET_CONFIGS:
        ball4 = sorted(cayley_ball(graph, 4), key=lambda w: (len(w), w.letters))
        ball6 = cayley_ball(graph, 6)
        for a_set, b_set in subset_pairs:
            a_ball = [w for w in ball6 if w.support() <= a_set]
            b_ball = [w for w in ball6 if w.support() <= b_set]
            # a·x·b = y exactly when a·x = y·b⁻¹: index each y of the ball
            # once under every y·b⁻¹, then the members of A·x·B in the ball
            # are the union over a of the ys indexed under a·x
            reach = {}
            for y in ball4:
                for b in b_ball:
                    reach.setdefault(y * b.inverse(), set()).add(y)
            for x in ball4:
                members = set()
                for a in a_ball:
                    members |= reach.get(a * x, set())
                for y in ball4:
                    res = in_double_coset(y, x, a_set, b_set)
                    checked += 1
                    if not isinstance(res, (CosetFactors, NotMember)):
                        inconclusive += 1
                    elif isinstance(res, NotMember):
                        if y in members:
                            mismatches.append((graph.vertices, a_set, b_set, x, y))
                    else:
                        assert isinstance(res, CosetFactors)
                        good = (
                            res.left.support() <= a_set
                            and res.right.support() <= b_set
                            and res.left * x * res.right == y
                        )
                        if not good:
                            mismatches.append((graph.vertices, a_set, b_set, x, y))

    # conjugated-subgroup intersections, membership checked two exact ways
    rng = random.Random(560057)
    eq_checked = 0
    eq_bad = []
    for graph, subset_pairs in COSET_CONFIGS:
        ball4 = sorted(cayley_ball(graph, 4), key=lambda w: (len(w), w.letters))
        for a_set, b_set in subset_pairs:
            for x in rng.sample(ball4, 10):
                gamma, gens = intersect_conjugated(a_set, x, b_set)
                assert gens.complete
                alpha, core_gamma = canonical_double_coset_data(x, a_set, b_set)
                meet = a_set & b_set
                xi = x.inverse()
                gi = gamma.inverse()
                direct = {
                    w
                    for w in ball4
                    if w.support() <= a_set and (xi * w * x).support() <= b_set
                }
                via_core = set()
                core_gi = core_gamma.inverse()
                for w in ball4:
                    c = core_gamma * w * core_gi
                    if c.support() <= meet and c * alpha == alpha * c:
                        via_core.add(w)
                transported = [gi * c * gamma for c in gens]
                generated = subgroup_ball(graph, transported, 4, slack=6)
                eq_checked += 1
                if not (direct == via_core == generated):
                    eq_bad.append((graph.vertices, a_set, b_set, x))
    report(
        "double cosets exhaustively vs product enumeration, |x|,|y| <= 4",
        not mismatches and inconclusive == 0 and not eq_bad,
        f"{checked} membership pairs, {len(mismatches)} mismatches, "
        f"{inconclusive} undecided; {eq_checked} intersection instances, "
        f"{len(eq_bad)} unequal on ball(4)",
    )
