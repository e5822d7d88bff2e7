"""Direct timings of each layer's public functions, with scaling series.

These run in every traced run, untraced, on inputs drawn from the run's
seed. Times are scaled by the speed probe (probe.py). A scaling series reports its points and the slope of a least-squares
line through them on log-log axes (the fitted exponent):

- words: canonical form and cyclic_normal_form against word length
  10 -> 1000 on rand8;
- _intlinalg: the modular solve inside magnus_conjugate_test on P3 against
  its number of unknowns, degree 4 -> 8;
- nilpotent: lie_graded_dims on P4 against the number of trace monomials
  of degree <= d (from the clique polynomial), degree 4 -> 8.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import fixtures
import reference as ref
import workloads
from fixtures import random_word, rng_for
from reference import CheckFailed, inverse

COSET_TAIL_QUERIES = 20

SERIES_LENGTHS = (10, 30, 100, 300, 1000)
SOLVE_DEGREES = range(4, 9)
LIE_DEGREES = range(4, 9)
PROBLEMS = "problems"


def fit_exponent(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = statistics.fmean(lx)
    my = statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _verify(out, check, *args):
    """Run a check on an answer; a failure is kept, not raised, so the
    timings still come out."""
    try:
        check(*args)
    except CheckFailed as exc:
        out.setdefault(PROBLEMS, []).append(str(exc))


def _per_call(probe, fn, reps, inner=1):
    """Median over `reps` samples of the scaled time per call, each sample
    timing `inner` calls in a row."""
    return statistics.median(
        probe.timed(lambda: [fn() for _ in range(inner)])[0] / inner for _ in range(reps)
    )


def _words(probe, seed, out):
    from raag.words import Element

    for gname in workloads.WORD_GRAPHS:
        graph = fixtures.build_graph(gname)
        rng = rng_for(seed, "layers", gname)
        words = [random_word(rng, range(graph.n), 1000) for _ in range(5)]
        per = statistics.median(_per_call(probe, lambda w=w: Element(graph, w), 3) for w in words)
        out[f"words.canonical_ns_per_letter.{gname}"] = per / 1000 * 1e9

    graph = fixtures.build_graph("rand8")
    adj = fixtures.adjacency("rand8")
    rng = rng_for(seed, "layers", "series")
    canon, cyclic = [], []
    for length in SERIES_LENGTHS:
        words = [random_word(rng, range(8), length) for _ in range(5)]
        inner = max(1, 1000 // length)
        t = statistics.median(_per_call(probe, lambda w=w: Element(graph, w), 3, inner) for w in words)
        canon.append(t)
        out[f"words.canonical_us.L{length}"] = t * 1e6
        core = workloads.cyclically_reduced_word(rng, adj, length)
        s = random_word(rng, range(8), length // 10 + 2)
        raw = s + core + inverse(s)
        elt = Element(graph, raw)
        t = _per_call(probe, elt.cyclic_normal_form, 3, max(1, 100 // length))
        conj, red = elt.cyclic_normal_form()
        _verify(out, workloads._check_cyclic, adj, raw, length, (conj, red))
        cyclic.append(t)
        out[f"words.cyclic_normal_form_ms.L{length}"] = t * 1e3
    out["words.canonical.exponent"] = fit_exponent(SERIES_LENGTHS, canon)
    out["words.cyclic_normal_form.exponent"] = fit_exponent(SERIES_LENGTHS, cyclic)
    x = Element(graph, random_word(rng, range(8), 1000))
    y = Element(graph, random_word(rng, range(8), 1000))
    out["words.mul_us.L1000"] = _per_call(probe, lambda: x * y, 9) * 1e6


def _timed_magnus(probe, g, h, d):
    """magnus_conjugate_test with its modular solve timed apart."""
    from raag import nilpotent

    solve = nilpotent.solve_mod_prime_power
    spent = {}

    def timed(matrix, *args):
        t0 = time.perf_counter()
        try:
            return solve(matrix, *args)
        finally:
            spent["s"] = time.perf_counter() - t0
            spent["unknowns"] = matrix.shape[1]

    nilpotent.solve_mod_prime_power = timed
    try:
        probe.sample()
        t0 = time.perf_counter()
        res = nilpotent.magnus_conjugate_test(g, h, d, 2, 2)
        t1 = time.perf_counter()
        probe.sample()
    finally:
        nilpotent.solve_mod_prime_power = solve
    scale = probe.factor(t0, t1)
    return res, (t1 - t0) * scale, spent["s"] * scale, spent["unknowns"]


def _separation(probe, seed, out):
    from raag import nilpotent
    from raag.words import Element

    def commutators(gname):
        graph = fixtures.build_graph(gname)
        u, v = workloads.commutator_pair(rng_for(seed, "layers", gname), fixtures.adjacency(gname))
        return Element(graph, u), Element(graph, v)

    g, h = commutators("P3")
    times, unknowns = [], []
    for d in SOLVE_DEGREES:
        res, total, solve, n = _timed_magnus(probe, g, h, d)
        _verify(out, _expect_separated, res)
        times.append(solve)
        unknowns.append(n)
        out[f"intlinalg.solve_mod_prime_power.s.P3_d{d}"] = solve
    out["intlinalg.solve_mod_prime_power.exponent"] = fit_exponent(unknowns, times)
    out["nilpotent.matrix_build_ms.P3_d8"] = (total - solve) * 1e3
    g, h = commutators("F3")
    res, _, solve, _ = _timed_magnus(probe, g, h, 6)
    _verify(out, _expect_separated, res)
    out["intlinalg.solve_mod_prime_power.s.F3_d6"] = solve

    def lie(gname, d):
        graph = fixtures.build_graph(gname)
        elapsed, dims = probe.timed(lambda: nilpotent.lie_graded_dims(graph, d))
        _verify(out, workloads._check_lie(ref.lie_dims(fixtures.adjacency(gname), d)), dims)
        return elapsed

    out["nilpotent.lie_graded_dims_ms.C5_d7"] = lie("C5", 7) * 1e3
    growth = ref.trace_growth(fixtures.adjacency("P4"), max(LIE_DEGREES))
    times = []
    for d in LIE_DEGREES:
        t = lie("P4", d)
        times.append(t)
        out[f"nilpotent.lie_graded_dims_ms.P4_d{d}"] = t * 1e3
    out["nilpotent.lie_graded_dims.exponent"] = fit_exponent(
        [sum(growth[: d + 1]) for d in LIE_DEGREES], times
    )
    for params in workloads.PGROUP_PARAMS:
        check = workloads._check_pgroup(params)
        _verify(out, check, workloads.pgroup_query(params))
        t = _per_call(probe, lambda p=params: workloads.pgroup_query(p), 3)
        out[f"pgroup.conjugacy_class_ms.{'-'.join(map(str, params))}"] = t * 1e3


def _expect_separated(res):
    from raag.nilpotent import Separated

    if not isinstance(res, Separated):
        raise CheckFailed("commutator pair not separated at its timing point")


def _double_cosets(probe, seed, out):
    """in_double_coset on members y = a x b at L = 32 on rand8, with factors
    of L/2 letters: the long tail of the bounded coset search, which gives
    up on about one such member in ten after 3-7 s. conjugacy_mix keeps
    its factors short so that its throughput stays steady."""
    from raag import conjugacy, cosets
    from raag.words import Element

    graph = fixtures.build_graph("rand8")
    adj = fixtures.adjacency("rand8")
    n = len(adj)
    rng = rng_for(seed, "layers", "cosets")
    times, given_up = [], 0
    for _ in range(COSET_TAIL_QUERIES):
        while True:
            a_verts = frozenset(rng.sample(range(n), n // 2))
            b_verts = frozenset(rng.sample(range(n), n // 2))
            if len(a_verts | b_verts) < n:
                break
        x = workloads.cyclically_reduced_word(rng, adj, 32)
        y = random_word(rng, a_verts, 16) + x + random_word(rng, b_verts, 16)
        t, res = probe.timed(lambda: cosets.in_double_coset(Element(graph, y), Element(graph, x), a_verts, b_verts, conjugacy._tester))
        times.append(t)
        given_up += res is cosets.INCONCLUSIVE
        _verify(out, workloads._check_double_coset(adj, x, y, a_verts, b_verts, True), res)
    out["cosets.in_double_coset.p90_ms"] = statistics.quantiles(times, n=10)[8] * 1e3
    out["cosets.in_double_coset.inconclusive_ratio"] = given_up / len(times)


def _cli(probe, seed, out):
    def fresh(code):
        t, proc = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=workloads.cli_env(), cwd=fixtures.ROOT, timeout=120,
        ))
        if proc.returncode:
            raise CheckFailed(f"python -c {code!r} failed: {proc.stderr.strip()[-200:]}")
        return t, proc.stdout

    out["cli.interpreter_start_ms"] = statistics.median(fresh("pass")[0] for _ in range(3)) * 1e3
    code = "import time; t = time.perf_counter(); import raag.cli; print(time.perf_counter() - t)"
    scale = probe.factor(time.perf_counter(), time.perf_counter())
    out["cli.import_ms"] = statistics.median(float(fresh(code)[1]) for _ in range(3)) * scale * 1e3
    seen = set()
    for q in workloads.cli_oneshot(seed).round(0):
        if q.kind in seen:
            continue
        seen.add(q.kind)
        t, res = probe.timed(q.call)
        out[f"cli.command_ms.{q.kind}"] = t * 1e3
        _verify(out, q.check, res)


def measure(probe, seed):
    """Every direct per-layer timing, and the list of failed checks."""
    out = {}
    from raag.graphs import load_graph

    files = sorted(fixtures.GRAPH_FILES.glob("*.json"))
    t = _per_call(probe, lambda: [load_graph(f) for f in files], 5, 10)
    out["graphs.load_graph_ms"] = t / len(files) * 1e3
    _words(probe, seed, out)
    _separation(probe, seed, out)
    _double_cosets(probe, seed, out)
    _cli(probe, seed, out)
    problems = out.pop(PROBLEMS, [])
    return out, problems
