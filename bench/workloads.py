"""The four workloads: seeded queries, each with its expected verdict.

A workload is a sequence of rounds; a round holds one query of every kind
and size the workload mixes, in a fixed order, so every run measures the
same mix whatever its seed. Round i's inputs are drawn from the seed and i
alone: no two rounds of a run repeat, and a round built twice (the traced
pass reruns the untraced rounds) runs the same inputs on fresh objects.
Expected verdicts are fixed here, by construction or by a certificate from
reference.py; a query whose verdict no certificate establishes is skipped
and counted, never guessed.

Each query's `call` runs exactly one public-API call (or one `raag`
process) on inputs built here. Its `check` runs afterwards, outside the
timed region: it returns True for a decided answer and False for an
undecided one (Inconclusive, INCONCLUSIVE, complete=False, a pair left
unseparated), and raises CheckFailed for a wrong answer or a witness that
fails reference.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import fixtures
import reference as ref
from fixtures import random_word, rng_for
from reference import CheckFailed, inverse


@dataclass
class Query:
    kind: str
    stratum: str
    verdict: bool | None  # True: the right answer is yes; False: no; None: neither
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    """What set-up builds: the fixed parts (graphs, stored tables, the
    checker's data) live in `make_round`'s closure; `make_round(i)` draws
    round i and returns its queries and how many it skipped."""

    name: str
    make_round: Callable[[int], tuple]
    subprocess: bool = False
    warmup: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)  # round index -> queries skipped

    def round(self, i):
        queries, skipped = self.make_round(i)
        self.skipped[i] = skipped
        return queries


def _expect(want):
    def check(got):
        if got != want:
            raise CheckFailed(f"answered {got!r}, expected {want!r}")
        return True

    return check


# ---------------------------------------------------------------------------
# words_long: the word problem, products, lookups and cyclic reduction

WORD_GRAPHS = ("F3", "P4", "C5", "rand8", "rand32")
WORD_LENGTHS = (10, 30, 100, 300, 1000)
CYCLIC_LENGTHS = (10, 30, 100, 300)
WORD_TABLE = 8  # stored elements per graph and length; round i looks up entry i mod 8


def scramble(rng, adj, word):
    """An equal raw word: commuting swaps, then inserted x x^-1 pairs."""
    w = list(word)
    for _ in range(len(w)):
        i = rng.randrange(len(w) - 1)
        a, b = abs(w[i]) - 1, abs(w[i + 1]) - 1
        if a != b and b in adj[a]:
            w[i], w[i + 1] = w[i + 1], w[i]
    for _ in range(len(w) // 10 + 1):
        x = rng.choice((1, -1)) * rng.randrange(1, len(adj) + 1)
        i = rng.randrange(len(w) + 1)
        w[i:i] = [x, -x]
    return tuple(w)


def break_word(rng, adj, word):
    """A different element: swap one adjacent pair of distinct, non-adjacent
    vertices. u a b v == u b a v would need a and b to commute."""
    spots = [
        i
        for i in range(len(word) - 1)
        if abs(word[i]) != abs(word[i + 1]) and abs(word[i + 1]) - 1 not in adj[abs(word[i]) - 1]
    ]
    i = rng.choice(spots)
    return word[:i] + (word[i + 1], word[i]) + word[i + 2:]


def reduced_word(rng, adj, length, verts=None):
    """A random reduced word of exactly `length` letters over `verts`
    (default: all vertices)."""
    letters = [x for v in (range(len(adj)) if verts is None else verts) for x in (v + 1, -v - 1)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if not ref.cancels(adj, w, x):
            w.append(x)
    return tuple(w)


def cyclically_reduced_word(rng, adj, length):
    """A random reduced word of exactly `length` letters that is
    cyclically reduced, by the reference criterion."""
    while True:
        w = reduced_word(rng, adj, length)
        if ref.is_cyclically_reduced(adj, w):
            return w


def _unequal_pair(rng, adj, length):
    while True:
        left = random_word(rng, range(len(adj)), length)
        right = scramble(rng, adj, left)
        if _breakable(adj, right):
            return left, break_word(rng, adj, right)


def words_long(seed):
    from raag.words import Element

    strata = []
    for gname in WORD_GRAPHS:
        graph = fixtures.build_graph(gname)
        adj = fixtures.adjacency(gname)
        for length in WORD_LENGTHS:
            rng = rng_for(seed, "words", gname, length)
            entries = []
            while len(entries) < WORD_TABLE:
                w = random_word(rng, range(len(adj)), length)
                if not _equals_any(adj, w, entries):
                    entries.append(w)
            table = {Element(graph, w): i for i, w in enumerate(entries)}
            strata.append((gname, graph, adj, length, entries, table))

    def make_round(i):
        rnd, skipped = [], 0
        r = i % WORD_TABLE
        for gname, graph, adj, length, entries, table in strata:
            n = len(adj)
            rng = rng_for(seed, "words", gname, length, i)
            stratum = f"{gname}/L{length}"
            for verdict in (True, False):
                if verdict:
                    left = random_word(rng, range(n), length)
                    right = scramble(rng, adj, left)
                else:
                    left, right = _unequal_pair(rng, adj, length)
                rnd.append(Query(
                    "equal", stratum, verdict,
                    lambda g=graph, a=left, b=right: Element(g, a) == Element(g, b),
                    _expect(verdict),
                ))
                if verdict:
                    left = random_word(rng, range(n), length)
                    right = scramble(rng, adj, left)
                else:
                    left, right = _unequal_pair(rng, adj, length)
                rnd.append(Query(
                    "product", stratum, verdict,
                    lambda g=graph, a=left, b=right: (Element(g, a) * Element(g, b).inverse()).is_identity(),
                    _expect(verdict),
                ))
                stored = scramble(rng, adj, entries[r])
                if not verdict:
                    stored = break_word(rng, adj, stored) if _breakable(adj, stored) else None
                    others = entries[:r] + entries[r + 1:]
                    if stored is None or _equals_any(adj, stored, others):
                        skipped += 1
                        continue
                key = Element(graph, stored)
                rnd.append(Query(
                    "lookup", stratum, verdict,
                    lambda t=table, k=key: t.get(k),
                    _expect(r if verdict else None),
                ))
            if length in CYCLIC_LENGTHS:
                core = cyclically_reduced_word(rng, adj, length)
                s = random_word(rng, range(n), length // 10 + 2)
                raw = s + core + inverse(s)
                rnd.append(Query(
                    "cyclic_normal_form", stratum, None,
                    Element(graph, raw).cyclic_normal_form,
                    lambda res, adj=adj, raw=raw, length=length: _check_cyclic(adj, raw, length, res),
                ))
        return rnd, skipped

    return Workload("words_long", make_round)


def _abelianization(word):
    out = {}
    for x in word:
        out[abs(x)] = out.get(abs(x), 0) + (1 if x > 0 else -1)
    return {v: e for v, e in out.items() if e}


def _equals_any(adj, word, others):
    """Exponent sums tell most words apart; the reducer settles the rest."""
    ab = _abelianization(word)
    return any(_abelianization(e) == ab and ref.equal(adj, word, e) for e in others)


def _breakable(adj, word):
    return any(
        abs(a) != abs(b) and abs(b) - 1 not in adj[abs(a) - 1] for a, b in zip(word, word[1:])
    )


def _check_cyclic(adj, raw, length, res):
    conj, core = res
    c = conj.letters
    if not ref.is_identity(adj, c + core.letters + inverse(c) + inverse(raw)):
        raise CheckFailed("conj * core * conj^-1 is not the input")
    if len(core.letters) != length:
        raise CheckFailed(f"core has {len(core.letters)} letters, the cyclically reduced length is {length}")
    return True


# ---------------------------------------------------------------------------
# conjugacy_mix: conjugacy, centralizers, conjugacy under a subgroup, double cosets

CONJ_GRAPHS = ("F3", "P4", "C5", "rand8")
CONJ_LENGTHS = (8, 16, 24, 32)
CERTIFY_TRIES = 20
# Double-coset members y = a x b get factors a, b of 4 letters (L/2 at
# L = 8). With factors of L/2 letters the bounded coset search hits its
# state cap on about one member in ten at L = 32 on rand8 (P4 too); each
# such give-up takes 3-7 s, so a 20 s run holds a Poisson handful of them
# and its throughput swung by half from seed to seed (spread 0.49-0.56
# over five seeds). With 4-letter factors the search still runs, up to a
# few hundred ms on rand8, but stops giving up. `layers.py` times the
# long-factor search and counts its give-ups on its own.
COSET_FACTOR = 4
# Non-conjugate shuffles at L = 8 that no quotient of the pool separates,
# certified by the exact orbit test alone: the decision gives up on about
# 2% of them on C5 and 1% on rand8 (never on F3 or P4), so these slots
# keep its `Inconclusive` answers in every run's decided_ratio.
HARD_NEGATIVE_GRAPHS = ("C5", "rand8")
HARD_NEGATIVES = 3  # per graph and round


def _subset(rng, n, size):
    return frozenset(rng.sample(range(n), size))


def _check_conjugate(adj, g, h, verdict, verts=None):
    from raag.conjugacy import Conjugate, Inconclusive, NotConjugate

    def check(res):
        if isinstance(res, Inconclusive):
            return False
        if isinstance(res, Conjugate):
            if not verdict:
                raise CheckFailed("claimed conjugate for a certified non-conjugate pair")
            ref.check_conjugator(adj, res.conjugator.letters, g, h, verts)
            return True
        if isinstance(res, NotConjugate):
            if verdict:
                raise CheckFailed(f"refused a conjugate pair ({res.reason})")
            return True
        raise CheckFailed(f"unexpected answer {res!r}")

    return check


def _check_centralizer(adj, g):
    def check(gens):
        for z in gens:
            ref.check_commutes(adj, z.letters, g)
        return bool(gens.complete)

    return check


def _check_double_coset(adj, x, y, a_verts, b_verts, verdict):
    from raag.cosets import INCONCLUSIVE, CosetFactors, NotMember

    def check(res):
        if res is INCONCLUSIVE:
            return False
        if isinstance(res, CosetFactors):
            if not verdict:
                raise CheckFailed("claimed membership the certificate rules out")
            ref.check_coset_factors(adj, res.left.letters, res.right.letters, x, y, a_verts, b_verts)
            return True
        if isinstance(res, NotMember):
            if verdict:
                raise CheckFailed(f"refused a member ({res.reason})")
            return True
        raise CheckFailed(f"unexpected answer {res!r}")

    return check


def coset_factor_length(length):
    """Letters in each factor a, b of a double-coset member y = a x b."""
    return min(length // 2, COSET_FACTOR)


def conjugacy_mix(seed):
    from raag import conjugacy, cosets
    from raag.words import Element

    setups = [
        (gi, gname, fixtures.build_graph(gname), fixtures.adjacency(gname),
         ref.quotient_pool(fixtures.adjacency(gname), rng_for(seed, "quotients", gname)))
        for gi, gname in enumerate(CONJ_GRAPHS)
    ]

    def make_round(i):
        rnd, skipped = [], 0
        for gi, gname, graph, adj, pool in setups:
            n = len(adj)
            everything = frozenset(range(n))
            for li, length in enumerate(CONJ_LENGTHS):
                rng = rng_for(seed, "conjugacy", gname, length, i)
                stratum = f"{gname}/L{length}"
                half = length // 2
                # subgroup sizes are fixed per graph and length, so every
                # seed and every round runs the same mix
                size = 1 + (gi + li) % (n - 1)
                k = coset_factor_length(length)
                # conjugate, yes: h = s g s^-1
                g, h = conjugate_pair(rng, adj, length, half)
                rnd.append(Query(
                    "conjugate", stratum, True,
                    lambda G=graph, g=g, h=h: conjugacy.conjugate(Element(G, g), Element(G, h)),
                    _check_conjugate(adj, g, h, True),
                ))
                # conjugate, no: a letter shuffle (same abelianization) that a
                # quotient separates. The shortest ones are where the decision
                # most often gives up, on pairs no small quotient separates;
                # there the exact orbit test (cheap at that length) certifies them.
                short = li == 0
                for _ in range(CERTIFY_TRIES):
                    g = cyclically_reduced_word(rng, adj, length)
                    h = tuple(rng.sample(g, len(g)))
                    if ref.certify_not_conjugate(pool, g, h) or (short and ref.certify_not_conjugate_exact(adj, g, h)):
                        rnd.append(Query(
                            "conjugate", stratum, False,
                            lambda G=graph, g=g, h=h: conjugacy.conjugate(Element(G, g), Element(G, h)),
                            _check_conjugate(adj, g, h, False),
                        ))
                        break
                else:
                    skipped += 1
                for _ in range(HARD_NEGATIVES if short and gname in HARD_NEGATIVE_GRAPHS else 0):
                    for _ in range(CERTIFY_TRIES):
                        g = cyclically_reduced_word(rng, adj, length)
                        h = tuple(rng.sample(g, len(g)))
                        if not ref.certify_not_conjugate(pool, g, h) and ref.certify_not_conjugate_exact(adj, g, h):
                            rnd.append(Query(
                                "conjugate", f"{stratum}/hard", False,
                                lambda G=graph, g=g, h=h: conjugacy.conjugate(Element(G, g), Element(G, h)),
                                _check_conjugate(adj, g, h, False),
                            ))
                            break
                    else:
                        skipped += 1
                # centralizer
                g = cyclically_reduced_word(rng, adj, length)
                rnd.append(Query(
                    "centralizer", stratum, None,
                    lambda G=graph, g=g: conjugacy.centralizer(Element(G, g)),
                    _check_centralizer(adj, g),
                ))
                # conjugate_under, yes: s in <S>
                verts = _subset(rng, n, size)
                g, h = conjugate_pair(rng, adj, length, half, verts)
                rnd.append(Query(
                    "conjugate_under", stratum, True,
                    lambda G=graph, g=g, h=h, v=verts: conjugacy.conjugate_under(Element(G, g), Element(G, h), v),
                    _check_conjugate(adj, g, h, True, verts),
                ))
                # conjugate_under, no: conjugate in the group, but a retraction
                # killing S tells the pair apart
                for _ in range(CERTIFY_TRIES):
                    # killing S must leave two vertices, or the image is abelian
                    verts = _subset(rng, n, min(size, n - 2))
                    g, h = conjugate_pair(rng, adj, length, half)
                    if ref.certify_not_conjugate_under(adj, verts, g, h):
                        rnd.append(Query(
                            "conjugate_under", stratum, False,
                            lambda G=graph, g=g, h=h, v=verts: conjugacy.conjugate_under(Element(G, g), Element(G, h), v),
                            _check_conjugate(adj, g, h, False, verts),
                        ))
                        break
                else:
                    skipped += 1
                # double cosets: A and B leave a vertex out, so retractions can refuse
                while True:
                    a_verts = _subset(rng, n, max(1, n // 2))
                    b_verts = _subset(rng, n, max(1, n // 2))
                    if a_verts | b_verts != everything:
                        break
                x = cyclically_reduced_word(rng, adj, length)
                y = random_word(rng, a_verts, k) + x + random_word(rng, b_verts, k)
                rnd.append(Query(
                    "in_double_coset", stratum, True,
                    lambda G=graph, y=y, x=x, a=a_verts, b=b_verts: cosets.in_double_coset(Element(G, y), Element(G, x), a, b, conjugacy._tester),
                    _check_double_coset(adj, x, y, a_verts, b_verts, True),
                ))
                for _ in range(CERTIFY_TRIES):
                    other = cyclically_reduced_word(rng, adj, length)
                    y = random_word(rng, a_verts, k) + other + random_word(rng, b_verts, k)
                    if ref.certify_not_in_double_coset(adj, a_verts, b_verts, x, y):
                        rnd.append(Query(
                            "in_double_coset", stratum, False,
                            lambda G=graph, y=y, x=x, a=a_verts, b=b_verts: cosets.in_double_coset(Element(G, y), Element(G, x), a, b, conjugacy._tester),
                            _check_double_coset(adj, x, y, a_verts, b_verts, False),
                        ))
                        break
                else:
                    skipped += 1
        return rnd, skipped

    return Workload("conjugacy_mix", make_round)


# ---------------------------------------------------------------------------
# separation: Magnus tests, separating levels, Lie dimensions, the p-group

MAGNUS_DEGREES = {"F2": range(4, 9), "P3": range(4, 8), "F3": range(4, 7), "C5": range(4, 6)}
# a random conjugate pair costs two to four times the commutator pair and
# varies with the draw, so above these degrees (0.5 s and more per test)
# only the commutator pair runs
CONJUGATE_PAIR_MAX_DEGREE = {"F2": 7, "P3": 6, "F3": 5, "C5": 4}
COMMUTATOR_CONJUGATOR = 2  # letters of s in [u, v] against s [v, u] s^-1
MAGNUS_P, MAGNUS_M = 2, 2
LEVEL_PRIMES = (2, 3)
LIE_CASES = (("C5", 7), ("rand8", 5))
PGROUP_PARAMS = ((2, 3, 2, 1), (3, 2, 1, 1))


def commutator_pair(rng, adj):
    """[u, v] and [v, u] = [u, v]^-1 for non-adjacent u, v: they are not
    conjugate, since the retraction onto <u, v> (a free group) would keep
    a conjugator and [a, b] is not conjugate to its inverse there."""
    n = len(adj)
    u, v = rng.choice([(u, v) for u in range(n) for v in range(n) if u != v and v not in adj[u]])
    a, b = u + 1, v + 1
    return (a, b, -a, -b), (b, a, -b, -a)


def conjugate_pair(rng, adj, g_len, s_len, s_verts=None):
    """g cyclically reduced of g_len letters and h = s g s^-1, with s a
    reduced word of s_len letters over `s_verts` (default: all). h is
    reduced of g_len + 2 s_len letters whenever some draw allows it, so the
    pairs of a slot share one shape."""
    for _ in range(10):
        g = cyclically_reduced_word(rng, adj, g_len)
        s = reduced_word(rng, adj, s_len, s_verts)
        h = s + g + inverse(s)
        if len(ref.reduce_word(adj, h)) == len(h):
            break
    return g, h


def _check_magnus(checker, g, h, verdict):
    from raag.nilpotent import NotSeparatedAtThisLevel, Separated

    def check(res):
        if isinstance(res, Separated):
            if verdict:
                raise CheckFailed("false separation of a conjugate pair")
            return True
        if isinstance(res, NotSeparatedAtThisLevel):
            checker.check(res.unit.coeffs, g, h)
            return verdict
        raise CheckFailed(f"unexpected answer {res!r}")

    return check


def _check_level(res):
    from raag.nilpotent import NOT_FOUND

    if res is not NOT_FOUND:
        raise CheckFailed(f"false separation of a conjugate pair at {res}")
    return True


def _check_lie(want):
    def check(res):
        if tuple(res) != want:
            raise CheckFailed(f"dimensions {tuple(res)}, clique-polynomial identity gives {want}")
        return True

    return check


def pgroup_query(params):
    from raag.pgroup import WitnessGroup, WitnessParams

    group = WitnessGroup(WitnessParams(*params))
    cls = group.conjugacy_class(group.phi("g"))
    return group.verify_relations(), cls, group.phi("h") in cls


def _check_pgroup(params):
    reference = ref.PGroupReference(*params)
    if not reference.relations_hold():
        raise RuntimeError(f"reference p-group {params} breaks its own relations")
    want = reference.class_of_g()

    def check(res):
        relations, cls, h_in = res
        if not relations:
            raise CheckFailed("relations reported broken; they hold")
        if {(e.vector, e.alpha_exp) for e in cls} != want:
            raise CheckFailed("class of phi(g) differs from {alpha^i(x1)}")
        if h_in:
            raise CheckFailed("phi(h) reported in the class of phi(g)")
        return True

    return check


def separation(seed):
    from raag import nilpotent
    from raag.words import Element

    q = MAGNUS_P**MAGNUS_M
    adjs = {gname: fixtures.adjacency(gname) for gname in set(MAGNUS_DEGREES) | {g for g, _ in LIE_CASES}}
    checkers = {
        (gname, d): ref.UnitChecker(adjs[gname], d, q, rng_for(seed, "units", gname, d))
        for gname, degrees in MAGNUS_DEGREES.items()
        for d in degrees
    }
    lie_want = {case: ref.lie_dims(adjs[case[0]], case[1]) for case in LIE_CASES}
    pgroup_checks = {params: _check_pgroup(params) for params in PGROUP_PARAMS}

    def make_round(i):
        # fresh Graph objects every round: the Magnus test and the Lie
        # dimensions cache trace monomials on the graph, and a round must
        # not find them filled by an earlier one
        graphs = {gname: fixtures.build_graph(gname) for gname in adjs}
        rnd = []
        for gname, degrees in MAGNUS_DEGREES.items():
            graph, adj = graphs[gname], adjs[gname]
            rng = rng_for(seed, "separation", gname, i)
            for d in degrees:
                u, v = commutator_pair(rng, adj)
                s = reduced_word(rng, adj, COMMUTATOR_CONJUGATOR)
                pairs = [((u, s + v + inverse(s)), False)]
                if d <= CONJUGATE_PAIR_MAX_DEGREE[gname]:
                    pairs.append((conjugate_pair(rng, adj, 5, 3), True))
                for (g, h), verdict in pairs:
                    rnd.append(Query(
                        "magnus_conjugate_test", f"{gname}/d{d}", verdict,
                        lambda G=graph, g=g, h=h, d=d: nilpotent.magnus_conjugate_test(Element(G, g), Element(G, h), d, MAGNUS_P, MAGNUS_M),
                        _check_magnus(checkers[gname, d], g, h, verdict),
                    ))
        graph, adj = graphs["F2"], adjs["F2"]
        rng = rng_for(seed, "levels", i)
        for p in LEVEL_PRIMES:
            for _ in range(2):
                g, h = conjugate_pair(rng, adj, 3, 2)
                rnd.append(Query(
                    "find_separating_level", f"F2/p{p}", True,
                    lambda G=graph, g=g, h=h, p=p: nilpotent.find_separating_level(Element(G, g), Element(G, h), p),
                    _check_level,
                ))
        # the Lie dimensions and the p-group have no random input: these
        # queries repeat their input every round (on a fresh graph)
        for (gname, degree), want in lie_want.items():
            rnd.append(Query(
                "lie_graded_dims", f"{gname}/d{degree}", None,
                lambda g=graphs[gname], d=degree: nilpotent.lie_graded_dims(g, d),
                _check_lie(want),
            ))
        for params, check in pgroup_checks.items():
            rnd.append(Query(
                "pgroup_class", "-".join(map(str, params)), False,
                lambda p=params: pgroup_query(p),
                check,
            ))
        return rnd, 0

    return Workload("separation", make_round)


# ---------------------------------------------------------------------------
# cli_oneshot: one fresh `raag` process per query

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(fixtures.SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_call(argv, traced=False):
    """Run one command in a fresh interpreter; returns (exit code, stdout, stderr)."""
    if traced:
        cmd = [sys.executable, str(fixtures.BENCH_DIR / "clitrace.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "raag.cli", *argv]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=cli_env(), cwd=fixtures.ROOT, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class _CliGraph:
    """A graph file the CLI is given, with the checker's view of it."""

    def __init__(self, name):
        self.path = fixtures.graph_file(name)
        self.names = fixtures.GRAPHS[name][0]
        self.index = {v: i for i, v in enumerate(self.names)}
        self.adj = fixtures.adjacency(name)

    def word(self, text):
        return ref.parse_word(self.index, text)

    def text(self, word):
        return ref.format_word(self.names, word)


def _lines(res, code=0):
    got, out, err = res
    if got != code:
        raise CheckFailed(f"exit code {got}, expected {code}: {err.strip()[-200:]}")
    return out.strip().splitlines()


def _cli_exact(expected):
    """The output the README documents for this command."""

    def check(res):
        lines = _lines(res)
        if lines != expected.splitlines():
            raise CheckFailed(f"printed {lines!r}, README documents {expected!r}")
        return True

    return check


def _cli_then(first, second):
    def check(res):
        first(res)
        return second(res)

    return check


def _cli_conjugate(gf, g, h, verdict, verts=None):
    def check(res):
        got, out, _ = res
        if got == 2:
            return False
        (line,) = _lines(res)
        if line.startswith("CONJUGATE BY: "):
            if not verdict:
                raise CheckFailed("claimed conjugate for a certified non-conjugate pair")
            ref.check_conjugator(gf.adj, gf.word(line.split(": ", 1)[1]), g, h, verts)
            return True
        if line.startswith("NOT CONJUGATE"):
            if verdict:
                raise CheckFailed(f"refused a conjugate pair: {line}")
            return True
        raise CheckFailed(f"unexpected output {line!r}")

    return check


def _cli_centralizer(gf, g):
    def check(res):
        lines = _lines(res)
        complete = "PARTIAL LIST" not in lines
        for line in lines:
            if line != "PARTIAL LIST":
                ref.check_commutes(gf.adj, gf.word(line), g)
        return complete

    return check


def _cli_double_coset(gf, x, y, a_verts, b_verts):
    def check(res):
        if res[0] == 2:
            return False
        (line,) = _lines(res)
        if not line.startswith("MEMBER: left = "):
            raise CheckFailed(f"refused a member: {line}")
        left, right = line[len("MEMBER: left = "):].split(", right = ")
        ref.check_coset_factors(gf.adj, gf.word(left), gf.word(right), x, y, a_verts, b_verts)
        return True

    return check


def _cli_hnn(gf, word, pivot):
    def check(res):
        lines = _lines(res)
        if not lines[0].startswith("head: "):
            raise CheckFailed(f"unexpected output {lines[0]!r}")
        rebuilt = gf.word(lines[0][len("head: "):])
        t = gf.index[pivot] + 1
        for line in lines[1:]:
            power, _, rest = line.partition(" * ")
            k = int(power[len("t^"):])
            rebuilt += (t if k > 0 else -t,) * abs(k) + gf.word(rest)
        if not ref.equal(gf.adj, rebuilt, word):
            raise CheckFailed("syllables do not multiply back to the word")
        return True

    return check


def _cli_separated(res):
    if res[0] == 2:
        return False
    (line,) = _lines(res)
    if not line.startswith("SEPARATED AT "):
        raise CheckFailed(f"unexpected output {line!r}")
    return True


def _cli_center(gf):
    central = [gf.names[v] for v in range(len(gf.adj)) if len(gf.adj[v]) == len(gf.adj) - 1]

    def check(res):
        lines = _lines(res)
        want = "central vertices: " + (" ".join(central) if central else "(none)")
        if lines[0] != want:
            raise CheckFailed(f"printed {lines[0]!r}, expected {want!r}")
        # a central vertex is central in the Lie ring too
        if central and not lines[1].endswith(": NO"):
            raise CheckFailed("Lie center reported trivial despite a central vertex")
        return True

    return check


def _cli_pgroup(params):
    p, n, r, s = params
    reference = ref.PGroupReference(*params)
    order_a = 1
    for q in reference.moduli:
        order_a *= q
    want = [
        f"params: p={p} n={n} r={r} s={s}",
        f"|A| = {order_a}",
        f"|B| = {order_a * p**r}",
        f"order(alpha) = {p**r}",
        "relations hold: " + ("YES" if reference.relations_hold() else "NO"),
        f"class(phi_g) size = {len(reference.class_of_g())}",
        "phi_h conjugate to phi_g: NO",
    ]

    def check(res):
        lines = _lines(res)
        if lines != want:
            raise CheckFailed(f"printed {lines!r}, expected {want!r}")
        return True

    return check


def cli_oneshot(seed):
    path3 = _CliGraph("P3")
    free2 = _CliGraph("F2")
    cycle5 = _CliGraph("C5")
    p3, f2, c5 = path3.path, free2.path, cycle5.path

    def q(kind, verdict, argv, check, stratum="readme"):
        return Query(kind, stratum, verdict, lambda traced=False, a=argv: cli_call(a, traced), check)

    # the README's examples, with the outputs it documents where it does
    comm, comm_inv = "a b a^-1 b^-1", "b a b^-1 a^-1"
    readme = [
        q("normal-form", None, ["normal-form", "--graph", p3, "b a b^-1 c"], _cli_exact("a c")),
        q("equal", True, ["equal", "--graph", p3, "a b", "b a"], _cli_exact("EQUAL")),
        q("conjugate", True, ["conjugate", "--graph", f2, "a b", "b a"], _cli_then(
            _cli_exact("CONJUGATE BY: a^-1"),
            _cli_conjugate(free2, free2.word("a b"), free2.word("b a"), True))),
        q("centralizer", None, ["centralizer", "--graph", p3, "a c"],
          _cli_centralizer(path3, path3.word("a c"))),
        q("double-coset", True,
          ["double-coset", "--graph", p3, "c a", "a c a c^-1", "--left", "a,b", "--right", "b,c"],
          _cli_double_coset(path3, path3.word("c a"), path3.word("a c a c^-1"), {0, 1}, {1, 2})),
        q("hnn-decompose", None, ["hnn-decompose", "--graph", p3, "a c^2 b c^-1 a", "--pivot", "c"],
          _cli_hnn(path3, path3.word("a c^2 b c^-1 a"), "c")),
        q("magnus-separate", False, ["magnus-separate", "--graph", f2, comm, comm_inv], _cli_separated),
        q("lie-dims", None, ["lie-dims", "--graph", f2, "--max-degree", "5"], _cli_then(
            _cli_exact("d: 2 1 2 3 6"),
            _cli_exact("d: " + " ".join(map(str, ref.lie_dims(free2.adj, 5)))))),
        q("center", None, ["center", "--graph", p3], _cli_center(path3)),
        q("pgroup-witness", False, ["pgroup-witness", "-p", "2", "-n", "2", "-r", "1", "-s", "1"],
          _cli_pgroup((2, 2, 1, 1))),
    ]
    pool = ref.quotient_pool(cycle5.adj, rng_for(seed, "cli-quotients"))
    everything = frozenset(range(5))

    def make_round(i):
        rng = rng_for(seed, "cli", i)
        rnd = list(readme)
        g = random_word(rng, everything, 6)
        s = random_word(rng, everything, 3)
        h = s + g + inverse(s)
        rnd.append(q("conjugate", True, ["conjugate", "--graph", c5, cycle5.text(g), cycle5.text(h)],
                     _cli_conjugate(cycle5, g, h, True), "seeded"))
        while True:
            g = random_word(rng, everything, 6)
            h = tuple(rng.sample(g, len(g)))
            if ref.certify_not_conjugate(pool, g, h):
                break
        rnd.append(q("conjugate", False, ["conjugate", "--graph", c5, cycle5.text(g), cycle5.text(h)],
                     _cli_conjugate(cycle5, g, h, False), "seeded"))
        verts = frozenset(rng.sample(range(5), 2))
        g = random_word(rng, everything, 6)
        s = random_word(rng, verts, 3)
        h = s + g + inverse(s)
        names = ",".join(cycle5.names[v] for v in sorted(verts))
        rnd.append(q("conjugate-under", True,
                     ["conjugate-under", "--graph", c5, cycle5.text(g), cycle5.text(h), "--subgroup", names],
                     _cli_conjugate(cycle5, g, h, True, verts), "seeded"))
        left, right = _unequal_pair(rng, cycle5.adj, 8)
        rnd.append(q("equal", False, ["equal", "--graph", c5, cycle5.text(left), cycle5.text(right)],
                     _cli_exact("NOT EQUAL"), "seeded"))
        return rnd, 0

    warm = q("lie-dims", None, ["lie-dims", "--graph", f2, "--max-degree", "2"], lambda res: bool(_lines(res)))
    return Workload("cli_oneshot", make_round, subprocess=True, warmup=[warm])


WORKLOADS = {
    "words_long": words_long,
    "conjugacy_mix": conjugacy_mix,
    "separation": separation,
    "cli_oneshot": cli_oneshot,
}
