import copy
import pickle
import random

import pytest

from raag import Element, Graph, gen, parse
from raag.cosets import abelianization
from raag.words import _canonical, _cyclically_reduced, _depile, _pile

from oracles import (
    embed,
    piled_double_coset_form,
    reference_cyclic_normal_form,
    reference_normal_form,
    reference_reduced_words,
    restrict,
    scan_depile,
)

F2 = Graph(["a", "b"], [])
K2 = Graph(["a", "b"], [("a", "b")])
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
TRI = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
EDGE_ISO = Graph(["a", "b", "c"], [("a", "b")])
F3 = Graph(["a", "b", "c"], [])
P4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
C5 = Graph(
    ["a", "b", "c", "d", "e"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
)


def _gnp(seed, n):
    """A seeded random graph G(n, 1/2)."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return Graph(names, edges)


RAND8 = _gnp(8, 8)
RAND32 = _gnp(32, 32)
_V8 = [f"v{i}" for i in range(8)]
K8 = Graph(_V8, [(u, v) for i, u in enumerate(_V8) for v in _V8[i + 1:]])
# the complement of the path v0 - v1 - ... - v7
CO_P8 = Graph(_V8, [(u, v) for i, u in enumerate(_V8) for v in _V8[i + 2:]])
# F2 x F2: a and c commute with b and d
C4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
CENSUS_GRAPHS = {"f3": F3, "p4": P4, "c5": C5, "rand8": RAND8, "k8": K8, "co_p8": CO_P8, "c4": C4}

GRAPHS = {"f2": F2, "k2": K2, "p3": P3, "tri": TRI, "edge_iso": EDGE_ISO, "f3": F3}

# canonical forms pinned against the independent rewriting-closure oracle
PINNED_FORMS = [
    ("f2", (1, 2, -1, 2, 1), (1, 2, -1, 2, 1)),
    ("f2", (2, -1, 1, -2, 2, 1), (2, 1)),
    ("k2", (2, 1, -2, 1), (1, 1)),
    ("p3", (3, 1, 2), (2, 3, 1)),
    ("p3", (3, 2, 1, -3, -1), (2, 3, 1, -3, -1)),
    ("p3", (2, 3, 2, -3, -2, 1), (1, 2)),
    ("tri", (3, 2, 1, -3, 2), (1, 2, 2)),
    ("edge_iso", (3, 2, 1, -2, -3, 1), (3, 1, -3, 1)),
    ("f3", (1, 2, 3, -3, -2, -1), ()),
    ("f3", (3, -1, 1, 2), (3, 2)),
]

# ball sizes |{g : |g| <= L}| for L = 0..4, from the oracle
PINNED_BALL_SIZES = {
    "f2": [1, 5, 17, 53, 161],
    "k2": [1, 5, 13, 25, 41],
    "p3": [1, 7, 29, 99, 313],
    "tri": [1, 7, 25, 63, 129],
    "edge_iso": [1, 7, 33, 143, 609],
    "f3": [1, 7, 37, 187, 937],
}


@pytest.mark.parametrize("gname,word,expected", PINNED_FORMS)
def test_pinned_canonical_forms(gname, word, expected):
    assert Element(GRAPHS[gname], word).letters == expected


def test_random_words_match_oracle():
    rng = random.Random(20260822)
    for gname, graph in GRAPHS.items():
        adj = graph.adj
        memo = {}
        for _ in range(400):
            length = rng.randrange(0, 9)
            word = tuple(
                rng.choice([1, -1]) * rng.randrange(1, graph.n + 1)
                for _ in range(length)
            )
            assert Element(graph, word).letters == reference_normal_form(
                adj, word, memo
            ), (gname, word)


def test_ball_sizes_match_oracle():
    for gname, graph in GRAPHS.items():
        seen = {Element(graph, (), canonical=True)}
        sizes = [1]
        frontier = list(seen)
        for _ in range(4):
            new = set()
            for g in frontier:
                for i in range(graph.n):
                    for s in (1, -1):
                        h = g * Element(graph, (s * (i + 1),), canonical=True)
                        if len(h) == len(g) + 1 and h not in seen:
                            new.add(h)
            seen |= new
            frontier = sorted(new, key=Element.shortlex_key)
            sizes.append(len(seen))
        assert sizes == PINNED_BALL_SIZES[gname], gname


def test_group_laws_random():
    rng = random.Random(7)
    for graph in (F2, P3, TRI, EDGE_ISO):
        for _ in range(60):
            u = _random_element(rng, graph, 6)
            v = _random_element(rng, graph, 6)
            w = _random_element(rng, graph, 6)
            assert (u * v) * w == u * (v * w)
            assert (u * u.inverse()).is_identity()
            assert (u * v).inverse() == v.inverse() * u.inverse()
            assert u ** 3 == u * u * u
            assert u ** -2 == u.inverse() * u.inverse()


def test_retraction_is_homomorphism():
    rng = random.Random(99)
    for graph in (P3, EDGE_ISO, F3):
        for keep in ({0}, {1}, {0, 1}, {0, 2}, {1, 2}):
            for _ in range(40):
                u = _random_element(rng, graph, 6)
                v = _random_element(rng, graph, 6)
                assert u.retract(keep) * v.retract(keep) == (u * v).retract(keep)
                assert u.retract(keep).in_special(keep)
    # a retraction fixes what it keeps
    u = parse(P3, "a b a^-1 c")
    assert u.retract({0, 1, 2}) == u


def test_support_and_membership():
    u = parse(P3, "a c a^-1")
    assert u.support() == {0, 2}
    assert not u.in_special({0, 1})
    assert parse(P3, "b^2").in_special({1})
    assert parse(P3, "1").in_special(set())


def test_retract_and_in_special_refuse_a_non_vertex():
    # on a - b, c: a set with no vertex in it would retract to 1, and one
    # with -1 would keep a (abs(a) - 1 == 0)
    graph = Graph(["a", "b", "c"], [("a", "b")])
    x = parse(graph, "a b c")
    for keep, bad in (({99}, "99"), ({-1, 0}, "-1"), ({1.0}, "1.0")):
        with pytest.raises(ValueError, match=f"{bad} is not a vertex index"):
            x.retract(keep)
    for keep, bad in (({7}, "7"), ({0, 3}, "3"), ({-2}, "-2")):
        with pytest.raises(ValueError, match=f"{bad} is not a vertex index"):
            x.in_special(keep)
    # the identity still checks what it is given
    with pytest.raises(ValueError, match="7 is not a vertex index"):
        parse(graph, "1").retract({7})


def test_retract_returns_self_when_it_drops_nothing():
    u = parse(P4, "a c b^-1 d a")
    assert u.retract(range(4)) is u
    assert u.retract({0, 1, 2, 3}) is u
    assert u.retract({0, 2}) == Element(P4, (1, 3, 1))
    assert u.retract(set()).is_identity()


def test_cyclic_normal_form():
    rng = random.Random(4242)
    for graph in (F2, K2, P3, TRI, EDGE_ISO):
        for _ in range(80):
            g = _random_element(rng, graph, 8)
            conj, core = g.cyclic_normal_form()
            assert conj * core * conj.inverse() == g
            assert len(core) <= len(g)
            # conjugating the core by any single letter never shortens it
            for i in range(graph.n):
                for s in (1, -1):
                    x = Element(graph, (s * (i + 1),), canonical=True)
                    assert len(x * core * x.inverse()) >= len(core), (g, core)


def test_cyclic_form_examples():
    g = parse(F2, "a b a^-1")
    conj, core = g.cyclic_normal_form()
    assert (conj.letters, core.letters) == ((1,), (2,))
    # b sits in the middle of the path graph, so it conjugates through
    g = parse(P3, "b a b^-1")
    conj, core = g.cyclic_normal_form()
    assert core == parse(P3, "a")
    assert parse(TRI, "c a b c^-1").cyclic_normal_form()[1] == parse(TRI, "a b")


def test_cyclic_normal_form_matches_reference():
    rng = random.Random(20261018)
    for graph in (F2, K2, P3, TRI, EDGE_ISO, C5, RAND8):
        for k in range(300):
            if k % 2:
                g = Element(graph, _raw_word(rng, graph, rng.randrange(0, 61)))
            else:
                # s w s^-1 with a long conjugator s
                s = Element(graph, _raw_word(rng, graph, rng.randrange(10, 26)))
                w = Element(graph, _raw_word(rng, graph, rng.randrange(0, 11)))
                g = s * w * s.inverse()
            conj, core = g.cyclic_normal_form()
            ref_conj, ref_core = reference_cyclic_normal_form(g)
            assert conj.letters == ref_conj.letters, g
            assert core.letters == ref_core.letters, g
    # s w s^-1 of the two kinds that pass the stripped ends to the piles:
    # ends that cancel down to a middle that is not cyclically reduced, and
    # canonical words that interleave s with the core
    for graph in (P3, P4, C5, RAND8):
        stripped = interleaved = 0
        for _ in range(600):
            s = Element(graph, _raw_word(rng, graph, rng.randrange(1, 6)))
            w = Element(graph, _raw_word(rng, graph, rng.randrange(1, 8)))
            g = s * w * s.inverse()
            letters = g.letters
            i, j = 0, len(letters)
            while i < j and letters[i] == -letters[j - 1]:
                i, j = i + 1, j - 1
            if i and not _cyclically_reduced(graph, letters[i:j]):
                stripped += 1
            elif len(g) == 2 * len(s) + len(w) and letters[:len(s)] != s.letters:
                interleaved += 1
            else:
                continue
            conj, core = g.cyclic_normal_form()
            ref_conj, ref_core = reference_cyclic_normal_form(g)
            assert (conj.letters, core.letters) == (ref_conj.letters, ref_core.letters), g
        assert min(stripped, interleaved) >= 25, (graph, stripped, interleaved)


def test_cyclic_normal_form_canonicalises_at_most_twice(monkeypatch):
    calls = []

    def counted(graph, letters, w=()):
        calls.append(len(letters))
        return _canonical(graph, letters, w)

    monkeypatch.setattr("raag.words._canonical", counted)
    rng = random.Random(77)
    longest = 0
    for graph in (P3, C5, RAND8):
        for _ in range(40):
            s = Element(graph, _raw_word(rng, graph, 30))
            w = Element(graph, _raw_word(rng, graph, 8))
            g = s * w * s.inverse()
            calls.clear()
            conj, core = g.cyclic_normal_form()
            assert len(calls) <= 2, (g, len(conj))
            longest = max(longest, len(conj))
    # one canonicalisation per peeled pair would have shown above
    assert longest >= 20


def test_cyclic_normal_form_of_a_long_conjugate():
    rng = random.Random(2000)
    s = _raw_word(rng, RAND8, 9990)
    w = Element(RAND8, _raw_word(rng, RAND8, 20))
    g = Element(RAND8, s + w.letters + tuple(-x for x in reversed(s)))
    conj, core = g.cyclic_normal_form()
    assert len(core) == len(w.cyclic_normal_form()[1])
    assert conj * core * conj.inverse() == g


def test_double_coset_form_is_invariant_on_long_words():
    # y = a x b with 16-letter factors strips to the same representative
    rng = random.Random(606)
    for graph in (P4, C5, RAND8):
        for length in (50, 100, 200):
            for _ in range(10):
                front = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
                back = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
                x = Element(graph, _raw_word(rng, graph, length))
                a = Element(graph, _raw_word_over(rng, front, 16))
                b = Element(graph, _raw_word_over(rng, back, 16))
                y = a * x * b
                a_x, rep_x, b_x = x.double_coset_form(front, back)
                a_y, rep_y, b_y = y.double_coset_form(front, back)
                assert a_x * rep_x * b_x == x and a_y * rep_y * b_y == y
                assert a_x.in_special(front) and b_x.in_special(back)
                assert a_y.in_special(front) and b_y.in_special(back)
                assert rep_x == rep_y, (graph.vertices, x, y)
                # the representative is (front, back)-reduced: nothing strips
                again = rep_x.double_coset_form(front, back)
                assert again[0].is_identity() and again[2].is_identity()


def _subsets(rng, n):
    """The empty set, every vertex, and four random sets."""
    return [frozenset(), frozenset(range(n))] + [
        frozenset(rng.sample(range(n), rng.randrange(n + 1))) for _ in range(4)
    ]


@pytest.mark.parametrize("graph", CENSUS_GRAPHS.values(), ids=CENSUS_GRAPHS)
def test_double_coset_form_matches_the_piled_strip(graph):
    # raw words and s x t with s in A, t in B, against the strip on the piles
    rng = random.Random(27)
    subsets = _subsets(rng, graph.n)
    for length in (0, 1, 2, 7, 30, 100, 300):
        for _ in range(3 if length >= 100 else 8):
            front, back = rng.choice(subsets), rng.choice(subsets)
            x = Element(graph, _raw_word(rng, graph, length))
            k = rng.randrange(length // 4 + 2)
            s = _raw_word_over(rng, front, k) if front else ()
            t = _raw_word_over(rng, back, k) if back else ()
            for y in (x, Element(graph, s + x.letters + t)):
                got = y.double_coset_form(front, back)
                want = piled_double_coset_form(y, front, back)
                assert [z.letters for z in got] == [z.letters for z in want], (graph, y, front, back)


def _count_piles(monkeypatch):
    from raag import words

    piled = []

    def counted(graph, letters):
        piled.append(len(letters))
        return _pile(graph, letters)

    monkeypatch.setattr(words, "_pile", counted)
    return piled


@pytest.mark.parametrize("graph", [F3, P4, C5, RAND8], ids=["f3", "p4", "c5", "rand8"])
def test_strip_and_cyclically_reduced_words_build_no_piles(graph, monkeypatch):
    # on these sparse graphs the insertion that the front strip runs never
    # spends its budget (on F2 x F2 it can, and then piles as it should)
    piled = _count_piles(monkeypatch)
    rng = random.Random(270)
    subsets = _subsets(rng, graph.n)
    for length in (0, 1, 8, 30, 100):
        for _ in range(10):
            x = Element(graph, _raw_word(rng, graph, length))
            x.double_coset_form(rng.choice(subsets), rng.choice(subsets))
            assert not piled, (graph, x)
            core = x.cyclic_normal_form()[1]
            piled.clear()
            conj, again = core.cyclic_normal_form()
            assert not piled and again is core and conj.is_identity()
    # s x s^-1 whose canonical word is s.x.s^-1 letter for letter is split
    # at its ends, unpiled
    s, x = parse(P4, "c a"), parse(P4, "d")
    assert (s * x * s.inverse()).letters == s.letters + x.letters + s.inverse().letters
    assert (s * x * s.inverse()).cyclic_normal_form() == (s, x) and not piled
    # one whose canonical word interleaves s with x is peeled on the piles
    s, x = parse(P4, "a b^-1"), parse(P4, "d c d")
    conj, core = (s * x * s.inverse()).cyclic_normal_form()
    assert (conj, core) == (s, x) and len(piled) >= 1


@pytest.mark.parametrize("graph", [RAND32, P4], ids=["rand32", "p4"])
def test_heap_depile_matches_scan(graph):
    rng = random.Random(32)
    for length in (100, 1000):
        for _ in range(20):
            word = _raw_word(rng, graph, length)
            canon = _depile(graph, _pile(graph, word))
            assert scan_depile(graph, _pile(graph, word)) == canon
            assert _depile(graph, _pile(graph, canon)) == canon


def _piled(graph, word):
    return _depile(graph, _pile(graph, word))


def _inverse_word(word):
    return tuple(-x for x in reversed(word))



@pytest.mark.parametrize("graph", CENSUS_GRAPHS.values(), ids=CENSUS_GRAPHS)
def test_insertion_matches_the_piles(graph):
    rng = random.Random(26)
    for length in (0, 1, 2, 7, 30, 300, 1000):
        for _ in range(4 if length >= 300 else 12):
            word = _raw_word(rng, graph, length)
            x = Element(graph, word)
            assert x.letters == _piled(graph, word)
            y = Element(graph, _raw_word(rng, graph, rng.randrange(length + 1)))
            letter = Element(graph, _raw_word(rng, graph, 1))
            keep = rng.sample(range(graph.n), rng.randrange(graph.n + 1))
            pairs = [
                (x * y, x.letters + y.letters),
                (x * y.inverse(), x.letters + _inverse_word(y.letters)),
                (x * letter, x.letters + letter.letters),
                (letter * x, letter.letters + x.letters),
                (x.inverse(), _inverse_word(x.letters)),
                (x.retract(keep), tuple(lt for lt in x.letters if abs(lt) - 1 in keep)),
                (x**3, x.letters * 3),
                (x**-2, _inverse_word(x.letters) * 2),
            ]
            for got, raw in pairs:
                assert got.letters == _piled(graph, raw), (graph, word)


def test_insertion_hands_a_quadratic_walk_to_the_piles(monkeypatch):
    # on F2 x F2, each a and a^-1 of (b d)^k (a a^-1)^k walks back over all
    # of (b d)^k, so the walks would cost about 4k^2 steps in all
    piled = _count_piles(monkeypatch)
    k = 1000
    word = (2, 4) * k + (1, -1) * k
    assert Element(C4, word).letters == (2, 4) * k
    # one pile, of the insertion's prefix (2k letters and some a a^-1 pairs
    # cancelled) and the letters it had not reached
    assert len(piled) == 1
    assert 2 * k < piled[0] < 4 * k


@pytest.mark.parametrize("graph", CENSUS_GRAPHS.values(), ids=CENSUS_GRAPHS)
def test_inverses_match_the_piles(graph):
    # an inverse holds a reversed word until its letters are read; each use
    # of one gives the canonical word that the piles give
    rng = random.Random(29)
    for length in (0, 1, 2, 7, 30, 300, 1000):
        for _ in range(3 if length >= 300 else 10):
            word = _raw_word(rng, graph, length)
            x = Element(graph, word)
            y = Element(graph, _raw_word(rng, graph, rng.randrange(length + 1)))
            inv = _inverse_word(y.letters)
            pairs = [
                (x * y.inverse(), x.letters + inv),
                (y.inverse(), inv),
                (y.inverse() * x, inv + x.letters),
                (y.inverse() * x.inverse(), inv + _inverse_word(x.letters)),
                (y.inverse().inverse(), y.letters),
                (y**-3, inv * 3),
            ]
            for got, raw in pairs:
                assert got.letters == _piled(graph, raw), (graph, word)
            # x from another raw word: the product cancels at the back
            letter = _raw_word(rng, graph, 1)
            twin = Element(graph, letter + _inverse_word(letter) + word)
            assert (x * twin.inverse()).is_identity()
            # equality and hash of inverses nobody has read
            canon = Element(graph, inv)
            assert y.inverse() == canon and canon == y.inverse()
            assert hash(y.inverse()) == hash(canon)
            z = y.inverse()
            assert (len(z), bool(z), z.support(), z.is_identity()) == (
                len(canon), bool(canon), canon.support(), canon.is_identity()
            )


def test_an_unread_inverse_pickles_and_copies():
    y = parse(P4, "a c b^-1 d a")
    want = _piled(P4, _inverse_word(y.letters))
    for clone in (lambda z: pickle.loads(pickle.dumps(z)), copy.copy, copy.deepcopy):
        inv = y.inverse()
        got = clone(inv)
        assert got == inv and hash(got) == hash(inv)
        assert got.letters == want and got.graph == P4
        assert (got * y).is_identity()


def test_an_inverse_canonicalises_once_when_read(monkeypatch):
    calls = []

    def counted(graph, letters, w=()):
        calls.append(len(letters))
        return _canonical(graph, letters, w)

    x, y = parse(P4, "a c b^-1 d"), parse(P4, "d^-1 b a^2 c")
    monkeypatch.setattr("raag.words._canonical", counted)
    inv = y.inverse()
    assert calls == []
    # length, truthiness, support, abelianization and retraction read the
    # reversed word
    assert len(inv) == len(y) and inv and not inv.is_identity()
    assert inv.support() == y.support() and inv.in_special(range(4))
    assert abelianization(inv) == tuple(-e for e in abelianization(y))
    assert inv.retract(range(4)) is inv
    assert calls == []
    # x * y^-1 is one insertion pass, over y's letters
    product = x * inv
    assert calls == [len(y)]
    calls.clear()
    letters = inv.letters
    assert calls == [len(y)] and letters == _piled(P4, _inverse_word(y.letters))
    # read once: later reads, printing and hashing canonicalise nothing
    assert inv.letters is letters and str(inv) == "b^-1 c^-1 a^-2 d" and hash(inv)
    assert calls == [len(y)]
    monkeypatch.undo()
    assert product == Element(P4, x.letters + _inverse_word(y.letters))


@pytest.mark.parametrize(
    "letters,error",
    [((1.0,), TypeError), ((1, 2.0), TypeError), (("a",), TypeError), ((None,), TypeError),
     ((1, 0), ValueError), ((9,), ValueError), ((-9,), ValueError), ((10**30,), ValueError)],
)
def test_insertion_refuses_what_the_piles_refuse(letters, error):
    # letters are found by list index, so a float or a string raises as it
    # did when the piles were indexed by vertex; one past the vertex count
    # and letter 0 raise the ValueError of Element, also once the walks
    # have handed the rest of the word to the piles
    long_walk = (2, 4) * 200 + (1, -1) * 200
    for graph in (C4, K8):
        for prefix in ((), long_walk):
            with pytest.raises(error):
                Element(graph, prefix + letters)
    assert Element(C4, (True, -1)).is_identity()


def test_parse_and_print():
    assert parse(P3, "1").is_identity()
    assert parse(P3, "").is_identity()
    assert parse(P3, "  ").is_identity()
    assert str(parse(P3, "1")) == "1"
    assert parse(P3, "a^2 b^-3").letters == (1, 1, -2, -2, -2)
    assert str(parse(P3, "a a b^-1 b^-1 b^-1")) == "a^2 b^-3"
    assert gen(P3, "c", -2) == parse(P3, "c^-2")
    assert gen(P3, "c", 0).is_identity()

    rng = random.Random(11)
    for graph in GRAPHS.values():
        for _ in range(50):
            g = _random_element(rng, graph, 7)
            assert parse(graph, str(g)) == g

    with pytest.raises(ValueError):
        parse(P3, "z")
    with pytest.raises(ValueError):
        parse(P3, "a^0")
    with pytest.raises(ValueError):
        parse(P3, "a^x")
    with pytest.raises(ValueError):
        gen(P3, "nope")


def test_gen_power_must_be_an_integer():
    import numpy as np

    # 2.0 == 2, and (lt,) * 2.0 raised a TypeError
    with pytest.raises(ValueError, match="power = 2.0 is not an integer"):
        gen(P3, "a", 2.0)
    assert gen(P3, "a", np.int64(-2)) == parse(P3, "a^-2")


def test_parse_refuses_oversized_words(monkeypatch):
    from raag import words

    with pytest.raises(ValueError, match="more than"):
        parse(P3, f"a^{words.MAX_WORD_LENGTH + 1}")
    # the bound is on the expanded total, checked before any letter is built
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 8)
    assert len(parse(P3, "a^4 c^-4")) == 8
    with pytest.raises(ValueError, match="more than 8"):
        parse(P3, "a^5 c^-4")


def test_gen_refuses_oversized_powers(monkeypatch):
    from raag import words

    # 10**12 letters raised MemoryError while the tuple was built
    for power in (10**12, -10**12, words.MAX_WORD_LENGTH + 1):
        with pytest.raises(ValueError, match=f"more than {words.MAX_WORD_LENGTH} letters"):
            gen(F2, "a", power)
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 8)
    assert gen(F2, "a", -8) == parse(F2, "a^-8")
    with pytest.raises(ValueError, match="more than 8"):
        gen(F2, "a", 9)


def test_pow_refuses_oversized_powers(monkeypatch):
    from raag import words

    # 10**12 copies of a two-letter word raised MemoryError while the tuple was built
    ab = Element(F2, [1, 2])
    for k in (10**12, -10**12, words.MAX_WORD_LENGTH // 2 + 1):
        with pytest.raises(ValueError, match=f"more than {words.MAX_WORD_LENGTH} letters"):
            ab ** k
    # the bound is on the canonical base times abs(k); the identity has no letters
    assert Element(F2, [1, -1]) ** 10**12 == Element(F2)
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 8)
    assert ab ** -4 == parse(F2, "b^-1 a^-1 " * 4)
    with pytest.raises(ValueError, match="more than 8"):
        ab ** 5


@pytest.mark.parametrize("letters", [(1, 0, 2), (0,), (3,), (-3,), (1, 2, -7)])
def test_letters_outside_the_graph_are_refused(letters):
    # a letter 0 would index b's pile on F2 and cancel there, turning
    # (1, 0, 2) into b; a letter past the vertex count finds no pile
    with pytest.raises(ValueError, match="letter"):
        Element(F2, letters)


def test_letters_from_an_iterator():
    # the letter check must not consume the only pass over the letters
    expected = Element(F2, [1, 2])
    assert str(expected) == "a b"
    for letters in (iter([1, 2]), (x for x in (1, 2)), {1: None, 2: None}.keys()):
        assert Element(F2, letters) == expected
    # a tuple is kept as it is
    letters = (1, 2)
    assert Element(F2, letters, canonical=True).letters is letters


def test_operations_on_elements_skip_the_letter_checks(monkeypatch):
    # their letters come from elements, so only outside callers are scanned
    checked = []
    init = Element.__init__

    def spy(self, graph, letters=(), canonical=False):
        if not canonical:
            checked.append(letters)
        init(self, graph, letters, canonical)

    x, y = parse(P4, "a c b^-1 d"), parse(P4, "d^-1 b a^2")
    monkeypatch.setattr(Element, "__init__", spy)
    results = [
        x * y, x.inverse(), x**3, x**-2, x.retract({0, 1}),
        *(x * y * x.inverse()).cyclic_normal_form(), *x.double_coset_form({0}, {3}),
    ]
    assert checked == []
    monkeypatch.setattr(Element, "__init__", init)
    assert [r.letters for r in results] == [Element(P4, r.letters).letters for r in results]
    assert results[0] == Element(P4, x.letters + y.letters)


def test_double_coset_form_refuses_a_non_vertex():
    x = parse(F2, "a b")
    with pytest.raises(ValueError, match="5 is not a vertex index"):
        x.double_coset_form({5}, {0})
    with pytest.raises(ValueError, match="-1 is not a vertex index"):
        x.double_coset_form({0}, {-1})
    # 1.0 == 1, so a range test lets it through to list indexing
    with pytest.raises(ValueError, match="1.0 is not a vertex index"):
        x.double_coset_form({1.0}, {0})


def test_product_with_identity_returns_the_operand():
    x = parse(P3, "a c b^-1")
    one = parse(P3, "1")
    assert x * one is x and one * x is x
    assert one * one == one
    # the graph check comes first, so an identity elsewhere still refuses
    for stranger in (parse(F2, "1"), parse(TRI, "1")):
        with pytest.raises(ValueError, match="different graphs"):
            x * stranger
        with pytest.raises(ValueError, match="different graphs"):
            stranger * x


def test_bare_one_is_the_identity():
    # "1" is the identity on every graph, as no vertex may be named "1"
    with pytest.raises(ValueError, match="'1'"):
        Graph(["1", "2"], [])
    for graph in (F2, P3, C5):
        assert parse(graph, "1").is_identity()
        assert parse(graph, " 1 ").is_identity()
        assert parse(graph, "").is_identity()


def test_restrict_embed_roundtrip():
    sub = P3.full_subgraph({0, 1})
    u = parse(P3, "b a b^-1 a")
    r = restrict(u, sub)
    assert r.graph == sub and embed(r, P3) == u
    with pytest.raises(ValueError):
        restrict(parse(P3, "c"), sub)
    # the names may come in another order: the word is canonicalised again
    ba = Graph(["b", "a"], [("b", "a")])
    assert restrict(parse(EDGE_ISO, "a b"), ba) == parse(ba, "a b")


def test_reference_reduced_words_agree_with_engine():
    # every oracle canonical word is fixed by the engine, and distinct
    # canonical words stay distinct elements
    for gname in ("f2", "k2", "p3", "tri"):
        graph = GRAPHS[gname]
        words = reference_reduced_words(graph.adj, graph.n, 3)
        elements = {Element(graph, w) for w in words}
        assert len(elements) == len(words)
        for w in words:
            assert Element(graph, w).letters == w


def _raw_word(rng, graph, length):
    return tuple(
        rng.choice([1, -1]) * rng.randrange(1, graph.n + 1) for _ in range(length)
    )


def _raw_word_over(rng, verts, length):
    verts = sorted(verts)
    return tuple(rng.choice([1, -1]) * (rng.choice(verts) + 1) for _ in range(length))


def _random_element(rng, graph, max_len):
    return Element(graph, _raw_word(rng, graph, rng.randrange(0, max_len + 1)))
