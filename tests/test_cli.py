"""Command-line behavior: golden outputs, exit codes, witness round-trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from raag._checks import PRIME_BOUND
from raag.cli import main
from raag.nilpotent import MAX_LIE_DEGREE, MAX_PRECISION
from oracles import witt_free_lie_dims

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    specs = {
        "discrete2": {"vertices": ["a", "b"], "edges": []},
        "discrete5": {"vertices": list("abcde"), "edges": []},
        "cycle5": {
            "vertices": list("abcde"),
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
        },
        "path3": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "triangle": {
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        },
    }
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_form(graphs, capsys):
    code, out, _ = run(capsys, "normal-form", "--graph", graphs["path3"], "b a b^-1 c")
    assert code == 0
    assert out == "a c\n"


def test_equal(graphs, capsys):
    code, out, _ = run(capsys, "equal", "--graph", graphs["path3"], "a b", "b a")
    assert (code, out) == (0, "EQUAL\n")
    code, out, _ = run(capsys, "equal", "--graph", graphs["discrete2"], "a b", "b a")
    assert (code, out) == (0, "NOT EQUAL\n")


def test_conjugate_negative_golden(graphs, capsys):
    code, out, _ = run(
        capsys, "conjugate", "--graph", graphs["discrete2"],
        "a b a^-1 b^-1", "b a b^-1 a^-1",
    )
    assert code == 0
    assert out == "NOT CONJUGATE (cyclic-normal-form)\n"


def test_conjugate_witness_reverifies(graphs, capsys):
    from raag.graphs import load_graph
    from raag.words import parse

    code, out, _ = run(
        capsys, "conjugate", "--graph", graphs["discrete2"], "a b", "b a"
    )
    assert code == 0
    assert out.startswith("CONJUGATE BY: ")
    graph = load_graph(graphs["discrete2"])
    sigma = parse(graph, out.split(": ", 1)[1].strip())
    assert sigma * parse(graph, "a b") * sigma.inverse() == parse(graph, "b a")


def test_conjugate_under(graphs, capsys):
    code, out, _ = run(
        capsys, "conjugate-under", "--graph", graphs["discrete2"],
        "b", "a b a^-1", "--subgroup", "a",
    )
    assert (code, out) == (0, "CONJUGATE BY: a\n")
    code, out, _ = run(
        capsys, "conjugate-under", "--graph", graphs["discrete2"],
        "b", "a b a^-1", "--subgroup", "b",
    )
    assert code == 0
    assert out.startswith("NOT CONJUGATE")


def test_centralizer(graphs, capsys):
    code, out, _ = run(capsys, "centralizer", "--graph", graphs["path3"], "a c")
    assert code == 0
    assert out == "b\na c\n"


def test_double_coset(graphs, capsys):
    code, out, _ = run(
        capsys, "double-coset", "--graph", graphs["path3"],
        "c a", "a c a c^-1", "--left", "a,b", "--right", "b,c",
    )
    assert code == 0
    assert out.startswith("MEMBER: left = ")
    code, out, _ = run(
        capsys, "double-coset", "--graph", graphs["discrete2"],
        "1", "b", "--left", "a", "--right", "a",
    )
    assert code == 0
    assert out == "NOT A MEMBER (reduced-representative)\n"


def test_hnn_decompose(graphs, capsys):
    code, out, _ = run(
        capsys, "hnn-decompose", "--graph", graphs["path3"],
        "a c^2 b c^-1 a", "--pivot", "c",
    )
    assert code == 0
    assert out == "head: a b\nt^1 * a\n"


def test_magnus_separate(graphs, capsys):
    code, out, _ = run(
        capsys, "magnus-separate", "--graph", graphs["discrete2"],
        "a b a^-1 b^-1", "b a b^-1 a^-1",
    )
    assert (code, out) == (0, "SEPARATED AT d=2 m=2\n")
    code, out, _ = run(
        capsys, "magnus-separate", "--graph", graphs["discrete2"],
        "a b a^-1 b^-1", "b a b^-1 a^-1", "--max-degree", "1",
    )
    assert (code, out) == (2, "NOT SEPARATED (d <= 1, m <= 2)\n")
    # C5 passes the trace basis bound at the default degree 6; a pair that
    # separates at degree 1 is answered before the scan gets there
    code, out, _ = run(capsys, "magnus-separate", "--graph", graphs["cycle5"], "a", "b")
    assert (code, out) == (0, "SEPARATED AT d=1 m=1\n")


def test_lie_dims_golden(graphs, capsys):
    code, out, _ = run(
        capsys, "lie-dims", "--graph", graphs["discrete2"], "--max-degree", "4"
    )
    assert (code, out) == (0, "d: 2 1 2 3\n")
    code, out, _ = run(
        capsys, "lie-dims", "--graph", graphs["triangle"], "--max-degree", "4"
    )
    assert (code, out) == (0, "d: 3 0 0 0\n")


def test_lie_dims_high_degree(graphs, capsys):
    # the free Lie ranks grow like 2^d / d; they come from the clique
    # polynomial, so no basis of that size is built
    code, out, _ = run(
        capsys, "lie-dims", "--graph", graphs["discrete2"], "--max-degree", "40"
    )
    dims = " ".join(str(d) for d in witt_free_lie_dims(2, 40))
    assert (code, out) == (0, f"d: {dims}\n")


def test_center(graphs, capsys):
    code, out, _ = run(capsys, "center", "--graph", graphs["path3"])
    assert code == 0
    assert out == "central vertices: b\nlie center trivial in every degree: NO\n"
    code, out, _ = run(capsys, "center", "--graph", graphs["discrete2"])
    assert code == 0
    assert out == "central vertices: (none)\nlie center trivial in every degree: YES\n"


@pytest.mark.parametrize("flag", [["--max-degree", "40"], ["-p", "3"]])
def test_center_takes_only_a_graph(graphs, capsys, flag):
    # the answer is the same in every degree and over every ring, so a
    # degree bound or a prime is a usage error
    code, out, err = run(capsys, "center", "--graph", graphs["discrete2"], *flag)
    assert (code, out) == (1, "") and "error: unrecognized arguments" in err


@pytest.mark.parametrize("prime", ["0", "1", "4"])
def test_non_prime_p_exits_one(graphs, capsys, prime):
    code, out, err = run(
        capsys, "magnus-separate", "--graph", graphs["discrete2"],
        "a b", "b a", "-p", prime,
    )
    assert (code, out) == (1, "") and f"error: p = {prime} is not prime" in err


def test_pgroup_witness_golden(capsys):
    code, out, _ = run(
        capsys, "pgroup-witness", "-p", "2", "-n", "2", "-r", "1", "-s", "1"
    )
    assert code == 0
    assert "|B| = 32" in out
    assert "order(alpha) = 2" in out
    assert "class(phi_g) size = 2" in out
    assert "phi_h conjugate to phi_g: NO" in out
    assert "relations hold: YES" in out


PGROUP_GOLDEN = {
    ("2", "3", "2", "1"): (
        "params: p=2 n=3 r=2 s=1\n|A| = 256\n|B| = 1024\norder(alpha) = 4\n"
        "relations hold: YES\nclass(phi_g) size = 4\n"
        "phi_h conjugate to phi_g: NO\n"
    ),
    ("3", "2", "1", "1"): (
        "params: p=3 n=2 r=1 s=1\n|A| = 243\n|B| = 729\norder(alpha) = 3\n"
        "relations hold: YES\nclass(phi_g) size = 3\n"
        "phi_h conjugate to phi_g: NO\n"
    ),
}


@pytest.mark.parametrize("params", sorted(PGROUP_GOLDEN))
def test_pgroup_witness_full_output(capsys, params):
    p, n, r, s = params
    code, out, _ = run(capsys, "pgroup-witness", "-p", p, "-n", n, "-r", r, "-s", s)
    assert (code, out) == (0, PGROUP_GOLDEN[params])


def test_pgroup_witness_too_large_exits_one(capsys):
    # |B| = 2^32: refused before anything is printed or multiplied
    code, out, err = run(capsys, "pgroup-witness", "-p", "2", "-n", "30", "-r", "1", "-s", "1")
    assert (code, out) == (1, "") and "error:" in err


def test_lie_dims_bad_degree_exits_one(graphs, capsys):
    code, out, err = run(
        capsys, "lie-dims", "--graph", graphs["discrete2"], "--max-degree", "0"
    )
    assert (code, out) == (1, "") and "error:" in err


def test_lie_dims_degree_past_bound_exits_one(graphs, capsys):
    code, out, err = run(
        capsys, "lie-dims", "--graph", graphs["discrete2"], "--max-degree", "100000"
    )
    assert (code, out) == (1, "") and "error:" in err and str(MAX_LIE_DEGREE) in err


def test_magnus_separate_precision_past_bound_exits_one(graphs, capsys):
    # -m 100000 would scan degree 1 at every precision up to p^100000
    code, out, err = run(
        capsys, "magnus-separate", "--graph", graphs["discrete2"],
        "a b a^-1 b^-1", "b a b^-1 a^-1", "-m", "100000",
    )
    assert (code, out) == (1, "") and "error:" in err and str(MAX_PRECISION) in err


def fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this tree."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


MAGNUS_P3 = """
from raag.graphs import Graph
from raag.nilpotent import magnus_conjugate_test
from raag.words import parse
graph = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
res = magnus_conjugate_test(parse(graph, "a b c"), parse(graph, "c b a"), 4, 2, 2)
"""


def test_no_command_loads_numpy(graphs):
    # the library solves its modular systems in Python integers; numpy is
    # only a test dependency, so no command, magnus-separate included, and
    # no Magnus test may load it
    commands = [
        ["normal-form", "--graph", graphs["path3"], "b a b^-1 c"],
        ["equal", "--graph", graphs["path3"], "a b", "b a"],
        ["conjugate", "--graph", graphs["discrete2"], "a b", "b a"],
        ["conjugate-under", "--graph", graphs["discrete2"], "b", "a b a^-1", "--subgroup", "a"],
        ["centralizer", "--graph", graphs["path3"], "a c"],
        ["double-coset", "--graph", graphs["path3"], "c a", "a c a c^-1", "--left", "a,b", "--right", "b,c"],
        ["hnn-decompose", "--graph", graphs["path3"], "a c^2 b c^-1 a", "--pivot", "c"],
        ["magnus-separate", "--graph", graphs["discrete2"], "a b a^-1 b^-1", "b a b^-1 a^-1"],
        ["magnus-separate", "--graph", graphs["discrete2"], "a b", "b a", "--max-degree", "3"],
        ["lie-dims", "--graph", graphs["discrete2"], "--max-degree", "4"],
        ["center", "--graph", graphs["path3"]],
        ["pgroup-witness", "-p", "2", "-n", "2", "-r", "1", "-s", "1"],
    ]
    out = fresh_python(
        "import sys\nfrom raag.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    # every command exits 0 but the second magnus-separate: a b and b a are
    # conjugate, so no level separates them and it exits 2
    assert out.splitlines()[-1] == f"{[0] * 8 + [2] + [0] * 3} False"
    out = fresh_python(
        MAGNUS_P3 + "import sys; print('numpy' in sys.modules, sorted(res.unit.coeffs.items()))"
    )
    here = {}
    exec(MAGNUS_P3, here)
    assert out == f"False {sorted(here['res'].unit.coeffs.items())}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("magnus-separate", "a b", "b a", "--max-degree", "0"),
        ("magnus-separate", "a b", "b a", "-m", "0"),
    ],
    ids=["separate-degree", "separate-precision"],
)
def test_empty_level_grid_exits_one(graphs, capsys, argv):
    code, out, err = run(capsys, argv[0], "--graph", graphs["discrete2"], *argv[1:])
    assert (code, out) == (1, "") and "error: need" in err


def test_magnus_separate_huge_degree_exits_one(graphs, capsys, monkeypatch):
    # [[[[a, b], c], d], e] against 1 separates at no degree below 5, so it
    # would try every degree up to 40; on five free letters the basis passes
    # the bound at degree 5 (3906 monomials), which ends the scan before that
    # basis is built
    from raag import nilpotent
    from raag.graphs import Graph
    from raag.words import parse

    free5 = Graph(list("abcde"))
    word = parse(free5, "a")
    for name in "bcde":
        y = parse(free5, name)
        word = word * y * word.inverse() * y.inverse()

    # the basis size after each degree step the Magnus tests complete
    sizes = []
    grow = nilpotent.TraceAlgebra.grow

    def recorded(algebra):
        grow(algebra)
        sizes.append(len(algebra.basis))

    monkeypatch.setattr(nilpotent.TraceAlgebra, "grow", recorded)
    code, out, err = run(
        capsys, "magnus-separate", "--graph", graphs["discrete5"], str(word), "1",
        "--max-degree", "40",
    )
    assert (code, out) == (1, "") and "error: more than" in err
    assert "not conjugate (identity)" in err
    assert max(sizes) == 781


def test_magnus_separate_conjugate_pair_exits_two_at_any_degree(graphs, capsys):
    # conjugacy is decided before the level grid, so the bound that a
    # non-conjugate pair meets at degree 5 is never reached
    code, out, err = run(
        capsys, "magnus-separate", "--graph", graphs["discrete5"], "a b", "b a",
        "--max-degree", "40",
    )
    assert (code, out, err) == (2, "NOT SEPARATED (d <= 40, m <= 2)\n", "")


def test_oversized_exponent_exits_one(graphs, capsys):
    from raag.words import MAX_WORD_LENGTH

    code, out, err = run(
        capsys, "normal-form", "--graph", graphs["path3"], f"a^{MAX_WORD_LENGTH + 1}"
    )
    assert (code, out) == (1, "") and "error: word expands to more than" in err


# a seeded G(8, 1/2), the half8 of test_conjugacy, spelled out
HALF8 = {
    "vertices": [f"v{i}" for i in range(8)],
    "edges": [
        ["v0", "v1"], ["v0", "v3"], ["v0", "v5"], ["v0", "v6"], ["v1", "v2"],
        ["v1", "v4"], ["v1", "v5"], ["v1", "v6"], ["v1", "v7"], ["v2", "v4"],
        ["v2", "v5"], ["v2", "v6"], ["v2", "v7"], ["v3", "v4"], ["v3", "v6"],
        ["v3", "v7"], ["v4", "v5"], ["v4", "v7"], ["v5", "v7"],
    ],
}


def test_double_coset_long_factor_member(tmp_path, capsys):
    # the core-conjugacy reduction gave up on this member and exited 2
    path = tmp_path / "half8.json"
    path.write_text(json.dumps(HALF8))
    code, out, _ = run(
        capsys, "double-coset", "--graph", str(path),
        "v7^-1 v6^-1 v7^-1 v0^2 v2 v3^-1 v5^-1 v3 v6^-1",
        "v7^-1 v0^-1 v7^-2 v6 v5^-1 v7 v0^-1 v7^-1 v6^-1 v7^-1 v0^2 v2 v0^-1 "
        "v3^-1 v5^-1 v3 v2^-1 v6",
        "--left", "v0,v5,v6,v7", "--right", "v0,v2,v6,v7",
    )
    assert code == 0
    assert out == "MEMBER: left = v7^-1 v0^-1 v7^-2 v6 v5^-1 v7 v0^-1, right = v0^-1 v2^-1 v6^2\n"


def test_conjugate_under_half8_pin(tmp_path, capsys):
    # the HNN route's coset sweep gave up on this pair and exited 2
    path = tmp_path / "half8.json"
    path.write_text(json.dumps(HALF8))
    code, out, _ = run(
        capsys, "conjugate-under", "--graph", str(path),
        "v3", "v0 v2^-1 v3 v2 v0^-1", "--subgroup", "v2,v6",
    )
    assert (code, out) == (0, "NOT CONJUGATE (double-coset)\n")


def test_search_bound_is_gone(graphs, capsys):
    code, out, err = run(
        capsys, "conjugate-under", "--graph", graphs["discrete2"],
        "a", "a", "--subgroup", "a", "--search-bound", "5",
    )
    assert (code, out) == (1, "") and "error:" in err


def test_graph_name_that_words_cannot_carry_exits_one(tmp_path, capsys):
    # a vertex named "a^-1" would print as the inverse of a
    path = tmp_path / "caret.json"
    path.write_text(json.dumps({"vertices": ["a", "a^-1"], "edges": [["a", "a^-1"]]}))
    code, out, err = run(capsys, "centralizer", "--graph", str(path), "a")
    assert (code, out) == (1, "") and "error: cannot load graph: vertex names must be" in err


def test_graph_vertex_named_one_exits_one(tmp_path, capsys):
    # the identity witness of `conjugate a a`, printed "1", would read back
    # as the vertex
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"vertices": ["1", "a"], "edges": []}))
    code, out, err = run(capsys, "conjugate", "--graph", str(path), "a", "a")
    assert (code, out) == (1, "") and "error: cannot load graph: vertex name '1'" in err


def test_output_is_stable(graphs, capsys):
    args = ("conjugate", "--graph", graphs["path3"], "a b c", "c b a")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_usage_errors_exit_one(graphs, capsys):
    code, _, err = run(capsys, "conjugate", "--graph", graphs["discrete2"], "a b")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "normal-form", "--graph", graphs["discrete2"], "q")
    assert code == 1 and "unknown generator" in err
    code, _, err = run(
        capsys, "pgroup-witness", "-p", "4", "-n", "2", "-r", "1", "-s", "1"
    )
    assert code == 1 and "not prime" in err
    code, _, err = run(
        capsys, "centralizer", "--graph", graphs["discrete2"] + ".missing", "a"
    )
    assert code == 1 and "cannot load graph" in err
    code, _, err = run(
        capsys, "conjugate-under", "--graph", graphs["discrete2"],
        "a", "a", "--subgroup", "z",
    )
    assert code == 1 and "unknown vertex" in err


def test_malformed_graph_file(tmp_path, capsys):
    texts = [
        "{not json",
        # names that are not strings are bad input, not a TypeError
        '{"vertices": [["a"], "b"]}',
        '{"vertices": ["a", "b"], "edges": [["a", ["b"]]]}',
    ]
    bad = tmp_path / "bad.json"
    for text in texts:
        bad.write_text(text)
        code, out, err = run(capsys, "normal-form", "--graph", str(bad), "a")
        assert (code, out) == (1, "") and "error: cannot load graph: " in err, text


def test_two_letter_string_is_not_an_edge(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "b"], "edges": ["ab"]}')
    code, out, err = run(capsys, "equal", "--graph", str(bad), "a b", "b a")
    assert (code, out) == (1, "") and "error: cannot load graph: edge 'ab' is not a pair" in err


def test_failed_witness_escapes_the_error_path(graphs, monkeypatch):
    # bad input exits 1; a conjugator that fails its check is a bug, and
    # must not be reported as an input error
    from raag import conjugacy
    from raag.graphs import load_graph
    from raag.words import parse

    wrong = parse(load_graph(graphs["discrete2"]), "a^5")
    monkeypatch.setattr(conjugacy, "_factor_conjugator", lambda u, v: wrong)
    with pytest.raises(AssertionError, match="failed verification"):
        main(["conjugate", "--graph", graphs["discrete2"], "a b", "b a"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("conjugate-under", "a", "a", "--subgroup", "z"), "error: unknown vertex 'z'\n"),
        (("conjugate-under", "a", "a", "--subgroup", "a,,z"), "error: unknown vertex 'z'\n"),
        (("double-coset", "a", "a", "--left", "a,q", "--right", "b"), "error: unknown vertex 'q'\n"),
        (("hnn-decompose", "a", "--pivot", "z"), "error: unknown vertex 'z'\n"),
        # the pivot is looked up before the word is parsed
        (("hnn-decompose", "q", "--pivot", "z"), "error: unknown vertex 'z'\n"),
        (("magnus-separate", "a", "b", "-p", "4"), "error: p = 4 is not prime\n"),
        # past the bound Miller-Rabin on 2..41 is not exact
        (
            ("magnus-separate", "a", "b", "-p", str(PRIME_BOUND + 2)),
            f"error: p = {PRIME_BOUND + 2} is too large: primality is decided only below {PRIME_BOUND}\n",
        ),
    ],
    ids=[
        "subgroup", "subgroup-list", "coset-side", "pivot", "pivot-first", "non-prime",
        "prime-past-bound",
    ],
)
def test_input_error_text(graphs, capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--graph", graphs["discrete2"], *argv[1:])
    assert (code, out, err) == (1, "", message)


def test_magnus_separate_large_prime(graphs, capsys):
    # the prime is checked once per grid level, so the check must be cheap
    # for a 61-bit prime
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "magnus-separate", "--graph", graphs["discrete2"],
        "a b a^-1 b^-1", "b a b^-1 a^-1", "-p", str(2**61 - 1),
    )
    assert code == 0 and out.startswith("SEPARATED AT ")
    assert time.perf_counter() - start < 2


HELP_COMMANDS = (
    "normal-form", "equal", "conjugate", "conjugate-under", "centralizer",
    "double-coset", "hnn-decompose", "magnus-separate", "lie-dims", "center",
    "pgroup-witness",
)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse lays out help differently in other Python versions",
)
def test_help_text_is_pinned(monkeypatch, capsys):
    # the whole command-line interface, as `--help` shows it; cli_help.txt
    # holds each help text after its `$ raag` line. argparse wraps to the
    # terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in [("--help",)] + [(cmd, "--help") for cmd in HELP_COMMANDS]:
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.err) == (0, ""), argv
        parts.append(f"$ raag {' '.join(argv)}\n{captured.out}")
    assert "".join(parts) == Path(__file__).with_name("cli_help.txt").read_text()
