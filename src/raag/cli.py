"""Command-line surface over the whole library.

One subcommand per question, text in and text out, deterministic for fixed
inputs. Exit status is a tri-state: 0 for a decided query, 1 for usage or
input errors (reported on stderr), and 2 when `magnus-separate` finds no
separating level within its degree and precision bounds (always, for a
conjugate pair).
Graphs come from JSON files, words use the same grammar the parser accepts,
and every printed witness is a parseable word that re-verifies.

`main` loads the `--graph` file before the command runs and hands the
command the graph; the commands then call the library directly. Bad input
raises ValueError there, as in the argument parser, the graph load and the
vertex lookups here, and `main` turns it into the message and exit 1; a
failed witness check (AssertionError) is a bug and escapes as a traceback.

Each command compiles only the layers it calls. `graphs` and `words` load
with the package, since every graph command needs them. `conjugacy`,
`cosets`, `hnn`, `nilpotent`, `pgroup` and `_intlinalg` are registered
through `importlib.util.LazyLoader`: `import raag.cli` puts each in
`sys.modules` and on the `raag` package, and its source is compiled and run
when a command first reads one of its attributes. A layer that runs loads
what it imports. So `normal-form` and `equal` load no layer; `conjugate`,
`conjugate-under` and `centralizer` load `conjugacy` and its `cosets`;
`double-coset` loads `cosets`; `hnn-decompose` loads `hnn`; `lie-dims` and
`center` load `nilpotent` and its `_intlinalg`; `magnus-separate` loads
those and, for its conjugacy pre-check, `conjugacy` and `cosets`; and
`pgroup-witness` loads `pgroup`.
The registration is not function-level imports because the benchmark's
tracer (bench/tracer.py) patches every layer it finds in `sys.modules`
right after `import raag.cli`. Once library-owned traces retire that
tracer (ROADMAP item 12), it can become function-level imports. Before
Python 3.12 a lazy module has no lock, so the first read of each layer
must come from one thread; the CLI runs on one.
"""

import argparse
import importlib.util
import sys

from .graphs import load_graph
from .words import parse


def _register(name):
    """raag.<name>, in sys.modules and on the package; a module not yet
    imported is run on the first read of one of its attributes."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


conjugacy, cosets, hnn, nilpotent, pgroup = map(
    _register, ("conjugacy", "cosets", "hnn", "nilpotent", "pgroup")
)
_register("_intlinalg")  # no command reads it, but the tracer looks it up


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; route them to our own exit 1
    def error(self, message):
        raise ValueError(message)


def _vertex(graph, name):
    if name not in graph.index:
        raise ValueError(f"unknown vertex {name!r}")
    return graph.index[name]


def _vertex_set(graph, spec):
    """Parse a comma-separated vertex list into an index set."""
    return frozenset(_vertex(graph, x.strip()) for x in spec.split(",") if x.strip())


def _load(path):
    try:
        return load_graph(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load graph: {exc}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_normal_form(graph, args):
    print(parse(graph, args.word))
    return 0


def _cmd_equal(graph, args):
    left = parse(graph, args.left)
    right = parse(graph, args.right)
    print("EQUAL" if left == right else "NOT EQUAL")
    return 0


def _print_conjugacy(res):
    if isinstance(res, conjugacy.Conjugate):
        print(f"CONJUGATE BY: {res.conjugator}")
    else:
        print(f"NOT CONJUGATE ({res.reason})")
    return 0


def _cmd_conjugate(graph, args):
    g = parse(graph, args.left)
    h = parse(graph, args.right)
    return _print_conjugacy(conjugacy.conjugate(g, h))


def _cmd_conjugate_under(graph, args):
    g = parse(graph, args.left)
    h = parse(graph, args.right)
    verts = _vertex_set(graph, args.subgroup)
    return _print_conjugacy(conjugacy.conjugate_under(g, h, verts))


def _cmd_centralizer(graph, args):
    gens = conjugacy.centralizer(parse(graph, args.word))
    if not gens:
        print("1")
    for x in gens:
        print(x)
    return 0


def _cmd_double_coset(graph, args):
    x = parse(graph, args.x)
    y = parse(graph, args.y)
    left = _vertex_set(graph, args.left)
    right = _vertex_set(graph, args.right)
    res = cosets.in_double_coset(y, x, left, right)
    if isinstance(res, cosets.CosetFactors):
        print(f"MEMBER: left = {res.left}, right = {res.right}")
    else:
        print(f"NOT A MEMBER ({res.reason})")
    return 0


def _cmd_hnn_decompose(graph, args):
    pivot = _vertex(graph, args.pivot)
    w = hnn.decompose(parse(graph, args.word), pivot)
    print(f"head: {w.head}")
    for a, x in w.syllables:
        print(f"t^{a} * {x}")
    return 0


def _cmd_magnus_separate(graph, args):
    g = parse(graph, args.left)
    h = parse(graph, args.right)
    level = nilpotent.find_separating_level(
        g, h, args.prime, max_d=args.max_degree, max_m=args.max_precision
    )
    if level is nilpotent.NOT_FOUND:
        print(f"NOT SEPARATED (d <= {args.max_degree}, m <= {args.max_precision})")
        return 2
    d, m = level
    print(f"SEPARATED AT d={d} m={m}")
    return 0


def _cmd_lie_dims(graph, args):
    dims = nilpotent.lie_graded_dims(graph, args.max_degree)
    print("d: " + " ".join(str(d) for d in dims))
    return 0


def _cmd_center(graph, args):
    central = [graph.vertices[i] for i in graph.center_vertices()]
    print("central vertices: " + (" ".join(central) if central else "(none)"))
    trivial = nilpotent.lie_center_trivial(graph)
    print("lie center trivial in every degree: " + ("YES" if trivial else "NO"))
    return 0


def _cmd_pgroup_witness(_, args):
    params = pgroup.WitnessParams(args.prime, args.n, args.r, args.s)
    if not params.enumerable:
        raise ValueError(f"|B| exceeds {pgroup.ENUMERATION_GUARD}, too large to enumerate")
    group = pgroup.WitnessGroup(params)
    print(f"params: p={params.p} n={params.n} r={params.r} s={params.s}")
    print(f"|A| = {params.order_a}")
    print(f"|B| = {params.order_b}")
    print(f"order(alpha) = {group.alpha_order()}")
    print("relations hold: " + ("YES" if group.verify_relations() else "NO"))
    cls = group.conjugacy_class(group.phi("g"))
    print(f"class(phi_g) size = {len(cls)}")
    member = group.phi("h") in cls
    print("phi_h conjugate to phi_g: " + ("YES" if member else "NO"))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = _Parser(prog="raag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, func, help, *words):
        # a subcommand on a graph: --graph, then its word positionals in order
        p = sub.add_parser(name, help=help)
        p.add_argument("--graph", required=True, help="graph JSON file")
        for word in words:
            p.add_argument(word)
        p.set_defaults(func=func)
        return p

    graph_command("normal-form", _cmd_normal_form, "canonical form of a word", "word")

    graph_command("equal", _cmd_equal, "decide equality of two words", "left", "right")

    graph_command("conjugate", _cmd_conjugate, "decide conjugacy with a witness",
                  "left", "right")

    p = graph_command("conjugate-under", _cmd_conjugate_under,
                      "conjugacy by an element of a special subgroup", "left", "right")
    p.add_argument("--subgroup", required=True,
                   help="comma-separated vertex names")

    graph_command("centralizer", _cmd_centralizer, "generators of a centralizer", "word")

    p = graph_command("double-coset", _cmd_double_coset,
                      "is y in <left> x <right>? prints factors", "x", "y")
    p.add_argument("--left", required=True, help="comma-separated vertex names")
    p.add_argument("--right", required=True, help="comma-separated vertex names")

    p = graph_command("hnn-decompose", _cmd_hnn_decompose,
                      "syllable decomposition along a pivot vertex", "word")
    p.add_argument("--pivot", required=True, help="pivot vertex name")

    p = graph_command("magnus-separate", _cmd_magnus_separate,
                      "scan truncation levels for a separation", "left", "right")
    p.add_argument("-p", dest="prime", type=int, default=2, help="prime")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("-m", "--max-precision", dest="max_precision", type=int,
                   default=2)

    p = graph_command("lie-dims", _cmd_lie_dims, "graded Lie dimensions")
    p.add_argument("--max-degree", type=int, default=5)

    graph_command("center", _cmd_center, "central vertices and Lie center check")

    p = sub.add_parser("pgroup-witness",
                       help="build and check the finite p-group witness")
    p.add_argument("-p", dest="prime", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.set_defaults(func=_cmd_pgroup_witness)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        graph = _load(args.graph) if "graph" in args else None
        return args.func(graph, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
