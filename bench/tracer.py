"""Spans around raag's public entry points, installed from outside.

Tracer.install() replaces module attributes and class methods of every raag
module with wrappers that record a span: its name, its start and end, and
the span that was open when it started (its parent). Spans are folded into
per-name totals when they close (calls, total time, self time, where self
time is the duration minus the time of child spans), so memory stays flat
however long the run. Work counts are attributed to the innermost open
span. Nothing inside src/raag changes; names the library no longer has
are skipped, and their metrics read zero.

A name imported into another module (`from ._intlinalg import
solve_mod_prime_power` in nilpotent, `load_graph` and `parse` in cli) is
patched there too, so the span sees every caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of each wrapped entry point
SPANS = {
    "graphs": ["load_graph", "Graph.full_subgraph"],
    "words": ["Element.__mul__", "Element.cyclic_normal_form", "parse", "gen"],
    "hnn": [
        "decompose", "recompose", "cyclically_reduce", "cyclic_permutations", "prefixes",
        "natural_projection", "centralizer_of_reduced", "centralizer_cyclic",
        "minasyan_conjugate_under",
    ],
    "cosets": [
        "canonical_double_coset_data", "in_double_coset", "intersect_conjugated",
        "coset_intersection_nonempty", "state_from_spec",
        "CentralizerState.constrain_membership", "CentralizerState.generators",
    ],
    "conjugacy": [
        "conjugate", "conjugate_under", "centralizer", "centralizer_in_special",
        "avoid_subgroup", "cayley_ball", "subgroup_ball", "ball_oracle_conjugate",
    ],
    "nilpotent": [
        "magnus_image", "magnus_conjugate_test", "find_separating_level",
        "lie_graded_dims", "lie_center_trivial_upto", "trace_monomials",
    ],
    "_intlinalg": ["solve_left_integer", "solve_right_integer", "solve_mod_prime_power"],
    "pgroup": [
        "WitnessGroup.conjugacy_class", "WitnessGroup.verify_relations",
        "WitnessGroup.alpha_order", "build_witness_group", "phi", "conjugacy_class",
        "verify_relations",
    ],
    "cli": ["main"],
}

LAYERS = ("graphs", "words", "hnn", "cosets", "conjugacy", "_intlinalg", "nilpotent", "pgroup", "cli")


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                st = spans[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _innermost(self):
        return self.stack[-1][0] if self.stack else "-"

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- installation ------------------------------------------------------

    def install(self):
        import raag.cli  # noqa: F401  (loads every module)

        mods = {name: sys.modules[f"raag.{name}"] for name in LAYERS}
        counts = self.counts
        after = {
            "cosets.coset_intersection_nonempty": self._coset_outcome,
            "_intlinalg.solve_mod_prime_power": self._solve_size,
        }
        for layer, paths in SPANS.items():
            for path in paths:
                owner, attr = _resolve(mods[layer], path)
                if owner is None or attr not in owner.__dict__:
                    continue
                orig = owner.__dict__[attr]
                name = f"{layer}.{path}"
                wrapped = self._span(name, orig, after.get(name))
                self._patch(owner, attr, wrapped)
                if owner is mods[layer]:
                    for mod in list(sys.modules.values()):
                        if mod is not owner and getattr(mod, "__name__", "").startswith("raag"):
                            for key, val in list(vars(mod).items()):
                                if val is orig:
                                    self._patch(mod, key, wrapped)

        element = mods["words"].Element
        init = element.__dict__["__init__"]
        mul = element.__dict__["__mul__"]  # already a span; count the caller
        init_span = self._span("words.Element.__init__", init)

        def counted_init(obj, graph, letters=(), canonical=False):
            if not canonical:
                letters = tuple(letters)
                counts["words.canonicalisations"] += 1
                counts["words.letters_piled"] += len(letters)
            return init_span(obj, graph, letters, canonical)

        def counted_mul(a, b):
            counts[f"products@{self._innermost()}"] += 1
            return mul(a, b)

        self._patch(element, "__init__", counted_init)
        self._patch(element, "__mul__", counted_mul)

        nil = mods["nilpotent"]
        for attr, key in (("trace_canonical", "nilpotent.trace_canonical.calls"),
                          ("_canonical", "nilpotent.trace_canonical.misses")):
            if attr in nil.__dict__:
                self._patch(nil, attr, _counter(nil.__dict__[attr], counts, key))

        group = getattr(mods["pgroup"], "WitnessGroup", None)
        if group is not None and "elements" in group.__dict__:
            elements = group.__dict__["elements"]

            def counted_elements(obj):
                for item in elements(obj):
                    counts["pgroup.elements_enumerated"] += 1
                    yield item

            self._patch(group, "elements", counted_elements)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- result hooks ------------------------------------------------------

    def _coset_outcome(self, args, result):
        from raag import cosets

        if result is cosets.INCONCLUSIVE:
            self.counts["cosets.search.inconclusive"] += 1
        elif result is not cosets.EMPTY:
            self.counts["cosets.search.found"] += 1

    def _solve_size(self, args, result):
        rows = len(args[0])
        cols = len(args[0][0]) if rows else 0
        self.counts["_intlinalg.solve_mod_prime_power.unknowns"] += cols
        self.maxima["nilpotent.basis_size"] = max(self.maxima["nilpotent.basis_size"], rows)

    # -- results -----------------------------------------------------------

    def summary(self):
        return {"spans": dict(self.spans), "counts": dict(self.counts), "maxima": dict(self.maxima)}


def _counter(fn, counts, key):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def merge(summaries):
    """Sum span totals and counts over several summaries (one per process)."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    maxima = defaultdict(int)
    for s in summaries:
        for name, (calls, total, own) in s["spans"].items():
            st = spans[name]
            st[0] += calls
            st[1] += total
            st[2] += own
        for key, val in s["counts"].items():
            counts[key] += val
        for key, val in s["maxima"].items():
            maxima[key] = max(maxima[key], val)
    return {"spans": dict(spans), "counts": dict(counts), "maxima": dict(maxima)}


def layer_metrics(summary, ops, traced_seconds):
    """Per-layer metrics from a merged summary.

    `ops` is the number of queries traced and `traced_seconds` their summed
    latency; shares are parts of that time, so they add up to at most 1,
    the rest being time outside every span (the benchmark's dispatch, or a
    process's start-up and imports).
    """
    spans = summary["spans"]
    counts = summary["counts"]
    maxima = summary["maxima"]
    total = traced_seconds or 1.0

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(st[2] for name, st in spans.items() if name.split(".")[0] == layer)

    out = {}
    shares = {layer: layer_self(layer) / total for layer in LAYERS}
    for layer, share in shares.items():
        out[f"{layer.lstrip('_')}.self_share"] = share  # metric names start with a letter
    out["trace.unattributed_share"] = max(0.0, 1.0 - sum(shares.values()))
    s = shares["words"]
    out["words.speedup_bound_3x"] = 1.0 / (1.0 - s + s / 3.0)
    out["words.canonicalisations_per_op"] = counts.get("words.canonicalisations", 0) / ops
    out["words.letters_piled_per_op"] = counts.get("words.letters_piled", 0) / ops
    out["graphs.full_subgraph.calls_per_op"] = calls("graphs.Graph.full_subgraph") / ops
    for fn in ("decompose", "cyclically_reduce", "minasyan_conjugate_under", "centralizer_cyclic"):
        out[f"hnn.{fn}.calls_per_op"] = calls(f"hnn.{fn}") / ops
        out[f"hnn.{fn}.self_share"] = own(f"hnn.{fn}") / total
    search = "cosets.coset_intersection_nonempty"
    n_search = calls(search)
    out[f"{search}.calls_per_op"] = n_search / ops
    out[f"{search}.products_per_call"] = counts.get(f"products@{search}", 0) / max(n_search, 1)
    out[f"{search}.found_ratio"] = counts.get("cosets.search.found", 0) / max(n_search, 1)
    out[f"{search}.inconclusive_ratio"] = counts.get("cosets.search.inconclusive", 0) / max(n_search, 1)
    out["conjugacy.ball_oracle_conjugate.calls"] = calls("conjugacy.ball_oracle_conjugate")
    solve = "_intlinalg.solve_mod_prime_power"
    out["intlinalg.solve_mod_prime_power.share"] = spans.get(solve, (0, 0.0, 0.0))[1] / total
    out["intlinalg.solve_mod_prime_power.unknowns_per_op"] = counts.get(f"{solve}.unknowns", 0) / ops
    out["intlinalg.solve_left_integer.calls_per_op"] = calls("_intlinalg.solve_left_integer") / ops
    out["nilpotent.magnus_image.self_share"] = own("nilpotent.magnus_image") / total
    tc = counts.get("nilpotent.trace_canonical.calls", 0)
    out["nilpotent.trace_canonical.hit_ratio"] = (
        1.0 - counts.get("nilpotent.trace_canonical.misses", 0) / tc if tc else 0.0
    )
    out["nilpotent.basis_size.max"] = maxima.get("nilpotent.basis_size", 0)
    out["pgroup.elements_enumerated_per_op"] = counts.get("pgroup.elements_enumerated", 0) / ops
    return out
