"""Run one workload of the raag benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src. One
client drives the load in a closed loop: each query starts when the
previous one has finished and been checked. There are no threads, and
numpy/BLAS are pinned to one thread.

A run builds the workload and draws its warm-up round (set-up, repeated
and timed), runs the checker's self-test, runs the warm-up round, then
runs rounds 1, 2, ... until --seconds of wall time have passed; each round
is drawn fresh from the seed and its index just before it runs. Each
query's latency is the time of its library call (or its `raag` process)
alone; drawing inputs and checking answers run outside that time. The
end-to-end figures are taken over every measured query. Every time
reported is scaled to a reference machine speed by the speed probe in
probe.py, which keeps run-to-run spread low on a shared machine; the
unscaled figures are printed too, on lines of their own.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same rounds
untraced for half of --seconds, then the same rounds again with spans
installed (tracer.py), then the direct per-layer timings (layers.py), and
prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run completed,
whatever its checks found, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Record:
    kind: str
    stratum: str
    verdict: bool | None
    start: float = 0.0
    end: float = 0.0
    latency: float = 0.0  # scaled seconds
    decided: bool = False
    error: str | None = None


class Runner:
    def __init__(self, workload, probe):
        self.workload = workload
        self.probe = probe
        self.records = []  # every query run, warm-up included
        self.summaries = []  # span summaries from traced `raag` processes

    def execute(self, q, traced=False):
        from clitrace import MARKER
        from reference import CheckFailed

        rec = Record(q.kind, q.stratum, q.verdict)
        if self.probe.due():
            self.probe.sample()
        rec.start = time.perf_counter()
        try:
            res = q.call(traced=True) if traced else q.call()
        except Exception as exc:  # a raising query is a failed query; the run goes on
            rec.end = time.perf_counter()
            rec.error = f"{q.kind} {q.stratum}: raised {type(exc).__name__}: {exc}"
        else:
            rec.end = time.perf_counter()
            if rec.end - rec.start >= self.probe.every:
                self.probe.sample()
            if traced:
                code, out, err = res
                lines = err.splitlines()
                if lines and lines[-1].startswith(MARKER):
                    self.summaries.append(json.loads(lines[-1][len(MARKER):]))
                    err = "\n".join(lines[:-1])
                res = code, out, err
            try:
                rec.decided = bool(q.check(res))
            except CheckFailed as exc:
                rec.error = f"{q.kind} {q.stratum}: {exc}"
        self.records.append(rec)
        return rec

    def warm_up(self):
        for q in self.workload.warmup or self.workload.round(0):
            self.execute(q)

    def measure(self, seconds=None, plan=None, traced=False):
        """Rounds 1, 2, ..., each drawn just before it runs, until `seconds`
        of wall time have passed; or the rounds of queries in `plan`."""
        out = []
        start = time.perf_counter()
        for queries in plan if plan is not None else map(self.workload.round, itertools.count(1)):
            out.append([self.execute(q, traced) for q in queries])
            if plan is None and time.perf_counter() - start >= seconds:
                break
        self.probe.sample()
        for rec in (r for rnd in out for r in rnd):
            rec.latency = (rec.end - rec.start) * self.probe.factor(rec.start, rec.end)
        return out


def end_to_end(recs, latency, setup_s, peak_rss_mb):
    """The end-to-end metrics over every measured query; `latency` maps a
    record to its time in seconds."""
    lat = [latency(r) * 1e3 for r in recs]
    pos = [latency(r) * 1e3 for r in recs if r.verdict is True]
    neg = [latency(r) * 1e3 for r in recs if r.verdict is False]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(lat) / sum(lat) * 1e3, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "positive_p50_ms": (statistics.median(pos), "ms"),
        "negative_p50_ms": (statistics.median(neg), "ms"),
        "decided_ratio": (sum(r.decided for r in recs) / len(recs), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def unit_of(name):
    for marker, unit in (("_ms", "ms"), ("_us", "us"), ("_ns_", "ns"), (".s.", "s"),
                         ("exponent", "1"), ("speedup", "x"), ("share", "ratio"), ("ratio", "ratio")):
        if marker in name:
            return unit
    return "count"


def per_layer(runner, seed, seconds):
    import layers
    from tracer import Tracer, layer_metrics, merge

    untraced = runner.measure(seconds=seconds / 2)
    # the same rounds again, drawn before the spans go in: drawing builds
    # elements too, and that work is no query's
    plan = [runner.workload.round(i) for i in range(1, len(untraced) + 1)]
    tracer = None if runner.workload.subprocess else Tracer().install()
    try:
        traced = runner.measure(plan=plan, traced=runner.workload.subprocess)
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = merge(runner.summaries) if tracer is None else tracer.summary()
    recs = [r for rnd in traced for r in rnd]
    # spans time raw seconds, so their shares are of the raw query time
    out = layer_metrics(summary, len(recs), sum(r.end - r.start for r in recs))
    t_plain = sum(r.latency for rnd in untraced for r in rnd)
    out["trace.overhead_ratio"] = sum(r.latency for r in recs) / t_plain - 1.0
    undecided = [r for r in recs if not r.decided and r.error is None]
    out["conjugacy.inconclusive_count"] = sum(r.kind in ("conjugate", "conjugate_under") for r in undecided)
    out["conjugacy.centralizer.partial_count"] = sum(r.kind == "centralizer" for r in undecided)
    timings, problems = layers.measure(runner.probe, seed)
    out.update(timings)
    return {name: (value, unit_of(name)) for name, value in sorted(out.items())}, problems


def import_seconds(probe):
    """Median time of `import raag.cli` (every module, numpy included) in
    fresh interpreters, each scaled by the probe taken after it."""
    code = "import time; t = time.perf_counter(); import raag.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        probe.sample()
        now = time.perf_counter()
        times.append(float(proc.stdout) * probe.factor(now, now))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "raag" / "__init__.py").is_file():
        print(f"error: no raag source tree at {SRC}", file=sys.stderr)
        return 1
    for var in ONE_THREAD:
        os.environ[var] = "1"
    # one core for this process and its children, so each query runs on the
    # core the speed probes around it measured
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from probe import SpeedProbe

    probe = SpeedProbe()
    import_s = import_seconds(probe)
    import raag.cli  # noqa: F401  every module, numpy included
    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    build = workloads.WORKLOADS[args.workload]

    def set_up():  # graphs, tables, the checker's data, and round 0's inputs
        workload = build(args.seed)
        workload.round(0)
        return workload

    times = []
    for _ in range(SETUP_REPEATS):
        t, workload = probe.timed(set_up)
        times.append(t)
    setup_s = import_s + statistics.median(times)

    problems = selftest.run()
    if problems:
        for p in problems:
            print(f"error: checker self-test: {p}", file=sys.stderr)
        return 1

    runner = Runner(workload, probe)
    runner.warm_up()
    layer_errors = []
    if args.trace:
        metrics, problems = per_layer(runner, args.seed, args.seconds)
        layer_errors = [f"per-layer timing: {p}" for p in problems]
    else:
        recs = [r for rnd in runner.measure(seconds=args.seconds) for r in rnd]
        who = resource.RUSAGE_CHILDREN if workload.subprocess else resource.RUSAGE_SELF
        peak = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(recs, lambda r: r.latency, setup_s, peak)
        raw = end_to_end(recs, lambda r: r.end - r.start, setup_s, peak)
        for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "positive_p50_ms", "negative_p50_ms"):
            print(f"  unscaled {name} = {raw[name][0]:.6g}")

    errors = [r.error for r in runner.records if r.error] + layer_errors
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.records)} queries, "
          f"{len(errors)} failed, {sum(workload.skipped.values())} skipped at generation (verdict not certifiable)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(runner.records),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
