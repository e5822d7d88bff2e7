"""Run every workload and print every metric by name with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace] [--out FILE]

Runs bench/run.py once per workload, each in its own process and one
after the other, then bench/defects.py, and prints:

- the machine record: nproc, CPU model, Python and numpy versions, the
  seed and the git commit;
- per workload, the end-to-end metrics and error_ratio (failed queries
  over attempted ones);
- with --trace, the per-layer metrics of one traced run per workload;
- the known-defect probes, with their error_ratio.

Exits 1 when a run fails to run, prints no result, or reports a failed
check. --out also writes everything as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import fixtures

WORKLOADS = ("words_long", "conjugacy_mix", "separation", "cli_oneshot")


def machine(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip() or "missing"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=fixtures.ROOT).stdout.strip() or "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy, "seed": seed, "commit": commit}


def run_json(args):
    """Last stdout line of a bench script as JSON, or None if it did not run."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=fixtures.ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, proc.stdout
    try:
        return json.loads(lines[-1]), proc.stdout
    except json.JSONDecodeError:
        return None, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {"machine": machine(args.seed), "workloads": {}}
    for key, val in record["machine"].items():
        print(f"{key}: {val}")
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            res, _ = run_json(["bench/run.py", "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(trace)])
            title = f"{name}{' (traced)' if trace else ''}"
            if res is None:
                print(f"\n{title}: did not run")
                ok = False
                continue
            ok = ok and res["correct"]
            print(f"\n{title}: {res['attempted']} queries, {res['failed']} failed, correct={res['correct']}")
            metrics = dict(res["metrics"])
            if not trace:
                metrics["error_ratio"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
            for metric, m in metrics.items():
                print(f"  {metric:55s} {m['value']:>14.6g} {m['unit']}")
            record["workloads"][title] = res
    res, text = run_json(["bench/defects.py"])
    print("\nknown defects (outside the timed workloads):")
    print(text.rstrip())
    if res is None:
        ok = False
    record["defects"] = res
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
