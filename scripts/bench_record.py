#!/usr/bin/env python3
"""Record the benchmark of one or more source checkouts in ``BENCH_<label>.json``.

    python3 scripts/bench_record.py .                       # this checkout
    python3 scripts/bench_record.py old=../parent new=.     # two, alternating
    python3 scripts/bench_record.py --runs 3 --workload bounded_exact .

Each checkout is a directory holding ``perfbench/run.py`` and ``src/``,
given as ``PATH`` (labelled by its short commit) or ``LABEL=PATH``.  For
each round, workload and checkout in turn, the script runs that
checkout's own ``perfbench/run.py --workload W --seed S --seconds 10
--trace 0`` in a child process: every record is made with runs of the same
length, on every checkout alike.  Runs alternate between checkouts, which
go first in turn, so a slow phase of a shared host falls on each of them
alike.  From each run it reads the last line of standard output (one JSON
object: correct, attempted, failed and the end-to-end metrics), the corpus
digest and the median of the host-speed probe.

Per workload, ``BENCH_<label>.json`` holds the median, the [min, max]
range and the per-run values, in run order, of each end-to-end metric,
its unit, the seed, the digest, the median of the runs' probe medians,
whether every run was correct, and the commit (``git rev-parse HEAD``,
``+dirty`` where the checkout has uncommitted changes).

Given two checkouts, the script also prints, per workload and end-to-end
metric of ``BENCHMARK.json``, how many of the rounds' pairs of runs the
second checkout won, by the metric's direction there, and the first
checkout's interquartile range.  A tie counts for neither side.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ltl_cli", "ltl_deep", "bounded_exact")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SECONDS = 10  # the length of each run
_DIGEST = re.compile(r"\bdigest ([0-9a-f]+)")
_PROBE = re.compile(r"^host-speed probe: .*\bmedian ([0-9.]+) ms", re.M)


def parse_run(stdout: str) -> dict:
    """The record of one run of ``perfbench/run.py --trace 0`` from its
    standard output: its last JSON line, its digest and its probe median in
    ms (None where the run printed no probe)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    record = json.loads(lines[-1])
    digest = _DIGEST.search(stdout)
    probe = _PROBE.search(stdout)
    record["digest"] = digest[1] if digest else None
    record["probe_ms"] = float(probe[1]) if probe else None
    return record


def aggregate(runs: list[dict], seed: int, commit: str) -> dict:
    """One workload's entry of a record from the parsed runs: per metric its
    median, [min, max], unit and values in run order."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"median": statistics.median(values), "range": [min(values), max(values)],
                         "unit": first["unit"], "values": values}
    digests = sorted({run["digest"] for run in runs}, key=str)
    probes = [run["probe_ms"] for run in runs if run["probe_ms"] is not None]
    return {
        "commit": commit,
        "seed": seed,
        "runs": len(runs),
        "digest": digests[0] if len(digests) == 1 else digests,
        "correct": all(run["correct"] for run in runs),
        "failed": max(run["failed"] for run in runs),
        "probe_ms_median": statistics.median(probes) if probes else None,
        "metrics": metrics,
    }


def pairs_won(first: dict, second: dict, better: dict[str, str]) -> dict:
    """For each metric named in ``better`` (its name -> "higher" or "lower")
    of two ``aggregate`` entries of one workload, whose runs pair by round:
    (pairs the second entry won, pairs, the first entry's interquartile
    range).  A tie counts for neither side.  The quartiles are
    ``statistics.quantiles``' inclusive ones; one run has a range of 0."""
    out = {}
    for name, direction in better.items():
        old, new = first["metrics"][name]["values"], second["metrics"][name]["values"]
        sign = 1 if direction == "higher" else -1
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else (0,) * 3
        out[name] = sum(sign * (b - a) > 0 for a, b in zip(old, new)), len(old), q3 - q1
    return out


def commit_of(root: Path) -> str:
    """The checkout's commit, marked ``+dirty`` where it has uncommitted
    changes, or ``unknown`` outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def checkouts(specs: list[str]) -> list[tuple[str, Path]]:
    out = []
    for spec in specs:
        label, _, path = spec.rpartition("=")
        root = Path(path).resolve()
        if not (root / "perfbench" / "run.py").is_file():
            raise SystemExit(f"bench_record: {root} has no perfbench/run.py")
        out.append((label or commit_of(root)[:7], root))
    if len({label for label, _ in out}) != len(out):
        raise SystemExit("bench_record: two checkouts share a label; name them LABEL=PATH")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="+", help="PATH or LABEL=PATH of a source checkout")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload (default 5)")
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run, repeatable (default: all)")
    parser.add_argument("--out", type=Path, default=Path.cwd(),
                        help="directory of the BENCH_<label>.json files (default: here)")
    args = parser.parse_args(argv)
    trees = checkouts(args.checkout)
    workloads = args.workload or WORKLOADS
    runs = {(label, w): [] for label, _ in trees for w in workloads}
    for round_ in range(args.runs):
        for workload in workloads:
            for label, root in trees if round_ % 2 == 0 else trees[::-1]:
                record = run_once(root, workload, args.seed)
                runs[label, workload].append(record)
                print(f"round {round_ + 1}/{args.runs} {label} {workload}: "
                      f"p50 {record['metrics']['verdict_s.p50']['value'] * 1e3:.3f} ms, "
                      f"probe {record['probe_ms']} ms", file=sys.stderr)
    bodies = []
    for label, root in trees:
        commit = commit_of(root)
        bodies.append({w: aggregate(runs[label, w], args.seed, commit) for w in workloads})
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(bodies[-1], indent=2, sort_keys=True) + "\n")
        print(path)
    if len(trees) == 2:
        better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
        (old, _), (new, _) = trees
        for w in workloads:
            for name, (won, pairs, iqr) in pairs_won(bodies[0][w], bodies[1][w], better).items():
                unit = bodies[0][w]["metrics"][name]["unit"]
                print(f"{w} {name}: {new} won {won} of {pairs} pairs; {old} IQR {iqr:.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
