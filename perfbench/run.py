#!/usr/bin/env python3
"""Time to a correct verdict for ssmverify.

    python3 perfbench/run.py --workload ltl_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the library is imported from its
``src`` directory and from nowhere else.  One process, one instance at a
time: a closed loop with one client.  Every command goes through
``ssmverify.cli.run(argv)`` in process, so interpreter start-up is not timed.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ltl_cli``: ``compile ltl`` then ``sat fixed --arith fx:6:3`` per formula;
* ``ltl_deep``: ``sat fixed --arith fx:6:3`` on models compiled in set-up;
* ``bounded_exact``: ``sat bounded --max-len n`` (exact) on Minsky machines
  and 0-1 integer programs compiled in set-up.

With ``--trace 0`` the run reports the end-to-end metrics, its times read
on the reference-host clock of ``refclock.py`` (wall-clock figures are
printed beside them as a diagnostic); with
``--trace 1`` it runs each instance untraced and then replays it traced
(``replay.py``) and reports the per-layer metrics.  Every verdict passes the
gate in ``gate.py`` outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Exit status: 0 when every verdict is right, 1 when the gate finds a wrong
verdict or witness, 2 when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import corpus
import gate
import refclock
import replay

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "work"
WORKLOADS = tuple(corpus.GENERATORS)
# Instances a second at the commit that defined this benchmark, on a 2-core
# x86-64 host under CPython 3.11; a run draws max(MIN_INSTANCES, seconds *
# rate) instances, so a run lasts about --seconds there.
RATE = {"ltl_cli": 5.0, "ltl_deep": 3.0, "bounded_exact": 5.0}
MIN_INSTANCES = 100
# Set-up runs at least SETUP_REPEATS times, and again while the set-ups so
# far took under SETUP_MIN_S, so a short set-up is timed often enough.
SETUP_REPEATS = 2
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
# A guard only: every instance is decided far below it at the defining
# commit, so reaching it means the search regressed.
STATE_GUARD = "50000"
MODULES = ("arithmetic", "errors", "fnn", "ssm", "ltl", "compilers",
           "modelfile", "solvers", "words", "cli")


class LibraryMissing(Exception):
    pass


def import_library() -> SimpleNamespace:
    """(Re-)import ssmverify from the checkout's ``src``, dropping any copy
    already imported, so that each set-up repetition pays for the import."""
    package = ROOT / "src" / "ssmverify"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no ssmverify package under {ROOT / 'src'}")
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "ssmverify" or m.startswith("ssmverify.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"ssmverify.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"ssmverify was imported from {lib.cli.__file__}")
    return lib


def fraction_loop_ms() -> float:
    """Ten probes' worth of the reference clock's Fraction loop in one go: a
    gauge of the host's speed at the start and end of the run."""
    return refclock.probe(10 * refclock.PROBE_ITERATIONS) * 1e3


def paths(work: Path, index: int, inst) -> tuple[str, str]:
    suffix = {"ltl": "txt", "minsky": "mm", "ilp": "ilp"}[inst.kind]
    return str(work / f"m{index}.ssm"), str(work / f"s{index}.{suffix}")


def compile_argv(inst, model: str, source: str) -> list[str]:
    return ["compile", inst.kind, inst.source if inst.kind == "ltl" else source, "-o", model]


def sat_argv(inst, model: str) -> list[str]:
    if inst.kind == "ltl":
        return ["sat", "fixed", model, "--arith", replay.FX, "--threads", "1"]
    return ["sat", "bounded", model, "--max-len", str(inst.max_len)]


def set_up(workload: str, seed: int, count: int, work: Path):
    """Import, generate the corpus and, except on ltl_cli, compile it to
    model files with the CLI."""
    lib = import_library()
    instances = corpus.generate(workload, seed, count)
    if workload != "ltl_cli":
        for i, inst in enumerate(instances):
            model, source = paths(work, i, inst)
            if inst.kind != "ltl":
                with open(source, "w") as fh:
                    fh.write(inst.source)
            status, report = lib.cli.run(compile_argv(inst, model, source))
            if status != 0:
                raise RuntimeError(f"set-up compile of instance {i} failed: {report}")
    return lib, instances


def timed_commands(lib, workload: str, index: int, inst, work: Path) -> dict:
    """Run one instance's commands; returns its exit status, last report,
    wall seconds and the seconds of each command."""
    model, source = paths(work, index, inst)
    argvs = [sat_argv(inst, model)]
    if workload == "ltl_cli":
        argvs.insert(0, compile_argv(inst, model, source))
    clock = time.perf_counter
    start = clock()
    per_command = {}
    status, report, error = None, None, None
    try:
        for argv in argvs:
            began = clock()
            status, report = lib.cli.run(argv)
            json.dumps(report)
            per_command[argv[0]] = clock() - began
            if status != 0 and argv[0] == "compile":
                break
    except Exception:  # an exception leaves the instance undecided; the run goes on
        error = traceback.format_exc(limit=3)
    return {"status": status, "report": report, "seconds": clock() - start,
            "commands": per_command, "error": error}


def judge(lib, instances, results, work: Path) -> tuple[int, list[str]]:
    """Run the verdict gate; returns the number decided and the problems."""
    decided, problems = 0, []
    for i, (inst, res) in enumerate(zip(instances, results)):
        if res["error"] or res["status"] not in (0, 1) or res["report"]["command"] != "sat":
            continue
        # only a witness needs the model, for evaluate_layerwise
        model = lib.modelfile.load_model(paths(work, i, inst)[0]) if res["status"] == 0 else None
        mode = lib.arithmetic.ArithMode.parse(replay.FX if inst.kind == "ltl" else "exact")
        found = gate.check(lib, inst, res["status"], res["report"]["result"], model, mode)
        problems += [f"instance {i} ({inst.source.strip()!r}): {p}" for p in found]
        decided += not found
    return decided, problems


def end_to_end(spans: list[tuple[float, float]], decided: int, setups, rss_mb: float,
               clock: int = 1) -> dict:
    """The end-to-end metrics from (wall, reference-host) seconds per
    instance and per set-up; ``clock`` picks which of the two."""
    times = [span[clock] for span in spans]
    return {
        "instances_per_s": (decided / sum(times), "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "decided_share": (decided / len(spans), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "setup_s": (statistics.median(s[clock] for s in setups), "s"),
    }


def timed(args, count: int, work: Path):
    """Set up at least SETUP_REPEATS times, then run every instance once,
    all on a reference-host clock.  Returns the library, the instances,
    their results and the (wall, reference-host) seconds of each set-up and
    each instance."""
    setups, spans, results = [], [], []
    with refclock.RefClock() as clock:
        while not setups or len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_REPEATS or sum(s[0] for s in setups) < SETUP_MIN_S):
            w0, r0 = clock.read()
            lib, instances = set_up(args.workload, args.seed, count, work)
            w1, r1 = clock.read()
            setups.append((w1 - w0, r1 - r0))
        for i, inst in enumerate(instances):
            w0, r0 = clock.read()
            results.append(timed_commands(lib, args.workload, i, inst, work))
            w1, r1 = clock.read()
            spans.append((w1 - w0, r1 - r0))
    return lib, instances, results, setups, spans, clock.probes


def traced(lib, workload: str, seed: int, instances, work: Path):
    """Run every instance untraced and replay it traced, alternating which
    goes first; then walk every model in both arithmetic modes."""
    tr = replay.Tracer()
    results, records = [], []
    for i, inst in enumerate(instances):
        model, source = paths(work, i, inst)
        # alternate which side runs first, so warm caches favour neither
        if i % 2:
            record = replay.trace_instance(lib, tr, i, inst, model, source, workload == "ltl_cli")
        results.append(timed_commands(lib, workload, i, inst, work))
        if not i % 2:
            record = replay.trace_instance(lib, tr, i, inst, model, source, workload == "ltl_cli")
        record["shape"] = replay.model_shape(lib, record["model"])
        record["kib"] = os.path.getsize(model) / 1024
        record["capped"] = results[-1]["status"] == 3
        records.append(record)
    walks = {}
    for name, mode in (("fx", lib.arithmetic.ArithMode.parse(replay.FX)),
                       ("exact", lib.arithmetic.ArithMode.parse("exact"))):
        totals = {"steps": 0, "step": 0.0, "phi": 0.0, "out": 0.0, "layerwise": 0.0}
        for i, record in enumerate(records):
            w = replay.walk(lib, record["model"], mode, random.Random(f"walk:{seed}:{i}"))
            for key in totals:
                totals[key] += w[key]
        walks[name] = totals
    return tr, results, records, walks


# Per-layer figures that are differences of spans measured from outside.
DERIVED = {"ssm.recurrence_us.fx", "ssm.recurrence_us.exact", "cli.overhead_ms",
           "cli.uncovered_share", "trace.span_cost_share"}
UNUSED_MODE = {"ltl_cli": "exact", "ltl_deep": "exact", "bounded_exact": "fx"}
SETUP_COMPILE = {"ltl.parse_ms", "compilers.compile_ms", "modelfile.save_ms"}


def label(workload: str, name: str) -> str:
    """How a per-layer figure was obtained, where that is not plain."""
    notes = []
    if name in DERIVED or (name == "solvers.search_ms" and workload != "bounded_exact"):
        notes.append("derived")
    if name.endswith("." + UNUSED_MODE[workload]):
        notes.append("mode not used by this workload's commands")
    if workload != "ltl_cli" and name in SETUP_COMPILE:
        notes.append("replay of the set-up compile")
    if workload == "bounded_exact" and name in ("ssm.quant_scan_ms", "ssm.quantized_constants"):
        notes.append("not on this workload's command path")
    if workload == "bounded_exact" and name == "ltl.parse_ms":
        notes.append("no formulas in this workload")
    return f" ({'; '.join(notes)})" if notes else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        statuses = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(statuses)
    count = max(MIN_INSTANCES, round(args.seconds * RATE[args.workload]))
    os.environ["SSMVERIFY_MAX_STATES"] = STATE_GUARD
    os.environ.pop("SSMVERIFY_MAX_MEM_MB", None)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        return run(args, count, work)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            WORK.rmdir()


def run(args, count: int, work: Path) -> int:
    host_start = statistics.median(fraction_loop_ms() for _ in range(3))
    if args.trace:
        lib, instances = set_up(args.workload, args.seed, count, work)
        tr, results, records, walks = traced(lib, args.workload, args.seed, instances, work)
    else:
        lib, instances, results, setups, spans, probes = timed(args, count, work)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload} seed {args.seed} instances {len(instances)} "
          f"digest {corpus.digest(instances)}")
    host_end = statistics.median(fraction_loop_ms() for _ in range(3))
    decided, problems = judge(lib, instances, results, work)
    if args.trace:
        metrics = replay.layer_metrics(tr, records, walks,
                                       [r["commands"] for r in results],
                                       (host_start + host_end) / 2)
    else:
        metrics = end_to_end(spans, decided, setups, rss_mb)
        wall = end_to_end(spans, decided, setups, rss_mb, clock=0)
    failed = len(instances) - decided
    print(f"host Fraction loop: {host_start:.2f} ms at start, {host_end:.2f} ms at end "
          "(diagnostic of host speed, not a metric)")
    print(f"verdict gate: {len(instances)} instances, {decided} decided, {failed} undecided, "
          f"{len(problems)} wrong verdicts or invalid witnesses; the LTL check is partial "
          f"(shorter models searched up to length {gate.LTL_SHORTER_CHECK})")
    for problem in problems[:20]:
        print(f"  {problem}")
    for res in results:
        if res["error"]:
            print(f"  exception: {res['error']}")
    if not args.trace:
        print(f"samples: {len(results)} instances; setup_s is the median of {len(setups)} set-ups")
        low, mid, high = (statistics.quantiles(probes, n=10)[i] * 1e3 for i in (0, 4, 8))
        print(f"host-speed probe: {len(probes)} probes, p10 {low:.3f} ms, median {mid:.3f} ms, "
              f"p90 {high:.3f} ms; times below are in reference-host seconds, where the probe "
              f"takes {refclock.REFERENCE_PROBE_S * 1e3:g} ms")
        print("wall-clock figures (diagnostic, not metrics): " + ", ".join(
            f"{name} = {value:.6g} {unit}" for name, (value, unit) in wall.items()
            if unit in ("s", "1/s")))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}{label(args.workload, name) if args.trace else ''}")
    if args.trace:
        ratio = metrics["trace.ips_ratio"][0]
        print(f"tracing overhead: traced instances_per_s is {ratio:.3f} x untraced "
              f"(the replay leaves out the CLI's own argument parsing, scan and report); "
              f"{len(tr.spans)} spans recorded, their bookkeeping an estimated "
              f"{metrics['trace.span_cost_share'][0]:.2%} of traced time")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(instances),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
