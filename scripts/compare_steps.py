#!/usr/bin/env python3
"""Compare the generated steps of two source checkouts, build by build.

    python3 scripts/compare_steps.py PARENT CHANGE

Each checkout is a directory holding ``src/`` and ``perfbench/corpus.py``.
For each checkout in turn, a child process imports that checkout's own
library and corpus generator, without writing bytecode into it, and
builds the step of every seed-11, 401 and 23 corpus model of the three
workloads (100 models each) under exact, ``fx:6:3``, ``fx:12:3`` and
``fx:4:3``: 3,600 builds.  An exact step starts on the model's first scale,
as a search's does.

The script prints how many step sources are byte-equal, equal once the
locals ``v<n>`` are renumbered by first appearance, or different, then
each side's step lines after the ``def``, summed per workload and mode,
and lists each build whose ``key``, ``dead_rule``, ``init``,
``quantized_constants`` or ``one`` differs.  It exits 1 on any such
difference or on a build that only one checkout made, 2 when a checkout
fails to build, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("ltl_cli", "ltl_deep", "bounded_exact")
SEEDS = (11, 401, 23)
COUNT = 100
MODES = ("exact", "fx:6:3", "fx:12:3", "fx:4:3")
FIELDS = ("key", "dead_rule", "init", "quantized_constants", "one")
_LOCAL = re.compile(r"\bv(\d+)\b")


def dump(root: str) -> None:
    """Print one JSON line per build of ``root``'s checkout: the build's
    workload, seed, index and mode, its rendered source and the ``repr``
    of each of ``FIELDS``."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import corpus
    from ssmverify import ltl
    from ssmverify.arithmetic import ArithMode
    from ssmverify.compilers import (
        compile_ilp, compile_ltl, compile_minsky, parse_ilp, parse_minsky,
    )
    from ssmverify.ssm import _render, _stepper

    compilers = {"ltl": lambda text: compile_ltl(ltl.parse(text)),
                 "minsky": lambda text: compile_minsky(parse_minsky(text)),
                 "ilp": lambda text: compile_ilp(parse_ilp(text))}
    modes = [ArithMode.parse(mode) for mode in MODES]
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, inst in enumerate(corpus.generate(workload, seed, COUNT)):
                model = compilers[inst.kind](inst.source)
                for name, mode in zip(MODES, modes):
                    stepper = _stepper(model, mode)
                    print(json.dumps([workload, seed, i, name, _render(stepper.program),
                                      *(repr(getattr(stepper, f)) for f in FIELDS)]))


def builds(root: Path) -> dict:
    """The ``parse_dump`` of the builds of ``root``, from a child process
    that runs ``dump``."""
    script = str(Path(__file__).resolve())
    child = f"import runpy; runpy.run_path({script!r})['dump']({str(root)!r})"
    return parse_dump(subprocess.run([sys.executable, "-B", "-c", child], capture_output=True,
                                     text=True, check=True).stdout)


def parse_dump(text: str) -> dict:
    """The builds that ``dump`` printed, by (workload, seed, index, mode):
    each one's source and its fields by name."""
    found = {}
    for line in text.splitlines():
        workload, seed, i, mode, source, *fields = json.loads(line)
        found[workload, seed, i, mode] = source, dict(zip(FIELDS, fields))
    return found


def renumber(source: str) -> str:
    """``source`` with its locals ``v<n>`` renamed ``v0``, ``v1``, ... in
    order of first appearance."""
    names: dict[str, str] = {}
    return _LOCAL.sub(lambda m: names.setdefault(m[0], f"v{len(names)}"), source)


def compare(old: dict, new: dict) -> dict:
    """How many sources of the builds of ``old`` and ``new`` are byte-equal,
    equal after ``renumber`` or different, the builds that only one side
    has, and each (build, field) whose field differs."""
    counts = {"byte_equal": 0, "renumbered_equal": 0, "different": 0}
    differing = []
    for build in sorted(old.keys() & new.keys(), key=repr):
        (source, fields), (other, other_fields) = old[build], new[build]
        counts["byte_equal" if source == other else "renumbered_equal"
               if renumber(source) == renumber(other) else "different"] += 1
        differing += [(build, f) for f in FIELDS if fields[f] != other_fields[f]]
    missing = sorted(old.keys() ^ new.keys(), key=repr)
    return {**counts, "missing": missing, "differing": differing}


def step_lines(old: dict, new: dict) -> list[str]:
    """One line per workload and mode of the builds of ``old`` and ``new``:
    the lines after the ``def`` of its step sources, summed on each side."""
    def summed(found: dict) -> Counter:
        total: Counter = Counter()
        for (workload, _, _, mode), (source, _) in found.items():
            total[workload, mode] += len(source.splitlines()) - 1
        return total

    a, b = summed(old), summed(new)
    return [f"step lines, {workload} {mode}: {a[workload, mode]} -> {b[workload, mode]}"
            for workload in WORKLOADS for mode in MODES if (workload, mode) in a.keys() | b.keys()]


def verdict(result: dict) -> int:
    """The exit status of a ``compare`` result: 1 where a field differs or
    a build is on one side only, else 0."""
    return 1 if result["differing"] or result["missing"] else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_steps.py PARENT CHANGE", file=sys.stderr)
        return 2
    sides = []
    for root in map(Path, argv):
        try:
            sides.append(builds(root))
        except subprocess.CalledProcessError as exc:
            print(f"{root}: the build failed\n{exc.stderr}", file=sys.stderr)
            return 2
    result = compare(*sides)
    print(f"{len(sides[0])} builds in {argv[0]}, {len(sides[1])} in {argv[1]}")
    print(f"sources: {result['byte_equal']} byte-equal, {result['renumbered_equal']} equal "
          f"after renumbering, {result['different']} different")
    print("\n".join(step_lines(*sides)))
    for build in result["missing"]:
        print(f"only on one side: {build}")
    for build, field in result["differing"]:
        print(f"{field} differs: {build}")
    return verdict(result)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
