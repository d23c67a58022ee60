"""The verdict gate: every verdict is checked, outside the timed region,
against the independent oracle of its source language, and every witness is
re-evaluated with the layer-major evaluator ``evaluate_layerwise``.

The LTL check is partial: a satisfiable verdict must come with a witness
whose reversal is a model, and no shorter model may exist up to
``LTL_SHORTER_CHECK`` letters; an unsatisfiable verdict must have no model up
to that length.  The Minsky and ILP checks are complete for the bounds the
commands are run with.
"""

from __future__ import annotations

from corpus import Instance, ilp_solutions, lower

LTL_SHORTER_CHECK = 3
SATISFIABLE = "satisfiable"
UNSATISFIABLE = ("unsatisfiable", "unsatisfiable-within-bound")


def library_formula(ltl, core):
    """The benchmark's core tree as the library's formula objects."""
    tag = core[0]
    if tag == "ap":
        return ltl.Atom(core[1])
    if tag == "not":
        return ltl.Not(library_formula(ltl, core[1]))
    if tag == "X":
        return ltl.Next(library_formula(ltl, core[1]))
    cls = {"and": ltl.And, "or": ltl.Or, "U": ltl.Until}[tag]
    return cls(library_formula(ltl, core[1]), library_formula(ltl, core[2]))


def _ltl_problems(lib, inst: Instance, satisfiable: bool, word) -> list[str]:
    phi = library_formula(lib.ltl, lower(inst.formula))
    if not satisfiable:
        if lib.ltl.satisfiable_bruteforce(phi, LTL_SHORTER_CHECK) is not None:
            return [f"unsatisfiable verdict, but a model of length <= {LTL_SHORTER_CHECK} exists"]
        return []
    trace = tuple(lib.words.symbol_set(s) for s in reversed(word))
    if not lib.ltl.models(phi, trace):
        return ["reversed witness is not a model"]
    shorter = min(len(word) - 1, LTL_SHORTER_CHECK)
    if shorter and lib.ltl.satisfiable_bruteforce(phi, shorter) is not None:
        return ["a shorter model exists"]
    return []


def _ilp_problems(lib, inst: Instance, satisfiable: bool, word) -> list[str]:
    solutions = ilp_solutions(inst.matrix, inst.target)
    oracle = lib.compilers.ilp_oracle(lib.compilers.IlpInstance(inst.matrix, inst.target))
    if (oracle is not None) != bool(solutions):
        return ["ilp_oracle disagrees with enumeration"]
    if not satisfiable:
        return ["solution exists"] if solutions else []
    v = lib.compilers.ilp_decode_word(lib.compilers.IlpInstance(inst.matrix, inst.target), word)
    if v not in solutions:
        return ["witness does not decode to a solution"]
    if len(word) != min(sum(s) for s in solutions):
        return ["witness is not of the least support"]
    return []


def _minsky_problems(lib, inst: Instance, satisfiable: bool, word) -> list[str]:
    names, transitions = inst.machine
    machine = lib.compilers.MinskyMachine(names, names[0], names[-1], frozenset(transitions))
    run = lib.compilers.minsky_oracle(machine, inst.max_len)
    if not satisfiable:
        return ["accepting run within the bound exists"] if run is not None else []
    if not lib.compilers.validate_word(machine, word):
        return ["witness is not an accepting run"]
    if run is None or list(word) != lib.compilers.run_encode(run):
        return ["witness differs from the machine's unique run"]
    return []


_CHECKS = {"ltl": _ltl_problems, "ilp": _ilp_problems, "minsky": _minsky_problems}


def check(lib, inst: Instance, status: int, result: dict, model, mode) -> list[str]:
    """Problems with one decided verdict (exit status 0 or 1); empty when
    the verdict and witness are right."""
    verdict = result.get("verdict")
    satisfiable = status == 0
    if satisfiable != (verdict == SATISFIABLE) or (
        not satisfiable and verdict not in UNSATISFIABLE
    ):
        return [f"exit status {status} with verdict {verdict!r}"]
    word = lib.words.parse_word(result["witness"]) if satisfiable else None
    problems = _CHECKS[inst.kind](lib, inst, satisfiable, word)
    if satisfiable and not problems:
        value = lib.ssm.evaluate_layerwise(model, word, mode)
        one = value == 1 if mode.is_exact else value.raw == mode.fmt.scale
        if not one:
            problems.append("evaluate_layerwise does not accept the witness")
    return problems
