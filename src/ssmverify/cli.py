"""Command-line surface tying compilers, evaluator, oracles and solvers
together.

Exit codes partition outcomes: 0 satisfiable/true, 1 unsatisfiable/false,
2 usage or parse error, 3 resource limit hit.  Every command writes one
machine-readable JSON report to stdout; witnesses appear in the word
literal syntax.  ``SSMVERIFY_MAX_STATES``, ``SSMVERIFY_MAX_MEM_MB`` and
``SSMVERIFY_MAX_SECONDS`` override the solver resource guards.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
import time
from fractions import Fraction

from . import ltl as ltl_mod
from .arithmetic import ArithMode, FixedPointFormat
from .compilers import (
    compile_ilp,
    compile_ltl,
    compile_minsky,
    ilp_oracle,
    minsky_oracle,
    parse_ilp,
    parse_minsky,
    run_encode,
)
from .errors import (
    EmptyWordError,
    InputFormatError,
    ResourceLimitError,
    SsmVerifyError,
)
from .modelfile import load_model, save_model
from .solvers import LengthBound, pump_down, sat_bounded, sat_fixed
from .ssm import _Stepper, _stepper, classify_gates, evaluate, state_count_bound_log2
from .words import format_word, parse_trace, parse_word

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# 2**14000 has 4215 decimal digits, within CPython's default 4300-digit
# limit on int-to-str conversion; larger state-count, small-model and
# binary length bounds print as null.
_PRINTABLE_LOG2 = 14_000

# No search reaches 2**63 levels, so a binary --max-len above 63 searches
# with the cap 2**63; its printed bound is computed apart.
_SEARCH_LOG2 = 63

# The fractional bits that each compiler's ``min_bits`` metadata leaves
# implicit where no ``frac_bits`` names them: LTL and Minsky models count
# them in the width, ILP models have none.
_MIN_BITS_FRAC = {"ltl": "3", "minsky": "3", "ilp": "0"}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command-line parser, built once per process, and its leaf
    parsers: the argv prefix that names each, mapped to the parser and the
    names that the prefix sets."""
    parser = argparse.ArgumentParser(prog="ssmverify")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compile", help="compile a source problem to a model file")
    comp.add_argument("kind", choices=["ltl", "minsky", "ilp"])
    comp.add_argument("input", help="formula text (ltl) or input file (minsky, ilp)")
    comp.add_argument("-o", "--output", required=True)

    ev = sub.add_parser("eval", help="evaluate a model on a word")
    ev.add_argument("model")
    ev.add_argument("--word", required=True)
    ev.add_argument("--arith", default="exact")

    sat = sub.add_parser("sat", help="decide satisfiability")
    satsub = sat.add_subparsers(dest="solver", required=True)
    sb = satsub.add_parser("bounded")
    sb.add_argument("model")
    sb.add_argument("--max-len", type=int, required=True)
    sb.add_argument("--binary", action="store_true",
                    help="treat --max-len n as the limit 2**n")
    sb.add_argument("--arith", default="exact")
    sf = satsub.add_parser("fixed")
    sf.add_argument("model")
    sf.add_argument("--arith", required=True, help="fx:<total>:<frac>")
    sf.add_argument("--threads", type=int, default=1,
                    help="deprecated and ignored: the search runs on one thread")

    pump = sub.add_parser("pump", help="shorten an accepted word")
    pump.add_argument("model")
    pump.add_argument("--word", required=True)
    pump.add_argument("--arith", required=True, help="fx:<total>:<frac>")

    oracle = sub.add_parser("oracle", help="run a brute-force source-language oracle")
    osub = oracle.add_subparsers(dest="oracle_kind", required=True)
    ol = osub.add_parser("ltl")
    ol.add_argument("formula")
    ol.add_argument("--trace", required=True)
    oi = osub.add_parser("ilp")
    oi.add_argument("file")
    om = osub.add_parser("minsky")
    om.add_argument("file")
    om.add_argument("--max-steps", type=int, required=True)

    cls = sub.add_parser("classify", help="gate classes and search bounds")
    cls.add_argument("model")
    cls.add_argument("--bits", type=int, default=6,
                     help="bit-width for the state-count bound")
    leaves = {}
    for names, leaf in (({"command": "compile"}, comp), ({"command": "eval"}, ev),
                        ({"command": "sat", "solver": "bounded"}, sb),
                        ({"command": "sat", "solver": "fixed"}, sf), ({"command": "pump"}, pump),
                        ({"command": "oracle", "oracle_kind": "ltl"}, ol),
                        ({"command": "oracle", "oracle_kind": "ilp"}, oi),
                        ({"command": "oracle", "oracle_kind": "minsky"}, om),
                        ({"command": "classify"}, cls)):
        leaves[tuple(names.values())] = leaf, names
    return parser, leaves


def _parse(argv: list) -> argparse.Namespace:
    """``argv`` parsed as the whole parser parses it, in one step where it
    starts with a leaf's prefix: the leaf parses the rest, and arguments it
    does not know are the whole parser's error.  Anything else, such as
    ``--help`` or an unknown command, goes through the whole parser."""
    parser, leaves = _build_parser()
    found = leaves.get(tuple(argv[:1])) or leaves.get(tuple(argv[:2]))
    if found is None:
        return parser.parse_args(argv)
    leaf, names = found
    args, extras = leaf.parse_known_args(argv[len(names):], argparse.Namespace(**names))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _stats(stats) -> dict:
    """A ``SearchStats`` as its report: every field, in field order."""
    return {name: getattr(stats, name) for name in stats._fields}


def _sat_report(result) -> dict:
    report = {"verdict": result.verdict, "stats": _stats(result.stats)}
    if result.witness is not None:
        report["witness"] = format_word(result.witness)
    return report


def _require_fixed(text: str) -> FixedPointFormat:
    mode = ArithMode.parse(text)
    if mode.is_exact:
        raise InputFormatError("this command requires a fixed-point format fx:<t>:<f>")
    return mode.fmt


def _read_source(path: str) -> str:
    """The text of a source-language input file, decoded as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_compile(args) -> tuple[int, dict]:
    if args.kind == "ltl":
        model = compile_ltl(ltl_mod.parse(args.input))
    elif args.kind == "minsky":
        model = compile_minsky(parse_minsky(_read_source(args.input)))
    else:
        model = compile_ilp(parse_ilp(_read_source(args.input)))
    save_model(model, args.output)
    return EXIT_SAT, {
        "model": args.output,
        "dimension": model.dim,
        "layers": model.num_layers,
        "alphabet_size": len(model.alphabet),
        "metadata": model.metadata_dict,
    }


def _cmd_eval(args) -> tuple[int, dict]:
    model = load_model(args.model)
    mode = ArithMode.parse(args.arith)
    word = parse_word(args.word)
    if not word:
        raise EmptyWordError("empty word undefined")
    value = evaluate(model, word, mode)
    if mode.is_exact:
        accepted = value == 1
    else:
        accepted = value.raw == mode.fmt.scale
        value = value.value
    report = {"word": format_word(word), "value": None, "accepted": accepted}
    try:
        report["value"] = str(value)
    except ValueError:  # more digits than CPython converts to a string
        report["value_approx"] = _approximation(value)
    return (EXIT_SAT if accepted else EXIT_UNSAT), report


def _approximation(value: Fraction) -> str:
    """``value`` in scientific notation, truncated to 17 significant digits,
    computed without converting the whole numerator or denominator."""
    context = decimal.Context(prec=17, rounding=decimal.ROUND_DOWN,
                              Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        return f"{decimal.Decimal(value.numerator) / value.denominator:.16e}"


def _cmd_sat(args) -> tuple[int, dict]:
    started = time.perf_counter()
    model = load_model(args.model)
    load_s = time.perf_counter() - started
    bounded = args.solver == "bounded"
    mode = ArithMode.parse(args.arith) if bounded else ArithMode(_require_fixed(args.arith))
    if not mode.is_exact:
        # the count comes from the stepper that the search then reuses
        quantized = _stepper(model, mode).quantized_constants
        if quantized:
            print(
                f"warning: {quantized} model constants are not exactly "
                f"representable in {mode.fmt} and were quantised",
                file=sys.stderr,
            )
    if bounded:
        bound = (
            LengthBound.binary(min(args.max_len, _SEARCH_LOG2)) if args.binary
            else LengthBound.unary(args.max_len)
        )
        result = sat_bounded(model, bound, mode)
        report = _sat_report(result)
        if args.binary:
            report["bound"] = 1 << args.max_len if args.max_len <= _PRINTABLE_LOG2 else None
            report["bound_log2"] = args.max_len
        else:
            report["bound"] = bound.value
    else:
        result = sat_fixed(model, mode.fmt)
        report = _sat_report(result)
    report["load_s"] = load_s
    return (EXIT_SAT if result.satisfiable else EXIT_UNSAT), report


def _cmd_pump(args) -> tuple[int, dict]:
    model = load_model(args.model)
    fmt = _require_fixed(args.arith)
    word = parse_word(args.word)
    pumped = pump_down(model, word, fmt)
    return EXIT_SAT, {
        "word": format_word(word),
        "pumped": format_word(pumped),
        "removed": len(word) - len(pumped),
    }


def _cmd_oracle(args) -> tuple[int, dict]:
    if args.oracle_kind == "ltl":
        phi = ltl_mod.parse(args.formula)
        trace = parse_trace(args.trace)
        if not trace:
            raise EmptyWordError("empty trace undefined")
        result = ltl_mod.models(phi, trace)
        return (EXIT_SAT if result else EXIT_UNSAT), {
            "formula": ltl_mod.pretty(phi),
            "holds": result,
        }
    if args.oracle_kind == "ilp":
        inst = parse_ilp(_read_source(args.file))
        solution = ilp_oracle(inst)
        report = {"satisfiable": solution is not None}
        if solution is not None:
            report["solution"] = list(solution)
        return (EXIT_SAT if solution is not None else EXIT_UNSAT), report
    machine = parse_minsky(_read_source(args.file))
    run = minsky_oracle(machine, args.max_steps)
    report = {"accepting_run_found": run is not None, "max_steps": args.max_steps}
    if run is not None:
        report["run_word"] = format_word(run_encode(run))
        report["run_length"] = len(run.steps)
    return (EXIT_SAT if run is not None else EXIT_UNSAT), report


def _recommended_format(meta: dict):
    """The fixed-point format that a compiled model's ``min_bits`` and
    ``frac_bits`` metadata name, or None."""
    source, bits = meta.get("source"), meta.get("min_bits")
    frac = meta.get("frac_bits", _MIN_BITS_FRAC.get(source) if isinstance(source, str) else None)
    if not all(isinstance(v, str) and v.isdecimal() for v in (bits, frac)):
        return None
    try:
        return FixedPointFormat(int(bits), int(frac))
    except (ValueError, InputFormatError):
        return None


def _key_bound_log2(model, fmt: FixedPointFormat) -> int:
    """The log2 of the most keys that a search under ``fmt`` stores: b bits
    per coordinate of its first step's key or, where a guard retracts that
    step's assumed ranges, of the key of the step built without them."""
    mode = ArithMode(fmt)
    return max(_stepper(model, mode).key_state_bound_log2,
               _Stepper(model, mode, None, assume=False).key_state_bound_log2)


def _cmd_classify(args) -> tuple[int, dict]:
    model = load_model(args.model)
    classes = classify_gates(model)
    log2 = state_count_bound_log2(model, args.bits)
    fmt = _recommended_format(model.metadata_dict)
    report = {
        "dimension": model.dim,
        "layers": model.num_layers,
        "alphabet_size": len(model.alphabet),
        "size": model.size,
        "time_invariant": classes.time_invariant,
        "diagonal": classes.diagonal,
        "state_count_bound_bits": args.bits,
        "state_count_bound_log2": log2,
        "state_count_bound": str(1 << log2) if log2 <= _PRINTABLE_LOG2 else None,
        "recommended_arith": None if fmt is None else str(fmt),
        # a search under recommended_arith stores at most 2**(b*|key|) keys
        "key_state_bound_log2": None if fmt is None else _key_bound_log2(model, fmt),
        "metadata": model.metadata_dict,
    }
    meta = model.metadata_dict
    if meta.get("source") == "ltl" and isinstance(meta.get("formula"), str):
        bound = ltl_mod.small_model_bound(ltl_mod.parse(meta["formula"]))
        report["small_model_bound"] = bound if bound.bit_length() <= _PRINTABLE_LOG2 else None
    return EXIT_SAT, report


def run(argv) -> tuple[int, dict]:
    """Parse and execute one command; returns (exit status, report)."""
    args = _parse(list(argv))
    started = time.monotonic()
    handlers = {
        "compile": _cmd_compile,
        "eval": _cmd_eval,
        "sat": _cmd_sat,
        "pump": _cmd_pump,
        "oracle": _cmd_oracle,
        "classify": _cmd_classify,
    }
    arith = getattr(args, "arith", None)
    try:
        status, body = handlers[args.command](args)
    except ResourceLimitError as exc:
        body = {"error": str(exc), "partial_stats": _stats(exc.stats) if exc.stats else None}
        status = EXIT_RESOURCE
    except MemoryError:
        body = {"error": "out of memory", "partial_stats": None}
        status = EXIT_RESOURCE
    except (OSError, UnicodeDecodeError, SsmVerifyError) as exc:
        body = {"error": str(exc)}
        status = EXIT_USAGE
    report = {
        "command": args.command,
        "argv": list(argv),
        "arith": arith,
        "result": body,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    return status, report


def main(argv=None) -> int:
    status, report = run(sys.argv[1:] if argv is None else argv)
    print(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
