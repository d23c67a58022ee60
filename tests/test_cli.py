"""CLI surface: exit codes, reports, file formats, round trips."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ssmverify
from helpers import (
    expanded,
    geometric_model,
    hand_formulas,
    random_formula,
    walk_words,
)
from ssmverify.arithmetic import EXACT, MAX_TOTAL_BITS, ArithMode, FixedPointFormat
from ssmverify.cli import _build_parser, _parse, main, run
from ssmverify.compilers import compile_ltl, compile_minsky, parse_minsky
from ssmverify.fnn import RELU, eval_program, linear_fnn, select_fnn
from ssmverify.ltl import Atom, Until, least_reversed_model, parse, pretty
from ssmverify.modelfile import load_model, model_from_json, save_model
from ssmverify.ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    as_matrix,
    as_vector,
    evaluate,
    evaluate_layerwise,
    initial_state,
    projection_phi,
    quantization_report,
    run_layer,
    step,
)
from ssmverify.words import format_word, set_symbol

ILP_TEXT = "2\n1 1\n0 1\n1 1\n"
MINSKY_TEXT = "start: q0\nfinal: qf\nq0 inc1 q1\nq1 dec1 qf\nq1 ztest1 q0\n"


@pytest.fixture
def ilp_file(tmp_path):
    path = tmp_path / "ex.ilp"
    path.write_text(ILP_TEXT)
    return str(path)


@pytest.fixture
def minsky_file(tmp_path):
    path = tmp_path / "machine.mm"
    path.write_text(MINSKY_TEXT)
    return str(path)


def check_sat_fixed_by_the_judge(phi, path: str):
    """``compile ltl`` then ``sat fixed`` under ``fx:6:3`` and under the
    format that ``classify`` recommends give the verdict and the witness of
    ``least_reversed_model``, which reads the formula and no model."""
    assert run(["compile", "ltl", pretty(phi), "-o", path])[0] == 0
    recommended = run(["classify", path])[1]["result"]["recommended_arith"]
    judged = least_reversed_model(phi)
    for arith in ("fx:6:3", recommended):
        status, report = run(["sat", "fixed", path, "--arith", arith])
        result = report["result"]
        if judged is None:
            assert (status, result["verdict"]) == (1, "unsatisfiable"), arith
        else:
            assert (status, result["verdict"]) == (0, "satisfiable"), arith
            assert result["witness"] == format_word([set_symbol(l) for l in judged]), arith


@pytest.mark.parametrize("text", hand_formulas())
def test_sat_fixed_agrees_with_the_judge_on_hand_formulas(text, tmp_path):
    check_sat_fixed_by_the_judge(parse(text), str(tmp_path / "phi.ssm"))


@given(st.integers(0, 10**9), st.integers(1, 9))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sat_fixed_agrees_with_the_judge(tmp_path, seed, fsize):
    rng = random.Random(seed)
    phi = random_formula(rng, fsize, props=("p", "q", "r")[:rng.randint(1, 3)])
    check_sat_fixed_by_the_judge(phi, str(tmp_path / "phi.ssm"))


def test_compile_then_sat_bounded(ilp_file, tmp_path):
    model_path = str(tmp_path / "m.ssm")
    status, report = run(["compile", "ilp", ilp_file, "-o", model_path])
    assert status == 0
    assert report["result"]["metadata"]["source"] == "ilp"
    status, report = run(["sat", "bounded", model_path, "--max-len", "2"])
    assert status == 0
    assert report["result"]["verdict"] == "satisfiable"
    assert report["result"]["witness"] == "2"


def test_sat_bounded_binary_flag(ilp_file, tmp_path):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ilp", ilp_file, "-o", model_path])
    status, report = run(["sat", "bounded", model_path, "--max-len", "2", "--binary"])
    assert report["result"]["bound"] == 4
    assert status == 0


def test_sat_bounded_reports_a_binary_bound_too_large_to_print(tmp_path, capsys):
    model_path = str(tmp_path / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), model_path)
    for log2, bound in ((14_000, 1 << 14_000), (14_400, None)):
        assert main(["sat", "bounded", model_path, "--max-len", str(log2), "--binary"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["witness"] == "{q}"
        assert result["bound"] == bound and result["bound_log2"] == log2


def test_a_sat_report_times_the_model_load(tmp_path):
    """Each ``sat`` result that decides, exit 0 or 1, gives the seconds that
    loading the model file took, a part of the command's wall time."""
    for formula, status in (("p U q", 0), ("p & !p", 1)):
        path = str(tmp_path / "m.ssm")
        run(["compile", "ltl", formula, "-o", path])
        for argv in (["sat", "fixed", path, "--arith", "fx:6:3"],
                     ["sat", "bounded", path, "--max-len", "3"]):
            code, report = run(argv)
            assert code == status and 0 < report["result"]["load_s"] <= report["wall_time_s"]


def test_sat_bounded_binary_exponent_past_the_search_cap(minsky_file, tmp_path):
    """No search reaches 2**63 levels, so a 20-digit exponent searches as 63
    does and exits the same way, with the bound too large to print."""
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "minsky", minsky_file, "-o", model_path])
    results = []
    for log2 in ("63", "9" * 20):
        status, report = run(["sat", "bounded", model_path, "--max-len", log2, "--binary"])
        result = report["result"]
        for timing in ("elapsed_s", "stepper_build_s", "source_s", "compile_s"):
            del result["stats"][timing]
        del result["load_s"]
        assert result["bound_log2"] == int(log2)
        results.append((status, result.pop("bound"), result.pop("bound_log2"), result))
    (status63, bound63, _, result63), (status, bound, _, result) = results
    assert status == status63 == 0
    assert bound63 == 1 << 63 and bound is None
    assert result == result63 and result["verdict"] == "satisfiable"


@pytest.mark.parametrize("command", [["eval", "--word", "{p};{q}"],
                                     ["sat", "bounded", "--max-len", "2"],
                                     ["sat", "fixed"],
                                     ["pump", "--word", "{p};{q}"]],
                         ids=["eval", "sat_bounded", "sat_fixed", "pump"])
def test_a_huge_fixed_point_width_is_a_usage_error(tmp_path, command):
    model_path = str(tmp_path / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), model_path)
    status, report = run(command + [model_path, "--arith", "fx:99999999999999999999:3"])
    assert status == 2
    assert "total_bits" in json.loads(json.dumps(report))["result"]["error"]


def test_the_widest_fixed_point_format_evaluates(tmp_path):
    model_path = str(tmp_path / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), model_path)
    status, report = run(["eval", model_path, "--word", "{p};{q}", "--arith", "fx:4096:4095"])
    assert status in (0, 1) and "value" in report["result"]


def test_running_out_of_memory_is_a_resource_limit(tmp_path, monkeypatch):
    model_path = str(tmp_path / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), model_path)

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(ssmverify.cli, "_cmd_eval", exhausted)
    status, report = run(["eval", model_path, "--word", "{p}"])
    assert status == 3
    assert json.loads(json.dumps(report))["result"]["error"] == "out of memory"


def test_huge_exact_constants_decide(tmp_path):
    """The offset 1 - 2**1100 cancels the embedding of a, a gate weight of
    2**1100 multiplies a hidden input, and so does a diagonal gate whose
    offset is 2**1100 once ``a;a`` retracts the range [0, 1] assumed for its
    coordinate.  The step's interval analysis adds such ints to infinite
    bounds and multiplies them, and none of them fits in a float."""
    big = 1 << 1100
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(as_matrix([[1]])),
                     AffineMap(as_matrix([[1]]), as_vector([1 - big])), projection_phi(1))
    model_path = str(tmp_path / "big.ssm")
    save_model(SsmModel(alphabet=("a", "b"), emb=(as_vector([big]), as_vector([0])),
                        layers=(layer,), out=select_fnn([0], 1)), model_path)
    status, report = run(["sat", "bounded", model_path, "--max-len", "2"])
    assert status == 0
    assert (report["result"]["verdict"], report["result"]["witness"]) == ("satisfiable", "a")
    status, report = run(["eval", model_path, "--word", "a"])
    assert status == 0 and report["result"]["value"] == "1"
    # a gate weight of 2**1100 on the unbounded hidden input: h' = big * h + x
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(as_matrix([[big]])),
                     AffineMap(as_matrix([[1]]), as_vector([0])), projection_phi(1))
    save_model(SsmModel(alphabet=("a", "b"), emb=(as_vector([1]), as_vector([0])),
                        layers=(layer,), out=select_fnn([0], 1)), model_path)
    status, report = run(["sat", "bounded", model_path, "--max-len", "2"])
    assert status == 0
    assert (report["result"]["verdict"], report["result"]["witness"]) == ("satisfiable", "a")
    # h' = (x + 2**1100) * h + x, then relu(h - 5): h runs 0, 1, then past 2**1100
    layer = SsmLayer(as_vector([0]), DiagonalAffineGate(as_matrix([[1]]), as_vector([big])),
                     AffineMap(as_matrix([[1]]), as_vector([0])), projection_phi(1))
    model = SsmModel(alphabet=("a", "b"), emb=(as_vector([1]), as_vector([0])), layers=(layer,),
                     out=linear_fnn([[1]], [-5], RELU))
    save_model(model, model_path)
    status, report = run(["sat", "bounded", model_path, "--max-len", "3"])
    assert (status, report["result"]["verdict"]) == (1, "unsatisfiable-within-bound")
    assert report["result"]["stats"]["builds"] == 2
    words = [w for n in (1, 2, 3) for w in itertools.product("ab", repeat=n)]
    assert not any(evaluate_layerwise(model, word, EXACT) == 1 for word in words)


def test_eval_reports_a_value_too_long_to_print(tmp_path, capsys):
    """After 50 symbols h1 is a sum of powers of 10**100, about 4,900 digits,
    more than CPython converts to a string: the report shows ``value`` as
    null beside a 17-digit approximation, and the exit code still follows
    acceptance."""
    model_path = str(tmp_path / "geometric.ssm")
    save_model(geometric_model(Fraction(10 ** 100), select_fnn([1], 2)), model_path)
    assert main(["eval", model_path, "--word", ";".join(["a"] * 50)]) == 1
    body = json.loads(capsys.readouterr().out)["result"]
    assert body["value"] is None and body["accepted"] is False
    assert body["value_approx"] == "1.0000000000000000e+4900"
    status, report = run(["eval", model_path, "--word", "a"])
    assert status == 0 and report["result"]["value"] == "1"
    assert "value_approx" not in report["result"]


def test_unsat_exit_code_and_no_witness(tmp_path):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p & !p", "-o", model_path])
    status, report = run(["sat", "fixed", model_path, "--arith", "fx:6:3"])
    assert status == 1
    assert report["result"]["verdict"] == "unsatisfiable"
    assert "witness" not in report["result"]


def test_bare_tt_has_no_layer_and_is_satisfied_by_the_least_letter(tmp_path):
    """tt reads the constant coordinate: the model has no layer, and every
    command decides it on the letter {}."""
    model_path = str(tmp_path / "tt.ssm")
    assert run(["compile", "ltl", "tt", "-o", model_path])[0] == 0
    status, report = run(["classify", model_path])
    assert (status, report["result"]["layers"]) == (0, 0)
    for argv in (["sat", "fixed", model_path, "--arith", "fx:6:3"],
                 ["sat", "bounded", model_path, "--max-len", "3"]):
        status, report = run(argv)
        assert (status, report["result"]["verdict"], report["result"]["witness"]) == (
            0, "satisfiable", "{}"), argv
    status, report = run(["eval", model_path, "--word", "{}"])
    assert (status, report["result"]["accepted"]) == (0, True)


def test_sat_bounded_accepts_fixed_arith(tmp_path):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p U q", "-o", model_path])
    status, report = run(
        ["sat", "bounded", model_path, "--max-len", "3", "--arith", "fx:6:3"]
    )
    assert status == 0
    assert report["result"]["witness"] == "{q}"
    assert report["arith"] == "fx:6:3"


def test_eval_word_and_empty_word(tmp_path):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p", "-o", model_path])
    status, report = run(["eval", model_path, "--word", "{p}", "--arith", "exact"])
    assert status == 0 and report["result"]["accepted"] is True
    status, report = run(["eval", model_path, "--word", "{}", "--arith", "fx:6:3"])
    assert status == 1
    status, report = run(["eval", model_path, "--word", "", "--arith", "exact"])
    assert status == 2
    assert "empty word" in report["result"]["error"]


def test_eval_reads_pair_letters(minsky_file, tmp_path):
    model_path = str(tmp_path / "mm.ssm")
    run(["compile", "minsky", minsky_file, "-o", model_path])
    status, report = run(["eval", model_path, "--word", " ( q1 , inc1 );(qf,  dec1) "])
    assert status == 0 and report["result"]["accepted"] is True
    assert report["result"]["word"] == "(q1,inc1);(qf,dec1)"


def test_oracle_commands(ilp_file, minsky_file):
    status, report = run(["oracle", "ltl", "X p", "--trace", "{p}"])
    assert status == 1 and report["result"]["holds"] is False
    status, report = run(["oracle", "ltl", "X p", "--trace", "{};{p}"])
    assert status == 0
    status, report = run(["oracle", "ilp", ilp_file])
    assert status == 0 and report["result"]["solution"] == [0, 1]
    status, report = run(["oracle", "minsky", minsky_file, "--max-steps", "10"])
    assert status == 0
    assert report["result"]["run_word"] == "(q1,inc1);(qf,dec1)"


def test_pump_command(tmp_path):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "F p", "-o", model_path])
    status, report = run(
        ["pump", model_path, "--word", "{p};{};{};{}", "--arith", "fx:6:3"]
    )
    assert status == 0
    # after {p} and after {p};{} the keys agree: a key holds the F p
    # coordinate, not the atom's, which each step reads from its input
    assert report["result"]["pumped"] == "{p}"
    # pumping a rejected word violates the precondition
    status, report = run(["pump", model_path, "--word", "{}", "--arith", "fx:6:3"])
    assert status == 2


def test_classify_reports_bounds(minsky_file, tmp_path):
    model_path = str(tmp_path / "mm.ssm")
    run(["compile", "minsky", minsky_file, "-o", model_path])
    status, report = run(["classify", model_path, "--bits", "2"])
    assert status == 0
    body = report["result"]
    assert body["time_invariant"] is True and body["diagonal"] is True
    assert body["state_count_bound"] == str(1 << (2 * 3 * 15 * 2))
    ltl_path = str(tmp_path / "l.ssm")
    run(["compile", "ltl", "p U q", "-o", ltl_path])
    _, report = run(["classify", ltl_path])
    assert report["result"]["small_model_bound"] == 24
    assert report["result"]["diagonal"] is True
    assert report["result"]["time_invariant"] is False


def test_classify_reports_a_bound_too_large_to_print(tmp_path):
    # 12 props, 60 X, 11 conjunctions and a constant give 84 dimensions; the
    # five levels of X and the 11 levels of conjunctions take one layer
    # each, so there are 16
    model_path = str(tmp_path / "wide.ssm")
    formula = " & ".join(f"X X X X X p{i}" for i in range(12))
    assert run(["compile", "ltl", formula, "-o", model_path])[0] == 0
    status, report = run(["classify", model_path])
    assert status == 0
    body = report["result"]
    assert (body["dimension"], body["layers"]) == (84, 16)
    assert body["state_count_bound_log2"] == 2 * 16 * 84 * 6 == 16128
    assert body["state_count_bound"] is None
    json.dumps(report)
    # 34 copies of G^70 p have 16,727 nodes after lowering, so the
    # small-model bound n * 2**n has more than 4300 digits
    formula = " & ".join(["G " * 70 + "p"] * 34)
    assert run(["compile", "ltl", formula, "-o", model_path])[0] == 0
    status, report = run(["classify", model_path])
    assert status == 0
    assert report["result"]["small_model_bound"] is None
    json.dumps(report)


def test_classify_bounds_the_keys_of_a_retracted_search(tmp_path):
    """Layer 1 sums the ``b``s and layer 2 counts the ``a``s under a
    diagonal gate.  On the count's assumed range [0, 1], the output
    relu(count + sum / 8 - 3/2) folds to 0 and reads no sum, so the first
    step keys on the count alone.  The second ``a`` retracts the range, and
    the search stores keys of both coordinates, which ``classify`` bounds."""
    first = SsmLayer(as_vector([0, 0]), TimeInvariantGate([[0, 0], [0, 1]]),
                     AffineMap([[1, 0], [0, 1]], as_vector([0, 0])), None, ())
    second = SsmLayer(as_vector([0, 0]), DiagonalAffineGate([[0, 0], [0, 0]], as_vector([1, 0])),
                      AffineMap([[1, 0], [0, 1]], as_vector([0, 0])), None, ())
    out = linear_fnn([[1, Fraction(1, 8)]], [Fraction(-3, 2)], RELU)
    emb = (as_vector([1, 0]), as_vector([0, 1]), as_vector([0, 0]))
    model_path = str(tmp_path / "m.ssm")
    save_model(SsmModel(("a", "b", "c"), emb, (first, second), out,
                        (("source", "ltl"), ("min_bits", "6"))), model_path)
    stats = run(["sat", "fixed", model_path, "--arith", "fx:6:3"])[1]["result"]["stats"]
    assert (stats["key_coordinates"], stats["key_state_bound_log2"]) == (2, 12)
    assert run(["classify", model_path])[1]["result"]["key_state_bound_log2"] == 12


@pytest.mark.parametrize("kind, source, expected", [
    # the previous-bit decoder needs fx:6:3; an X-free model is integral
    ("ltl", "X p U q", "fx:6:3"),
    ("ltl", "p U q", "fx:3:0"),
    ("minsky", MINSKY_TEXT, "fx:13:3"),
    ("ilp", ILP_TEXT, "fx:4:0"),
])
def test_classify_recommends_one_format_per_source(tmp_path, kind, source, expected):
    model_path = str(tmp_path / "m.ssm")
    if kind != "ltl":
        source_path = tmp_path / f"source.{kind}"
        source_path.write_text(source)
        source = str(source_path)
    assert run(["compile", kind, source, "-o", model_path])[0] == 0
    status, report = run(["classify", model_path])
    assert status == 0
    assert report["result"]["recommended_arith"] == expected
    # the keys a search under that format can store: b bits per key coordinate
    fmt = ArithMode.parse(expected).fmt
    sat = run(["sat", "bounded", model_path, "--max-len", "1", "--arith", expected])[1]
    stats = sat["result"]["stats"]
    assert report["result"]["key_state_bound_log2"] == stats["key_state_bound_log2"]
    assert stats["key_state_bound_log2"] == fmt.total_bits * stats["key_coordinates"] > 0
    # the metadata keeps the compiler's own min_bits, so saved bytes are unchanged
    assert report["result"]["metadata"]["min_bits"] == expected.split(":")[1]
    model = load_model(model_path)
    # no format is wider than MAX_TOTAL_BITS, so a larger min_bits names none
    frac = expected.split(":")[2]
    for bits, arith in ((MAX_TOTAL_BITS, f"fx:{MAX_TOTAL_BITS}:{frac}"), (MAX_TOTAL_BITS + 1, None)):
        metadata = tuple(sorted({**model.metadata_dict, "min_bits": str(bits)}.items()))
        save_model(SsmModel(model.alphabet, model.emb, model.layers, model.out, metadata),
                   model_path)
        assert run(["classify", model_path])[1]["result"]["recommended_arith"] == arith
    save_model(SsmModel(model.alphabet, model.emb, model.layers, model.out,
                        (("source", "handmade"),)), model_path)
    body = run(["classify", model_path])[1]["result"]
    assert body["recommended_arith"] is None and body["key_state_bound_log2"] is None


def test_resource_limit_exit_code(tmp_path, monkeypatch):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "(p U q) & G !q", "-o", model_path])
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "2")
    status, report = run(["sat", "fixed", model_path, "--arith", "fx:6:3"])
    assert status == 3
    assert report["result"]["partial_stats"]["states_explored"] >= 2


@pytest.mark.parametrize("name, value, error", [
    ("SSMVERIFY_MAX_STATES", "1000", "state ceiling 1000"),
    ("SSMVERIFY_MAX_MEM_MB", "1", "memory ceiling 1 MB"),
])
def test_minsky_oracle_stops_at_the_resource_limits(tmp_path, monkeypatch, name, value, error):
    """A machine that counts forever, under a 20-digit step budget."""
    machine = tmp_path / "loop.mm"
    machine.write_text("start: q0\nfinal: qf\nq0 inc1 q0\n")
    monkeypatch.setenv(name, value)
    status, report = run(["oracle", "minsky", str(machine), "--max-steps", "1" + "0" * 19])
    assert status == 3
    assert error in json.loads(json.dumps(report))["result"]["error"]


def test_a_time_ceiling_of_zero_stops_every_search(tmp_path, monkeypatch):
    """``SSMVERIFY_MAX_SECONDS=0`` is reached at the first check, which the
    search makes after its first level and each oracle before its first
    step or candidate: each exits 3, and the search reports partial stats."""
    runaway, unsat = str(tmp_path / "pq.ssm"), str(tmp_path / "unsat.ssm")
    run(["compile", "ltl", "p U q", "-o", runaway])
    run(["compile", "ltl", "G p & F !p", "-o", unsat])
    machine, instance = tmp_path / "loop.mm", tmp_path / "ilp.txt"
    machine.write_text("start: q0\nfinal: qf\nq0 inc1 q0\n")
    instance.write_text("2\n1 1\n0 1\n1 1\n")
    monkeypatch.setenv("SSMVERIFY_MAX_SECONDS", "0")
    for argv in (["sat", "fixed", runaway, "--arith", "fx:4096:4095"],
                 ["sat", "bounded", unsat, "--max-len", "9"],
                 ["oracle", "minsky", str(machine), "--max-steps", "5"],
                 ["oracle", "ilp", str(instance)]):
        status, report = run(argv)
        assert status == 3, argv
        body = json.loads(json.dumps(report))["result"]
        assert body["error"] == "time ceiling 0 s reached", argv
        if argv[0] == "sat":
            # one level taken: one transition per letter of the alphabet
            stats = body["partial_stats"]
            letters = 4 if argv[2] == runaway else 2
            assert (stats["transitions"], stats["frontier_sizes"]) == (letters, [1]), stats


def test_ilp_oracle_stops_at_the_state_ceiling(tmp_path, monkeypatch):
    """2^30 candidates, none a solution, would take hours to enumerate."""
    instance = tmp_path / "ones.txt"
    instance.write_text("\n".join(["30", *["1 " * 30] * 30, "99 " * 30]) + "\n")
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "1000")
    status, report = run(["oracle", "ilp", str(instance)])
    assert status == 3
    assert "state ceiling 1000" in json.loads(json.dumps(report))["result"]["error"]


def test_oracle_ltl_is_linear_in_nested_until():
    """15 nested p U (...) over 12 letters that never reach q: the recursive
    relation re-enters each until at every later position."""
    formula = "p U (" * 15 + "q" + ")" * 15
    started = time.monotonic()
    status, report = run(["oracle", "ltl", formula, "--trace", ";".join(["{p}"] * 12)])
    assert time.monotonic() - started < 2.0
    assert status == 1 and report["result"]["holds"] is False


@pytest.mark.parametrize("count", [17, 40])
def test_compile_ltl_refuses_too_many_atoms(tmp_path, count):
    """Above MAX_ATOMS the compiler would enumerate 2^count letters; it
    stops first, with exit 3 and a JSON report, and writes no file."""
    model_path = tmp_path / "m.ssm"
    formula = " & ".join(f"a{i}" for i in range(count))
    started = time.monotonic()
    status, report = run(["compile", "ltl", formula, "-o", str(model_path)])
    assert time.monotonic() - started < 1.0
    assert status == 3
    assert f"{count} atoms" in report["result"]["error"]
    json.dumps(report)
    assert not model_path.exists()


@pytest.mark.parametrize("name, value", [
    ("SSMVERIFY_MAX_STATES", "abc"), ("SSMVERIFY_MAX_MEM_MB", "x"),
    ("SSMVERIFY_MAX_STATES", "-1"), ("SSMVERIFY_MAX_MEM_MB", "-5"),
    ("SSMVERIFY_MAX_SECONDS", "-1"), ("SSMVERIFY_MAX_SECONDS", "1.5"),
    ("SSMVERIFY_MAX_SECONDS", "soon"),
])
def test_bad_resource_environment_is_a_usage_error(tmp_path, monkeypatch, name, value):
    """A ceiling that is not a non-negative integer is bad input, in the
    search and in the oracles alike, not a limit that was hit."""
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p U q", "-o", model_path])
    machine, instance = tmp_path / "loop.mm", tmp_path / "ilp.txt"
    machine.write_text("start: q0\nfinal: qf\nq0 inc1 q0\n")
    instance.write_text("2\n1 1\n0 1\n1 1\n")
    monkeypatch.setenv(name, value)
    for argv in (["sat", "fixed", model_path, "--arith", "fx:6:3"],
                 ["sat", "bounded", model_path, "--max-len", "2"],
                 ["oracle", "minsky", str(machine), "--max-steps", "5"],
                 ["oracle", "ilp", str(instance)]):
        status, report = run(argv)
        assert status == 2
        assert name in report["result"]["error"]


def test_sat_fixed_warns_with_the_quantised_count(tmp_path, capsys):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p U q", "-o", model_path])
    capsys.readouterr()
    # 1 is not representable in fx:3:2, so every unit weight is quantised
    expected = len(quantization_report(load_model(model_path), FixedPointFormat(3, 2)))
    assert expected > 0
    status, report = run(["sat", "fixed", model_path, "--arith", "fx:3:2", "--threads", "2"])
    assert status in (0, 1)
    err = capsys.readouterr().err
    assert f"warning: {expected} model constants are not exactly representable" in err
    assert report["result"]["stats"]["quantized_constants"] == expected
    run(["sat", "fixed", model_path, "--arith", "fx:6:3"])
    assert "warning" not in capsys.readouterr().err


def test_sat_bounded_warns_with_the_quantised_count(tmp_path, capsys):
    model_path = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p U q", "-o", model_path])
    capsys.readouterr()
    expected = len(quantization_report(load_model(model_path), FixedPointFormat(3, 2)))
    status, report = run(["sat", "bounded", model_path, "--max-len", "2", "--arith", "fx:3:2"])
    assert status in (0, 1)
    err = capsys.readouterr().err
    assert f"warning: {expected} model constants are not exactly representable" in err
    assert report["result"]["stats"]["quantized_constants"] == expected
    run(["sat", "bounded", model_path, "--max-len", "2"])
    assert "warning" not in capsys.readouterr().err


def test_parse_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.ilp"
    bad.write_text("not numbers\n")
    status, _ = run(["compile", "ilp", str(bad), "-o", str(tmp_path / "x.ssm")])
    assert status == 2
    status, _ = run(["compile", "ltl", "p U", "-o", str(tmp_path / "x.ssm")])
    assert status == 2
    status, _ = run(["eval", str(tmp_path / "missing.ssm"), "--word", "{p}"])
    assert status == 2


# The names ``ssmverify`` exports, modules and private names aside.  A
# removal is a deliberate deprecation, recorded in CHANGES.md, and so is
# each addition: edit this set only together with such a record.
PUBLIC_NAMES = frozenset("""
    AffineMap ArithMode DiagonalAffineGate EXACT FX6 FixedPointFormat
    FixedPointValue Fnn FnnLayer FnnNode IlpInstance LengthBound MinskyMachine
    MinskyRun Rational ResourceLimits SatResult SsmLayer SsmModel StreamState
    TimeInvariantGate accepts classify_gates compile_ilp compile_ltl
    compile_minsky compose evaluate evaluate_layerwise gadget_and gadget_eq
    gadget_geq0 gadget_implies gadget_leq gadget_lookup gadget_min1 holds ilp_oracle
    initial_state load_model minsky_oracle parse parse_ilp
    parse_minsky pretty prev_bit_layer pump_down quantization_report
    run_encode run_layer sat_bounded sat_fixed satisfiable_bruteforce
    save_model small_model_bound state_count_bound step subformulas_topo
    validate_word
""".split())


def test_the_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(ssmverify).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_console_entry_point(tmp_path):
    # the child imports the package from where this process imported it
    src = os.path.dirname(os.path.dirname(ssmverify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ssmverify.cli", "oracle", "ltl", "p", "--trace", "{p}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["holds"] is True


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """The value classes are plain classes, so a command process loads
    neither module."""
    src = os.path.dirname(os.path.dirname(ssmverify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    check = ("import sys, ssmverify.cli; "
             "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_a_dropped_copy_of_the_library_is_freed():
    """Nothing outside the package keeps its classes: once a process drops
    the ssmverify modules and imports them again, as the benchmark's set-up
    does, the first copy is garbage.  A module-level ``typing.Union`` of
    package classes sits in typing's cache and kept every copy alive."""
    src = os.path.dirname(os.path.dirname(ssmverify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    check = (
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'ssmverify']:\n"
        "        del sys.modules[name]\n"
        "    return importlib.import_module('ssmverify.cli')\n"
        "fresh()\n"
        "members = (('ssm', 'DiagonalAffineGate'), ('arithmetic', 'FixedPointValue'),\n"
        "           ('ltl', 'Atom'))\n"
        "classes = [weakref.ref(getattr(sys.modules[f'ssmverify.{m}'], c)) for m, c in members]\n"
        "fresh()\n"
        "gc.collect()\n"
        "assert all(c() is None for c in classes), [c() for c in classes]\n")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demo_script_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(ssmverify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    demo = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "demo.py")
    proc = subprocess.run(
        [sys.executable, demo],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_main_prints_report(capsys, tmp_path):
    status = main(["oracle", "ltl", "p", "--trace", "{}"])
    assert status == 1
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "oracle"


# ---------------------------------------------------------------------------
# Model files

def test_model_save_load_identity(tmp_path):
    model = compile_ltl(parse("(X p) U q"))
    path = str(tmp_path / "m.ssm")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.metadata_dict == model.metadata_dict
    # canonical form: saving the loaded model reproduces the file
    path2 = str(tmp_path / "m2.ssm")
    save_model(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_round_trip_identity_across_compilers(tmp_path):
    from ssmverify.compilers import IlpInstance, compile_ilp

    models = [
        compile_ltl(parse(t))
        for t in ("p", "X p", "p U q", "G (p -> X q)", "F (p & q)")
    ]
    models.append(compile_minsky(parse_minsky(MINSKY_TEXT)))
    models.append(compile_ilp(IlpInstance(((1, 1), (0, 1)), (1, 1))))
    for i, model in enumerate(models):
        path = str(tmp_path / f"rt{i}.ssm")
        save_model(model, path)
        assert load_model(path) == model


def test_loaded_model_evaluates_identically(tmp_path):
    machine = parse_minsky(MINSKY_TEXT)
    model = compile_minsky(machine)
    path = str(tmp_path / "mm.ssm")
    save_model(model, path)
    loaded = load_model(path)
    for word, accepted in walk_words(model, EXACT, 2):
        got = evaluate(loaded, list(word), EXACT)
        assert (got == 1) == accepted


def _v2_tree(model, tmp_path) -> dict:
    """The JSON tree of the v2 file of ``model``."""
    path = tmp_path / "tree.ssm"
    save_model(model, str(path))
    return json.loads(path.read_text())


def test_model_json_has_no_floats(tmp_path):
    model = compile_ltl(parse("X p"))

    def check(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    # the expanded twin stores every layer's full network, copy nodes included
    for stored in (model, expanded(model)):
        data = _v2_tree(stored, tmp_path)
        check(data)
        assert model_from_json(data) == stored


def test_model_file_rejects_garbage(tmp_path):
    from ssmverify.errors import InputFormatError

    path = tmp_path / "bad.ssm"
    path.write_text("{}")
    with pytest.raises(InputFormatError):
        load_model(str(path))
    path.write_text("not json")
    with pytest.raises(InputFormatError):
        load_model(str(path))


def _seeded_models():
    from helpers import random_ilp, random_machine
    from ssmverify.compilers import compile_ilp

    rng = random.Random(20261018)
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    models += [compile_ltl(random_formula(rng, rng.randint(3, 9), ("p", "q", "r")))
               for _ in range(6)]
    models += [compile_minsky(random_machine(rng, rng.randint(2, 4))) for _ in range(4)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(4)]
    # metadata beyond strings: nested, empty, numeric, non-ASCII, non-string keys
    odd = (("a", [1, "x", {"k": None, "l": []}]), ("b", {}), ("c", 2.5), ("d", "é\n\""),
           ("e", {1: "x", None: [2]}))
    first = models[0]
    models.append(SsmModel(first.alphabet, first.emb, first.layers, first.out,
                           first.metadata + odd))
    models.append(SsmModel(first.alphabet, first.emb, (), first.out, first.metadata))
    return models


def test_saved_bytes_equal_the_compact_json_dump(tmp_path):
    """``save_model`` writes the compact dump of a v2 JSON tree, of the
    model and of its expanded twin, which stores every layer's full
    network; each loads as the model it was saved from, and a save of a
    load is byte-identical."""
    v2, full = tmp_path / "m.v2.ssm", tmp_path / "full.ssm"
    again = tmp_path / "again.ssm"
    for model in _seeded_models():
        save_model(model, str(v2))
        save_model(expanded(model), str(full))
        for path, loads_as in ((v2, model), (full, expanded(model))):
            text = path.read_text()
            data = json.loads(text)
            assert data["format"] == "ssmverify-model-v2"
            assert text == json.dumps(data, separators=(",", ":")) + "\n"
            loaded = load_model(str(path))
            assert loaded == loads_as
            assert loaded.metadata_dict == data["metadata"]
            save_model(loaded, str(again))
            assert again.read_bytes() == path.read_bytes()


def _decisions(path: str, argvs) -> list:
    """The exit status and result of each ``sat`` argv on ``path``, timings
    removed."""
    out = []
    for argv in argvs:
        status, report = run(argv[:2] + [path] + argv[2:])
        result = report["result"]
        stats = result.get("stats", result.get("partial_stats", {}))
        for key in ("elapsed_s", "stepper_build_s", "source_s", "compile_s"):
            stats.pop(key, None)
        result.pop("load_s", None)
        out.append((status, result))
    return out


def test_full_network_twins_decide_as_the_compact_files(tmp_path):
    """A compiled layer stores only the network of the coordinates it
    computes.  Its expanded twin, saved as a v2 file that stores every
    layer's full network, decides alike: the same verdict, witness and
    stats, also in fx:3:2, where each copy node shrinks its value."""
    compact, full = str(tmp_path / "compact.ssm"), str(tmp_path / "full.ssm")
    stored = 0
    for model in _seeded_models():
        save_model(model, compact)
        save_model(expanded(model), full)
        keyed = [["computes" in layer for layer in json.loads(Path(path).read_text())["layers"]]
                 for path in (compact, full)]
        stored += sum(keyed[0])
        assert not any(keyed[1])
        if model.metadata_dict["source"] == "ltl":
            argvs = [["sat", "fixed", "--arith", fmt] for fmt in ("fx:6:3", "fx:3:2")]
        else:
            argvs = [["sat", "bounded", "--max-len", "5", "--arith", arith]
                     for arith in ("exact", "fx:6:3", "fx:3:2")]
        assert _decisions(compact, argvs) == _decisions(full, argvs)
    assert stored > 0


def test_compile_and_sat_read_no_full_network(tmp_path, monkeypatch, ilp_file, minsky_file):
    """``compile``, ``sat``, ``eval`` and the library's oracle (``step``,
    ``run_layer`` and ``evaluate_layerwise``) read each layer's ``net`` and
    ``computes``: no layer's full network ``phi`` is built or read, also
    under fx:3:2, where each coordinate passed through shrinks."""

    def unread(layer):
        raise AssertionError("a layer's full network was read")

    fixed = [["sat", "fixed", "--arith", fmt] for fmt in ("fx:6:3", "fx:3:2")]
    bounded = [["sat", "bounded", "--max-len", "4", "--arith", arith]
               for arith in ("exact", "fx:3:2")]
    sources = [("ltl", formula, fixed)
               for formula in ("(p U q) & X !p", "G (p -> X q) & F r", "p & !p")]
    sources += [("minsky", minsky_file, bounded), ("ilp", ilp_file, bounded)]
    decided = []
    for kind, source, argvs in sources:
        path = str(tmp_path / f"m{len(decided)}.ssm")
        with monkeypatch.context() as patch:
            patch.setattr(SsmLayer, "phi", property(unread))
            assert run(["compile", kind, source, "-o", path])[0] == 0
            decided.append(_decisions(path, argvs))
            model = load_model(path)
            word = [model.alphabet[i % len(model.alphabet)] for i in range(4)]
            for arith in ("exact", "fx:3:2"):
                mode = ArithMode.parse(arith)
                status, report = run(["eval", path, "--word", format_word(word), "--arith", arith])
                assert status in (0, 1) and report["result"]["word"] == format_word(word)
                state, outputs = initial_state(model, mode), []
                for symbol in word:
                    state, y = step(model, state, symbol)
                    outputs.append(y)
                xs = [tuple(map(mode.kernels[0], model.emb[model.symbol_index[s]]))
                      for s in word]
                for layer in model.layers:
                    xs = run_layer(layer, xs, mode)
                value = evaluate(model, word, mode)
                assert outputs[-1] == evaluate_layerwise(model, word, mode) == value
                raw = value if mode.is_exact else value.raw
                assert eval_program(model.out, xs[-1], mode) == (raw,)
        assert decided[-1] == _decisions(path, argvs)
    assert [status for status, _ in decided[0] + decided[2]] == [0, 1, 1, 1]


def _literals(node, key=None) -> set[str]:
    """Every number literal of a model file's JSON."""
    if key == "nodes":  # nodes are [row, bias, activation]
        return {bias for _, bias, _ in node}
    if isinstance(node, dict):
        return set().union(*(_literals(v, k) for k, v in node.items()))
    if isinstance(node, list) and key != "alphabet":
        return set().union(*map(_literals, node))
    return {node} if key is None and isinstance(node, str) else set()


def test_load_parses_each_distinct_literal_once_per_load(tmp_path, monkeypatch):
    from ssmverify import modelfile

    model = compile_ltl(parse("(p U q) & G (p -> X q) & F r"))
    path = str(tmp_path / "m.ssm")
    save_model(model, path)
    distinct = _literals(json.loads(Path(path).read_bytes()))
    assert {"0", "1"} <= distinct
    calls = []

    def counting(text):
        calls.append(text)
        return modelfile.Fraction(text)

    monkeypatch.setattr(modelfile, "parse_rational", counting)
    for _ in range(2):
        calls.clear()
        assert load_model(path) == model
        # the table lives for one load only, so each load parses every literal once
        assert sorted(calls) == sorted(distinct)


def test_zero_literals_in_any_spelling_load_as_the_canonical_model(tmp_path):
    """Vectors and biases are read by value: every literal in them that
    parses to zero loads as 0, whatever its text, so the model and its
    saved bytes are canonical.  A row stores no zero weight at all (see
    ``v2_zero_weight``)."""
    twin = expanded(compile_ltl(parse("(p U q) & X !p")))
    canonical, spelled = tmp_path / "canonical.ssm", tmp_path / "spelled.ssm"
    save_model(twin, str(canonical))
    data = json.loads(canonical.read_text())
    spellings = iter(["0/7", "-0", "00"] * 100_000)

    def respell(texts):
        texts[:] = [next(spellings) if text == "0" else text for text in texts]

    for vec in data["embedding"]:
        respell(vec)
    for layer in data["layers"]:
        respell(layer["h0"])
        respell(layer["inc"]["offset"])
        respell(layer["gate"].get("offset", []))
    for node in data["nodes"]:
        if node[1] == "0":
            node[1] = next(spellings)
    spelled.write_text(json.dumps(data))
    assert all(f'"{text}"' in spelled.read_text() for text in ("0/7", "-0", "00"))
    loaded = load_model(str(spelled))
    assert loaded == twin and hash(loaded) == hash(twin)
    save_model(loaded, str(spelled))
    assert spelled.read_bytes() == canonical.read_bytes()


def test_bad_literal_in_the_last_output_bias_is_rejected(tmp_path):
    """The output network's nodes come last in the ``nodes`` table, so its
    last bias is the last literal a load reads from the tables."""
    from ssmverify.errors import InputFormatError

    data = _v2_tree(compile_ltl(parse("p U q")), tmp_path)
    assert data["output"][-1][-1] == len(data["nodes"]) - 1
    data["nodes"][-1][1] = "1/0"
    with pytest.raises(InputFormatError, match="1/0"):
        model_from_json(data)
    path = tmp_path / "bad.ssm"
    path.write_text(json.dumps(data))
    with pytest.raises(InputFormatError, match="bad.ssm"):
        load_model(str(path))


def _v2_row_with(data, terms: int) -> list:
    """The first ``rows`` entry of a v2 tree with at least ``terms`` terms."""
    return next(row for row in data["rows"] if len(row) > terms)


def _added(table: list, entry) -> int:
    """The index of ``entry``, appended to a ``rows`` or ``nodes`` table."""
    table.append(entry)
    return len(table) - 1


def _malformed(tmp_path, name):
    # p & q has 4 coordinates and one layer, which updates and computes [2]
    # alone, on a relu node
    path = tmp_path / "bad.ssm"
    save_model(compile_ltl(parse("p & q")), str(path))
    data = json.loads(path.read_text())
    layer = data["layers"][0]
    gate_rows = layer["gate"]["matrix"]
    if name == "directory":
        return tmp_path
    if name == "not_utf8":
        path.write_bytes(b'{"format": "\xff\xfe"}')
        return path
    if name == "h0_null":
        layer["h0"] = None
    elif name == "no_layers":
        del data["layers"]
    elif name == "list_literal":  # in a row term
        _v2_row_with(data, 1)[1][1] = ["1"]
    elif name == "list_literal_vector":
        layer["h0"][1] = ["0"]
    elif name == "dict_literal_bias":
        data["nodes"][-1][1] = {"0": 1}
    elif name == "null_literal":
        data["embedding"][0][0] = None
    elif name == "top_level_array":
        data = [data]
    elif name == "string_vector":
        layer["h0"] = "0" * len(layer["h0"])
    elif name == "layers_dict":
        data["layers"] = {}
    elif name == "layers_string":
        data["layers"] = ""
    elif name.startswith("json_literal_"):
        value = {"json_literal_true": True, "json_literal_int": 1, "json_literal_float": 0.5}
        layer["inc"]["offset"][0] = value[name]
    elif name == "ragged_gate_row":
        gate_rows[0] = _added(data["rows"], [3])
    elif name == "ragged_inc_row":
        layer["inc"]["matrix"][-1] = _added(data["rows"], [5, [0, "1"]])
    elif name == "ragged_node_weights":
        # a second node on the output's layer, one input short of the first
        row = _added(data["rows"], [3, [0, "1"]])
        data["output"][0].append(_added(data["nodes"], [row, "0", "identity"]))
    elif name == "short_embedding_row":
        data["embedding"][0].pop()
    elif name == "dimension_float":
        data["dimension"] = float(data["dimension"])
    elif name == "unknown_gate_kind":
        layer["gate"]["kind"] = "dense"
    elif name == "unknown_activation":
        data["nodes"][layer["phi"][0][0]][2] = "sigmoid"
    elif name.startswith("literal_"):
        spelling = {"literal_point": "1.5", "literal_blanks": " 1 ", "literal_underscore": "1_0",
                    "literal_exponent": "1e300000", "literal_plus": "+1"}
        layer["h0"][0] = spelling[name]
    elif name == "v2_row_index_out_of_range":
        gate_rows[0] = len(data["rows"])
    elif name == "v2_row_index_negative":
        gate_rows[0] = -1
    elif name == "v2_row_index_bool":
        gate_rows[0] = bool(gate_rows[0])
    elif name == "v2_row_index_float":
        gate_rows[0] = float(gate_rows[0])
    elif name == "v2_node_index_out_of_range":
        data["output"][0][0] = len(data["nodes"])
    elif name == "v2_columns_not_ascending":
        row = _v2_row_with(data, 2)
        row[1], row[2] = row[2], row[1]
    elif name == "v2_column_outside_width":
        row = _v2_row_with(data, 1)
        row[-1][0] = row[0]
    elif name == "v2_row_width_not_dimension":
        data["rows"][gate_rows[0]][0] += 1
    elif name == "v2_zero_weight":
        _v2_row_with(data, 1)[1][1] = "0"
    elif name == "v2_row_term_not_a_pair":
        _v2_row_with(data, 1)[1].pop()
    elif name == "v2_rows_not_a_list":
        data["rows"] = {}
    elif name == "v2_nodes_not_a_list":
        data["nodes"] = "nodes"
    elif name == "alphabet_empty":
        data["alphabet"] = []
    elif name == "alphabet_repeated":
        data["alphabet"][1] = data["alphabet"][0]
    elif name == "alphabet_not_a_string":
        data["alphabet"][0] = 1
    elif name == "short_h0":
        layer["h0"].pop()
    elif name.startswith("v2_computes_"):
        layer["computes"] = {
            "v2_computes_not_a_list": 2, "v2_computes_index_string": ["2"],
            "v2_computes_index_bool": [True], "v2_computes_index_out_of_range": [4],
            "v2_computes_not_ascending": [2, 2], "v2_computes_net_width": [1, 2],
            "v2_computes_nothing_with_a_net": [],
        }[name]
    elif name == "v2_updates_missing":  # the one stored row is read as a 1 x 1 matrix
        del layer["updates"]
    elif name.startswith("v2_updates_"):
        layer["updates"] = {
            "v2_updates_not_a_list": 2, "v2_updates_index_string": ["2"],
            "v2_updates_index_bool": [True], "v2_updates_index_out_of_range": [4],
            "v2_updates_index_negative": [-1], "v2_updates_not_ascending": [2, 2],
            "v2_updates_more_than_stored": [1, 2], "v2_updates_fewer_than_stored": [],
        }[name]
    path.write_text(json.dumps(data))
    return path


_ASCENDING = "must list coordinates of 0..3 in strictly ascending order, got"

# each malformed file of ``_malformed`` and the end of the error it gives
MALFORMED = {
    "h0_null": "expected a list of literals, got NoneType",
    "no_layers": "malformed model: missing key 'layers'",
    "list_literal": "expected a literal string, got list",
    "list_literal_vector": "expected a literal string, got list",
    "dict_literal_bias": "expected a literal string, got dict",
    "null_literal": "expected a literal string, got NoneType",
    "top_level_array": "not a model file (top-level JSON list)",
    "not_utf8": "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 12: "
                "invalid start byte",
    "directory": "cannot read the model file: Is a directory",
    "string_vector": "expected a list of literals, got str",
    "layers_dict": "expected a list of layers, got dict",
    "layers_string": "expected a list of layers, got str",
    "json_literal_true": "expected a literal string, got bool",
    "json_literal_int": "expected a literal string, got int",
    "json_literal_float": "expected a literal string, got float",
    "ragged_gate_row": "gate matrix must be square: row 2 has width 3, expected 4",
    "ragged_inc_row": "affine map needs a square matrix and a matching offset: "
                      "row 2 has width 5, expected 4",
    "ragged_node_weights": "all nodes of a layer must share the input dimension",
    "short_embedding_row": "embedding vectors must share the model dimension",
    "dimension_float": "declared dimension disagrees with the embedding table",
    "literal_point": "bad rational literal '1.5': expected num or num/den",
    "literal_blanks": "bad rational literal ' 1 ': expected num or num/den",
    "literal_underscore": "bad rational literal '1_0': expected num or num/den",
    "literal_exponent": "bad rational literal '1e300000': expected num or num/den",
    "literal_plus": "bad rational literal '+1': expected num or num/den",
    "v2_row_index_out_of_range": "bad row index 4: the table has 4 entries",
    "v2_row_index_negative": "bad row index -1: the table has 4 entries",
    "v2_row_index_bool": "bad row index False: the table has 4 entries",
    "v2_row_index_float": "bad row index 0.0: the table has 4 entries",
    "v2_node_index_out_of_range": "bad node index 2: the table has 2 entries",
    "v2_columns_not_ascending": "row columns must ascend strictly inside the width 4, got 0",
    "v2_column_outside_width": "row columns must ascend strictly inside the width 4, got 4",
    "v2_row_width_not_dimension": "gate matrix must be square: row 2 has width 5, expected 4",
    "v2_zero_weight": "zero weight '0' at column 0 of a row",
    "unknown_gate_kind": "unknown gate kind 'dense'",
    "unknown_activation": "unknown activation 'sigmoid'",
    "v2_row_term_not_a_pair": "a row term must be a [column, literal] pair",
    "v2_rows_not_a_list": "expected a list of rows, got dict",
    "v2_nodes_not_a_list": "expected a list of nodes, got str",
    "alphabet_empty": "alphabet must be non-empty",
    "alphabet_repeated": "alphabet symbols must be unique",
    "alphabet_not_a_string": "the alphabet must be a list of strings",
    "short_h0": "h0 has 3 entries, but the stored rows give the layer width 4",
    "v2_computes_not_a_list": "expected a list of computed coordinates, got int",
    "v2_computes_index_string": f"computes {_ASCENDING} ['2']",
    "v2_computes_index_bool": f"computes {_ASCENDING} [True]",
    "v2_computes_index_out_of_range": f"computes {_ASCENDING} [4]",
    "v2_computes_not_ascending": f"computes {_ASCENDING} [2, 2]",
    "v2_computes_net_width": "phi must map 2d -> 2, got 8 -> 1",
    "v2_computes_nothing_with_a_net": "a layer has a network exactly when it computes a "
                                      "coordinate",
    "v2_updates_not_a_list": "expected a list of updated coordinates, got int",
    "v2_updates_index_string": f"updates {_ASCENDING} ['2']",
    "v2_updates_index_bool": f"updates {_ASCENDING} [True]",
    "v2_updates_index_out_of_range": f"updates {_ASCENDING} [4]",
    "v2_updates_index_negative": f"updates {_ASCENDING} [-1]",
    "v2_updates_not_ascending": f"updates {_ASCENDING} [2, 2]",
    "v2_updates_more_than_stored": "the layer updates 2 coordinates, but its gate matrix lists 1",
    "v2_updates_fewer_than_stored": "the layer updates 0 coordinates, but its gate matrix "
                                    "lists 1",
    "v2_updates_missing": "h0 has 4 entries, but the stored rows give the layer width 1",
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_model_file_is_a_usage_error(tmp_path, capsys, name):
    path = str(_malformed(tmp_path, name))
    status, report = run(["sat", "fixed", path, "--arith", "fx:6:3"])
    assert status == 2
    assert report["result"]["error"] == f"{path}: {MALFORMED[name]}"
    assert main(["sat", "fixed", path, "--arith", "fx:6:3"]) == 2
    printed = json.loads(capsys.readouterr().out)
    assert "error" in printed["result"]


@pytest.mark.parametrize("command", [["sat", "fixed", "--arith", "fx:6:3"],
                                     ["eval", "--word", "{p}"],
                                     ["pump", "--word", "{p}", "--arith", "fx:6:3"],
                                     ["classify"]], ids=["sat", "eval", "pump", "classify"])
def test_a_file_in_the_retired_format_is_refused(tmp_path, capsys, command):
    """The first model format stored every row dense and every layer's full
    network; its reader is retired, so each command that reads a model
    refuses a file with its tag: exit 2 and a JSON report that names the
    file and the tag."""
    data = _v2_tree(compile_ltl(parse("p U q")), tmp_path)
    data["format"] = "ssmverify-model-v1"
    path = str(tmp_path / "old.ssm")
    Path(path).write_text(json.dumps(data))
    argv = command + [path]
    status, report = run(argv)
    assert status == 2
    assert report["result"]["error"] == (
        f"{path}: the model format ssmverify-model-v1 is retired: "
        "recompile the model from its source")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"] == report["result"] and captured.err == ""


@pytest.mark.parametrize("text, word, statuses", [
    ("X " * 254 + "p", "{p}", [0, 1, 0, 3]),
    ("p U " * 254 + "q", "{q}", [0, 0, 0, 0]),
    ("(" * 254 + "p" + " U q)" * 254, "{q}", [0, 0, 0, 0]),
    ("q & (" * 254 + "p" + ")" * 254, "{p,q}", [0, 0, 0, 0]),
], ids=["next", "until", "until_left_nested", "and_parenthesised"])
def test_the_deepest_formula_runs_through_every_command(tmp_path, monkeypatch, text, word,
                                                        statuses):
    """``parse`` accepts a tree of ``MAX_NESTING - 1`` nodes from root to
    leaf, however it is written: 254 nested X, a chain of 254 untils, 254
    left-nested untils in parentheses or 254 conjunctions that each
    parenthesise their right operand.  Each model has a layer per DAG
    height.  Each command ends with its report, never a
    ``RecursionError``: X^254 p is false on one letter and its search meets
    the state ceiling, and the others are satisfiable."""
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "2000")
    path = str(tmp_path / "deep.ssm")
    reports = [run(argv) for argv in (["compile", "ltl", text, "-o", path],
                                      ["eval", path, "--word", word],
                                      ["classify", path],
                                      ["sat", "fixed", path, "--arith", "fx:6:3"])]
    assert [status for status, _ in reports] == statuses
    assert reports[0][1]["result"]["layers"] == 254
    errors = [report["result"].get("error") for _, report in reports]
    assert errors == [None] * 3 + [None if statuses[3] == 0 else "state ceiling 2000 exceeded"]


def test_classify_parses_the_formula_of_a_model_built_through_the_api(tmp_path):
    """The model of 199 left-nested untils stores ``pretty`` of its formula,
    which parenthesises each left operand; ``classify`` parses that text
    back for the small-model bound of its 399 nodes."""
    phi = Atom("p")
    for _ in range(199):
        phi = Until(phi, Atom("q"))
    path = str(tmp_path / "left.ssm")
    save_model(compile_ltl(phi), path)
    status, report = run(["classify", path])
    assert status == 0
    assert (report["result"]["layers"], report["result"]["small_model_bound"]) == (199, 399 << 399)
    assert run(["sat", "fixed", path, "--arith", "fx:6:3"])[1]["result"]["witness"] == "{q}"


def test_long_literal_in_a_model_file_is_quoted_short(tmp_path):
    data = _v2_tree(compile_ltl(parse("p U q")), tmp_path)
    data["layers"][0]["h0"][0] = "9" * 5000
    path = tmp_path / "long.ssm"
    path.write_text(json.dumps(data))
    status, report = run(["sat", "fixed", str(path), "--arith", "fx:6:3"])
    assert status == 2
    error = report["result"]["error"]
    assert error.startswith(f"{path}: ") and len(error) - len(f"{path}: ") < 200


def _bad_input(tmp_path, name):
    not_utf8 = tmp_path / "latin1.ilp"
    not_utf8.write_bytes("2\n1 1\n0 1\n1 1 # caf\xe9\n".encode("latin-1"))
    model = str(tmp_path / "m.ssm")
    compiled = str(tmp_path / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), compiled)
    machine = tmp_path / "machine.mm"
    machine.write_text(MINSKY_TEXT)
    # q0 both increments and branches, which the determinism rule forbids
    branching = tmp_path / "branching.mm"
    branching.write_text(MINSKY_TEXT + "q0 dec1 qf\n")
    empty, short = tmp_path / "empty.ilp", tmp_path / "short.ilp"
    empty.write_text("# no instance\n")
    short.write_text("2\n1 1\n0 1\n1\n")
    return {
        "compile_minsky_nondeterministic": ["compile", "minsky", str(branching), "-o", model],
        "compile_ilp_empty": ["compile", "ilp", str(empty), "-o", model],
        "compile_ilp_short_target": ["compile", "ilp", str(short), "-o", model],
        "classify_negative_bits": ["classify", compiled, "--bits", "-1"],
        "compile_minsky_directory": ["compile", "minsky", str(tmp_path), "-o", model],
        "compile_output_directory": ["compile", "ltl", "p", "-o", str(tmp_path)],
        "oracle_minsky_directory": ["oracle", "minsky", str(tmp_path), "--max-steps", "3"],
        "oracle_ilp_not_utf8": ["oracle", "ilp", str(not_utf8)],
        "compile_ltl_nested_too_deeply": ["compile", "ltl", "!" * 3000 + "p", "-o", model],
        "oracle_ltl_nested_too_deeply": ["oracle", "ltl", "!" * 600 + "p", "--trace", "{p}"],
        "sat_bounded_negative_binary": ["sat", "bounded", compiled, "--max-len", "-3", "--binary"],
        "oracle_minsky_negative_max_steps": ["oracle", "minsky", str(machine), "--max-steps", "-1"],
        "eval_pair_letter_unclosed": ["eval", compiled, "--word", "(q1,inc1"],
        "eval_pair_letter_one_part": ["eval", compiled, "--word", "(q1)"],
        "eval_pair_letter_empty_part": ["eval", compiled, "--word", "( ,inc1)"],
        "eval_set_letter_unclosed": ["eval", compiled, "--word", "{p"],
        "eval_set_letter_bad_proposition": ["eval", compiled, "--word", "{p,Q}"],
        "eval_empty_letter": ["eval", compiled, "--word", "{p};;{q}"],
    }[name]


@pytest.mark.parametrize("name", [
    "compile_minsky_directory", "compile_output_directory", "oracle_minsky_directory",
    "oracle_ilp_not_utf8", "compile_ltl_nested_too_deeply", "oracle_ltl_nested_too_deeply",
    "sat_bounded_negative_binary", "oracle_minsky_negative_max_steps",
    "eval_pair_letter_unclosed", "eval_pair_letter_one_part", "eval_pair_letter_empty_part",
    "eval_set_letter_unclosed", "eval_set_letter_bad_proposition", "eval_empty_letter",
    "compile_minsky_nondeterministic", "compile_ilp_empty", "compile_ilp_short_target",
    "classify_negative_bits",
])
def test_bad_input_file_or_formula_is_a_usage_error(tmp_path, capsys, name):
    argv = _bad_input(tmp_path, name)
    status, report = run(argv)
    assert status == 2
    assert report["result"]["error"]
    assert main(argv) == 2
    printed = json.loads(capsys.readouterr().out)
    assert printed["result"]["error"]


@pytest.mark.parametrize("argv", [
    ["sat", "fixed", "m.ssm", "--arith", "fx:6:3", "--threads", "1"],
    ["sat", "fixed", "m.ssm"],
    ["sat", "fixed", "m.ssm", "--arith", "fx:6:3", "--bogus"],
    ["sat", "fixed", "m.ssm", "extra", "--arith", "fx:6:3"],
    ["sat", "fixed", "--", "m.ssm", "--arith", "fx:6:3"],
    ["sat", "fixed", "--help"],
    ["sat", "fixed", "m.ssm", "--ari", "fx:6:3", "-h"],
    ["sat", "bounded", "m.ssm", "--max-len", "3", "--binary"],
    ["sat", "bounded", "m.ssm", "--max-len", "three"],
    ["sat"], ["sat", "other"], ["sat", "--help"], ["sat", "m.ssm", "fixed"],
    ["compile", "ltl", "p U q", "-o", "x.ssm"], ["compile", "pascal", "p", "-o", "x.ssm"],
    ["compile"], ["compile", "-h"],
    ["eval", "m.ssm", "--word", "a;b"], ["eval", "m.ssm", "--word"],
    ["pump", "m.ssm", "--word", "a", "--arith", "fx:6:3"],
    ["oracle", "ltl", "p", "--trace", "{p}"], ["oracle", "ltl", "p"], ["oracle", "ilp", "f.txt"],
    ["oracle", "minsky", "f.mm", "--max-steps", "3"], ["oracle"], ["oracle", "sql"],
    ["classify", "m.ssm", "--bits", "4"], ["classify", "m.ssm", "--bit", "4"],
    [], ["--help"], ["frobnicate"], ["-x"], ["--help", "sat"],
], ids=lambda argv: " ".join(argv) or "nothing")
def test_a_command_parses_as_the_whole_parser_parses_it(argv, capsys):
    """``run`` parses a command whose argv starts with a leaf's prefix,
    such as ``sat fixed``, with that leaf alone: the namespace, the usage
    text, the error and the exit code are those of the whole parser."""
    def outcome(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert outcome(_parse) == outcome(_build_parser()[0].parse_args)
