"""Fuzzing the outside inputs: model files, words, formulas and format
strings.  Whatever the input, a command ends with exit 0-3 and a JSON
report, and ``load_model`` either loads or raises ``InputFormatError``."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import model_to_json
from ssmverify.cli import run
from ssmverify.compilers import compile_ltl
from ssmverify.errors import InputFormatError
from ssmverify.ltl import parse
from ssmverify.modelfile import load_model, save_model
from ssmverify.ssm import SsmModel

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.sampled_from(["0", "1", "-1", "1/2", "1/3", "1/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def model_trees(tmp_path_factory):
    """The v1 and the v2 JSON tree of one model."""
    model = compile_ltl(parse("p U q"))
    path = tmp_path_factory.mktemp("fuzz") / "pq.ssm"
    save_model(model, str(path))
    return model_to_json(model), json.loads(path.read_text())


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "pq.ssm")
    save_model(compile_ltl(parse("p U q")), path)
    return path


def _mutate(data, draw):
    """Replace or delete one node of a JSON tree, chosen by a random walk."""
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            node[key] = draw(json_values)
        elif isinstance(node, dict):
            del node[key]
        else:
            node.pop(key)
        return


def _ends_in_a_report(status, report):
    assert status in (0, 1, 2, 3)
    assert json.loads(json.dumps(report))["result"] is not None


@given(st.data())
@SETTINGS
def test_mutated_model_files_load_or_are_rejected(model_trees, tmp_path, data):
    mutated = copy.deepcopy(data.draw(st.sampled_from(model_trees)))
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate(mutated, data.draw)
    if data.draw(st.booleans()) and isinstance(mutated.get("metadata"), dict):
        # the metadata keys that classify reads
        key = data.draw(st.sampled_from(["source", "formula", "min_bits", "frac_bits"]))
        mutated["metadata"][key] = data.draw(json_values | st.sampled_from(
            ["ltl", "minsky", "ilp", "p U q", "9", "2"]))
    path = str(tmp_path / "mutated.ssm")
    with open(path, "w") as fh:
        json.dump(mutated, fh)
    try:
        assert isinstance(load_model(path), SsmModel)
    except InputFormatError:
        pass
    for argv in (["sat", "bounded", path, "--max-len", "2"],
                 ["sat", "fixed", path, "--arith", "fx:6:3"],
                 ["classify", path]):
        _ends_in_a_report(*run(argv))


formula_text = st.text("pq!&|UXFG()-> tf", max_size=12).filter(lambda t: not t.startswith("-"))
word_text = st.text("{}();,pqa0123", max_size=12)
arith_text = st.one_of(
    st.sampled_from(["exact", "fx:6:3", "fx:3:2", "fx:1:0", "fx:4:4", "fx::", "exactly"]),
    st.builds("fx:{}:{}".format, st.integers(-2, 12), st.integers(-2, 12)),
    st.text(max_size=8),
)


@given(formula_text, word_text, arith_text)
@SETTINGS
def test_words_formulas_and_formats_end_in_a_report(model_path, tmp_path, formula, word, arith):
    compiled = str(tmp_path / "fuzzed.ssm")
    for argv in (["compile", "ltl", formula, "-o", compiled],
                 ["oracle", "ltl", formula, f"--trace={word}"],
                 ["eval", model_path, f"--word={word}", f"--arith={arith}"],
                 ["sat", "bounded", model_path, "--max-len", "2", f"--arith={arith}"],
                 ["sat", "fixed", model_path, f"--arith={arith}"],
                 ["pump", model_path, f"--word={word}", f"--arith={arith}"]):
        _ends_in_a_report(*run(argv))


@pytest.fixture(scope="module")
def machine_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "loop.mm"
    # counts up forever, so the oracle runs until its step budget or the state
    # ceiling ends it
    path.write_text("start: q0\nfinal: qf\nq0 inc1 q0\n")
    return str(path)


# small values, and values past 2**63, which no search or format reaches
int_option = st.integers(-3, 20_000) | st.integers(10**19, 10**30)


@given(int_option, st.booleans(), int_option, int_option)
@SETTINGS
def test_integer_options_end_in_a_report(model_path, machine_path, monkeypatch, max_len, binary,
                                         max_steps, bits):
    # the oracle simulates the machine that counts forever step by step; the
    # state ceiling ends a budget it would spend for ever
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "1000")
    for argv in (["sat", "bounded", model_path, "--max-len", str(max_len)] + ["--binary"] * binary,
                 ["oracle", "minsky", machine_path, "--max-steps", str(max_steps)],
                 ["classify", model_path, "--bits", str(bits)]):
        _ends_in_a_report(*run(argv))


@given(int_option, int_option)
@SETTINGS
def test_fixed_point_widths_end_in_a_report(model_path, monkeypatch, total, frac):
    # a wide format can leave p U q with a long search; the ceiling ends it
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "1000")
    arith = f"--arith=fx:{total}:{frac}"
    for argv in (["eval", model_path, "--word={p};{q}", arith],
                 ["sat", "fixed", model_path, arith],
                 ["pump", model_path, "--word={p};{q}", arith]):
        _ends_in_a_report(*run(argv))
