"""Golden checksums pinning the input file formats and the model file
serialisation; any change to either is a format break and must be deliberate."""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import chain
from fractions import Fraction
from math import lcm
from pathlib import Path

from helpers import (
    counting_model, expanded, full_rows, geometric_model, hand_formulas, random_ilp,
    random_machine,
)
from ssmverify.arithmetic import EXACT, ArithMode, FixedPointFormat, raw_encode
from ssmverify.cli import run
from ssmverify.compilers import compile_ilp, compile_ltl, compile_minsky, parse_ilp, parse_minsky
from ssmverify.fnn import IDENTITY, RELU, compose, gadget_eq, linear_fnn, select_fnn
from ssmverify.ltl import parse
from ssmverify.modelfile import load_model, save_model
from ssmverify.ssm import (
    AffineMap, DiagonalAffineGate, SsmLayer, SsmModel, _constants, _denominator, _first_scale,
    _Inexact, _render, _Stepper, as_vector, carried, evaluate_layerwise, projection_phi,
)

MINSKY_TEXT = (
    "start: q0\n"
    "final: qf\n"
    "q0 inc1 q1\n"
    "q1 dec1 qf\n"
    "q1 ztest1 q0\n"
)

ILP_TEXT = (
    "2\n"
    "1 1\n"
    "0 1\n"
    "1 1\n"
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_input_format_checksums():
    assert sha(MINSKY_TEXT) == "325c8fdc90a33859c9901197ea49782d76f2d1e19cd43e3cf3547c49526d0f04"
    assert sha(ILP_TEXT) == "fcc84e86aa88e8aa7fd607615793cf5c016bb515caf21c55270b6442fd5af271"
    machine = parse_minsky(MINSKY_TEXT)
    assert machine.states == ("q0", "qf", "q1")
    inst = parse_ilp(ILP_TEXT)
    assert inst.matrix == ((1, 1), (0, 1)) and inst.target == (1, 1)


def v2_text(model, path) -> str:
    """The v2 bytes of ``model``, as ``save_model`` writes them to ``path``."""
    save_model(model, str(path))
    return path.read_text()


def test_model_file_checksums(tmp_path):
    cases = {
        "minsky": compile_minsky(parse_minsky(MINSKY_TEXT)),
        "ilp": compile_ilp(parse_ilp(ILP_TEXT)),
        "ltl": compile_ltl(parse("p U q")),
        # the relu gadgets of & and of |, which is !l & !r, and the
        # previous-bit decoder of X p in its own level's layer
        "ltl_pointwise": compile_ltl(parse("(X p | !q) & r")),
        # an until whose gate the layer of X q computes
        "ltl_until_gate": compile_ltl(parse("(p | q) U X q")),
    }
    expected_v2 = {
        "minsky": "7065f840f3530006230aa389275da8bb9c108346e1e232f160815ba494171f00",
        "ilp": "8673a808f92b56972f34c439c85abdfc8f0adfa68ec5231969e3609c72275279",
        "ltl": "b9a5d95747d5501d803346961dddb0f0c3d67cf59e3883c64e113628fc3a5049",
        "ltl_pointwise": "9157b691274494f4614b49ff6c271090dce526f5bd097cfca6a18cc5933ba5f0",
        "ltl_until_gate": "1a1a7b85db1c995e23a4797d334fdd92f2d55c42582c7784161eb08e007cd8ff",
    }
    for name, model in cases.items():
        v2 = tmp_path / f"{name}.ssm"
        assert sha(v2_text(model, v2)) == expected_v2[name], name
        assert load_model(str(v2)) == model


def test_a_compiled_model_round_trips_with_updates(tmp_path):
    """A layer that carries coordinates stores, under ``updates``, the gate
    and inc rows and offsets of the others alone.  A load fills the carried
    rows with the shared copy rows, gives back an equal model and saves the
    same bytes again."""
    rng = random.Random(17)
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    models += [compile_minsky(random_machine(rng, 3)), compile_ilp(random_ilp(rng))]
    path, again = tmp_path / "model.ssm", tmp_path / "again.ssm"
    found = 0
    for model in models:
        text = v2_text(model, path)
        for layer, entry in zip(model.layers, json.loads(text)["layers"]):
            stored = list(layer.updates)
            if len(stored) == model.dim:
                assert "updates" not in entry
            else:
                assert entry["updates"] == stored
            gate, inc = entry["gate"], entry["inc"]
            assert len(gate["matrix"]) == len(inc["matrix"]) == len(inc["offset"]) == len(stored)
            assert len(gate.get("offset", stored)) == len(stored)
        loaded = load_model(str(path))
        assert loaded == model and v2_text(loaded, again) == text
        for layer in loaded.layers:
            rows = carried(model.dim)
            for j in set(range(model.dim)) - set(layer.updates):
                assert [part[j] for part in rows] == [
                    layer.gate.rows[j], layer.inc.rows[j], layer.inc.offset[j]]
                assert layer.gate.rows[j] is rows[0][j] and layer.inc.rows[j] is rows[1][j]
                found += 1
    assert found > 100


def sat_report(search: str, path, *options: str) -> tuple:
    """The status, verdict, witness and counts of ``sat search`` on ``path``."""
    status, report = run(["sat", search, str(path), *options])
    result = report["result"]
    return (status, result["verdict"], result.get("witness"), result["stats"]["transitions"],
            result["stats"]["distinct_states"])


def test_files_without_updates_load_decide_and_resave_in_the_canonical_form(tmp_path):
    """Files without ``updates`` store every row, as files written before
    the key did: that of the model with its compact networks and that of its
    expanded twin, which has no ``computes``.  Each loads as the model it
    was written from, decides as the compact file does, and saves the
    canonical bytes, which carry ``updates`` and are smaller."""
    model = compile_ltl(parse("(X p | !q) & r"))
    canonical, full = tmp_path / "canonical.ssm", tmp_path / "full.ssm"
    reports = []
    for twin in (model, expanded(model)):
        text = v2_text(twin, canonical)
        full.write_text(full_rows(text))
        assert [entry.get("updates") for entry in json.loads(text)["layers"]] == [
            list(layer.updates) for layer in model.layers] == [[3], [4], [5]]
        assert all("updates" not in entry for entry in json.loads(full.read_text())["layers"])
        loaded = load_model(str(full))
        assert loaded == twin and v2_text(loaded, tmp_path / "re.ssm") == text
        assert len(text) < len(full.read_text())
        reports += [sat_report("fixed", path, "--arith", "fx:4:3") for path in (canonical, full)]
    assert len(set(reports)) == 1


def test_a_hand_built_full_row_layer_saves_with_updates(tmp_path):
    """A layer built by hand from dense rows, one coordinate of which only
    copies its input, carries that coordinate: its file stores ``updates``
    and the other coordinate's rows alone, loads as an equal model, and
    decides as the full-row file of the same layer does."""
    layer = SsmLayer(as_vector([0, 0]), DiagonalAffineGate([[0, 1], [0, 0]], as_vector([0, 0])),
                     AffineMap([[1, 0], [0, 1]], as_vector([0, 0])), projection_phi(2))
    model = SsmModel(("a", "b"), (as_vector([1, 1]), as_vector([0, 1])), (layer,),
                     compose(gadget_eq(3), select_fnn([0], 2)))
    assert layer.updates == (0,)
    path, full = tmp_path / "count.ssm", tmp_path / "full.ssm"
    text = v2_text(model, path)
    (entry,) = json.loads(text)["layers"]
    assert entry["updates"] == [0]
    assert len(entry["gate"]["matrix"]) == len(entry["inc"]["matrix"]) == 1
    full.write_text(full_rows(text))
    loaded = load_model(str(path))
    assert loaded == load_model(str(full)) == model and loaded.layers[0].updates == (0,)
    for search, *options in (("fixed", "--arith", "fx:6:3"), ("bounded", "--max-len", "4")):
        assert sat_report(search, path, *options) == sat_report(search, full, *options) == (
            0, "satisfiable", "a;a;a", 5, 3)


def test_golden_machine_shape():
    """Layer 1's phi is the previous-bit decoder, and it computes only the
    decoded previous states, coordinates 3 to 5 of this 3-state machine.
    Layer 2 computes only the violation coordinate 14, one stage of checks
    on its own input, and layer 3 computes nothing.  ``out`` is one node,
    ``relu(final - violations)``.  Layer 1 updates the history and the two
    counters 12 and 13, layer 2 carries every coordinate, and layer 3
    updates the violation sum alone."""
    machine = parse_minsky(MINSKY_TEXT)
    model = compile_minsky(machine)
    assert [(len(layer.phi.layers), layer.computes) for layer in model.layers] == [
        (4, (3, 4, 5)), (4, (14,)), (1, ())]
    assert [layer.updates for layer in model.layers] == [(3, 4, 5, 12, 13), (), (14,)]
    ((node,),) = (layer.nodes for layer in model.out.layers)
    final = machine.states.index("qf")
    assert (node.row.terms, node.bias, node.activation) == (((final, 1), (14, -1)), 0, RELU)


def passed_through(layer) -> list[int]:
    """The coordinates j whose output in ``layer.net`` is only a chain of
    unit copies of the layer's own input h_j: a pass-through stored as
    nodes, which the layer should leave out of ``computes`` instead."""
    found = []
    for k, j in enumerate(layer.computes):
        for fnn_layer in reversed(layer.net.layers):
            node = fnn_layer.nodes[k]
            terms = node.row.terms
            if node.activation != IDENTITY or node.bias or len(terms) != 1 or terms[0][1] != 1:
                break
            k = terms[0][0]
        else:
            if k == j:
                found.append(j)
    return found


def test_compilers_store_no_pass_through():
    """No compiled layer stores a coordinate that it only copies: every
    output of a ``net`` computes something."""
    rng = random.Random(31)
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    models.append(compile_minsky(parse_minsky(MINSKY_TEXT)))
    models += [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(12)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(12)]
    for model in models:
        for i, layer in enumerate(model.layers):
            assert passed_through(layer) == [], (model.metadata, i)


def corpus_digest(models, tmp_path) -> str:
    """One digest over the v2 bytes of ``models``, in order."""
    digest = hashlib.sha256()
    for model in models:
        digest.update(v2_text(model, tmp_path / "model.ssm").encode())
    return digest.hexdigest()


# The two corpus digests below pin every model the compilers emit, not only
# the five above.  They are apart so that a change to the LTL compiler can
# re-pin its digest while the Minsky and ILP bytes stay fixed.

def test_compiled_ltl_corpus_checksum(tmp_path):
    """The saved bytes of every hand formula."""
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    assert corpus_digest(models, tmp_path) == (
        "c609d9ec796a614ffce08fb67657566298066b9629d5af1eefce3c195304d8f1")


def test_compiled_minsky_ilp_corpus_checksum(tmp_path):
    """The saved bytes of seeded random machines and 0-1 programs."""
    rng = random.Random(5)
    models = [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(8)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(8)]
    assert corpus_digest(models, tmp_path) == (
        "47e59755ac80ba097fff7cfd9fc0d1021f5f26b85e3bb6e8741ef55f2913c9f4")


STEP_MODES = (EXACT, ArithMode(FixedPointFormat(6, 3)), ArithMode(FixedPointFormat(12, 3)))


def steppers(models):
    """The step that each of ``models`` builds in each mode of
    ``STEP_MODES``.  An exact step starts on the model's first scale."""
    for model in models:
        for mode in STEP_MODES:
            scale = _first_scale(_denominator(model)) if mode.is_exact else None
            yield _Stepper(model, mode, scale)


def step_digest(models) -> str:
    """One digest over the ``steppers`` of ``models``: the source that
    ``_render`` gives for each program, then the key, the dead rule, the
    initial key and the quantised count."""
    digest = hashlib.sha256()
    for stepper in steppers(models):
        digest.update(repr((_render(stepper.program), stepper.key, stepper.dead_rule,
                            stepper.init, stepper.quantized_constants)).encode())
    return digest.hexdigest()


def ltl_corpus() -> list:
    """Every hand formula, compiled."""
    return [compile_ltl(parse(text)) for text in hand_formulas()]


def minsky_ilp_corpus() -> list:
    """Seeded random machines and 0-1 programs, compiled."""
    rng = random.Random(5)
    models = [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(8)]
    return models + [compile_ilp(random_ilp(rng)) for _ in range(8)]


# The step sources of the two corpora above, apart for the same reason: a
# change to the step compiler that moves no emitted line leaves both.

def test_step_sources_checksum_ltl():
    """The steps of every hand formula."""
    assert step_digest(ltl_corpus()) == (
        "54a38eb8dfb946b89e78ccdc984dfed22f94cc273a5f8c25a0c90a5632694de6")


def test_step_sources_checksum_minsky_ilp():
    """The steps of the seeded random machines and 0-1 programs."""
    assert step_digest(minsky_ilp_corpus()) == (
        "ecd4cf495a82bed7514399a19d5bdfc8f3026d85376533d5102c186cb28f1452")


def test_the_interpreted_step_agrees_with_the_compiled_one():
    """On every step of both corpora and of the counting model, and on the
    exact step of each model over the lcm of its denominators alone, which
    its values soon leave: 20 seeded random walks of up to 8 symbols each.
    At every position the interpreted step (the program run op by op) and
    the compiled one (its rendered source) give the same new key and
    output, or both raise ``_Inexact``, which ends the walk.

    A time-invariant gate of 7/4 under fx:6:3 and of 3/2 under fx:4:1 makes
    a product by a constant that can pass the top: a local of its own,
    clamped.  Both tiers and ``evaluate_layerwise`` agree on each of its
    outputs until the product saturates."""
    rng = random.Random(45)
    outcomes = Counter()
    models = ltl_corpus() + minsky_ilp_corpus() + [counting_model()]
    narrow = [_Stepper(model, EXACT, _denominator(model)) for model in models]
    for stepper in chain(steppers(models), narrow):
        compiled, _ = stepper.compiled()
        inputs = list(stepper.emb.values())
        for _ in range(20):
            key = stepper.init
            for _ in range(rng.randint(1, 8)):
                x = rng.choice(inputs)
                both = []
                for step in (stepper.search_step, compiled):
                    try:
                        both.append(step(key, x))
                    except _Inexact as exc:
                        both.append(type(exc))
                assert both[0] == both[1], (_render(stepper.program), key, x)
                outcomes[both[0] if isinstance(both[0], type) else "step"] += 1
                if isinstance(both[0], type):
                    break
                key = both[0][0]
    assert outcomes[_Inexact] and outcomes["step"] > 10_000, outcomes
    for gate, fmt in ((Fraction(7, 4), FixedPointFormat(6, 3)),
                      (Fraction(3, 2), FixedPointFormat(4, 1))):
        model, mode = geometric_model(gate, select_fnn([1], 2)), ArithMode(fmt)
        stepper = _Stepper(model, mode, None)
        w, f, top = raw_encode(gate, fmt), fmt.frac_bits, fmt.max_raw
        product = re.escape(f"{w} * h0_1 >> {f} if h0_1 >= 0 else -({w} * -h0_1 >> {f})")
        assert re.search(rf"(v\d+) = {product}\n    if \1 > {top}: \1 = {top}\n",
                         _render(stepper.program))
        compiled, _ = stepper.compiled()
        key, x = stepper.init, stepper.emb["a"]
        for length in range(1, 9):
            new = stepper.search_step(key, x)
            assert compiled(key, x) == new
            key, y = new
            assert y == evaluate_layerwise(model, ["a"] * length, mode).raw
        assert y == top


# A model file of FORMULA compiled in an earlier layout (one layer per
# subformula), with the verdict and witness that ``sat fixed --arith
# fx:6:3`` gave on it.  The file is judged by its behaviour, which a fresh
# compile must share.
FIXTURE = Path(__file__).parent / "data" / "xp_and_not_q.ssm"
FORMULA = "X p & !q"


def test_old_layout_file_still_loads_and_decides(tmp_path):
    assert sha(FIXTURE.read_text()) == (
        "fae34396114dfcbc9f53ccad4c7f053509e57622abc435122ebafe7de196a642")
    loaded = load_model(str(FIXTURE))
    # the fixture stores every row; its re-save is the canonical form
    resaved = tmp_path / "resaved.ssm"
    assert sha(v2_text(loaded, resaved)) == (
        "e15e6ff9c345b2e16a6c27a2d272ad4c81b0f463f997ff98c7dd12349b7197ed")
    assert len(resaved.read_text()) < len(FIXTURE.read_text()) and load_model(str(resaved)) == loaded
    assert any("updates" in entry for entry in json.loads(resaved.read_text())["layers"])
    fresh = compile_ltl(parse(FORMULA))
    assert len(loaded.layers) > len(fresh.layers)
    save_model(fresh, str(tmp_path / "fresh.ssm"))
    for path in (FIXTURE, resaved, tmp_path / "fresh.ssm"):
        status, report = run(["sat", "fixed", str(path), "--arith", "fx:6:3"])
        assert status == 0
        assert report["result"]["verdict"] == "satisfiable"
        assert report["result"]["witness"] == "{p};{}"


def test_the_denominators_walk_reads_every_constant_the_report_names(tmp_path):
    """The lcm of the denominators, from which the exact step picks its
    first scale, walks the vectors and rows that hold the constants; it
    equals the lcm over the path walk behind ``quantization_report``, on
    models in memory, their model files and the old-layout file."""

    def walk(model) -> int:
        return lcm(*(v.denominator for _, v in _constants(model)))

    # each place that holds a constant gets a prime of its own
    p = [Fraction(1, q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    layer = SsmLayer((p[1],), DiagonalAffineGate([[p[3]]], (p[2],)),
                     AffineMap([[p[4]]], (p[5],)), linear_fnn([[p[7], 1]], [p[6]]))
    primes = SsmModel(alphabet=("a",), emb=((p[0],),), layers=(layer,),
                      out=linear_fnn([[p[9]]], [p[8]]))
    rng = random.Random(41)
    models = [compile_minsky(random_machine(rng, 3)), compile_ilp(random_ilp(rng)),
              compile_ltl(parse("p U q")), compile_ltl(parse(FORMULA)),
              geometric_model(Fraction(2, 15), select_fnn([1], 2)), primes]
    path = tmp_path / "model.ssm"
    denominators = []
    for model in models:
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert _denominator(loaded) == walk(loaded) == _denominator(model) == walk(model)
        denominators.append(_denominator(loaded))
    assert denominators == [4, 1, 1, 4, 15, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29]
    loaded = load_model(str(FIXTURE))
    assert _denominator(loaded) == walk(loaded) > 1
