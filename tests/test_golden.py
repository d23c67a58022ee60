"""Golden checksums pinning the input file formats and the model file
serialisation; any change to either is a format break and must be deliberate."""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

from helpers import (
    expanded, geometric_model, hand_formulas, random_ilp, random_machine, v1_text,
)
from ssmverify.cli import run
from ssmverify.compilers import compile_ilp, compile_ltl, compile_minsky, parse_ilp, parse_minsky
from ssmverify.fnn import linear_fnn, select_fnn
from ssmverify.ltl import parse
from ssmverify.modelfile import load_model, save_model
from ssmverify.ssm import (
    AffineMap, DiagonalAffineGate, SsmLayer, SsmModel, _constants, _denominator,
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
        # the relu and min1 gadgets and the previous-bit layer
        "ltl_pointwise": compile_ltl(parse("(X p | !q) & r")),
        # an until whose gate the previous-bit layer computes
        "ltl_until_gate": compile_ltl(parse("(p | q) U X q")),
    }
    expected_v1 = {
        "minsky": "3df61b8afe417314b5748605bb48ed2daa437c642ce5ce5ba2711cdff4c3dc6e",
        "ilp": "0e94b9f3be6928193b94cdcd90ac28fc0f96e94dd82d5b7b81d48631f1b01119",
        "ltl": "47ccee3f635a06d69ee38824ab14466750ea108ddf1794a8658bbb4f71fc79f2",
        "ltl_pointwise": "b84526b4ce29ed044e9720e052b5ebe4504d0a978a5710b54ef0335350f5a687",
        "ltl_until_gate": "1ae0ce349a481dffcbbeb28ebdba03a17504f8de588d94744a1bdf936bacf370",
    }
    expected_v2 = {
        "minsky": "761535770e67d43ebda047f5c0110c8c9937b9afc1a4b380a89cba9589c78591",
        "ilp": "ecc3bb29fc7ea73b0d0e754b4c7aedcef9cde51585f16248429f3469477e3977",
        "ltl": "7cabcde5b8c81e728a44cea0572f0119c86c025f6a775f9664c03eff58f16076",
        "ltl_pointwise": "2b1b52de9ce6948e8a3ab6beb309bbb3c8461c8a259e21a4b4ce6d2c5bc6ac87",
        "ltl_until_gate": "0eb10b7b2470dc5da5fbb9215d1bda86a00d0a2458090cbd50f72bdc04d9e0f1",
    }
    for name, model in cases.items():
        assert sha(v1_text(model)) == expected_v1[name], name
        v1, v2 = tmp_path / f"{name}.v1.ssm", tmp_path / f"{name}.ssm"
        v1.write_text(v1_text(model))
        assert sha(v2_text(model, v2)) == expected_v2[name], name
        # v1 stores every layer's full network, which v2 stores only where
        # the layer computes every coordinate
        assert load_model(str(v1)) == expanded(model)
        assert load_model(str(v2)) == model


def test_golden_machine_shape():
    """Layer 2's phi is the previous-bit decoder and one stage of checks,
    and ``out`` reads its two columns with no routing layer."""
    model = compile_minsky(parse_minsky(MINSKY_TEXT))
    assert len(model.layers[1].phi.layers) == 12
    assert len(model.out.layers) == 5


def corpus_digests(models, tmp_path) -> tuple[str, str]:
    """One digest over the v1 bytes of ``models``, in order, and one over
    their v2 bytes."""
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    for model in models:
        v1.update(v1_text(model).encode())
        v2.update(v2_text(model, tmp_path / "model.ssm").encode())
    return v1.hexdigest(), v2.hexdigest()


# The two corpus digests below pin every model the compilers emit, not only
# the four above.  They are apart so that a change to the LTL compiler can
# re-pin its digest while the Minsky and ILP bytes stay fixed.  The v1 bytes
# hold each layer's full network ``phi``, copy nodes included, and the v2
# bytes only the network of the coordinates a layer computes.

def test_compiled_ltl_corpus_checksum(tmp_path):
    """The saved bytes of every hand formula."""
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    assert corpus_digests(models, tmp_path) == (
        "15062429446f080ac183f6ad6204eb3fdc6f6a664185d60290eaedb31bb8e5cc",
        "4e66ded86bfbc860e5109515ed7a07bb9d088defcbd03a3a76c0a99016166c4a")


def test_compiled_minsky_ilp_corpus_checksum(tmp_path):
    """The saved bytes of seeded random machines and 0-1 programs."""
    rng = random.Random(5)
    models = [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(8)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(8)]
    assert corpus_digests(models, tmp_path) == (
        "1d76d7b499885fcefa15138e51434068c010877740bbd10806b6f95bab6a439f",
        "fbfc2100fe906bf32d3f8d9ceaa4794485f477a723a9422b02fd01534bb2bd39")


# A v1 file as the v1 writer in ``helpers`` saved the compiled model of
# V1_FORMULA, with the verdict and witness that ``sat fixed --arith fx:6:3``
# gave on it.  The file holds an earlier layout of the compile (one layer
# per subformula), so it is judged by its behaviour, which a fresh compile
# must share.
V1_FIXTURE = Path(__file__).parent / "data" / "xp_and_not_q.v1.ssm"
V1_FORMULA = "X p & !q"


def test_v1_file_still_loads_and_decides(tmp_path):
    assert sha(V1_FIXTURE.read_text()) == (
        "2d917f79ce1c2c617a79136411dc19e049b747974f9e017efc03b6e396f7338d")
    loaded = load_model(str(V1_FIXTURE))
    assert V1_FIXTURE.read_text() == v1_text(loaded)
    fresh = tmp_path / "fresh.ssm"
    save_model(compile_ltl(parse(V1_FORMULA)), str(fresh))
    for path in (V1_FIXTURE, fresh):
        status, report = run(["sat", "fixed", str(path), "--arith", "fx:6:3"])
        assert status == 0
        assert report["result"]["verdict"] == "satisfiable"
        assert report["result"]["witness"] == "{p};{}"
    # a save of the loaded v1 model writes v2, which loads as the model
    resaved = tmp_path / "resaved.ssm"
    save_model(loaded, str(resaved))
    assert json.loads(resaved.read_text())["format"] == "ssmverify-model-v2"
    assert load_model(str(resaved)) == loaded


def test_the_denominators_walk_reads_every_constant_the_report_names(tmp_path):
    """The lcm of the denominators, from which the exact step picks its
    first scale, walks the vectors and rows that hold the constants; it
    equals the lcm over the path walk behind ``quantization_report``, on
    models in memory, their v2 files and a v1 file."""

    def walk(model) -> int:
        return lcm(*(v.denominator for _, v in _constants(model)))

    # each place that holds a constant gets a prime of its own
    p = [Fraction(1, q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    layer = SsmLayer(h0=(p[1],), gate=DiagonalAffineGate([[p[3]]], (p[2],)),
                     inc=AffineMap([[p[4]]], (p[5],)), phi=linear_fnn([[p[7], 1]], [p[6]]))
    primes = SsmModel(alphabet=("a",), emb=((p[0],),), layers=(layer,),
                      out=linear_fnn([[p[9]]], [p[8]]))
    rng = random.Random(41)
    models = [compile_minsky(random_machine(rng, 3)), compile_ilp(random_ilp(rng)),
              compile_ltl(parse("p U q")), compile_ltl(parse(V1_FORMULA)),
              geometric_model(Fraction(2, 15), select_fnn([1], 2)), primes]
    path = tmp_path / "model.ssm"
    denominators = []
    for model in models:
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert _denominator(loaded) == walk(loaded) == _denominator(model) == walk(model)
        denominators.append(_denominator(loaded))
    assert denominators == [8, 1, 1, 8, 15, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29]
    loaded = load_model(str(V1_FIXTURE))
    assert _denominator(loaded) == walk(loaded) > 1
