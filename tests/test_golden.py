"""Golden checksums pinning the input file formats and the model file
serialisation; any change to either is a format break and must be deliberate."""

import hashlib
import random

from helpers import hand_formulas, random_ilp, random_machine
from ssmverify.compilers import compile_ilp, compile_ltl, compile_minsky, parse_ilp, parse_minsky
from ssmverify.ltl import parse
from ssmverify.modelfile import load_model, save_model

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


def test_model_file_checksums(tmp_path):
    cases = {
        "minsky": compile_minsky(parse_minsky(MINSKY_TEXT)),
        "ilp": compile_ilp(parse_ilp(ILP_TEXT)),
        "ltl": compile_ltl(parse("p U q")),
        # the relu and min1 gadgets and the previous-bit layer
        "ltl_pointwise": compile_ltl(parse("(X p | !q) & r")),
    }
    expected = {
        "minsky": "70cb671515d7333f626b12bd5c81e8408fd94ddf5ebf362d0b87c639ed392d22",
        "ilp": "0e94b9f3be6928193b94cdcd90ac28fc0f96e94dd82d5b7b81d48631f1b01119",
        "ltl": "38500d9487ada108dbd116aabca53bb1632c7c257a2371043522d72883dd37f1",
        "ltl_pointwise": "dce1a2fdfe51972f73d78d8a2fa8a0fe6bb548e12e0d58d18912c437d2d6e811",
    }
    for name, model in cases.items():
        path = str(tmp_path / f"{name}.ssm")
        save_model(model, path)
        with open(path) as fh:
            content = fh.read()
        assert sha(content) == expected[name], name
        assert load_model(path) == model


def corpus_digest(models, tmp_path) -> str:
    """One digest over the saved bytes of ``models``, in order."""
    digest = hashlib.sha256()
    path = str(tmp_path / "model.ssm")
    for model in models:
        save_model(model, path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# The two corpus digests below pin every model the compilers emit, not only
# the four above.  They are apart so that a change to the LTL compiler can
# re-pin its digest while the Minsky and ILP bytes stay fixed.

def test_compiled_ltl_corpus_checksum(tmp_path):
    """The saved bytes of every hand formula."""
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    assert corpus_digest(models, tmp_path) == (
        "0a306328413e6edf79fc7e65ad0d400c297a8e735438657e023f88974f473831")


def test_compiled_minsky_ilp_corpus_checksum(tmp_path):
    """The saved bytes of seeded random machines and 0-1 programs."""
    rng = random.Random(5)
    models = [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(8)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(8)]
    assert corpus_digest(models, tmp_path) == (
        "75f21b60f79693ed9de2b4df1ea4de62f9cb992438664f633fa7c8dbb5cea276")
