"""Value semantics of the public value classes: equality over a fixed tuple
of fields, hashing as that tuple hashes, immutability, repr, keyword
construction and defaults, and the constructor checks that reject bad
input."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from ssmverify.arithmetic import ArithMode, FixedPointFormat, FixedPointValue
from ssmverify.cli import run
from ssmverify.compilers import IlpInstance, LtlLayout, MinskyMachine, MinskyRun, ltl_layout
from ssmverify.errors import DimensionError, PreconditionError
from ssmverify.fnn import (
    IDENTITY,
    RELU,
    Fnn,
    FnnLayer,
    FnnNode,
    gadget_and,
    gadget_lookup,
    select_fnn,
)
from ssmverify.ltl import And, Atom, Next, Not, Or, Until, parse
from ssmverify.solvers import LengthBound, ResourceLimits, SatResult, SearchStats
from ssmverify.ssm import (
    AffineMap,
    DiagonalAffineGate,
    GateClasses,
    SsmLayer,
    SsmModel,
    StreamState,
    TimeInvariantGate,
    as_vector,
    projection_phi,
)

F = Fraction
FX = FixedPointFormat(6, 3)
NODE = FnnNode((F(1), F(0)), F(1, 2))
NET = Fnn((FnnLayer((FnnNode((F(1),), F(0)),)),))
LAYER = SsmLayer(as_vector([0]), TimeInvariantGate([[1]]), AffineMap([[1]], as_vector([1])),
                 projection_phi(1))
MODEL_ARGS = dict(alphabet=("a", "b"), emb=(as_vector([1]), as_vector([0])), layers=(LAYER,),
                  out=NET)
STATS = dict(states_explored=3, max_frontier=2, elapsed_s=0.5, quantized_constants=1,
             distinct_states=3, transitions=3, stepper_build_s=0.25, builds=2, source_s=0.125,
             compile_s=0.0625, exact_domain="int",
             exact_scale_bits=65, key_coordinates=2, key_state_bound_log2=None,
             frontier_sizes=[1, 2], dead=1, dead_rule=[[0, "1"]])
STATS_KEYS = list(STATS)
MACHINE = dict(states=("q0", "qf"), start="q0", final="qf",
               transitions=frozenset({("q0", "inc1", "qf")}))
LAYOUT = ltl_layout(parse("p U q"))
LAYOUT_FIELDS = ("props", "subformulas", "levels", "dim_of", "gate_of", "const_dim", "dimension")

# (class, keyword arguments, the same with one compared field changed,
#  the compared fields in order, the fields that repr shows in order)
CASES = [
    (Atom, dict(name="p"), dict(name="q"), ("name",), ("name",)),
    (Not, dict(sub=Atom("p")), dict(sub=Atom("q")), ("sub",), ("sub",)),
    (Or, dict(left=Atom("p"), right=Atom("q")), dict(left=Atom("q"), right=Atom("q")),
     ("left", "right"), ("left", "right")),
    (And, dict(left=Atom("p"), right=Atom("q")), dict(left=Atom("p"), right=Atom("p")),
     ("left", "right"), ("left", "right")),
    (Next, dict(sub=Atom("p")), dict(sub=Not(Atom("p"))), ("sub",), ("sub",)),
    (Until, dict(left=Atom("p"), right=Atom("q")), dict(left=Atom("r"), right=Atom("q")),
     ("left", "right"), ("left", "right")),
    (FixedPointFormat, dict(total_bits=6, frac_bits=3), dict(total_bits=6, frac_bits=4),
     ("total_bits", "frac_bits"), ("total_bits", "frac_bits")),
    (FixedPointValue, dict(raw=5, fmt=FX), dict(raw=-5, fmt=FX), ("raw", "fmt"), ("raw", "fmt")),
    (ArithMode, dict(fmt=FX), dict(fmt=None), ("fmt",), ("fmt",)),
    (FnnNode, dict(weights=(F(1), F(0)), bias=F(1, 2), activation=IDENTITY),
     dict(weights=(F(1), F(0)), bias=F(1, 2), activation=RELU),
     ("row", "bias", "activation"), ("row", "bias", "activation")),
    (FnnLayer, dict(nodes=(NODE,)), dict(nodes=(NODE, NODE)), ("nodes",), ("nodes",)),
    (Fnn, dict(layers=NET.layers), dict(layers=NET.layers * 2), ("layers",), ("layers",)),
    (TimeInvariantGate, dict(matrix=[[1, 0], [0, 1]]), dict(matrix=[[1, 0], [0, 0]]),
     ("rows",), ("rows",)),
    (DiagonalAffineGate, dict(matrix=[[1]], offset=as_vector([2])),
     dict(matrix=[[1]], offset=as_vector([3])), ("rows", "offset"), ("rows", "offset")),
    (AffineMap, dict(matrix=[[1]], offset=as_vector([2])),
     dict(matrix=[[2]], offset=as_vector([2])), ("rows", "offset"), ("rows", "offset")),
    # a layer that passes its one coordinate through, with no network
    (SsmLayer, dict(h0=LAYER.h0, gate=LAYER.gate, inc=LAYER.inc, net=None, computes=()),
     dict(h0=as_vector([1]), gate=LAYER.gate, inc=LAYER.inc, net=None, computes=()),
     ("h0", "gate", "inc", "net", "computes"), ("h0", "gate", "inc", "net", "computes")),
    (SsmModel, dict(MODEL_ARGS, metadata=(("source", "test"),)), dict(MODEL_ARGS, alphabet=("a", "c")),
     ("alphabet", "emb", "layers", "out"), ("alphabet", "emb", "layers", "out", "metadata")),
    (StreamState, dict(hidden=((1, 2),), mode=ArithMode(FX)), dict(hidden=((1, 2),), mode=ArithMode()),
     ("hidden", "mode"), ("hidden", "mode")),
    (GateClasses, dict(time_invariant=True, diagonal=False),
     dict(time_invariant=True, diagonal=True), ("time_invariant", "diagonal"),
     ("time_invariant", "diagonal")),
    (SearchStats, STATS, dict(STATS, frontier_sizes=[1, 3]), tuple(STATS), tuple(STATS)),
    (SatResult, dict(verdict="satisfiable", witness=("a",), stats=SearchStats()),
     dict(verdict="satisfiable", witness=("b",), stats=SearchStats()),
     ("verdict", "witness", "stats"), ("verdict", "witness", "stats")),
    (LengthBound, dict(value=4, encoding="binary"), dict(value=4, encoding="unary"),
     ("value", "encoding"), ("value", "encoding")),
    (ResourceLimits, dict(max_states=10, max_mem_mb=20, max_seconds=5),
     dict(max_states=10, max_mem_mb=20, max_seconds=None),
     ("max_states", "max_mem_mb", "max_seconds"), ("max_states", "max_mem_mb", "max_seconds")),
    (LtlLayout, {name: getattr(LAYOUT, name) for name in LAYOUT_FIELDS},
     {name: getattr(LAYOUT, name) for name in LAYOUT_FIELDS} | {"const_dim": 99},
     LAYOUT_FIELDS, LAYOUT_FIELDS),
    (MinskyMachine, MACHINE, dict(MACHINE, transitions=frozenset({("q0", "inc2", "qf")})),
     ("states", "start", "final", "transitions"), ("states", "start", "final", "transitions")),
    (MinskyRun, dict(steps=(("q1", "inc1"),)), dict(steps=()), ("steps",), ("steps",)),
    (IlpInstance, dict(matrix=((1,),), target=(1,)), dict(matrix=((1,),), target=(0,)),
     ("matrix", "target"), ("matrix", "target")),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_value_class_is_covered():
    assert len(set(IDS)) == len(CASES) == 27


@pytest.mark.parametrize("cls, kwargs, other, compared, shown", CASES, ids=IDS)
def test_value_semantics(cls, kwargs, other, compared, shown):
    value, twin, different = cls(**kwargs), cls(**kwargs), cls(**other)
    assert all(getattr(value, name) == kwargs[name] for name in shown if name in kwargs)
    assert value == twin and not value != twin
    assert value != different and not value == different
    assert value.__eq__(object()) is NotImplemented
    assert value.__eq__(_Impostor(value, compared)) is NotImplemented
    fields = tuple(getattr(value, name) for name in compared)
    assert repr(value) == f"{cls.__qualname__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in shown) + ")"
    for again in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again == value and repr(again) == repr(value)
    try:
        expected = hash(fields)
    except TypeError:  # SearchStats holds a list, and a SatResult holds a SearchStats
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected == hash(twin)
    for name in (*shown, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin


class _Impostor:
    """Another class with the same field values."""

    def __init__(self, value, compared):
        for name in compared:
            setattr(self, name, getattr(value, name))


def test_defaults():
    with pytest.raises(TypeError):  # every format is signed; str and parse say all of it
        FixedPointFormat(6, 3, False)
    assert ArithMode().fmt is None
    assert FnnNode((F(1),), F(0)).activation == RELU
    assert LengthBound(3).encoding == "unary"
    limits = ResourceLimits()
    assert (limits.max_states, limits.max_mem_mb, limits.max_seconds) == (5_000_000, None, None)
    assert SsmModel(**MODEL_ARGS).metadata == ()
    # a full network computes every coordinate, and a gate row of 1 and an
    # inc offset of 1 do more than copy the input
    assert LAYER.computes == LAYER.updates == (0,) and LAYER.net is LAYER.phi
    stats = SearchStats()
    assert [getattr(stats, name) for name in STATS_KEYS] == [
        0, 0, 0.0, 0, 0, 0, 0.0, 0, 0.0, 0.0, None, None, 0, None, [], 0, []]


def test_uncompared_fields():
    """metadata, the derived bounds of a format, the kernels of a mode and
    the move table of a machine take no part in equality."""
    plain = SsmModel(**MODEL_ARGS)
    tagged = SsmModel(**MODEL_ARGS, metadata=(("source", "a"), ("x", "y")))
    assert plain == tagged and hash(plain) == hash(tagged)
    assert repr(plain) != repr(tagged)
    fmt = FixedPointFormat(6, 3)
    assert (fmt.scale, fmt.min_raw, fmt.max_raw) == (8, -32, 31)
    assert "scale" not in repr(fmt) and "kernels" not in repr(ArithMode(fmt))
    assert "_moves" not in repr(MinskyMachine(**MACHINE))


def test_each_search_stats_has_its_own_list():
    first, second = SearchStats(), SearchStats()
    assert first.frontier_sizes is not second.frontier_sizes
    assert first.dead_rule is not second.dead_rule
    first.frontier_sizes.append(1)
    first.dead_rule.append([0, "1"])
    assert second.frontier_sizes == [] and second.dead_rule == []


def test_reported_stats_keep_their_keys_in_order(tmp_path, monkeypatch):
    model = str(tmp_path / "m.ssm")
    run(["compile", "ltl", "p U q", "-o", model])
    status, report = run(["sat", "fixed", model, "--arith", "fx:6:3"])
    assert status == 0 and list(report["result"]["stats"]) == STATS_KEYS
    run(["compile", "ltl", "(p U q) & G !q", "-o", model])
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "2")
    status, report = run(["sat", "fixed", model, "--arith", "fx:6:3"])
    assert status == 3 and list(report["result"]["partial_stats"]) == STATS_KEYS


# Each constructor check below, with the error it raises and a fragment of
# its message.
BAD_INPUTS = [
    (lambda: AffineMap([[1]], as_vector([0, 0])), DimensionError, "matching offset"),
    (lambda: SsmLayer(as_vector([0, 0]), TimeInvariantGate([[1]]), AffineMap([[1]], as_vector([0])),
                      projection_phi(2)), DimensionError, "disagree with h0"),
    (lambda: SsmLayer(as_vector([0]), TimeInvariantGate([[1]]),
                      AffineMap([[1, 0], [0, 1]], as_vector([0, 0])), projection_phi(1)),
     DimensionError, "disagree with h0"),
    (lambda: SsmModel(("a",), (as_vector([1, 0]),), (LAYER,), select_fnn([0], 2)),
     DimensionError, "all layers must share"),
    (lambda: FnnLayer(()), DimensionError, "at least one node"),
    (lambda: Fnn((FnnLayer((NODE,)), FnnLayer((NODE,)))), DimensionError, "do not chain: 1 -> 2"),
    (lambda: gadget_and(0), DimensionError, "arity >= 1"),
    (lambda: gadget_lookup((2, 3), [(1, 3)]), DimensionError, "does not match blocks (2, 3)"),
    (lambda: IlpInstance((), ()), DimensionError, "empty instance"),
    (lambda: IlpInstance(((1, 0),), (1,)), DimensionError, "must be square"),
    (lambda: IlpInstance(((1, 0), (0, 1)), (1,)), DimensionError, "match the target length"),
    (lambda: LengthBound(3, "ternary"), PreconditionError, "unknown encoding 'ternary'"),
]


@pytest.mark.parametrize("build, error, message", BAD_INPUTS)
def test_a_bad_input_raises_its_error(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_a_fixed_point_value_prints_its_value_and_format():
    assert str(FixedPointValue(3, FixedPointFormat(6, 3))) == "3/8 [fx:6:3]"
