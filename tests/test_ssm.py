"""SSM evaluator: streaming vs batch order, closure, classification."""

import itertools
import os
import random
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    counting_model, expanded, fraction_encode, geometric_model, halving_model, hand_formulas,
    is_one, random_formula, random_ilp, random_machine,
)
from ssmverify.arithmetic import EXACT, FX6, ArithMode, FixedPointFormat, raw_encode
from ssmverify.compilers import compile_ilp, compile_ltl, compile_minsky, ltl_layout, parse_minsky
from ssmverify.errors import DimensionError, EmptyWordError, UnknownSymbolError
from ssmverify.fnn import (
    IDENTITY, RELU, Fnn, FnnLayer, FnnNode, compose, gadget_eq, linear_fnn, select_fnn,
)
from ssmverify.ltl import parse
from ssmverify.modelfile import save_model
from ssmverify.solvers import pump_down, sat_bounded, sat_fixed
from ssmverify.ssm import (
    SCALE_BITS,
    AffineMap,
    DiagonalAffineGate,
    GateClasses,
    SsmLayer,
    SsmModel,
    StreamState,
    TimeInvariantGate,
    _Inexact,
    _StepCompiler,
    _render,
    _Val,
    _constants,
    _first_scale,
    _stepper,
    accepts,
    as_matrix,
    as_vector,
    classify_gates,
    evaluate,
    evaluate_layerwise,
    initial_state,
    projection_phi,
    quantization_report,
    run_layer,
    state_count_bound,
    step,
)

FX6_MODE = ArithMode(FX6)


def eye(d):
    return as_matrix([[int(i == j) for j in range(d)] for i in range(d)])


def zeros_mat(d):
    return as_matrix([[0] * d for _ in range(d)])


def accumulator_model(d=2):
    """gate = I, inc = identity map: the hidden state sums the embeddings."""
    layer = SsmLayer(
        as_vector([0] * d),
        TimeInvariantGate(eye(d)),
        AffineMap(eye(d), as_vector([0] * d)),
        projection_phi(d),
    )
    out = compose(gadget_eq(3), select_fnn([0], d))
    return SsmModel(
        alphabet=("a", "b"),
        emb=(as_vector([1, 0]), as_vector([0, 1])),
        layers=(layer,),
        out=out,
    )


def test_pure_accumulation():
    model = accumulator_model()
    state = initial_state(model, EXACT)
    for _ in range(3):
        state, y = step(model, state, "a")
    assert state.hidden[0] == (Fraction(3), Fraction(0))
    assert y == 1  # out checks the first coordinate equals 3
    assert accepts(model, ["a", "a", "a"], EXACT)
    assert not accepts(model, ["a", "a"], EXACT)


def test_hidden_values_are_the_public_fractions():
    # exact states hold Fractions; fx:6:3 states hold raw mantissas over 8
    model = accumulator_model()
    states = {}
    for mode in (EXACT, FX6_MODE):
        state = initial_state(model, mode)
        for sym in ("a", "b", "a"):
            state, _ = step(model, state, sym)
        states[mode] = state
        assert all(type(v) is Fraction for v in state.hidden_values()[0])
    exact, fixed = states[EXACT], states[FX6_MODE]
    assert exact.hidden_values() == exact.hidden == ((Fraction(2), Fraction(1)),)
    assert fixed.hidden == ((16, 8),)
    assert fixed.hidden_values() == ((Fraction(16, 8), Fraction(8, 8)),)


def test_step_determinism():
    model = accumulator_model()
    s1 = initial_state(model, EXACT)
    s2 = initial_state(model, EXACT)
    for sym in ("a", "b", "a"):
        s1, y1 = step(model, s1, sym)
        s2, y2 = step(model, s2, sym)
        assert s1 == s2 and y1 == y2


def test_public_step_builds_no_stepper():
    model = compile_ltl(parse("(p U q) & X !p"))
    for mode in (EXACT, FX6_MODE):
        state = initial_state(model, mode)
        for symbol in model.alphabet:
            state, _ = step(model, state, symbol)
    assert model._steppers == {}


def test_step_rejects_a_state_of_another_layout():
    """``(X p) U q & !X X q`` has 3 layers of width 9 and ``p U q`` one of
    width 5; neither model steps the other's states."""
    small, large = compile_ltl(parse("p U q")), compile_ltl(parse("(X p) U q & !X X q"))
    assert (large.num_layers, large.dim) == (3, 9)
    for model, other in ((small, large), (large, small)):
        for mode in (EXACT, FX6_MODE):
            with pytest.raises(DimensionError):
                step(model, initial_state(other, mode), model.alphabet[0])
    state = initial_state(small, EXACT)
    narrow = StreamState((state.hidden[0][:-1],), EXACT)
    with pytest.raises(DimensionError):
        step(small, narrow, small.alphabet[0])


def test_unknown_symbol_and_empty_word():
    model = accumulator_model()
    with pytest.raises(UnknownSymbolError):
        evaluate(model, ["zz"], EXACT)
    with pytest.raises(EmptyWordError):
        evaluate(model, [], EXACT)
    with pytest.raises(EmptyWordError):
        accepts(model, [], EXACT)
    with pytest.raises(EmptyWordError):
        evaluate_layerwise(model, [], EXACT)
    with pytest.raises(UnknownSymbolError):
        step(model, initial_state(model, EXACT), "zz")


def test_dimension_validation():
    with pytest.raises(DimensionError):
        SsmModel(
            alphabet=("a",),
            emb=(as_vector([1, 0]),),
            layers=(),
            out=gadget_eq(1),  # input dim 1 but d = 2
        )


def test_zero_layer_model_applies_out_to_embedding():
    model = SsmModel(
        alphabet=("a", "b"),
        emb=(as_vector([1]), as_vector([0])),
        layers=(),
        out=gadget_eq(1),
    )
    assert accepts(model, ["a"], EXACT)
    assert not accepts(model, ["b"], EXACT)
    assert classify_gates(model) == GateClasses(True, True)


@st.composite
def small_models(draw, denominators=(1, 2, 4)):
    d = draw(st.integers(1, 3))
    nsyms = draw(st.integers(1, 3))
    L = draw(st.integers(1, 2))
    frac = lambda: Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from(denominators)))
    vec = lambda: as_vector([frac() for _ in range(d)])
    mat = lambda: as_matrix([[frac() for _ in range(d)] for _ in range(d)])

    def phi(outputs):
        """0-2 hidden layers of up to 3 relu or identity nodes, then one node
        per output."""
        sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, 2)))] + [outputs]
        net, width = [], 2 * d
        for size in sizes:
            net.append(FnnLayer(tuple(
                FnnNode(tuple(frac() for _ in range(width)), frac(),
                        draw(st.sampled_from((RELU, IDENTITY))))
                for _ in range(size))))
            width = size
        return Fnn(tuple(net))

    layers = []
    for _ in range(L):
        # the coordinates whose recurrence the layer stores: every one, or
        # some, the others carried on an empty gate row and a copy inc row
        updates = None
        if draw(st.booleans()):
            updates = tuple(j for j in range(d) if draw(st.booleans()))
        stored = range(d) if updates is None else updates
        gate_rows, gate_offset, inc_rows, inc_offset = mat(), vec(), mat(), vec()
        zero = Fraction(0)
        gate_rows = [row if j in stored else (zero,) * d for j, row in enumerate(gate_rows)]
        inc_rows = [row if j in stored else tuple(Fraction(k == j) for k in range(d))
                    for j, row in enumerate(inc_rows)]
        gate_offset, inc_offset = ([v if j in stored else zero for j, v in enumerate(vector)]
                                   for vector in (gate_offset, inc_offset))
        if draw(st.booleans()):
            gate = TimeInvariantGate(gate_rows)
        else:
            gate = DiagonalAffineGate(gate_rows, as_vector(gate_offset))
        kind = draw(st.sampled_from(("projection", "full", "compact")))
        if kind == "compact":  # it passes the other coordinates through
            computes = tuple(j for j in range(d) if draw(st.booleans()))
            net = phi(len(computes)) if computes else None
        else:
            computes, net = None, projection_phi(d) if kind == "projection" else phi(d)
        layers.append(SsmLayer(vec(), gate, AffineMap(inc_rows, as_vector(inc_offset)), net,
                               computes))
    out = compose(gadget_eq(1), select_fnn([0], d))
    alphabet = tuple(chr(ord("a") + i) for i in range(nsyms))
    return SsmModel(alphabet, tuple(vec() for _ in range(nsyms)), tuple(layers), out)


def public_steps_match_evaluate(model, word, mode) -> bool:
    """Folding the public ``step`` gives, at each position, the output that
    ``evaluate`` gives on the prefix ending there."""
    state, outputs = initial_state(model, mode), []
    for symbol in word:
        state, y = step(model, state, symbol)
        outputs.append(y)
    return outputs == [evaluate(model, word[:i], mode) for i in range(1, len(word) + 1)]


@given(small_models(), st.data())
@settings(max_examples=120, deadline=None)
def test_streaming_equals_layerwise_exact(model, data):
    n = data.draw(st.integers(1, 5))
    word = [data.draw(st.sampled_from(model.alphabet)) for _ in range(n)]
    assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)
    assert public_steps_match_evaluate(model, word, EXACT)


@given(small_models(denominators=(1, 2, 3, 4)), st.data())
@settings(max_examples=80, deadline=None)
def test_streaming_equals_layerwise_exact_with_thirds(model, data):
    """Constants with denominator 3 put 3**SCALE_BITS into the step's first
    scale, times 2**SCALE_BITS when a constant is dyadic; a model whose
    constants are all integers runs on scale 1."""
    n = data.draw(st.integers(1, 5))
    word = [data.draw(st.sampled_from(model.alphabet)) for _ in range(n)]
    assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)
    assert accepts(model, word, EXACT) == (evaluate_layerwise(model, word, EXACT) == 1)
    assert public_steps_match_evaluate(model, word, EXACT)


@given(small_models(), st.data())
@settings(max_examples=120, deadline=None)
def test_streaming_equals_layerwise_fixed(model, data):
    # fx:3:2 cannot represent 1, so no unit weight may become an alias there
    fmt = data.draw(st.sampled_from([
        FX6, FixedPointFormat(8, 4), FixedPointFormat(10, 2), FixedPointFormat(3, 2),
    ]))
    mode = ArithMode(fmt)
    n = data.draw(st.integers(1, 5))
    word = [data.draw(st.sampled_from(model.alphabet)) for _ in range(n)]
    assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode)
    assert public_steps_match_evaluate(model, word, mode)


@given(small_models(), st.data())
@settings(max_examples=150, deadline=None)
def test_compact_layers_agree_with_their_expanded_twins(model, data):
    """A layer that passes coordinates through evaluates as its expanded
    twin, whose ``phi`` holds a copy node for each of them, also where 1 is
    not representable (fx:3:2, fx:4:3) and each copy shrinks its value: the
    step and the oracle, the public ``step`` at every position included,
    apply the pass-through rule as the view's copy nodes do, layer by
    layer.  The step's count of quantised constants is the report's, copies
    included."""
    mode = data.draw(st.sampled_from(
        [EXACT, FX6_MODE, ArithMode(FixedPointFormat(3, 2)), ArithMode(FixedPointFormat(4, 3))]))
    n = data.draw(st.integers(1, 5))
    word = [data.draw(st.sampled_from(model.alphabet)) for _ in range(n)]
    twin = expanded(model)
    assert (evaluate(model, word, mode) == evaluate_layerwise(model, word, mode)
            == evaluate(twin, word, mode) == evaluate_layerwise(twin, word, mode))
    assert public_steps_match_evaluate(model, word, mode)
    assert public_steps_match_evaluate(twin, word, mode)
    xs = [tuple(map(mode.kernels[0], model.emb[model.symbol_index[s]])) for s in word]
    for layer, full in zip(model.layers, twin.layers):
        zs = run_layer(layer, xs, mode)
        assert zs == run_layer(full, xs, mode)
        xs = zs
    if not mode.is_exact:
        assert (_stepper(model, mode).quantized_constants
                == len(quantization_report(model, mode.fmt))
                == _stepper(twin, mode).quantized_constants)


@pytest.mark.parametrize("full", [False, True], ids=["net_none", "full_network"])
def test_run_layer_checks_its_input_width(full):
    """An input that is not ``layer.dim`` wide is a ``DimensionError``, also
    on a layer with no network, where no network evaluation checks it."""
    model = compile_ltl(parse("p U q"))
    (layer,) = (expanded(model) if full else model).layers
    assert (layer.net is None, len(layer.computes)) == ((False, 5) if full else (True, 0))
    for width in (layer.dim - 1, layer.dim + 2):
        for mode in (EXACT, FX6_MODE):
            with pytest.raises(DimensionError, match=f"layer has 5 inputs, got {width}"):
                run_layer(layer, [(mode.kernels[0](Fraction(0)),) * width], mode)


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE], ids=str)
def test_compiled_models_stream_like_layerwise(mode):
    rng = random.Random(17)
    models = [compile_ltl(parse(t)) for t in ("(p U q) & X !p", "!(p U X q) | G p")]
    models += [compile_ltl(random_formula(rng, rng.randint(4, 9))) for _ in range(3)]
    models += [compile_minsky(random_machine(rng, rng.randint(2, 4))) for _ in range(3)]
    for model in models:
        for _ in range(8):
            word = [rng.choice(model.alphabet) for _ in range(rng.randint(1, 6))]
            streamed = evaluate(model, word, mode)
            assert streamed == evaluate_layerwise(model, word, mode)
            if mode.is_exact:
                assert type(streamed) is Fraction


@pytest.mark.parametrize("gate", [Fraction(1, 2), Fraction(1, 3)], ids=str)
def test_exact_values_outside_the_first_scale_widen_it(gate):
    """The denominator of h1 grows by the gate's every symbol and leaves the
    step's first scale (2**SCALE_BITS for gate 1/2, 3**SCALE_BITS for gate
    1/3) within an 80-symbol word, so the step runs again on its square."""
    word = ["a"] * 80
    model = geometric_model(gate, select_fnn([1], 2))
    expected = (1 - gate ** 80) / (1 - gate)
    assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT) == expected
    assert not accepts(model, word, EXACT)
    state = initial_state(model, EXACT)
    for t in range(1, 81):
        state, y = step(model, state, "a")
        assert state.hidden == ((Fraction(t), (1 - gate ** t) / (1 - gate)),)
        assert all(type(v) is Fraction for v in state.hidden[0])
        assert y == state.hidden[0][1]


def test_a_folded_product_outside_the_scale_widens_it():
    """The weight 2**-40 on the embedding 2**-40 gives 2**-80, which the
    scale 2**SCALE_BITS cannot hold: the product does not fold, the first
    call raises from its check and the step is rebuilt on the square."""
    tiny = Fraction(1, 1 << 40)
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(zeros_mat(1)),
                     AffineMap(as_matrix([[tiny]]), as_vector([0])), projection_phi(1))
    model = SsmModel(alphabet=("a",), emb=(as_vector([tiny]),), layers=(layer,),
                     out=select_fnn([0], 1))
    assert evaluate(model, ["a"], EXACT) == evaluate_layerwise(model, ["a"], EXACT) == tiny * tiny
    assert model._steppers[EXACT].one == 1 << 2 * SCALE_BITS


def test_two_odd_denominators_widen_the_scale_for_both():
    """Gates 1/3 and 1/5 start the step on the scale 15**SCALE_BITS, which
    holds the first 64 symbols; past them it squares.  No constant is
    dyadic, so no power of two joins the scale.  Past 2048 symbols
    the scale has more decimal digits than CPython converts to a string,
    and the step still builds."""
    layer = SsmLayer(
        as_vector([0, 0]),
        TimeInvariantGate(as_matrix([[Fraction(1, 3), 0], [0, Fraction(1, 5)]])),
        AffineMap(eye(2), as_vector([0, 0])),
        projection_phi(2),
    )
    model = SsmModel(alphabet=("a", "b"), emb=(as_vector([1, 1]), as_vector([0, 1])),
                     layers=(layer,), out=linear_fnn([[1, 1]]))
    rng = random.Random(3)
    for n, scale in ((64, 15 ** 64), (100, 15 ** 128), (2100, 15 ** 4096)):
        word = ["a"] + [rng.choice("ab") for _ in range(n - 1)]
        assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)
        assert model._steppers[EXACT].one == scale


def test_the_first_scale_holds_every_prime_of_the_denominators():
    assert [_first_scale(d) for d in (1, 8, 3, 15, 6, 9, 1 << 70)] == [
        1, 1 << SCALE_BITS, 3 ** SCALE_BITS, 15 ** SCALE_BITS, 6 ** SCALE_BITS,
        3 ** (2 * SCALE_BITS), 1 << 70]


def test_a_given_scale_that_lacks_a_prime_is_refused():
    """A scale passed to ``_stepper`` is used as given: one that lacks a
    prime of the model's denominators cannot encode a constant, so the
    build raises and leaves no step behind; the default scale then
    serves."""
    gate = Fraction(1, 3)
    model = geometric_model(gate, select_fnn([1], 2))
    with pytest.raises(_Inexact):
        _stepper(model, EXACT, 1 << SCALE_BITS)
    assert EXACT not in model._steppers
    word = ["a"] * 20
    assert evaluate(model, word, EXACT) == (1 - gate ** 20) / (1 - gate)


def test_a_dead_product_outside_the_scale_keeps_the_first_scale():
    """h0's new value 2**-40 * 2**-40 = 2**-80 is outside 2**SCALE_BITS, and
    relu(h0 - 10) folds to 0 whatever it is, so the block that divides is
    dead: nothing raises and the step stays on its first scale."""
    tiny = Fraction(1, 1 << 40)
    layer = SsmLayer(as_vector([0, 0]), TimeInvariantGate(as_matrix([[0, 0], [0, 1]])),
                     AffineMap(as_matrix([[tiny, 0], [0, 1]]), as_vector([0, 0])),
                     projection_phi(2))
    out = compose(linear_fnn([[1, 1]]), linear_fnn(eye(2), [-10, 0], RELU))
    model = SsmModel(alphabet=("a", "b"), emb=(as_vector([tiny, 1]), as_vector([tiny, 0])),
                     layers=(layer,), out=out)
    for word in (["a"], ["a", "b", "a"]):
        assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)
    assert model._steppers[EXACT].one.bit_length() == SCALE_BITS + 1


@pytest.mark.parametrize("symbols", [1, 2])
def test_a_relu_does_not_fold_a_product_outside_the_scale_to_zero(symbols):
    """relu(2 * h0) for h0 = 2**-40 * x, x in {2**-40, 2**-39}: the product
    lies between the ints 0 and 1 of the scale 2**SCALE_BITS, so its bounds
    hold both and the relu stays; the call raises and the step is rebuilt
    on the square.  With one symbol the product is a constant."""
    tiny = Fraction(1, 1 << 40)
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(zeros_mat(1)),
                     AffineMap(as_matrix([[tiny]]), as_vector([0])), projection_phi(1))
    emb = (as_vector([tiny]), as_vector([2 * tiny]))[:symbols]
    model = SsmModel(alphabet=("a", "b")[:symbols], emb=emb, layers=(layer,),
                     out=linear_fnn([[2]], [0], RELU))
    assert evaluate(model, ["a"], EXACT) == evaluate_layerwise(model, ["a"], EXACT) == 2 * tiny ** 2
    assert model._steppers[EXACT].one == 1 << 2 * SCALE_BITS


def test_a_dead_fraction_keeps_the_step_off_scale_one():
    """The output reads only h0, whose constants are integers.  h1's inc
    weight 1/2 is dead, yet it is a model constant, so the step runs on
    2**SCALE_BITS and not on 1, and still agrees with the oracle."""
    layer = SsmLayer(as_vector([0, 0]), TimeInvariantGate(eye(2)),
                     AffineMap(as_matrix([[1, 0], [0, Fraction(1, 2)]]), as_vector([0, 0])),
                     projection_phi(2))
    model = SsmModel(("a", "b"), (as_vector([1, 1]), as_vector([-1, 3])), (layer,),
                     select_fnn([0], 2))
    for word in (["a"], ["a", "b", "a"], ["b", "a", "a", "a"]):
        expected = evaluate_layerwise(model, word, EXACT)
        assert evaluate(model, word, EXACT) == expected
        assert accepts(model, word, EXACT) == (expected == 1)
    stepper = model._steppers[EXACT]
    assert stepper.one == 1 << SCALE_BITS and stepper.key == ((0, 0),)


def test_a_diagonal_gate_on_scale_one_multiplies_without_checks():
    """With only integer constants the step runs on scale 1, where the
    product of an input-dependent gate and a hidden value is a plain
    product: no shift and no check of the bits shifted out."""
    layer = SsmLayer(as_vector([1]), DiagonalAffineGate(as_matrix([[2]]), as_vector([-1])),
                     AffineMap(as_matrix([[1]]), as_vector([0])), projection_phi(1))
    model = SsmModel(("a", "b"), (as_vector([1]), as_vector([-2])), (layer,), select_fnn([0], 1))
    comp = _StepCompiler(EXACT, 1)
    source = _render(comp.program(model, [tuple(map(comp.enc, vec)) for vec in model.emb]))
    assert "Inexact" not in source and ">>" not in source and "&" not in source
    for word in (["a"], ["b", "a", "b"], ["a", "b", "b", "a", "b"]):
        assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)
    assert model._steppers[EXACT].one == 1


def step_source(model: SsmModel, mode: ArithMode) -> str:
    """The source of the first step that ``_stepper`` builds for ``mode``."""
    stepper = _stepper(model, mode)
    comp = _StepCompiler(mode, stepper.one)
    return _render(comp.program(model, list(stepper.emb.values())))


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE], ids=str)
def test_a_gated_count_past_one_decides(mode):
    """A coordinate under a gate that reads the input counts past 1.  The
    searches find ``a;a;a`` on one build of the step, ``pump_down`` keeps
    it, and ``evaluate`` and ``accepts`` agree with the layer-major
    oracle."""
    calls = [lambda model: sat_bounded(model, 6, mode)]
    if not mode.is_exact:
        calls += [lambda model: sat_fixed(model, mode.fmt)]
    for call in calls:
        result = call(counting_model())
        stats = result.stats
        assert (result.witness, stats.transitions, stats.distinct_states, stats.frontier_sizes,
                stats.key_coordinates, stats.builds) == (("a", "a", "a"), 5, 3, [1, 1, 1], 1, 1)
    if not mode.is_exact:
        for word in (["a", "b", "a", "b", "a"], ["b", "a", "b", "b", "a", "a"]):
            assert pump_down(counting_model(), word, mode.fmt) == ["a", "a", "a"]
    for word in (["a"], ["b", "a"], ["a", "b", "a", "a"], ["a"] * 5, ["b", "a", "a", "a", "b"]):
        expected = evaluate_layerwise(counting_model(), word, mode)
        assert evaluate(counting_model(), word, mode) == expected
        assert accepts(counting_model(), word, mode) == is_one(expected, mode)
        assert is_one(expected, mode) == (word.count("a") == 3)


# CI's two-counter machine: it runs inc2, dec2, inc1, dec1 to its final state
TWO_MM = ("start: q0\nfinal: qf\nq0 inc2 q1\nq1 dec2 q2\nq1 ztest2 q0\n"
          "q2 inc1 q3\nq3 dec1 qf\nq3 ztest1 q1\n")


def test_the_report_splits_each_build_of_the_step(monkeypatch):
    """A search reports how many builds of its step it made, and sums
    their seconds and the parts spent generating and compiling the step.
    The exact step of ``two.mm`` is built once, and its search of 20
    transitions interprets it and compiles nothing.  A search of 80
    symbols under the gate 1/2 leaves its first exact scale, so it builds
    the step twice: with each build 0.05 s slower, the two sum past 0.1 s.
    A second search of the same model runs on the step left on the wider
    scale, built once."""
    stats = sat_bounded(compile_minsky(parse_minsky(TWO_MM)), 8, EXACT).stats
    assert stats.builds == 1 and stats.transitions == 20
    assert 0 < stats.source_s and stats.compile_s == 0
    assert stats.source_s + stats.compile_s <= stats.stepper_build_s
    program = _StepCompiler.program

    def slow(self, *args):
        time.sleep(0.05)
        return program(self, *args)

    monkeypatch.setattr(_StepCompiler, "program", slow)
    model = halving_model(80)
    stats = sat_bounded(model, 80, EXACT).stats
    assert stats.builds == 2 and stats.stepper_build_s >= 0.1
    assert stats.source_s + stats.compile_s <= stats.stepper_build_s
    # a later search takes the rebuilt step and reports its build alone
    again = sat_bounded(model, 80, EXACT).stats
    assert again.builds == 1 and 0.05 <= again.stepper_build_s < stats.stepper_build_s


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE], ids=str)
def test_a_relu_over_a_gated_count_keys_on_it(mode):
    """The output relu(h - 1) reads the counter, which its gate lets pass
    1, so the counter stays in the key and the second ``a`` is accepted."""
    result = sat_bounded(counting_model(linear_fnn([[1]], [-1], RELU)), 4, mode)
    assert (result.witness, result.stats.key_coordinates) == (("a", "a"), 1)
    assert accepts(counting_model(linear_fnn([[1]], [-1], RELU)), ["b", "a", "a"], mode)


def _clamped_differences(source: str) -> tuple[int, list[str]]:
    """How many lines of a step compute a difference ``a - b`` of two
    locals, and those of them that the next line clamps."""
    lines = source.splitlines()
    found = [(re.fullmatch(r"\s*(v\d+) = v\d+ - v\d+", line), after)
             for line, after in zip(lines, lines[1:])]
    return (sum(m is not None for m, _ in found),
            [m.group(1) for m, after in found if m and f"if {m.group(1)} " in after])


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE], ids=str)
def test_a_relu_difference_over_one_row_needs_no_clamp(mode):
    """The previous-bit decoder ends in ``relu(s) - relu(s - 1)`` over one
    value s, which lies in [0, 1] (``_StepCompiler._span``).  Each decoded
    previous state of a Minsky machine, and each of its counters' ``geq0``
    checks, which have the same shape, is one line with no relu clamp; and
    ``(r | X q) U X r``, which reads ``X q`` negated, tests no saturation
    under fx:6:3."""
    machine = parse_minsky("start: q0\nfinal: qf\nq0 inc2 q1\nq1 dec2 q2\nq1 ztest2 q0\n"
                           "q2 inc1 q3\nq3 dec1 qf\nq3 ztest1 q1\n")
    # four decoded states (qf starts no transition, so no check reads it)
    # and two geq0 checks
    assert _clamped_differences(step_source(compile_minsky(machine), mode)) == (6, [])
    source = step_source(compile_ltl(parse("(r | X q) U X r")), mode)
    assert _clamped_differences(source)[1] == []
    if not mode.is_exact:
        assert "< -32" not in source


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_relu_difference_over_one_row_is_sound_under_saturation(data):
    """``relu(s + p) - relu(s + q)`` over one row s, with p >= q, stays in
    [0, p - q] under per-term saturation: the two sums add the same terms
    in the same order, and saturation and relu are monotone and move no
    two values apart.  So the step, which drops the difference's clamps,
    agrees with the layer-major evaluator on every word up to length 4, in
    formats narrow enough to saturate the row's sums.  The draw also makes
    differences over two rows, or with p < q, which have no such span."""
    frac = lambda: Fraction(data.draw(st.integers(-6, 6)), data.draw(st.sampled_from((1, 2, 4))))
    row = [frac(), frac()]
    other = row if data.draw(st.booleans()) else [frac(), frac()]
    first = linear_fnn([row, other], [frac(), frac()], RELU)
    weights = data.draw(st.sampled_from(([1, -1], [-1, 1])))
    activation = data.draw(st.sampled_from((RELU, IDENTITY)))
    out = compose(linear_fnn([weights], activation=activation), first)
    # h0 counts under the gate 1, so its sum saturates; h1 is the input
    layer = SsmLayer(as_vector([frac(), 0]), TimeInvariantGate(as_matrix([[1, 0], [0, 0]])),
                     AffineMap(eye(2), as_vector([0, 0])), projection_phi(2))
    model = SsmModel(("a", "b"), (as_vector([frac(), frac()]), as_vector([frac(), frac()])),
                     (layer,), out)
    for fmt in (FixedPointFormat(4, 1), FixedPointFormat(5, 2), FX6, None):
        mode = ArithMode(fmt)
        for n in range(1, 5):
            for word in itertools.product(model.alphabet, repeat=n):
                assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode), (
                    mode, word)


_ONE_LINE_RELUS = {
    "u - k": r"v\d+ = (v\d+) - \d+ if \1 > \d+ else 0",
    "c - u": r"v\d+ = -?\d+ - ([vx]\d+) if \1 < -?\d+ else 0",
    "-u": r"v\d+ = -([vx]\d+) if \1 < 0 else 0",
}


@pytest.mark.parametrize("fmt", [FixedPointFormat(4, 1), FixedPointFormat(5, 2), FX6, None],
                         ids=str)
def test_a_relu_over_a_local_and_a_constant_is_one_line(fmt):
    """``relu(c + u)`` and ``relu(c - u)`` over one local u is one line
    wherever the sum cannot pass the top; below the bottom the saturated
    sum's relu is 0 too.  u is a counter, whose sum saturates on both
    sides, or an input that spans the range of fx:4:1, so there the sums
    pass the bottom.  Each relu agrees with the layer-major evaluator on
    every word up to length 4, and the step holds each one-line form."""
    layer = SsmLayer(as_vector([0, 0]), TimeInvariantGate(as_matrix([[1, 0], [0, 0]])),
                     AffineMap(eye(2), as_vector([0, 0])), projection_phi(2))
    emb = (as_vector([Fraction(3, 2), Fraction(-7, 2)]), as_vector([-1, Fraction(7, 2)]))
    mode, forms = ArithMode(fmt), set()
    for c in (Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2)):
        for row in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            model = SsmModel(("a", "b"), emb, (layer,), linear_fnn([row], [c], RELU))
            source = step_source(model, mode)
            forms |= {name for name, form in _ONE_LINE_RELUS.items()
                      for line in source.splitlines() if re.fullmatch(r"\s*" + form, line)}
            for n in range(1, 5):
                for word in itertools.product(model.alphabet, repeat=n):
                    assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode), (
                        c, row, word)
    assert forms == set(_ONE_LINE_RELUS)


def test_a_layer_carries_only_copies():
    """A layer carries a coordinate exactly when its gate row is empty, its
    gate and inc offsets are 0 and its inc row copies it; ``updates`` lists
    the others in ascending order."""
    def layer(gate_rows=((0, 0), (0, 1)), gate_offset=None, inc_rows=((1, 0), (0, 1)),
              inc_offset=(0, 0)):
        gate = (TimeInvariantGate(as_matrix(gate_rows)) if gate_offset is None
                else DiagonalAffineGate(as_matrix(gate_rows), as_vector(gate_offset)))
        inc = AffineMap(as_matrix(inc_rows), as_vector(inc_offset))
        return SsmLayer(as_vector([0, 0]), gate, inc, None, ())

    assert layer().updates == (1,) and layer(gate_offset=(0, 1)).updates == (1,)
    for more in (dict(gate_rows=((0, 1), (0, 1))), dict(gate_rows=((1, 0), (0, 1))),
                 dict(gate_offset=(1, 0)), dict(inc_rows=((2, 0), (0, 1))),
                 dict(inc_rows=((0, 1), (0, 1))), dict(inc_offset=(1, 0))):
        assert layer(**more).updates == (0, 1), more


def test_an_x_history_beside_an_until_is_not_assumed():
    """In ``X p & (p U q)`` the X history and the until share level 1, so
    the history's constant gate of 1/4 is an offset of the layer's diagonal
    gate.  The history reaches 5/4 on ``{p};{p}``, and the step decides
    each word as the formula does."""
    model = compile_ltl(parse("X p & (p U q)"))
    (level, _) = model.layers
    x = ltl_layout(parse("X p & (p U q)")).dim(parse("X p"))
    assert level.gate.rows[x].terms == () and level.gate.offset[x] == Fraction(1, 4)
    for mode in (FX6_MODE, EXACT):
        model = compile_ltl(parse("X p & (p U q)"))
        assert not accepts(model, ["{p}", "{p}", "{p}"], mode)
        assert accepts(model, ["{p,q}", "{p}"], mode)  # the reversal of {p};{p,q}


def test_ltl_steps_test_the_until_for_saturation():
    """Under fx:6:3 the until ``p U q`` truncates its gated product toward
    zero and tests its new value against the top: its gate ``p & !q`` and
    ``q`` are never both 1, which no interval shows.  ``G p`` multiplies
    its coordinate by ``p``, in [0, 1], so its product cannot leave the
    format and needs no test.  Each model outputs its formula's
    coordinate."""
    assert step_source(compile_ltl(parse("p U q")), FX6_MODE) == (
        "def step(key, x):\n"
        "    h0_2, = key\n"
        "    _, x1, _, x3, _, = x\n"
        "    v0 = x3 * h0_2\n"
        "    v0 = v0 >> 3 if v0 >= 0 else -(-v0 >> 3)\n"
        "    v1 = v0 + x1\n"
        "    if v1 > 31: v1 = 31\n"
        "    return (v1, ), v1\n")
    assert step_source(compile_ltl(parse("G p")), FX6_MODE) == (
        "def step(key, x):\n"
        "    h0_1, = key\n"
        "    x0, _, _, = x\n"
        "    v0 = x0 * h0_1\n"
        "    v0 = v0 >> 3 if v0 >= 0 else -(-v0 >> 3)\n"
        "    return (v0, ), v0\n")


@pytest.mark.parametrize("fmt", [None, FX6, FixedPointFormat(3, 2), FixedPointFormat(8, 4)],
                         ids=str)
def test_only_unit_copies_become_aliases(fmt):
    """Near copies keep their arithmetic: an inc offset of 1/2, a gate row
    reading h1, a diagonal gate offset of 1/2, and a relu over a value that
    can be negative.  Only the diagonal layer's second coordinate, with no
    gate term and both offsets 0, is a copy of its input."""
    ti = SsmLayer(as_vector([0, 0]), TimeInvariantGate(as_matrix([[0, 0], [0, 1]])),
                  AffineMap(eye(2), as_vector([Fraction(1, 2), 0])),
                  linear_fnn([[1, 0, 0, 0], [0, 1, 0, 0]], activation=RELU))
    diagonal = SsmLayer(as_vector([0, 0]),
                        DiagonalAffineGate(zeros_mat(2), as_vector([Fraction(1, 2), 0])),
                        AffineMap(eye(2), as_vector([0, 0])), projection_phi(2))
    emb = (as_vector([1, -1]), as_vector([Fraction(-1, 2), Fraction(1, 4)]))
    model = SsmModel(("a", "b"), emb, (ti, diagonal), linear_fnn([[1, 1]]))
    mode = EXACT if fmt is None else ArithMode(fmt)
    for n in (1, 2, 3):
        for word in itertools.product(model.alphabet, repeat=n):
            assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode)


def test_identity_phi_applies_the_saturated_unit():
    """In fx:3:2 the unit weight is 3/4, on the projection phi too.  With x
    = 1/2: h = 3/4 * 1/2 -> raw 1, phi 3/4 * 1/4 -> raw 0, out raw 0; both
    evaluation orders agree on it."""
    layer = SsmLayer(
        as_vector([0]),
        TimeInvariantGate(zeros_mat(1)),
        AffineMap(eye(1), as_vector([0])),
        projection_phi(1),
    )
    model = SsmModel(alphabet=("a",), emb=(as_vector([Fraction(1, 2)]),),
                     layers=(layer,), out=select_fnn([0], 1))
    mode = ArithMode(FixedPointFormat(3, 2))
    streamed = evaluate(model, ["a"], mode)
    assert streamed == evaluate_layerwise(model, ["a"], mode)
    assert streamed.raw == 0


@given(small_models(), st.data())
@settings(max_examples=100, deadline=None)
def test_fixed_state_entries_stay_representable(model, data):
    fmt = data.draw(st.sampled_from([FX6, FixedPointFormat(8, 4)]))
    mode = ArithMode(fmt)
    state = initial_state(model, mode)
    for _ in range(data.draw(st.integers(1, 6))):
        symbol = data.draw(st.sampled_from(model.alphabet))
        state, _ = step(model, state, symbol)
        for h in state.hidden:
            for raw in h:
                assert fmt.min_raw <= raw <= fmt.max_raw


@given(small_models(), st.data())
@settings(max_examples=80, deadline=None)
def test_alphabet_permutation_invariance(model, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    order = list(range(len(model.alphabet)))
    rng.shuffle(order)
    permuted = SsmModel(
        alphabet=tuple(model.alphabet[i] for i in order),
        emb=tuple(model.emb[i] for i in order),
        layers=model.layers,
        out=model.out,
    )
    n = data.draw(st.integers(1, 4))
    word = [data.draw(st.sampled_from(model.alphabet)) for _ in range(n)]
    assert evaluate(model, word, EXACT) == evaluate(permuted, word, EXACT)


def _through_dense_views(model: SsmModel) -> SsmModel:
    """The model built again from its public dense views."""
    def fnn(net):
        return Fnn(tuple(FnnLayer(tuple(FnnNode(n.weights, n.bias, n.activation)
                                        for n in layer.nodes)) for layer in net.layers))

    layers = []
    for layer in model.layers:
        if isinstance(layer.gate, TimeInvariantGate):
            gate = TimeInvariantGate(layer.gate.matrix)
        else:
            gate = DiagonalAffineGate(layer.gate.matrix, layer.gate.offset)
        inc = AffineMap(layer.inc.matrix, layer.inc.offset)
        net = None if layer.net is None else fnn(layer.net)
        layers.append(SsmLayer(layer.h0, gate, inc, net, layer.computes))
    return SsmModel(model.alphabet, model.emb, tuple(layers), fnn(model.out), model.metadata)


def _dense_quantization_report(model: SsmModel, fmt: FixedPointFormat):
    """Every dense entry checked in order, zeros included."""
    issues = []

    def check(path, values):
        for i, value in enumerate(values):
            if Fraction(raw_encode(value, fmt), fmt.scale) != value:
                issues.append((path(i), value))

    def check_fnn(prefix, net):
        for li, layer in enumerate(net.layers):
            for ni, node in enumerate(layer.nodes):
                at = f"{prefix}.layer{li}.node{ni}"
                check(lambda _: f"{at}.bias", [node.bias])
                check(lambda i: f"{at}.w{i}", node.weights)

    for s, vec in zip(model.alphabet, model.emb):
        check(lambda i: f"emb[{s}][{i}]", vec)
    for li, layer in enumerate(model.layers):
        check(lambda i: f"layer{li}.h0[{i}]", layer.h0)
        for name, mat in (("gate", layer.gate.matrix), ("inc", layer.inc.matrix)):
            for r, row in enumerate(mat):
                check(lambda c: f"layer{li}.{name}[{r}][{c}]", row)
        if isinstance(layer.gate, DiagonalAffineGate):
            check(lambda i: f"layer{li}.gate.offset[{i}]", layer.gate.offset)
        check(lambda i: f"layer{li}.inc.offset[{i}]", layer.inc.offset)
        check_fnn(f"layer{li}.phi", layer.phi)
    check_fnn("out", model.out)
    return issues


@given(small_models(denominators=(1, 2, 3, 4, 16)))
@settings(max_examples=80, deadline=None)
def test_dense_views_rebuild_the_same_model(model):
    """``.matrix`` and ``.weights`` are dense views of the sparse rows: a
    model built again from them is equal, hashes equal and saves the same
    bytes, and the quantisation report over the rows' nonzero entries is
    the report of a scan over every dense entry."""
    dim = model.dim
    for layer in model.layers:
        for mat in (layer.gate.matrix, layer.inc.matrix):
            assert len(mat) == dim and all(len(row) == dim for row in mat)
            assert all(type(w) is Fraction for row in mat for w in row)
    rebuilt = _through_dense_views(model)
    assert rebuilt == model and hash(rebuilt) == hash(model)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("model.ssm", "rebuilt.ssm")]
        save_model(model, paths[0])
        save_model(rebuilt, paths[1])
        first, second = (Path(path).read_bytes() for path in paths)
    assert first == second
    for fmt in (FX6, FixedPointFormat(3, 2)):
        report = quantization_report(model, fmt)
        assert report == quantization_report(rebuilt, fmt) == _dense_quantization_report(model, fmt)


def test_quantization_report_is_the_fraction_round_trip():
    """The report's integer test of representability names the constants
    that, encoded and read back as ``Fraction(raw, scale)``, come back
    changed; on seed-11 LTL, Minsky and ILP models and the hand formulas."""
    rng = random.Random(11)
    models = [compile_ltl(parse(text)) for text in hand_formulas()]
    models += [compile_ltl(random_formula(rng, rng.randint(3, 9))) for _ in range(20)]
    models += [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(8)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(8)]
    reported = 0
    for fmt in (FX6, FixedPointFormat(3, 2), FixedPointFormat(4, 0)):
        for model in models:
            report = quantization_report(model, fmt)
            assert report == [(path, v) for path, v in _constants(model)
                              if Fraction(fraction_encode(v, fmt), fmt.scale) != v]
            reported += len(report)
    assert reported > 0


def test_saved_bytes_do_not_depend_on_shared_rows(tmp_path):
    """A compiled model shares its identity rows and copy nodes; built
    again from its dense views it shares none, is equal, and saves the same
    bytes.  It carries the same coordinates, found from its rows alone."""
    rng = random.Random(3)
    models = [compile_ltl(parse("(X p | !q) & r")), compile_ltl(random_formula(rng, 7, ("p", "q"))),
              compile_minsky(random_machine(rng, 3)), compile_ilp(random_ilp(rng))]
    def objects(model):
        rows = [row for layer in model.layers for row in layer.gate.rows + layer.inc.rows]
        return len(rows), len({id(row) for row in rows})

    assert objects(models[0])[1] < objects(models[0])[0]
    for model in models:
        rebuilt = _through_dense_views(model)
        assert objects(rebuilt)[1] == objects(rebuilt)[0] and rebuilt == model
        assert [layer.updates for layer in rebuilt.layers] == [
            layer.updates for layer in model.layers]
        paths = [tmp_path / "model.ssm", tmp_path / "rebuilt.ssm"]
        save_model(model, str(paths[0]))
        save_model(rebuilt, str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()
    assert [layer.updates for layer in models[0].layers] == [(3,), (4,), (5,)]


@pytest.mark.parametrize("gate, inc, offset, rises", [
    ([[1, 0], [0, 0]], [[1, 0], [0, 0]], [0, 0], True),  # adds an input in [0, 1]
    ([[1, 0], [0, 0]], [[0, -2], [0, 0]], [1, 0], True),  # -2 times an input in [-1, 0]
    ([[1, 0], [0, 0]], [[1, 1], [0, 0]], [0, 0], False),  # adds an input in [-1, 0]
    ([[1, 0], [0, 0]], [[1, 0], [0, 0]], [-1, 0], False),  # a negative offset
    ([[2, 0], [0, 0]], [[1, 0], [0, 0]], [0, 0], False),  # a gate of 2
    ([[1, 1], [0, 0]], [[1, 0], [0, 0]], [0, 0], False),  # the gate reads coordinate 1
    (([[0, 0], [0, 0]], [1, 0]), [[1, 0], [0, 0]], [0, 0], True),  # a diagonal offset of 1
    (([[1, 0], [0, 0]], [1, 0]), [[1, 0], [0, 0]], [0, 0], False),  # the gate reads x0
])
def test_only_a_coordinate_that_cannot_fall_rises(gate, inc, offset, rises):
    """A hidden input rises, taking [h0, top], only where its gate row is 1
    on itself and its inc offset and every inc term are not negative over
    the inputs' intervals; each condition alone is not enough."""
    gate = (DiagonalAffineGate(as_matrix(gate[0]), as_vector(gate[1])) if isinstance(gate, tuple)
            else TimeInvariantGate(as_matrix(gate)))
    layer = SsmLayer(as_vector([Fraction(-1, 2), 0]), gate,
                     AffineMap(as_matrix(inc), as_vector(offset)), projection_phi(2))
    for mode, scale in ((EXACT, 2), (ArithMode(FixedPointFormat(6, 3)), None)):
        comp = _StepCompiler(mode, scale)
        x = [_Val("x0", None, 0, comp.scale, ("x0",)), _Val("x1", None, -comp.scale, 0, ("x1",))]
        expected = {0: (-comp.scale // 2, comp.top)} if rises else {}
        assert comp.rising(layer, [0], x) == expected


def test_exact_sums_fold_every_constant():
    """Exact sums do not depend on the order of their terms, so the int step
    folds all constant terms of a sum into one literal.  A sum adds or
    subtracts its terms, never adds a negated one, and a one-line relu sums
    before its ``if``."""
    rng = random.Random(5)
    models = [compile_minsky(random_machine(rng, rng.randint(2, 5))) for _ in range(45)]
    models += [compile_ilp(random_ilp(rng)) for _ in range(45)]
    sums = 0
    for model in models:
        comp = _StepCompiler(EXACT)
        source = _render(comp.program(model, [tuple(map(comp.enc, vec)) for vec in model.emb]))
        for line in source.splitlines():
            _, assigned, expr = line.partition(" = ")
            terms = re.split(r" [+-] ", expr.partition(" if ")[0])
            assert not re.search(r"\+ \(?-", expr), line
            if assigned and len(terms) > 1:
                sums += 1
                assert sum(bool(re.fullmatch(r"-?\d+", t)) for t in terms) <= 1, line
    assert sums > 1000


def test_state_count_bound_formula():
    model_1 = accumulator_model()  # L=1, d=2
    assert state_count_bound(model_1, 2) == 1 << 8
    assert state_count_bound(model_1, 0) == 1
    three = SsmModel(
        alphabet=("a",),
        emb=(as_vector([0, 0, 0]),),
        layers=tuple(
            SsmLayer(
                as_vector([0, 0, 0]),
                TimeInvariantGate(zeros_mat(3)),
                AffineMap(eye(3), as_vector([0, 0, 0])),
                projection_phi(3),
            )
            for _ in range(2)
        ),
        out=compose(gadget_eq(1), select_fnn([0], 3)),
    )
    assert state_count_bound(three, 6) == 1 << 72


def test_classify_diagonal_and_time_invariant():
    d = 2
    ti_diag = SsmLayer(
        as_vector([0, 0]),
        TimeInvariantGate(as_matrix([[1, 0], [0, Fraction(1, 4)]])),
        AffineMap(eye(d), as_vector([0, 0])),
        projection_phi(d),
    )
    ti_full = SsmLayer(
        as_vector([0, 0]),
        TimeInvariantGate(as_matrix([[1, 1], [0, 1]])),
        AffineMap(eye(d), as_vector([0, 0])),
        projection_phi(d),
    )
    da = SsmLayer(
        as_vector([0, 0]),
        DiagonalAffineGate(eye(d), as_vector([0, 0])),
        AffineMap(eye(d), as_vector([0, 0])),
        projection_phi(d),
    )
    out = compose(gadget_eq(1), select_fnn([0], d))
    emb = (as_vector([1, 0]),)
    mk = lambda *layers: SsmModel(("a",), emb, layers, out)
    assert classify_gates(mk(ti_diag)) == GateClasses(True, True)
    assert classify_gates(mk(ti_full)) == GateClasses(True, False)
    assert classify_gates(mk(da)) == GateClasses(False, True)
    assert classify_gates(mk(ti_diag, da)) == GateClasses(False, True)


def test_quantization_report_flags_unrepresentable():
    d = 1
    layer = SsmLayer(
        as_vector([Fraction(1, 3)]),
        TimeInvariantGate(as_matrix([[1]])),
        AffineMap(as_matrix([[1]]), as_vector([0])),
        projection_phi(d),
    )
    model = SsmModel(("a",), (as_vector([1]),), (layer,), gadget_eq(1))
    issues = quantization_report(model, FX6)
    assert [(p, v) for p, v in issues] == [("layer0.h0[0]", Fraction(1, 3))]
    assert quantization_report(accumulator_model(), FX6) == []
