"""Gadget truth tables and combinator algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmverify.arithmetic import EXACT, FX6, ArithMode, FixedPointFormat, raw_encode
from ssmverify.errors import DimensionError
from ssmverify.fnn import (
    Fnn,
    FnnLayer,
    FnnNode,
    IDENTITY,
    RELU,
    compose,
    eval_program,
    gadget_and,
    gadget_eq,
    gadget_geq0,
    gadget_implies,
    gadget_leq,
    gadget_lookup,
    gadget_min1,
    identity_fnn,
    linear_fnn,
    select_fnn,
)

FX6_MODE = ArithMode(FX6)


def run1(net, *xs):
    return eval_program(net, [Fraction(x) for x in xs], EXACT)[0]


def raws1(net, *xs, mode=FX6_MODE):
    """The first output mantissa of ``net`` on ``xs`` encoded in ``mode``."""
    return eval_program(net, [raw_encode(Fraction(x), mode.fmt) for x in xs], mode)[0]


def test_identity_net():
    net = identity_fnn(2)
    assert eval_program(net, [Fraction(3), Fraction(-2)], EXACT) == (3, -2)


@pytest.mark.parametrize("b", range(-8, 9))
def test_gadget_eq_table(b):
    net = gadget_eq(b)
    for n in range(-20, 21):
        assert run1(net, n) == (1 if n == b else 0)


@pytest.mark.parametrize("b", range(-8, 9))
def test_gadget_leq_table(b):
    net = gadget_leq(b)
    for n in range(-20, 21):
        assert run1(net, n) == (1 if n <= b else 0)


def test_gadget_eq_examples():
    assert run1(gadget_eq(3), 3) == 1
    assert run1(gadget_eq(3), 2) == 0
    assert run1(gadget_eq(0), -4) == 0


def test_gadget_leq_examples():
    assert run1(gadget_leq(2), 2) == 1
    assert run1(gadget_leq(2), 5) == 0
    assert run1(gadget_leq(0), -7) == 1


def test_gadget_geq0_table():
    net = gadget_geq0()
    for n in range(-20, 21):
        assert run1(net, n) == (1 if n >= 0 else 0)


@pytest.mark.parametrize("k", range(1, 6))
def test_gadget_and_table(k):
    net = gadget_and(k)
    for m in range(1 << k):
        bits = [(m >> i) & 1 for i in range(k)]
        assert run1(net, *bits) == (1 if all(bits) else 0)


def test_gadget_implies_polarity():
    net = gadget_implies()
    # 0 when the implication holds, 1 otherwise
    table = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    for (x, y), want in table.items():
        assert run1(net, x, y) == want


@given(st.fractions(), st.fractions())
@settings(max_examples=200, deadline=None)
def test_gadget_implies_is_one_minus_min1(x, y):
    assert run1(gadget_implies(), x, y) == 1 - min(1, 1 - x + y)


def test_gadget_min1():
    net = gadget_min1()
    assert run1(net, Fraction(1, 2)) == Fraction(1, 2)
    assert run1(net, 2) == 1
    assert run1(net, -1) == -1


def test_gadget_min1_random_rationals():
    net = gadget_min1()
    rng = random.Random(7)
    for _ in range(1000):
        x = Fraction(rng.randint(-64, 64), rng.randint(1, 16))
        assert run1(net, x) == min(Fraction(1), x)


def test_gadget_lookup_transition_table():
    # delta = {(q0, inc1, q1)} queried as (from, to, action) one-hot blocks
    net = gadget_lookup((2, 2, 6), {(0, 1, 0)})
    def query(f, t, a):
        vec = [0] * 10
        vec[f] = 1
        vec[2 + t] = 1
        vec[4 + a] = 1
        return run1(net, *vec)
    assert query(0, 1, 0) == 0
    assert query(1, 1, 0) == 1
    for f in range(2):
        for t in range(2):
            for a in range(6):
                assert query(f, t, a) == (0 if (f, t, a) == (0, 1, 0) else 1)


def test_gadget_lookup_empty_table_rejects_everything():
    net = gadget_lookup((2, 2), set())
    for f in range(2):
        for t in range(2):
            vec = [0] * 4
            vec[f] = 1
            vec[2 + t] = 1
            assert run1(net, *vec) == 1


def test_compose_examples():
    assert run1(compose(gadget_eq(1), gadget_leq(0)), -5) == 1
    assert run1(compose(gadget_eq(0), gadget_eq(0)), 7) == 1
    with pytest.raises(DimensionError):
        compose(gadget_and(2), gadget_eq(0))


@st.composite
def small_linear_nets(draw, input_dim=None):
    depth = draw(st.integers(1, 3))
    first = input_dim if input_dim is not None else draw(st.integers(1, 3))
    dims = [first] + [draw(st.integers(1, 3)) for _ in range(depth)]
    layers = []
    for i in range(depth):
        nodes = []
        for _ in range(dims[i + 1]):
            weights = tuple(
                Fraction(draw(st.integers(-2, 2))) for _ in range(dims[i])
            )
            bias = Fraction(draw(st.integers(-2, 2)))
            act = draw(st.sampled_from([RELU, IDENTITY]))
            nodes.append(FnnNode(weights, bias, act))
        layers.append(FnnLayer(tuple(nodes)))
    return Fnn(tuple(layers))


@given(small_linear_nets(), st.data())
@settings(max_examples=150)
def test_compose_extensionality(inner, data):
    outer = data.draw(small_linear_nets(input_dim=inner.output_dim))
    xs = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(inner.input_dim)]
    sequential = eval_program(outer, eval_program(inner, xs, EXACT), EXACT)
    assert eval_program(compose(outer, inner), xs, EXACT) == sequential
    assert eval_program(compose(inner, identity_fnn(inner.input_dim)), xs, EXACT) == eval_program(
        inner, xs, EXACT
    )


def test_fixed_mode_gadgets_within_six_bits():
    """The compiled models only use gadget instances whose pre-activations
    fit the 6-bit range; those stay exact on inputs -3..3 in fx6, where 1
    is the mantissa ``FX6.scale``."""
    one = FX6.scale
    for b in (-2, -1, 0, 1, 2, 3):
        net = gadget_eq(b)
        for n in range(-3, 4):
            assert raws1(net, n) == (one if n == b else 0), (b, n)
    # leq: the true side needs b - x <= 2 before saturation bites
    for b in (-1, 0, 1, 2):
        net = gadget_leq(b)
        for n in range(max(-3, b - 2), 4):
            assert raws1(net, n) == (one if n <= b else 0), (b, n)
    # geq0 saturates at +3 (pre-activation 4); exact below that
    net = gadget_geq0()
    for n in range(-3, 3):
        assert raws1(net, n) == (one if n >= 0 else 0)
    # conjunction sums saturate beyond arity 3
    for k in (1, 2, 3):
        net = gadget_and(k)
        for m in range(1 << k):
            bits = [(m >> i) & 1 for i in range(k)]
            assert raws1(net, *bits) == (one if all(bits) else 0)
    net = gadget_min1()
    for n in range(-3, 4):
        assert raws1(net, n) == min(1, n) * one
    net = gadget_implies()
    for x in (0, 1):
        for y in (0, 1):
            assert raws1(net, x, y) == (one if (x and not y) else 0)


def test_unit_weight_copy_saturates_like_any_unit_weight():
    """In fx:3:2 the weight 1 encodes to 3/4, and an identity copy applies
    it like a relu node does: 3/4 * 1/2 truncates to 1/4 (raw 1)."""
    mode = ArithMode(FixedPointFormat(3, 2))
    copied = raws1(linear_fnn([[1]]), Fraction(1, 2), mode=mode)
    rectified = raws1(linear_fnn([[1]], activation=RELU), Fraction(1, 2), mode=mode)
    assert copied == rectified == 1


def test_select_and_linear_helpers():
    net = select_fnn([2, 0], 3)
    assert eval_program(net, [Fraction(5), Fraction(6), Fraction(7)], EXACT) == (7, 5)
    aff = linear_fnn([[1, 1], [1, -1]], bias=[0, 1])
    assert eval_program(aff, [Fraction(2), Fraction(3)], EXACT) == (5, 0)


@pytest.mark.parametrize("index", [-1, 3])
def test_select_rejects_an_index_outside_the_input(index):
    with pytest.raises(DimensionError):
        select_fnn([0, index], 3)


@pytest.mark.parametrize("net, values", [
    (gadget_eq(0), [Fraction(0), Fraction(5)]),  # one value too many
    (gadget_and(2), [Fraction(1)]),  # one value too few
], ids=["extra", "missing"])
def test_eval_program_checks_the_input_width(net, values):
    with pytest.raises(DimensionError, match=f"{net.input_dim} inputs, got {len(values)}"):
        eval_program(net, values, EXACT)
    with pytest.raises(DimensionError):
        eval_program(net, [raw_encode(v, FX6) for v in values], ArithMode(FX6))
