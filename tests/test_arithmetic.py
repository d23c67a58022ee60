"""Fixed-point arithmetic: encoding, saturating ops, and closure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fraction_encode
from ssmverify.arithmetic import (
    EXACT,
    FX6,
    MAX_TOTAL_BITS,
    ArithMode,
    FixedPointFormat,
    FixedPointValue,
    fx_add,
    fx_cmp,
    fx_encode,
    fx_max,
    fx_mul,
    fx_neg,
    fx_relu,
    parse_rational,
    raw_encode,
)
from ssmverify.errors import FormatMismatchError, InputFormatError

FMT63 = FixedPointFormat(6, 3)


def test_encode_exactly_representable():
    v = fx_encode(Fraction(1, 4), FMT63)
    assert v.raw == 2 and v.value == Fraction(1, 4)


def test_encode_truncates_toward_zero():
    assert fx_encode(Fraction(1, 3), FMT63).value == Fraction(1, 4)
    assert fx_encode(Fraction(-1, 3), FMT63).value == Fraction(-1, 4)


def test_encode_saturates():
    assert fx_encode(Fraction(100), FMT63).value == Fraction(31, 8)
    assert fx_encode(Fraction(-100), FMT63).value == Fraction(-4)


def test_encode_idempotent_on_representable():
    for raw in range(FMT63.min_raw, FMT63.max_raw + 1):
        v = FixedPointValue(raw, FMT63)
        assert fx_encode(v.value, FMT63) == v


def test_raw_out_of_range_is_an_input_error():
    for raw in (FMT63.min_raw - 1, FMT63.max_raw + 1):
        with pytest.raises(InputFormatError):
            FixedPointValue(raw, FMT63)


ENCODE_FORMATS = [FixedPointFormat(6, 3), FixedPointFormat(3, 2), FixedPointFormat(4, 0),
                  FixedPointFormat(8, 3, signed=False), FixedPointFormat(4096, 4095)]
NUMERATORS = st.one_of(st.integers(-300, 300), st.integers(-10**40, 10**40))
DENOMINATORS = st.one_of(st.integers(1, 16), st.integers(1, 10**40))


@given(st.one_of(NUMERATORS, st.builds(Fraction, NUMERATORS, DENOMINATORS)),
       st.sampled_from(ENCODE_FORMATS))
@settings(max_examples=200)
def test_integer_encode_equals_the_fraction_product(x, fmt):
    assert raw_encode(x, fmt) == fraction_encode(x, fmt)


def test_mul_truncates():
    a = fx_encode(Fraction(1, 4), FMT63)
    b = fx_encode(Fraction(5, 4), FMT63)
    assert fx_mul(a, b).value == Fraction(1, 4)  # exact 5/16 truncates to 1/4


def test_add_saturates_at_max():
    top = FixedPointValue(FMT63.max_raw, FMT63)
    assert fx_add(top, top) == top


def test_relu():
    assert fx_relu(fx_encode(Fraction(-3, 8), FMT63)).value == 0
    assert fx_relu(fx_encode(Fraction(3, 8), FMT63)).value == Fraction(3, 8)


def test_neg_of_minimum_saturates():
    bottom = FixedPointValue(FMT63.min_raw, FMT63)
    assert fx_neg(bottom).raw == FMT63.max_raw


def test_max_and_cmp():
    a = fx_encode(Fraction(1, 2), FMT63)
    b = fx_encode(Fraction(-1, 2), FMT63)
    assert fx_max(a, b) == a
    assert fx_cmp(a, b) == 1 and fx_cmp(b, a) == -1 and fx_cmp(a, a) == 0


def test_format_mismatch_raises():
    a = fx_encode(Fraction(1), FixedPointFormat(6, 3))
    b = fx_encode(Fraction(1), FixedPointFormat(8, 4))
    with pytest.raises(FormatMismatchError):
        fx_add(a, b)


def test_unsigned_format_range():
    fmt = FixedPointFormat(4, 2, signed=False)
    assert (fmt.min_raw, fmt.max_raw) == (0, 15)
    assert fx_encode(Fraction(-1), fmt).raw == 0
    top = FixedPointValue(15, fmt)
    assert fx_add(top, top) == top
    assert fx_neg(fx_encode(Fraction(1, 2), fmt)).raw == 0


def test_format_string_round_trip():
    fmt = FixedPointFormat.parse("fx:6:3")
    assert fmt == FX6
    assert str(fmt) == "fx:6:3"
    assert ArithMode.parse("exact") == EXACT
    assert ArithMode.parse("fx:8:4").fmt == FixedPointFormat(8, 4)


@pytest.mark.parametrize("bad", ["fx:3", "fx:a:b", "float:6:3", "fx:3:3", "fx:0:0"])
def test_bad_format_strings(bad):
    with pytest.raises(InputFormatError):
        ArithMode.parse(bad)


def test_format_width_ceiling():
    """The widest format's raw bounds print within CPython's int-to-str
    digit limit; one bit more, or a width past 2**63, is an input error."""
    widest = ArithMode.parse(f"fx:{MAX_TOTAL_BITS}:{MAX_TOTAL_BITS - 1}").fmt
    assert len(str(widest.min_raw)) < 4300
    for bad in (f"fx:{MAX_TOTAL_BITS + 1}:3", "fx:99999999999999999999:3"):
        with pytest.raises(InputFormatError):
            ArithMode.parse(bad)


def test_parse_rational_quotes_a_prefix_of_a_long_literal():
    # 5,000 digits pass the grammar but not CPython's int digit limit
    with pytest.raises(InputFormatError) as info:
        parse_rational("9" * 5000)
    message = str(info.value)
    assert len(message) < 200 and "(5000 characters)" in message


FORMATS = [FixedPointFormat(6, 3), FixedPointFormat(8, 4), FixedPointFormat(12, 6)]


@st.composite
def fixed_values(draw):
    fmt = draw(st.sampled_from(FORMATS))
    raw = draw(st.integers(fmt.min_raw, fmt.max_raw))
    return FixedPointValue(raw, fmt)


@given(fixed_values())
def test_ops_closed_in_format(a):
    fmt = a.fmt
    b = FixedPointValue((a.raw * 3 + 1) % (fmt.max_raw + 1), fmt)
    for result in (fx_add(a, b), fx_mul(a, b), fx_neg(a), fx_relu(a)):
        assert fmt.min_raw <= result.raw <= fmt.max_raw
        assert result.fmt == fmt


@given(fixed_values(), st.integers(-40, 40), st.integers(-40, 40))
def test_ops_match_exact_then_quantise(a, rb, rc):
    """Saturating fixed ops coincide with computing exactly and re-encoding."""
    fmt = a.fmt
    b = FixedPointValue(max(fmt.min_raw, min(fmt.max_raw, rb)), fmt)
    assert fx_add(a, b) == fx_encode(a.value + b.value, fmt)
    assert fx_mul(a, b) == fx_encode(a.value * b.value, fmt)
    assert fx_neg(a) == fx_encode(-a.value, fmt)
    assert fx_relu(a) == fx_encode(max(Fraction(0), a.value), fmt)


@given(st.fractions(min_value=-6, max_value=6))
def test_truncation_never_grows_magnitude(x):
    encoded = fx_encode(x, FMT63)
    assert abs(encoded.value) <= abs(x)


# Expression trees: (op, left, right) over rational leaves. The oracle works
# on raw (numerator, denominator) integer pairs, independent of Fraction.
def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    op = rng.choice(["add", "mul", "neg", "relu", "max"])
    if op in ("neg", "relu"):
        return (op, _tree(rng, depth - 1))
    return (op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _eval_fraction(node):
    if isinstance(node, Fraction):
        return node
    op = node[0]
    if op == "neg":
        return -_eval_fraction(node[1])
    if op == "relu":
        return max(Fraction(0), _eval_fraction(node[1]))
    a, b = _eval_fraction(node[1]), _eval_fraction(node[2])
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    return max(a, b)


def _eval_bigint(node):
    import math

    def norm(n, d):
        if d < 0:
            n, d = -n, -d
        g = math.gcd(n, d)
        return (n // g, d // g) if g else (0, 1)

    if isinstance(node, Fraction):
        return norm(node.numerator, node.denominator)
    op = node[0]
    if op == "neg":
        n, d = _eval_bigint(node[1])
        return (-n, d)
    if op == "relu":
        n, d = _eval_bigint(node[1])
        return (n, d) if n > 0 else (0, 1)
    (an, ad), (bn, bd) = _eval_bigint(node[1]), _eval_bigint(node[2])
    if op == "add":
        return norm(an * bd + bn * ad, ad * bd)
    if op == "mul":
        return norm(an * bn, ad * bd)
    return (an, ad) if an * bd >= bn * ad else (bn, bd)


def test_exact_mode_matches_bigint_oracle():
    import random

    rng = random.Random(99)
    for _ in range(500):
        tree = _tree(rng, 5)
        value = _eval_fraction(tree)
        n, d = _eval_bigint(tree)
        assert (value.numerator, value.denominator) == (n, d)


@given(fixed_values(), st.integers(), st.integers())
@settings(max_examples=200)
def test_add_never_leaves_bounds_on_triples(a, rb, rc):
    fmt = a.fmt
    b = FixedPointValue(rb % (fmt.max_raw - fmt.min_raw + 1) + fmt.min_raw, fmt)
    c = FixedPointValue(rc % (fmt.max_raw - fmt.min_raw + 1) + fmt.min_raw, fmt)
    left = fx_add(fx_add(a, b), c)
    right = fx_add(a, fx_add(b, c))
    for r in (left, right):
        assert fmt.min_raw <= r.raw <= fmt.max_raw
    # commutativity survives saturation even when associativity does not
    assert fx_add(a, b) == fx_add(b, a)
