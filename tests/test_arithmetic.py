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
    parse_rational,
    raw_add,
    raw_encode,
    raw_mul,
    raw_relu,
)
from ssmverify.errors import InputFormatError

FMT63 = FixedPointFormat(6, 3)


def test_encode_exactly_representable():
    raw = raw_encode(Fraction(1, 4), FMT63)
    assert raw == 2 and FixedPointValue(raw, FMT63).value == Fraction(1, 4)


def test_encode_truncates_toward_zero():
    assert raw_encode(Fraction(1, 3), FMT63) == 2  # 1/4
    assert raw_encode(Fraction(-1, 3), FMT63) == -2  # -1/4


def test_encode_saturates():
    assert raw_encode(Fraction(100), FMT63) == FMT63.max_raw == 31  # 31/8
    assert raw_encode(Fraction(-100), FMT63) == FMT63.min_raw == -32  # -4


def test_encode_idempotent_on_representable():
    for raw in range(FMT63.min_raw, FMT63.max_raw + 1):
        assert raw_encode(FixedPointValue(raw, FMT63).value, FMT63) == raw


def test_raw_out_of_range_is_an_input_error():
    for raw in (FMT63.min_raw - 1, FMT63.max_raw + 1):
        with pytest.raises(InputFormatError):
            FixedPointValue(raw, FMT63)


ENCODE_FORMATS = [FixedPointFormat(6, 3), FixedPointFormat(3, 2), FixedPointFormat(4, 0),
                  FixedPointFormat(8, 3), FixedPointFormat(4096, 4095)]
NUMERATORS = st.one_of(st.integers(-300, 300), st.integers(-10**40, 10**40))
DENOMINATORS = st.one_of(st.integers(1, 16), st.integers(1, 10**40))


@given(st.one_of(NUMERATORS, st.builds(Fraction, NUMERATORS, DENOMINATORS)),
       st.sampled_from(ENCODE_FORMATS))
@settings(max_examples=200)
def test_integer_encode_equals_the_fraction_product(x, fmt):
    assert raw_encode(x, fmt) == fraction_encode(x, fmt)


def test_mul_truncates():
    a, b = raw_encode(Fraction(1, 4), FMT63), raw_encode(Fraction(5, 4), FMT63)
    assert raw_mul(a, b, FMT63) == 2  # exact 5/16 truncates to 1/4
    assert raw_mul(-a, b, FMT63) == -2  # and -5/16 toward zero, to -1/4


def test_add_saturates_at_max():
    top, bottom = FMT63.max_raw, FMT63.min_raw
    assert raw_add(top, top, FMT63) == top
    assert raw_add(bottom, bottom, FMT63) == bottom


def test_relu():
    assert raw_relu(raw_encode(Fraction(-3, 8), FMT63)) == 0
    assert raw_relu(raw_encode(Fraction(3, 8), FMT63)) == 3


def test_neg_of_minimum_saturates():
    """A compiled model negates by multiplying with the encoded -1, so the
    negation of the least mantissa saturates to the greatest."""
    minus_one = raw_encode(Fraction(-1), FMT63)
    assert raw_mul(FMT63.min_raw, minus_one, FMT63) == FMT63.max_raw


def test_max_and_cmp():
    """The encode keeps order, and mantissas compare as their values do, so
    ``max`` and comparisons run on the bare ints."""
    values = sorted({Fraction(n, d) for n in range(-40, 41) for d in (1, 3, 8)})
    raws = [raw_encode(x, FMT63) for x in values]
    assert raws == sorted(raws)
    a, b = raw_encode(Fraction(1, 2), FMT63), raw_encode(Fraction(-1, 2), FMT63)
    assert max(a, b) == a and a > b
    assert FixedPointValue(a, FMT63).value > FixedPointValue(b, FMT63).value


@given(st.integers(1, MAX_TOTAL_BITS).flatmap(
    lambda total: st.tuples(st.just(total), st.integers(0, total - 1))))
def test_format_string_round_trip(bits):
    fmt = FixedPointFormat(*bits)
    assert FixedPointFormat.parse(str(fmt)) == fmt
    mode = ArithMode(fmt)
    assert ArithMode.parse(str(mode)) == mode
    assert FixedPointFormat.parse("fx:6:3") == FX6
    assert str(FX6) == "fx:6:3"
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
def fixed_raws(draw):
    """A format and a mantissa in it."""
    fmt = draw(st.sampled_from(FORMATS))
    return fmt, draw(st.integers(fmt.min_raw, fmt.max_raw))


@given(fixed_raws())
def test_ops_closed_in_format(fa):
    fmt, a = fa
    _, add, mul, relu = ArithMode(fmt).kernels
    b = (a * 3 + 1) % (fmt.max_raw + 1)
    minus_one = raw_encode(Fraction(-1), fmt)
    for result in (add(a, b), mul(a, b), mul(a, minus_one), relu(a)):
        assert fmt.min_raw <= result <= fmt.max_raw


@given(fixed_raws(), st.integers(-40, 40))
def test_ops_match_exact_then_quantise(fa, rb):
    """Saturating fixed ops coincide with computing exactly and re-encoding."""
    fmt, a = fa
    _, add, mul, relu = ArithMode(fmt).kernels
    b = max(fmt.min_raw, min(fmt.max_raw, rb))
    va, vb = Fraction(a, fmt.scale), Fraction(b, fmt.scale)
    assert add(a, b) == raw_encode(va + vb, fmt)
    assert mul(a, b) == raw_encode(va * vb, fmt)
    assert mul(a, raw_encode(Fraction(-1), fmt)) == raw_encode(-va, fmt)
    assert relu(a) == raw_encode(max(Fraction(0), va), fmt)


@given(st.fractions(min_value=-6, max_value=6))
def test_truncation_never_grows_magnitude(x):
    assert abs(Fraction(raw_encode(x, FMT63), FMT63.scale)) <= abs(x)


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


@given(fixed_raws(), st.integers(), st.integers())
@settings(max_examples=200)
def test_add_never_leaves_bounds_on_triples(fa, rb, rc):
    fmt, a = fa
    b = rb % (fmt.max_raw - fmt.min_raw + 1) + fmt.min_raw
    c = rc % (fmt.max_raw - fmt.min_raw + 1) + fmt.min_raw
    left = raw_add(raw_add(a, b, fmt), c, fmt)
    right = raw_add(a, raw_add(b, c, fmt), fmt)
    for r in (left, right):
        assert fmt.min_raw <= r <= fmt.max_raw
    # commutativity survives saturation even when associativity does not
    assert raw_add(a, b, fmt) == raw_add(b, a, fmt)
