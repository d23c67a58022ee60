"""The two scalar domains every evaluation runs over.

Exact mode uses arbitrary-precision rationals (stdlib ``fractions.Fraction``,
always in lowest terms, positive denominator).  Fixed mode uses saturating
two's-complement fixed point: ``total_bits`` bits, of which ``frac_bits``
are fractional, truncation toward zero on multiplication and encoding,
saturation on overflow.  Every operation is total and pure.
"""

from __future__ import annotations

import operator
import re
import reprlib
from fractions import Fraction
from functools import partial

from ._value import Value
from .errors import InputFormatError

Rational = Fraction

_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


# The most characters of a rejected literal that an error message quotes.
_QUOTED_CHARS = 24


def _quoted(text) -> str:
    """``text`` as an error message quotes it: a long string is cut to a
    prefix and its length."""
    if isinstance(text, str) and len(text) > _QUOTED_CHARS:
        return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"
    return reprlib.repr(text)


def parse_rational(text: str) -> Fraction:
    """Parse a ``num`` or ``num/den`` decimal string: ``-?[0-9]+(/[0-9]+)?``
    and nothing else, so no sign ``+``, blank, ``_``, point or exponent."""
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise InputFormatError(f"bad rational literal {_quoted(text)}: expected num or num/den")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputFormatError(f"bad rational literal {_quoted(text)}: zero denominator") from None
    except ValueError:  # the grammar holds, so only the int digit limit is left
        raise InputFormatError(
            f"bad rational literal {_quoted(text)}: too many digits to convert") from None


def format_rational(x: Fraction) -> str:
    return str(x)


# The widest fixed-point format: wide enough for any model's ``min_bits``,
# and narrow enough that every raw bound prints within CPython's default
# 4300-digit limit on int-to-str conversion, which the generated step needs.
MAX_TOTAL_BITS = 4096


class FixedPointFormat(Value):
    """Bit layout of a fixed-point number: value = raw / 2**frac_bits."""

    __slots__ = ("total_bits", "frac_bits", "scale", "min_raw", "max_raw")
    _fields = __slots__[:2]

    def __init__(self, total_bits: int, frac_bits: int):
        object.__setattr__(self, "total_bits", total_bits)
        object.__setattr__(self, "frac_bits", frac_bits)
        if not 1 <= self.total_bits <= MAX_TOTAL_BITS:
            raise InputFormatError(f"total_bits must satisfy 1 <= total_bits <= {MAX_TOTAL_BITS}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise InputFormatError("frac_bits must satisfy 0 <= frac_bits < total_bits")
        object.__setattr__(self, "scale", 1 << self.frac_bits)
        object.__setattr__(self, "min_raw", -(1 << (self.total_bits - 1)))
        object.__setattr__(self, "max_raw", (1 << (self.total_bits - 1)) - 1)

    @staticmethod
    def parse(text: str) -> "FixedPointFormat":
        """Parse the ``fx:<total>:<frac>`` format string."""
        parts = text.split(":")
        if len(parts) != 3 or parts[0] != "fx":
            raise InputFormatError(f"bad format string {text!r}, expected fx:<total>:<frac>")
        try:
            total, frac = int(parts[1]), int(parts[2])
        except ValueError:
            raise InputFormatError(f"bad format string {text!r}") from None
        return FixedPointFormat(total, frac)

    def __str__(self) -> str:
        return f"fx:{self.total_bits}:{self.frac_bits}"


#: Canonical 6-bit profile: sign + 2 integer bits + 3 fractional bits.  The
#: previous-bit decoder, which needs 2 fractional bits and room for 8/3, is
#: exact here.
FX6 = FixedPointFormat(6, 3)


# Raw-mantissa kernels: the one definition of fixed-point arithmetic.
# ``ArithMode.kernels`` binds them to a format, and ``fnn.eval_program``,
# ``ssm.evaluate_layerwise`` and the generated step all run on bare ints.

def raw_saturate(r: int, fmt: FixedPointFormat) -> int:
    if r > fmt.max_raw:
        return fmt.max_raw
    if r < fmt.min_raw:
        return fmt.min_raw
    return r


def raw_encode(x: Fraction, fmt: FixedPointFormat) -> int:
    # x * scale truncated toward zero, in integer arithmetic: no Fraction is built.
    n, d = x.numerator * fmt.scale, x.denominator
    return raw_saturate(n // d if n >= 0 else -(-n // d), fmt)


def raw_add(a: int, b: int, fmt: FixedPointFormat) -> int:
    return raw_saturate(a + b, fmt)


def raw_mul(a: int, b: int, fmt: FixedPointFormat) -> int:
    p = a * b
    q = p // fmt.scale if p >= 0 else -((-p) // fmt.scale)
    return raw_saturate(q, fmt)


def raw_relu(a: int) -> int:
    return a if a > 0 else 0


_ZERO = Fraction(0)


def _exact_encode(x: Fraction) -> Fraction:
    return x


def _exact_relu(a: Fraction) -> Fraction:
    return a if a > 0 else _ZERO


class FixedPointValue(Value):
    """An integer mantissa tagged with its format."""

    __slots__ = _fields = ("raw", "fmt")

    def __init__(self, raw: int, fmt: FixedPointFormat):
        self._assign(raw, fmt)
        if not self.fmt.min_raw <= self.raw <= self.fmt.max_raw:
            raise InputFormatError(f"raw mantissa {self.raw} out of range for {self.fmt}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.raw, self.fmt.scale)

    def __str__(self) -> str:
        return f"{self.value} [{self.fmt}]"


Scalar = Fraction | FixedPointValue


class ArithMode(Value):
    """Tagged arithmetic domain: exact rationals, or one fixed-point format.

    ``ArithMode()`` / the module constant ``EXACT`` is exact mode;
    ``ArithMode(fmt)`` evaluates everything in ``fmt``.  ``kernels`` holds
    the domain's scalar operations ``(encode, add, mul, relu)``: mapping a
    rational model constant into the domain (the identity in exact mode),
    then the arithmetic on domain values, which in fixed mode saturates
    (and truncates, for products) in ``fmt``.
    """

    __slots__ = ("fmt", "kernels")
    _fields = ("fmt",)

    def __init__(self, fmt: FixedPointFormat | None = None):
        object.__setattr__(self, "fmt", fmt)
        if fmt is None:
            kernels = (_exact_encode, operator.add, operator.mul, _exact_relu)
        else:
            kernels = (partial(raw_encode, fmt=fmt), partial(raw_add, fmt=fmt),
                       partial(raw_mul, fmt=fmt), raw_relu)
        object.__setattr__(self, "kernels", kernels)

    @property
    def is_exact(self) -> bool:
        return self.fmt is None

    @staticmethod
    def parse(text: str) -> "ArithMode":
        if text == "exact":
            return ArithMode()
        return ArithMode(FixedPointFormat.parse(text))

    def __str__(self) -> str:
        return "exact" if self.fmt is None else str(self.fmt)


EXACT = ArithMode()
