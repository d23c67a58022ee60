"""The one sparse row type of model data: every gate row, inc row and FNN
node weight vector.

A row is canonical: ``terms`` holds its ``(column, weight)`` pairs with
strictly ascending columns and no zero weight, and ``width`` is the length
of the dense row it stands for.  Two rows are equal, and hash equal, exactly
when their dense rows are, so model equality keeps its dense meaning while
no layer stores, reads or writes the zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

_ZERO = Fraction(0)


class Row(NamedTuple):
    terms: tuple[tuple[int, Fraction], ...]
    width: int

    @classmethod
    def from_dense(cls, values: Iterable) -> Row:
        """The row of a dense sequence of rationals."""
        values = tuple(map(Fraction, values))
        return cls(tuple((k, w) for k, w in enumerate(values) if w), len(values))

    @classmethod
    def of(cls, width: int, pairs: Iterable[tuple[int, Fraction]]) -> Row:
        """The row whose weight at each column is the sum of that column's
        weights in ``pairs``, given in any order."""
        acc: dict[int, Fraction] = {}
        for k, w in pairs:
            acc[k] = acc[k] + w if k in acc else w
        return cls(tuple(sorted((k, w) for k, w in acc.items() if w)), width)

    def dense(self) -> tuple[Fraction, ...]:
        out = [_ZERO] * self.width
        for k, w in self.terms:
            out[k] = w
        return tuple(out)
