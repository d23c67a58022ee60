"""State space models: layers with a linear recurrence, stacked, and the
symbol-by-symbol evaluator.

A layer computes ``h_t = gate(x_t) . h_{t-1} + inc(x_t)`` followed by the
pointwise map ``z_t = phi(h_t, x_t)``; layer outputs feed the next layer and
the final output network maps the last layer's ``z`` to a scalar.  A word is
accepted iff that scalar equals exactly 1 in the evaluation domain.  Most
coordinates of a compiled layer only pass their value on, so a layer
stores the network of the coordinates its ``phi`` computes and passes the
others through, and carries each coordinate whose recurrence only copies
its input (``SsmLayer``).

Model data is sparse: every gate row, inc row and FNN node weight vector is
one ``_row.Row``, the row's nonzero ``(column, weight)`` pairs in column
order.  The public constructors also take dense rows, and ``.matrix`` and
``FnnNode.weights`` give the dense view on demand; every reader here walks
the rows' terms, so no layer stores or scans a zero.

Two evaluation orders are implemented.  The solvers, ``evaluate`` and
``accepts`` compile each model, once per arithmetic mode, into one
generated straight-line Python function: the live part of the model is
generated, its constants folded into the code, unit weights and unit copies
become aliases and fixed-point truncation and saturation are inlined per
term (partial evaluation; Jones, Gomard and Sestoft, 1993).
``evaluate_layerwise`` is the independent oracle: one uncompiled
interpreter that materialises whole sequences layer by layer, over either
domain through the mode's scalar kernels.  Each of the two applies the
pass-through rule itself, on a layer's ``net`` and ``computes``; neither
reads the full network ``phi``, a derived view.  Both apply
per-dimension terms in the same canonical order (gate terms, inc offset,
inc terms, each by ascending column) so fixed-mode saturation behaves
identically.  The public ``step`` is one position of the oracle, each
layer's ``_layer_step`` in turn, so it builds nothing and its
``StreamState`` keeps every layer's full hidden vector.

In exact mode the generated step runs on plain ints: every value ``v`` is
the integer ``v * S`` for a scale ``S``.  The first ``S`` follows from
``D``, the lcm of the denominators of every model constant, dead ones
included: it is ``D``'s smallest multiple in which every prime of ``D``
appears at least ``SCALE_BITS`` times.  So a model with only integer
constants (the 0-1 ILPs, X-free LTL formulas) runs on ``S = 1``, where
sums, integer products and relu keep every value integral and no check is
emitted; a dyadic model (a Minsky machine, ``D = 8``) runs on
``2**SCALE_BITS`` and a model of thirds on ``3**SCALE_BITS``.  A product
by a weight divides by the part of ``S`` the weight does not cancel after
checking that the division is exact: a shift for a power of two, one
``divmod`` otherwise.  A call whose values leave the scale (a check finds
a remainder) squares ``S``, rebuilds the step and runs again, whole.
``evaluate`` converts at the boundary, so the scalars it returns are
``Fraction``s.  One interval analysis serves both domains of the generated
step, so exact mode, like fixed mode, emits a relu clamp only where its
argument can be negative.  A difference ``relu(s + p) - relu(s + q)`` over
one row s, the previous-bit decoder's last stage, takes the interval
[0, p - q] rather than its terms' sum.

The step assumes that a hidden coordinate whose diagonal gate row reads
the input (the until and ``F`` coordinates of an LTL model) stays
in [min(0, h0), max(1, h0)], clipped to the format, where any other
coordinate takes the whole domain.  On that range the interval analysis
drops the saturation tests and relu clamps that cannot fire.  Where a new
value's interval can leave its range, one guard line raises ``_Retract``;
the call then rebuilds the step without the assumption and runs again,
whole, as a call whose exact values leave the scale does
(guard-and-deoptimise; Hoelzle, Chambers and Ungar, PLDI 1992).  So every
output and key coordinate that a caller sees is the unassumed step's.

A *rising* coordinate never falls: its gate row is the encoded 1 on
itself, and its inc offset and every inc term are not negative over their
inputs' intervals (a Minsky violation sum, an ILP row sum or count).  Its
hidden input takes [enc(h0), top]; that range is proved by induction from
the initial key, not assumed, so it needs no guard.  For each rising key
coordinate the build derives a threshold T, the least value from which the
same interval analysis keeps the output below 1 at every later position,
by one backward pass from ``y`` through the sums the step computes
(bound-based pruning over intervals; Cousot and Cousot, POPL 1977).  A key
whose coordinate has reached T is *dead*: no accepted word passes through
it, so the solvers neither store nor expand it.

The generated step keeps only the hidden coordinates in the least set
that holds those the output reads and those that the new value of a member
reads.  No other coordinate can affect a later output (cone-of-influence
reduction; Clarke, Grumberg and Peled, *Model Checking*, 1999).  A
backward pass over the rows' terms finds, before any code is emitted, the
FNN nodes and new hidden values the output can need; only they are
generated, and the least set is then taken over the generated code, so
constants that folding removes count too.  The step takes and returns a
flat *key* of those coordinates, and the solvers, ``evaluate`` and
``accepts`` run on keys.
"""

from __future__ import annotations

import time
from collections import Counter
from copy import copy
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from ._row import Row
from ._value import Value
from .arithmetic import (
    ArithMode,
    FixedPointFormat,
    FixedPointValue,
    Scalar,
    raw_encode,
    raw_mul,
)
from .errors import DimensionError, EmptyWordError, UnknownSymbolError
from .fnn import RELU, Fnn, _with_copies, eval_program, select_fnn

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

#: How many times, at least, each prime of the model's denominators divides
#: the first scale S of the integer encoding of exact values in the
#: generated step, where the value v runs as the int v * S: S is
#: 2**SCALE_BITS for a dyadic model, 3**SCALE_BITS for a model of thirds
#: and 1 for a model with only integer constants.
SCALE_BITS = 64
_SCALE = 1 << SCALE_BITS
_ZERO, _ONE = Fraction(0), Fraction(1)


def as_vector(values: Sequence) -> Vector:
    return tuple(Fraction(v) for v in values)


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(as_vector(row) for row in rows)


def _rows(matrix, offset, message: str) -> tuple[Row, ...]:
    """The rows of a square matrix given as rows or dense sequences, which
    must match ``offset`` (None: no offset) in length.  A row of the wrong
    width is named in the error, with its width and the expected one."""
    rows = tuple(r if isinstance(r, Row) else Row.from_dense(r) for r in matrix)
    d = len(rows)
    for i, r in enumerate(rows):
        if r.width != d:
            raise DimensionError(f"{message}: row {i} has width {r.width}, expected {d}")
    if offset is not None and len(offset) != d:
        raise DimensionError(message)
    return rows


class _SparseMatrix(Value):
    """A square matrix held as ``rows``, one sparse row each; ``matrix``
    densifies them on first use."""

    @cached_property
    def matrix(self) -> Matrix:
        return tuple(row.dense() for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


class TimeInvariantGate(_SparseMatrix):
    """gate(x) = A for a constant square matrix A."""

    _fields = ("rows",)

    def __init__(self, matrix):
        object.__setattr__(self, "rows", _rows(matrix, None, "gate matrix must be square"))

    def is_diagonal(self) -> bool:
        return all(k == i for i, row in enumerate(self.rows) for k, _ in row.terms)


class DiagonalAffineGate(_SparseMatrix):
    """gate(x) = diag(G x + g0): diagonal, but input-dependent."""

    _fields = ("rows", "offset")

    def __init__(self, matrix, offset: Vector):
        rows = _rows(matrix, offset, "diagonal gate needs a square matrix and a matching offset")
        self._assign(rows, offset)


GateSpec = TimeInvariantGate | DiagonalAffineGate


class AffineMap(_SparseMatrix):
    """inc(x) = B x + c."""

    _fields = ("rows", "offset")

    def __init__(self, matrix, offset: Vector):
        rows = _rows(matrix, offset, "affine map needs a square matrix and a matching offset")
        self._assign(rows, offset)


def projection_phi(d: int) -> Fnn:
    """The default pointwise map: (h, x) -> h."""
    return select_fnn(range(d), 2 * d)


@lru_cache(maxsize=16)
def carried(d: int) -> tuple[tuple[Row, ...], tuple[Row, ...], Vector]:
    """What a d-wide layer holds at a carried coordinate j, as three
    d-tuples: its gate row, one empty row shared by every coordinate; its
    inc row, which copies coordinate j; and its offset 0.  Immutable, so
    every layer of that width shares them, and ``SsmLayer.updates`` finds a
    shared copy row by identity."""
    return (Row((), d),) * d, tuple(Row(((j, _ONE),), d) for j in range(d)), (_ZERO,) * d


def _coordinates(what: str, values, d: int) -> tuple[int, ...]:
    """``values`` as a tuple, after checking that it lists coordinates of
    0..d-1 in strictly ascending order."""
    values = tuple(values)
    if not (set(map(type, values)) <= {int} and values == tuple(sorted(set(values)))
            and (not values or 0 <= values[0] and values[-1] < d)):
        raise DimensionError(f"{what} must list coordinates of 0..{d - 1} in strictly "
                             f"ascending order, got {list(values)}")
    return values


class SsmLayer(Value):
    """``h0``, ``gate`` and ``inc``, with a row and offset for every
    coordinate, and the coordinates that the pointwise map computes.

    ``updates`` is derived from the rows: the coordinates, ascending, whose
    recurrence does more than copy the input.  Every other coordinate is
    carried: its gate row is empty, its offsets are 0 and its inc row copies
    it (``carried``).  Its new value is its input times the encoded 1, one
    product truncated and saturated like any other term, so the input itself
    wherever 1 is representable; the generated step and a model file store
    no row for it.

    ``computes`` lists, ascending, the coordinates whose outputs ``net``
    maps ``(h, x)`` to (None for every coordinate, with a full 2d -> d
    ``net``; ``net`` is None for none).  Every other coordinate j passes
    through: its output is ``h_j`` times the encoded 1, once per layer of
    ``net`` and at least once, each product truncated and saturated.

    ``phi`` is a derived view, the full network, which ``fnn._with_copies``
    builds on first read with an identity copy node per layer of ``net`` for
    each coordinate passed through.  No evaluator reads it: the oracle and
    the generated step each apply the pass-through rule, and
    ``quantization_report`` reads it as the independent count that the
    step's is checked against.  Layers compare by what they store, so a
    layer differs from its expanded twin ``SsmLayer(h0, gate, inc, phi)``,
    though both compute the same: equal models save equal bytes."""

    _fields = ("h0", "gate", "inc", "net", "computes")

    def __init__(self, h0: Vector, gate: GateSpec, inc: AffineMap, net: Fnn | None = None,
                 computes: tuple[int, ...] | None = None):
        d = len(h0)
        computes = tuple(range(d)) if computes is None else _coordinates("computes", computes, d)
        self._assign(h0, gate, inc, net, computes)
        if gate.dim != d or inc.dim != d:
            raise DimensionError("layer gate/inc dimensions disagree with h0")
        if (net is None) != (not computes):
            raise DimensionError("a layer has a network exactly when it computes a coordinate")
        if net is not None and (net.input_dim != 2 * d or net.output_dim != len(computes)):
            raise DimensionError(
                f"phi must map 2d -> {'d' if len(computes) == d else len(computes)}, "
                f"got {net.input_dim} -> {net.output_dim}")

    @property
    def dim(self) -> int:
        return len(self.h0)

    @cached_property
    def phi(self) -> Fnn:
        return _with_copies(self.net, self.computes, self.dim)

    @cached_property
    def updates(self) -> tuple[int, ...]:
        _, copies, zeros = carried(self.dim)
        gate, inc = self.gate, self.inc
        rows = zip(gate.rows, inc.rows, copies, inc.offset, getattr(gate, "offset", zeros))
        # the shared copy rows and zeros by identity first, then by value
        return tuple(j for j, (g, r, copy, a, b) in enumerate(rows)
                     if g.terms or r is not copy and r != copy
                     or a is not _ZERO and a or b is not _ZERO and b)


def _depth(layer: SsmLayer) -> int:
    """How many unit products a coordinate that ``layer`` passes through
    takes: one per layer of ``net``, and at least one."""
    return len(layer.net.layers) if layer.net is not None else 1


class SsmModel(Value):
    """(emb, l_1 .. l_L, out) with the embedding table aligned to the ordered
    alphabet; the alphabet order is the canonical symbol order everywhere."""

    _fields = ("alphabet", "emb", "layers", "out")
    _shown = ("metadata",)

    def __init__(self, alphabet: tuple[str, ...], emb: tuple[Vector, ...],
                 layers: tuple[SsmLayer, ...], out: Fnn,
                 metadata: tuple[tuple[str, str], ...] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "emb", emb)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "metadata", metadata)
        if not self.alphabet:
            raise DimensionError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DimensionError("alphabet symbols must be unique")
        if len(self.emb) != len(self.alphabet):
            raise DimensionError("one embedding vector per symbol required")
        d = self.dim
        if any(len(v) != d for v in self.emb):
            raise DimensionError("embedding vectors must share the model dimension")
        for layer in self.layers:
            if layer.dim != d:
                raise DimensionError("all layers must share the model dimension")
        if self.out.input_dim != d or self.out.output_dim != 1:
            raise DimensionError(
                f"out must map d -> 1, got {self.out.input_dim} -> {self.out.output_dim}"
            )

    @property
    def dim(self) -> int:
        return len(self.emb[0])

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return len(self.alphabet) + self.num_layers + self.dim

    @property
    def metadata_dict(self) -> dict[str, str]:
        return dict(self.metadata)

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def _steppers(self) -> dict:
        return {}


class StreamState(Value):
    """Per-layer hidden vectors, sufficient to continue symbol by symbol
    through the public ``step``.

    Entries are Fractions in exact mode and raw mantissas in fixed mode, as
    the layer-major oracle computes them; states compare and hash
    bit-exactly.
    """

    __slots__ = _fields = ("hidden", "mode")

    def __init__(self, hidden: tuple[tuple, ...], mode: ArithMode):
        self._assign(hidden, mode)

    def hidden_values(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.mode.is_exact:
            return self.hidden
        scale = self.mode.fmt.scale
        return tuple(tuple(Fraction(r, scale) for r in h) for h in self.hidden)


# ---------------------------------------------------------------------------
# Streaming evaluation: each (model, mode) is partially evaluated once into a
# generated straight-line Python function.

_INF = float("inf")


def _plus(a, b):
    """``a + b`` for interval bounds: an infinite bound absorbs the other,
    so no int, however large, is converted to a float."""
    return a if abs(a) == _INF else b if abs(b) == _INF else a + b


def _scaled_bound(w: int, b, scale: int):
    """The bound ``w * b / scale`` rounded toward zero; an infinite ``b``
    gives an infinite bound without meeting an int."""
    if abs(b) == _INF:
        return b if w > 0 else -b
    p = w * b
    return p // scale if p >= 0 else -((-p) // scale)


def _outward(w: int, lo, hi, scale: int) -> tuple:
    """The interval of ``w * v / scale`` for ``v`` in [lo, hi], its ends
    rounded outward: an exact value between two ints raises where its
    block runs, and folding must not take it for either of them."""
    ends = sorted(w * b if abs(b) != _INF else b if w > 0 else -b for b in (lo, hi))
    return (ends[0] if abs(ends[0]) == _INF else ends[0] // scale,
            ends[1] if abs(ends[1]) == _INF else -(-ends[1] // scale))


class _Inexact(Exception):
    """An exact value that the integer encoding cannot hold: its denominator
    does not divide the scale."""


class _Retract(Exception):
    """A gated coordinate's new value outside the range that the step
    assumed for it."""


def _literal(k: int) -> str:
    """``k`` as a Python literal, in hex past 2048 bits (617 digits): CPython
    refuses decimal text for ints past a settable limit of 640 or more
    digits, and hex text for none."""
    return repr(k) if k.bit_length() <= 2048 else hex(k)


def _times(k: int, code: str) -> str:
    return code if k == 1 else f"-{code}" if k == -1 else f"{_literal(k)} * {code}"


def _joined(expr: str, t) -> str:
    """``expr + t`` as code, a negative constant or integer product
    subtracted."""
    if t.coef is not None and t.coef < 0:
        return f"{expr} - {_times(-t.coef, t.base)}"
    if t.const is not None and t.const < 0:
        return f"{expr} - {_literal(-t.const)}"
    return f"{expr} + {t.code}"


class _Val:
    """A value of the step being generated: a folded constant (``const`` is
    set), a local name, or, only on its way into a sum, an expression: an
    integer product ``k * name`` (``-name`` for k = -1) as it is, any other
    product parenthesised.  ``lo``/``hi`` bound its encoding; an exact
    bound that nothing fixes is infinite.  ``coef`` and ``base`` say that a
    name or an integer product is ``coef * base`` for the name ``base``;
    ``coef`` is None for a constant or another product."""

    __slots__ = ("code", "const", "lo", "hi", "reads", "coef", "base")

    def __init__(self, code: str, const, lo, hi, reads=(), coef=1, base=None):
        self.code = code
        self.const = const
        self.lo = lo
        self.hi = hi
        self.reads = reads
        self.coef = coef
        self.base = code if base is None else base


class _StepCompiler:
    """Emits the source of ``step(key, x) -> (new key, y)`` for one model
    and mode, in SSA form: every computed value gets a fresh local.
    The domain is fixed-point raw mantissas or, in exact mode, ints over
    the scale ``scale``.

    Terms are emitted in the canonical order (gate terms, inc offset, inc
    terms, each by ascending column; bias then terms in FNN nodes), with
    fixed-mode truncation and saturation inlined per term, so the function is
    bit-exact with ``evaluate_layerwise``.  Constants fold at generation
    time (an exact sum, which no order changes, folds all of its constant
    terms into one), zero terms vanish and a term whose encoded weight is
    the unit becomes an alias, as does a whole unit copy.  A sum subtracts
    a negative constant or integer product (``1 - v10 - 2 * x3``), which
    ``mul`` marks with its coefficient and name, so no code is parsed; and
    a relu over a constant plus one name or its negation is one line
    wherever the sum cannot pass the format's top (``v = u - 2 if u > 2
    else 0``), since a sum saturated at the bottom has the relu 0.  A carried
    coordinate's new value is its input, times the encoded 1 where 1 is not
    the scale (``unit``): its copy row is not read.  One interval
    analysis covers every domain: each value carries the interval its
    encoding can take, infinite in exact mode where nothing bounds it
    (hidden inputs, products of an input-dependent gate), and a difference
    of two relus over one row the span of their biases (``_span``).  A
    saturation test is emitted only on a side that can overflow, and a relu
    clamp only where its argument can be negative.

    With ``assume``, a hidden input whose gate row reads the input takes
    its ``assumed`` range, [min(0, h0), max(1, h0)] clipped to the format,
    in place of the whole domain: an until or ``F`` coordinate is 0 or 1,
    though no interval can show it (``g * h + r`` stays in [0, 1] only
    because ``g * r = 0``), while an ungated counter and an X history under
    its constant gate of 1/4 can pass 1, so they are left alone.  Each new
    value of such a coordinate whose interval can leave the range gets one
    ``guard`` line, which raises ``Retract`` from a call, and every guard is
    live, so its coordinate stays in the key and is checked at each step.
    The initial key lies in every range, so by induction over a call's
    steps each range holds wherever the step reads it: a guarded one
    because its guard checked it, any other because its new value's
    interval lies inside it.  Where every range holds, the
    step computes what the unassumed step does.

    A ``rising`` hidden input takes [enc(h0), top] whatever ``assume``
    says: that range is proved, not assumed, since each new value is a
    saturating sum of the input and terms that are not negative.  Each sum
    of the step is kept, with where it saturates, and
    ``dead_rule`` lists, for each rising key coordinate, its index in the
    key and the least T that ``_threshold`` finds: from a key whose
    coordinate is at least T, every later ``y`` is below the encoded 1.

    Only what ``y`` can need is generated: a backward pass (``_plan``)
    names the FNN nodes, new hidden values and the hidden inputs these read
    that ``out`` reaches through the rows' terms.  The hidden coordinates in
    the least set that holds ``y``'s reads and each member's new value's
    are the ``key``, in (layer, index) order, a flat tuple of values.  The
    step maps a key to the new key and ``y``, and keeps only the blocks
    those need, so what constant folding removes goes too.

    Each constant and row is encoded once per build, memoised by the
    identity of the object (models share them), and each folded value is
    made once.  Domains differ in what a constant or a product cannot hold.
    In fixed mode ``quantized`` counts, over every model constant, dead ones
    included, those not exactly representable: ``len(quantization_report)``.
    In exact mode an encoded constant whose denominator does not divide the
    scale raises ``_Inexact``, which a scale of ``_first_scale`` never does.
    A product truncates in fixed mode; in exact mode it folds only when the
    division by the scale is exact, and otherwise is a checked division
    that raises ``_Inexact`` from a call, if its block is live.
    """

    def __init__(self, mode: ArithMode, scale: int = _SCALE, assume: bool = True):
        self.fmt = fmt = mode.fmt
        self.assume = assume
        if fmt is None:
            self.scale, self.bottom, self.top = scale, -_INF, _INF
        else:
            self.scale, self.bottom, self.top = fmt.scale, fmt.min_raw, fmt.max_raw
        self._blocks: list[tuple[str, list[str], tuple]] = []
        self._guards: list[str] = []  # the blocks that check an assumed range
        self._rising: dict[str, int] = {}  # each rising hidden input -> its encoded h0
        self._sums: dict[str, tuple] = {}  # each sum: (start, terms, where it saturates)
        # id(object) -> (object, its encoding, how many of its constants the
        # mode quantises); holding the object keeps its id from reuse
        self._memo: dict[int, tuple] = {}
        self._consts: dict[int, _Val] = {}  # each folded constant's value, shared
        self.one = self.enc(_ONE)  # the encoded 1, the scale wherever 1 is representable

    # -- encoding -----------------------------------------------------------

    def enc(self, w: Fraction) -> int:
        return (self._memo.get(id(w)) or self._const(w))[1]

    def _const(self, w: Fraction) -> tuple:
        """``(w, encoding, 1 if the encoding is inexact else 0)``."""
        hit = self._memo.get(id(w))
        if hit is None:
            hit = self._memo[id(w)] = (w, *self._encode(w))
        return hit

    def _encode(self, w: Fraction) -> tuple[int, int]:
        # w * scale is an integer iff the denominator divides the scale
        if self.scale % w.denominator == 0:
            raw = w.numerator * (self.scale // w.denominator)
            if self.bottom <= raw <= self.top:
                return raw, 0
        if self.fmt is None:
            raise _Inexact
        return raw_encode(w, self.fmt), 1

    def _row(self, row: Row) -> tuple:
        """``(row, its terms with encoded weights, quantised count)``."""
        hit = self._memo.get(id(row))
        if hit is None:
            terms, count = [], 0
            for k, w in row.terms:
                _, code, inexact = self._memo.get(id(w)) or self._const(w)
                terms.append((k, code))
                count += inexact
            hit = self._memo[id(row)] = (row, tuple(terms), count)
        return hit

    def quantized(self, model: SsmModel) -> int:
        """How many model constants the fixed-point mode does not represent
        exactly, dead ones included: each distinct constant and row object
        is encoded once, and only the inexact ones are counted where the
        model holds them.  A carried coordinate counts as the weight 1 of
        its copy row, and each unit product of a coordinate passed through
        as that of a copy node of ``phi``."""
        consts, rows = _holders(model)
        units = sum(layer.dim - len(layer.updates)
                    + (layer.dim - len(layer.computes)) * _depth(layer) for layer in model.layers)
        return (_count(consts, lambda w: self._const(w)[2])
                + _count(rows, lambda r: self._row(r)[2]) + units * self._const(_ONE)[2])

    # -- values -------------------------------------------------------------

    def const(self, value: int) -> _Val:
        v = self._consts.get(value)
        if v is None:
            v = self._consts[value] = _Val(_literal(value), value, value, value, (), None)
        return v

    def _fresh(self) -> str:
        return f"v{len(self._blocks)}"

    def _bind(self, name: str, lines: list[str], reads: tuple, lo, hi) -> _Val:
        """Record the block of lines that computes the local ``name``."""
        self._blocks.append((name, lines, reads))
        return _Val(name, None, lo, hi, (name,))

    def _saturates(self, lo, hi, floor) -> tuple:
        """Where a value in [lo, hi] saturates (``floor`` below: the range
        minimum, or zero where a relu follows): the floor it raises a value
        to, None where it raises none, and whether it lowers one to the
        top."""
        return floor if lo < floor else None, hi > self.top

    def _clamp(self, name: str, lo, hi, floor):
        """Saturation lines for ``name`` in [lo, hi], where ``_saturates``
        says it saturates; returns the lines, the clamped interval and what
        ``_saturates`` said."""
        top = self.top
        low, high = saturates = self._saturates(lo, hi, floor)
        lines = []
        if high:
            lines.append(f"if {name} > {top}: {name} = {top}")
        if low is not None:
            code = _literal(floor)
            lines.append(f"{'elif' if lines else 'if'} {name} < {code}: {name} = {code}")
        lo = floor if low is not None else min(lo, top)
        return lines, lo, top if high else max(hi, floor), saturates

    def _fits(self, code: str, lo, hi, reads, coef=None, base=None) -> _Val:
        """A product term: an expression when it cannot leave the range,
        parenthesised unless it is ``coef * base``, else a local saturated
        on the sides that can overflow."""
        if self.bottom <= lo and hi <= self.top:
            if coef is None:
                return _Val(f"({code})", None, lo, hi, reads, None)
            return _Val(code, None, lo, hi, reads, coef, base)
        name = self._fresh()
        clamp, clamped_lo, clamped_hi, saturates = self._clamp(name, lo, hi, self.bottom)
        if coef is not None:
            self._sums[name] = 0, [_Val(code, None, lo, hi, reads, coef, base)], {1: saturates}
        return self._bind(name, [f"{name} = {code}"] + clamp, reads, clamped_lo, clamped_hi)

    def _divided(self, code: str, q: int, reads, lo, hi) -> _Val:
        """A local holding the int ``code`` divided by ``q``, after a check
        that the division is exact: of the bits shifted out for a power of
        two, of the remainder otherwise.  At ``q = 1`` it is ``code``
        itself."""
        if q == 1:
            return self._fits(code, lo, hi, reads)
        name = self._fresh()
        if q & (q - 1):
            lines = [f"{name}, rest = divmod({code}, {_literal(q)})", "if rest: raise Inexact"]
        else:
            lines = [f"{name} = {code}", f"if {name} & {_literal(q - 1)}: raise Inexact",
                     f"{name} >>= {q.bit_length() - 1}"]
        return self._bind(name, lines, reads, lo, hi)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, w, v: _Val) -> _Val:
        """The term ``w * v`` for an encoded constant weight ``w``."""
        scale = self.scale
        if w == scale:
            return v
        if v.const is not None:
            if self.fmt is not None:
                return self.const(raw_mul(w, v.const, self.fmt))
            p, rest = divmod(w * v.const, scale)
            if not rest:
                return self.const(p)
        if w % scale == 0:  # an integer weight multiplies without rounding
            k = w // scale
            if k == 0:
                return self.const(0)
            try:
                lo, hi = (k * v.lo, k * v.hi) if k > 0 else (k * v.hi, k * v.lo)
            except OverflowError:  # an int past a float's range meets an infinite bound
                lo, hi = _outward(k, v.lo, v.hi, 1)
            return self._fits(_times(k, v.code), lo, hi, v.reads, k, v.code)
        if self.fmt is None:  # the weight is a / q in lowest terms
            g = gcd(w, scale)
            lo, hi = _outward(w, v.lo, v.hi, scale)
            return self._divided(_times(w // g, v.code), scale // g, v.reads, lo, hi)
        lo, hi = sorted((_scaled_bound(w, v.lo, scale), _scaled_bound(w, v.hi, scale)))
        # truncation toward zero of w*v / 2**f, split on the sign of v
        a, f = abs(w), self.fmt.frac_bits
        pos, neg = f"{a} * {v.code} >> {f}", f"{a} * -{v.code} >> {f}"
        pos, neg = (pos, f"-({neg})") if w > 0 else (f"-({pos})", neg)
        if v.lo >= 0:
            code = pos
        elif v.hi <= 0:
            code = neg
        else:
            code = f"{pos} if {v.code} >= 0 else {neg}"
        return self._fits(code, lo, hi, v.reads)

    def mul_var(self, g: _Val, v: _Val) -> _Val:
        """The term ``g * v`` of a diagonal input-dependent gate; unbounded
        in exact mode where a factor is, since 0 * inf bounds nothing."""
        if g.const is not None:
            return self.mul(g.const, v)
        reads = g.reads + v.reads
        bounds = (g.lo, g.hi, v.lo, v.hi)
        ends = (g.lo * v.lo, g.lo * v.hi, g.hi * v.lo, g.hi * v.hi)
        if self.fmt is None:
            lo, hi = ((min(ends) // self.scale, -(-max(ends) // self.scale))
                      if _INF not in map(abs, bounds) else (-_INF, _INF))
            return self._divided(f"{g.code} * {v.code}", self.scale, reads, lo, hi)
        scale, f = self.fmt.scale, self.fmt.frac_bits
        lo, hi = _scaled_bound(1, min(ends), scale), _scaled_bound(1, max(ends), scale)
        if f == 0 or min(ends) >= 0:
            return self._fits(f"{g.code} * {v.code} >> {f}", lo, hi, reads)
        name = self._fresh()
        clamp, lo, hi, _ = self._clamp(name, lo, hi, self.bottom)
        lines = [f"{name} = {g.code} * {v.code}",
                 f"{name} = {name} >> {f} if {name} >= 0 else -(-{name} >> {f})"]
        return self._bind(name, lines + clamp, reads, lo, hi)

    def total(self, start, terms: list[_Val], relu: bool = False, span=None) -> _Val:
        """``start + t_1 + t_2 + ...`` (then relu), saturating after every
        addition that can leave the range; the result is a constant or a
        local.  An exact sum, which no order changes, folds every constant
        term into ``start``.  A ``span`` known to hold the sum narrows its
        interval.  A negative constant or integer product is subtracted
        (``1 - v10 - 2 * x3``).  A relu over a constant c plus one name u or
        its negation is one line where the sum cannot pass the top (``v =
        u - 2 if u > 2 else 0``, ``v = 2 - u if u < 2 else 0``): below the
        bottom, the saturated sum's relu is 0 too."""
        if self.fmt is None:  # a loop, cheaper than comprehensions here
            kept = []
            for t in terms:
                if t.const is None:
                    kept.append(t)
                else:
                    start += t.const
            terms = kept
        bottom, top = self.bottom, self.top
        value, expr, name = start, None, None  # expr None: the sum is `value`
        lines: list[str] = []
        reads: tuple = ()
        pending = 0
        joined, clamps = [], {}  # the terms after `value`; where the sum saturates
        for t in terms:
            if expr is None:
                if t.const is not None:
                    value = min(max(value + t.const, bottom), top)
                    continue
                expr = t.code if value == 0 else _joined(_literal(value), t)
                lo = hi = value
            elif t.const == 0:
                continue
            else:
                # saturate the sum so far where it may have overflowed (and
                # every 64 terms, to keep expressions shallow for compile())
                if lo < bottom or hi > top or pending >= 64:
                    name = name or self._fresh()
                    clamp, lo, hi, clamps[len(joined)] = self._clamp(name, lo, hi, bottom)
                    lines += [f"{name} = {expr}"] + clamp
                    expr, pending = name, 0
                expr = _joined(expr, t)
            try:
                lo, hi = lo + t.lo, hi + t.hi
            except OverflowError:  # an int past a float's range meets an infinite bound
                lo, hi = _plus(lo, t.lo), _plus(hi, t.hi)
            reads += t.reads
            pending += 1
            joined.append(t)
        # relu after saturation is a clamp to [0, top]: the range holds 0
        floor = 0 if relu else bottom
        if expr is None:
            return self.const(max(value, floor))
        if span is not None:
            lo, hi = max(lo, span[0]), min(hi, span[1])
        if hi <= floor:
            return self.const(floor)
        one, first = len(joined) == 1 and hi <= top, joined[0]  # one term: no line yet
        if one and value == 0 and first.coef == 1 and lo >= floor:  # a name
            return _Val(expr, None, lo, hi, (expr,))
        name = name or self._fresh()
        if one and relu and first.coef in (1, -1):  # one line, not two
            u, c = first.base, value
            if first.coef == -1:
                code = f"{expr} if {u} < {_literal(c)}"
            elif c < 0:
                code = f"{u} - {_literal(-c)} if {u} > {_literal(-c)}"
            else:
                code = f"{expr} if {u} > {_literal(-c)}"
            clamps[len(joined)] = self._saturates(lo, hi, 0)
            self._sums[name] = value, joined, clamps
            return self._bind(name, [f"{name} = {code} else 0"], reads, 0, hi)
        clamp, lo, hi, clamps[len(joined)] = self._clamp(name, lo, hi, floor)
        self._sums[name] = value, joined, clamps
        return self._bind(name, lines + [f"{name} = {expr}"] + clamp, reads, lo, hi)

    # -- the model ----------------------------------------------------------

    def fnn(self, net: Fnn, plan: list, inputs: list) -> list:
        """The values of the nodes that ``plan`` lists for each layer of
        ``net``, None for the others."""
        current, below = inputs, None
        for layer, needed in zip(net.layers, plan):
            nodes = layer.nodes
            out = [None] * len(nodes)
            for i in needed:
                out[i] = self.node(nodes[i], current, below)
            current, below = out, nodes
        return current

    def node(self, node, inputs: list, below) -> _Val:
        """The value of ``node`` on the values ``inputs``, the outputs of
        the nodes ``below`` (None for the network's inputs).  A unit copy
        (bias 0, one unit weight, and no relu or a relu over a value that is
        never negative) is its input itself."""
        bias, terms = self.enc(node.bias), self._row(node.row)[1]
        relu = node.activation == RELU
        if bias == 0 and len(terms) == 1 and terms[0][1] == self.scale:
            v = inputs[terms[0][0]]
            if not relu or v.lo >= 0:
                return v
        span = self._span(terms, below) if bias == 0 and len(terms) == 2 and below else None
        return self.total(bias, [self.mul(w, inputs[k]) for k, w in terms], relu, span)

    def _span(self, terms, below):
        """[0, p - q] for a node ``a - b`` (bias 0, unit weights) whose
        inputs are relu nodes over one row s, ``a = relu(s + p)`` and ``b =
        relu(s + q)`` with p >= q encoded, as the previous-bit decoder's
        clamp is; None for any other node.  The two sums add the same terms
        to their biases in the same order, and a saturation or a relu is
        monotone and moves no two values apart, so a - b stays in [0, p - q]
        under per-term saturation too, and the unit weights subtract
        exactly."""
        (k, u), (i, w) = sorted(terms, key=lambda term: term[1])
        a, b = below[i], below[k]
        span = self.enc(a.bias) - self.enc(b.bias)
        if (w == self.scale == -u and a.activation == b.activation == RELU and a.row == b.row
                and span >= 0):
            return 0, span
        return None

    def phi(self, layer: SsmLayer, plan: list, passes: list, new: list, x: list) -> list:
        """The outputs of ``layer`` from its new hidden values ``new`` and its
        input ``x``: those of ``net`` that ``plan`` lists, then the
        coordinates of ``passes`` passed through, None for the others.  The
        pass-through rule is applied here, not read from ``phi``: where 1 is
        the scale a coordinate passed through is its new value itself, else
        its ``_depth`` unit products follow the planned nodes in coordinate
        order."""
        z = new[:]
        if layer.net is not None:
            for j, v in zip(layer.computes, self.fnn(layer.net, plan, new + x)):
                z[j] = v
        if self.one != self.scale:
            for j in passes:
                for _ in range(_depth(layer)):
                    z[j] = self.unit(z[j])
        return z

    def unit(self, v: _Val) -> _Val:
        """The term ``1 * v``, one product truncated and saturated like any
        other: ``v`` itself where 1 is the scale.  It is the new value of a
        carried coordinate whose input is ``v``, and each pass of ``v``
        through a layer's ``phi``."""
        return v if self.one == self.scale else self.total(0, [self.mul(self.one, v)])

    def recurrence(self, layer: SsmLayer, j: int, h: dict, x: list[_Val]) -> _Val:
        """The new ``h[j]``.  A unit copy (no gate term, a gate offset and an
        inc offset of 0, and one unit inc weight) is its input itself."""
        gate, inc = layer.gate, layer.inc
        gate_terms, inc_terms = self._row(gate.rows[j])[1], self._row(inc.rows[j])[1]
        offset = self.enc(inc.offset[j])
        if isinstance(gate, TimeInvariantGate):
            terms = [self.mul(w, h[k]) for k, w in gate_terms]
        else:
            g = self.total(self.enc(gate.offset[j]), [self.mul(w, x[k]) for k, w in gate_terms])
            terms = [] if g.const == 0 else [self.mul_var(g, h[j])]
        if not terms and offset == 0 and len(inc_terms) == 1 and inc_terms[0][1] == self.scale:
            return x[inc_terms[0][0]]
        terms.append(self.const(offset))
        terms += [self.mul(w, x[k]) for k, w in inc_terms]
        return self.total(0, terms)

    def assumed(self, layer: SsmLayer, olds: list[int]) -> dict:
        """The range that the step assumes for each hidden input of
        ``olds`` whose gate row reads the input (a diagonal row with a
        term): [min(0, h0), max(1, h0)], clipped to the format.  Every other
        hidden input takes the whole domain, one under a gate that is only
        an offset too: that gate is constant, as the quarter of an X
        history is, which passes 1."""
        gate = layer.gate
        if not (self.assume and isinstance(gate, DiagonalAffineGate)):
            return {}
        ranges = {}
        for j in olds:
            if gate.rows[j].terms:
                h0 = self.enc(layer.h0[j])
                ranges[j] = min(0, h0), min(max(self.scale, h0), self.top)
        return ranges

    def rising(self, layer: SsmLayer, olds: list[int], x: list[_Val]) -> dict:
        """The range [enc(h0), top] of each hidden input of ``olds`` that
        never falls: its gate row is the encoded 1 on itself (``{j: 1}`` of
        a time-invariant gate, or a diagonal row with no term and offset 1),
        its inc offset is not negative and neither is any inc term over the
        intervals of the inputs ``x``.  A saturating sum of ``h`` and terms
        that are not negative is not below ``h``, so by induction from the
        initial key such a coordinate stays in its range: the range is
        proved, not assumed, and needs no guard."""
        gate, inc, one = layer.gate, layer.inc, self.scale
        diagonal = isinstance(gate, DiagonalAffineGate)
        ranges = {}
        for j in olds:
            if j not in layer.updates:
                continue
            terms = gate.rows[j].terms
            if diagonal:
                unit = not terms and self.enc(gate.offset[j]) == one
            else:
                unit = len(terms) == 1 and terms[0][0] == j and self.enc(terms[0][1]) == one
            if unit and self.enc(inc.offset[j]) >= 0 and all(
                    x[k].lo >= 0 if w > 0 else x[k].hi <= 0 or w == 0
                    for k, w in self._row(inc.rows[j])[1]):
                ranges[j] = self.enc(layer.h0[j]), self.top
        return ranges

    def guard(self, v: _Val, lo, hi) -> _Val:
        """``v``, the new value of a coordinate assumed in [lo, hi], after
        one line that raises ``Retract`` where it leaves the range; no line
        where its interval stays inside."""
        if lo <= v.lo and v.hi <= hi:
            return v
        low, high = self.const(lo).code, self.const(hi).code
        if v.lo >= lo:
            test = f"{v.code} > {high}"
        elif v.hi <= hi:
            test = f"{v.code} < {low}"
        else:
            test = f"not {low} <= {v.code} <= {high}"
        name = self._fresh()
        self._guards.append(name)
        self._bind(name, [f"if {test}: raise Retract"], v.reads, lo, hi)
        return _Val(v.code, None, max(v.lo, lo), min(v.hi, hi), v.reads + (name,))

    def source(self, model: SsmModel, inputs: list[tuple]) -> str:
        """The source of the step; ``inputs`` are the encoded embeddings,
        the only vectors it is ever called with.  Generates only the nodes
        and new hidden values that ``_plan`` finds ``y`` can need, so only
        their constants are encoded, and sets ``key`` and ``dead_rule``.  A
        hidden input takes its ``assumed`` or ``rising`` range, and the new
        value of an assumed coordinate its ``guard``."""
        x, columns = [], [f"x{k}" for k in range(model.dim)]
        for name, column in zip(columns, zip(*inputs)):
            lo, hi = min(column), max(column)
            x.append(self.const(lo) if lo == hi else _Val(name, None, lo, hi, (name,)))
        layers, out_plan = _plan(model)
        hidden = {}  # the name of each generated hidden input -> ((layer, index), new value)
        for li, (layer, (news, olds, phi_plan, passes)) in enumerate(zip(model.layers, layers)):
            ranges = self.assumed(layer, olds)  # each such coordinate reads its input
            rising = self.rising(layer, olds, x)
            h = {}
            for j in olds:
                name = f"h{li}_{j}"
                lo, hi = rising.get(j) or ranges.get(j) or (self.bottom, self.top)
                h[j] = _Val(name, None, lo, hi, (name,))
                if j in rising:
                    self._rising[name] = lo
            new, updates = [None] * layer.dim, layer.updates
            for j in news:  # a carried coordinate's new value is its input
                new[j] = self.recurrence(layer, j, h, x) if j in updates else self.unit(x[j])
                if j in ranges:
                    new[j] = self.guard(new[j], *ranges[j])
                if j in h:
                    hidden[h[j].code] = (li, j), new[j]
            x = self.phi(layer, phi_plan, passes, new, x)
        (y,) = self.fnn(model.out, out_plan, x)
        live = self._live(y, hidden)
        names = [name for name in hidden if name in live]
        self.key = tuple(hidden[name][0] for name in names)
        self.dead_rule = self._dead_rule(y, names)
        lines = [", ".join(names) + ", = key"] if names else []
        if columns:
            lines.append(", ".join([name if name in live else "_" for name in columns]) + ", = x")
        lines += [line for name, block, _ in self._blocks if name in live for line in block]
        lines.append(f"return ({''.join(hidden[n][1].code + ', ' for n in names)}), {y.code}")
        return "def step(key, x):\n    " + "\n    ".join(lines) + "\n"

    def _dead_rule(self, y: _Val, names: list[str]) -> tuple:
        """``(i, T)`` for each rising coordinate at index i of the key, the
        key ``names``, that ``_threshold`` finds a least T for: from a key
        whose coordinate i is at least T, every later ``y`` is below the
        encoded 1.  Every rising coordinate has its h0 as T where ``y``
        never reaches 1.  No rule where a guard checks an assumed range,
        since a dead key's successors would not run their guards."""
        if not self._rising or self._guards:
            return ()
        if y.hi < self.scale:
            found = dict(self._rising)
        else:
            found, kept = {}, self._sums.get(y.code)
            if kept:
                self._moves = self._directions()  # read by ``_threshold``
                self._threshold(kept, False, self.scale - 1, found, [4 * len(self._blocks)])
        return tuple((i, found[name]) for i, name in enumerate(names) if name in found)

    def _directions(self) -> dict:
        """Whether each rising input and kept sum can fall and whether it can
        rise as a rising input grows, in one pass: a sum reads earlier names."""
        moves = dict.fromkeys(self._rising, (False, True))
        for name, (_, terms, _) in self._sums.items():
            falls = rises = False
            for t in terms:
                if t.coef is not None:  # a negative term swaps falling and rising
                    down, up = moves.get(t.base, (False, False))[::1 if t.coef > 0 else -1]
                    falls, rises = falls or down, rises or up
            moves[name] = falls, rises
        return moves

    def _threshold(self, kept: tuple, up: bool, bound, found: dict, budget: list) -> None:
        """One backward pass from a kept sum, which must be
        at least (``up``) or at most ``bound``: for each rising hidden input
        that it reaches, the least value T from which the interval analysis
        meets the bound, kept in ``found`` where it is the least so far.

        Each term of the sum must meet (be at least where ``up``, else at
        most) the bound less the terms after it at their least (``up``) or
        largest values and the sum before it at its interval.  The pass
        stops where a clamp after a term defeats the bound or an interval is
        infinite: raising a value to the floor cannot break an upper bound
        at or above the floor, nor can lowering one to the top break a lower
        bound at or below the top; each other clamp can.  It follows each
        integer term into a kept sum that can rise (``up``) or fall as a
        rising input grows; it stops at a product by a fraction, a gated
        product or past ``budget[0]`` visits."""
        budget[0] -= 1
        if budget[0] < 0:
            return
        total, terms, clamps = kept
        top = self.top
        befores = []  # the sum before each term
        for j, t in enumerate(terms, 1):
            befores.append(total)
            total = _plus(total, t.lo if up else t.hi)
            if j in clamps:  # saturated between terms, so at the format's bottom
                total = min(max(total, self.bottom), top)
        for j in range(len(terms), 0, -1):
            if j in clamps:
                floor, high = clamps[j]
                if high and up and bound > top or floor is not None and not up and bound < floor:
                    return
            t, before = terms[j - 1], befores[j - 1]
            if t.coef is not None and abs(before) != _INF:
                k = t.coef  # k * base at least (rising) or at most need
                rising = up == (k > 0)
                need = -((before - bound) // k) if rising else (bound - before) // k
                lowest = self._rising.get(t.base)
                if lowest is None:
                    if self._moves.get(t.base, (False, False))[rising]:
                        self._threshold(self._sums[t.base], rising, need, found, budget)
                elif rising and need <= top:  # the least T so far
                    found[t.base] = min(found.get(t.base, _INF), max(need, lowest))
            end = t.lo if up else t.hi
            if abs(end) == _INF:
                return
            bound -= end

    def build(self, model: SsmModel, inputs: list[tuple]):
        """Compile the step; ``inputs`` are the encoded embeddings, the only
        vectors it is ever called with.  Times its ``source_s`` and ``compile_s``."""
        started = time.perf_counter()
        source = self.source(model, inputs)
        self.source_s = time.perf_counter() - started
        code = compile(source, f"<ssm step {self.fmt or 'exact'}>", "exec")
        exec(code, namespace := {"Inexact": _Inexact, "Retract": _Retract})
        self.compile_s = time.perf_counter() - started - self.source_s
        return namespace["step"]

    def _live(self, y: _Val, hidden: dict) -> set:
        """The names that ``y`` or a guard needs, where a hidden input needs
        its new value too: the least such set, with what folding removed
        left out.  Every guard is live, since folding may have used its
        range where no live line reads the coordinate."""
        reads = {name: block_reads for name, _, block_reads in self._blocks}
        reads.update((name, value.reads) for name, (_, value) in hidden.items())
        live, todo = set(), [*y.reads, *self._guards]
        while todo:
            name = todo.pop()
            if name not in live:
                live.add(name)
                todo += reads.get(name, ())
        return live


def _needed_nodes(net: Fnn, wanted: set) -> tuple[list, set]:
    """The nodes of each layer of ``net`` that its outputs ``wanted`` read
    through the rows' terms, each layer's in ascending order, and the
    inputs they read."""
    plan = []
    for layer in reversed(net.layers):
        needed = sorted(wanted)
        plan.append(needed)
        nodes = layer.nodes
        wanted = {k for i in needed for k, _ in nodes[i].row.terms}
    plan.reverse()
    return plan, wanted


def _plan(model: SsmModel) -> tuple[list, list]:
    """The backward pass from ``out``: for each layer, the new hidden values
    that ``y`` can need and the hidden inputs they read, in ascending order,
    the ``net`` plan of ``_needed_nodes`` and the needed coordinates that
    the layer passes through; and the plan of ``out``.  Within a layer, a
    needed value whose time-invariant gate row reads ``h[k]`` makes
    ``new[k]`` needed, up to the least fixed point, and a gated value reads
    its own input; the embedding columns or the previous layer's outputs
    that it reads are needed below.  A carried value reads its input alone."""
    out_plan, wanted = _needed_nodes(model.out, {0})
    layers = []
    for layer in reversed(model.layers):
        d, gate, inc = layer.dim, layer.gate, layer.inc
        output = {j: i for i, j in enumerate(layer.computes)}
        passes = sorted(j for j in wanted if j not in output)
        phi_plan, reads = ([], set()) if layer.net is None else _needed_nodes(
            layer.net, {output[j] for j in wanted if j in output})
        reads.update(passes)  # a coordinate passed through reads its new value
        new = {k for k in reads if k < d}
        wanted = {k - d for k in reads if k >= d}
        todo, olds = list(new), set()
        while todo:
            j = todo.pop()
            if j not in layer.updates:  # carried: its new value reads its input
                wanted.add(j)
                continue
            wanted.update(k for k, _ in inc.rows[j].terms)
            if isinstance(gate, DiagonalAffineGate):
                wanted.update(k for k, _ in gate.rows[j].terms)
                olds.add(j)
            else:  # h[k] is the previous new[k]
                for k, _ in gate.rows[j].terms:
                    olds.add(k)
                    if k not in new:
                        new.add(k)
                        todo.append(k)
        layers.append((sorted(new), sorted(olds), phi_plan, passes))
    layers.reverse()
    return layers, out_plan


class _Stepper:
    """Model compiled for one arithmetic mode: the encoded embeddings, the
    generated step on keys, the number of model constants the mode
    quantises, and its build: ``builds`` (1), ``build_s``, and the
    ``source_s`` and ``compile_s`` of it that generated and compiled the
    source.  A call that replaces its step runs on a copy of the new one
    that sums the builds of the call's steps.
    ``one`` encodes the value 1: the scale in exact mode, which ``_stepper``
    starts on ``_first_scale`` of the model's denominators (1 for only
    integer constants); a call raises ``_Inexact`` when a value leaves it.

    A key is the flat tuple of the hidden coordinates the step reads,
    ``key`` lists them as (layer, index) pairs and ``init`` is the initial
    state's key.  ``step`` maps a key and a symbol to the next key and the
    output.  In fixed mode with b total bits ``key_state_bound_log2`` is
    b * |key|, since at most 2**(b * |key|) keys exist; in exact mode, where
    nothing bounds them, it is None.  ``assume`` says whether the step runs
    on the assumed ranges of its gated coordinates, whose guards raise
    ``_Retract`` from a call where one fails.  ``dead_rule`` holds an
    ``(i, T)`` pair for each rising key coordinate i with an encoded
    threshold T: a key whose coordinate i is at least T is dead, and every
    output from it on is below 1."""

    def __init__(self, model: SsmModel, mode: ArithMode, scale: int | None, assume: bool = True):
        started = time.perf_counter()
        comp = _StepCompiler(mode, scale, assume)
        self.mode, self.assume, self.one = mode, assume, comp.scale
        self.emb = {s: tuple(map(comp.enc, vec)) for s, vec in zip(model.alphabet, model.emb)}
        self.search_step = comp.build(model, list(self.emb.values()))
        self.key = comp.key
        self.dead_rule = comp.dead_rule
        self.key_state_bound_log2 = None if mode.is_exact else mode.fmt.total_bits * len(self.key)
        self.init = tuple(comp.enc(model.layers[li].h0[j]) for li, j in self.key)
        self.quantized_constants = 0 if mode.is_exact else comp.quantized(model)
        self.builds, self.source_s, self.compile_s = 1, comp.source_s, comp.compile_s
        self.build_s = time.perf_counter() - started

    def step(self, key, symbol):
        x = self.emb.get(symbol)
        if x is None:
            raise UnknownSymbolError(f"symbol {symbol!r} not in model alphabet")
        return self.search_step(key, x)

    def scalar(self, y) -> Scalar:
        """An output of the step as the public scalar of the mode."""
        return Fraction(y, self.one) if self.mode.is_exact else _scalar(y, self.mode)


def _stepper(model: SsmModel, mode: ArithMode, scale: int | None = None,
             assume: bool = True) -> _Stepper:
    """The model's step for ``mode``, built on first use, with the assumed
    ranges of its gated coordinates unless ``assume`` is false.  In exact
    mode it runs over ``scale``, by default ``_first_scale`` of the model's
    ``_denominator``, which holds every constant; a given scale that lacks
    a prime of it raises ``_Inexact`` and builds nothing."""
    stepper = model._steppers.get(mode)
    if stepper is None:
        if scale is None and mode.is_exact:
            scale = _first_scale(_denominator(model))
        stepper = model._steppers[mode] = _Stepper(model, mode, scale, assume)
    return stepper


def _denominator(model: SsmModel) -> int:
    """The lcm of the denominators of every model constant, dead ones
    included, in one walk; a constant or a row that several places share
    is read once."""
    consts, rows = _holders(model)
    found = {w.denominator for w in _distinct(consts).values()}
    found.update(w.denominator for r in _distinct(rows).values() for _, w in r.terms)
    return lcm(*found)


def _first_scale(d: int) -> int:
    """The least multiple of ``d`` in which every prime of ``d`` appears at
    least ``SCALE_BITS`` times: 1 for ``d = 1``, ``2**SCALE_BITS`` for
    ``d = 8``, ``15**SCALE_BITS`` for ``d = 15``.  It encodes every model
    constant exactly."""
    odd = d >> ((d & -d).bit_length() - 1)
    return lcm(d, odd ** SCALE_BITS, 1 if d & 1 else _SCALE)


def _with_stepper(model: SsmModel, mode: ArithMode, call):
    """``call(stepper)`` with the model's step for ``mode``.  A call whose
    exact values leave the scale rebuilds the step on its square and runs
    again, whole: every prime of a value's denominator is a constant's, so
    n symbols need O(log n) squarings.  Scale 1 emits no check, so its
    calls never raise.

    A call that meets a gated coordinate outside its assumed range retracts
    the assumption: it rebuilds the step without one, on the same scale,
    and runs again, whole.  Until a guard fires, every value that the
    call's steps compute, so each output and each key coordinate, is the
    one the unassumed step computes: by induction from the initial key,
    each step starts where every range holds, and there the assumed step
    only leaves out tests and clamps that cannot fire (``_StepCompiler``).
    A step left on the model after a retraction keeps no assumption, also
    when its scale widens later."""
    stepper = _stepper(model, mode)
    while True:
        try:
            return call(stepper)
        except _Inexact:
            scale, assume = stepper.one ** 2, stepper.assume
        except _Retract:
            scale, assume = stepper.one, False
        del model._steppers[mode]
        # the builds of this call, on a copy: the cached step keeps its own
        earlier, stepper = stepper, copy(_stepper(model, mode, scale, assume))
        for name in ("builds", "build_s", "source_s", "compile_s"):
            setattr(stepper, name, getattr(stepper, name) + getattr(earlier, name))


def _scalar(y, mode: ArithMode) -> Scalar:
    """A Fraction or raw mantissa as the public scalar of ``mode``."""
    return y if mode.is_exact else FixedPointValue(y, mode.fmt)


def initial_state(model: SsmModel, mode: ArithMode) -> StreamState:
    """The h0 vectors in the encoding of ``mode``; builds nothing."""
    enc = mode.kernels[0]
    return StreamState(tuple(tuple(map(enc, layer.h0)) for layer in model.layers), mode)


def step(model: SsmModel, state: StreamState, symbol: str) -> tuple[StreamState, Scalar]:
    """Consume one symbol; returns the successor state and this position's
    output scalar (the value `accepts` compares against 1).  This is one
    position of the layer-major oracle; a state whose layout is not the
    model's is a ``DimensionError``."""
    hidden, mode = state.hidden, state.mode
    if len(hidden) != model.num_layers or any(len(h) != model.dim for h in hidden):
        raise DimensionError(
            f"state has {len(hidden)} layers of widths {[len(h) for h in hidden]}, "
            f"the model {model.num_layers} of width {model.dim}")
    x = _embed(model, symbol, mode)
    new = []
    for layer, h in zip(model.layers, hidden):
        h, x = _layer_step(layer, h, x, mode)
        new.append(h)
    return StreamState(tuple(new), mode), _scalar(eval_program(model.out, x, mode)[0], mode)


def _last_output(stepper: _Stepper, word: Sequence[str]):
    key = stepper.init
    for symbol in word:
        key, y = stepper.step(key, symbol)
    return y


def evaluate(model: SsmModel, word: Sequence[str], mode: ArithMode) -> Scalar:
    """Fold of step over a non-empty word; returns the final output."""
    if len(word) == 0:
        raise EmptyWordError("evaluation of the empty word is undefined")
    return _with_stepper(model, mode, lambda stepper: stepper.scalar(_last_output(stepper, word)))


def accepts(model: SsmModel, word: Sequence[str], mode: ArithMode) -> bool:
    """Exact equality with 1 in the evaluation domain; no tolerance band."""
    if len(word) == 0:
        raise EmptyWordError("acceptance of the empty word is undefined")
    return _with_stepper(model, mode, lambda stepper: _last_output(stepper, word) == stepper.one)


# ---------------------------------------------------------------------------
# Layer-major (batch) evaluation: the independent second order of computation.

def _recurrence(gate: GateSpec, inc: AffineMap, h: tuple, x: Sequence, mode: ArithMode) -> tuple:
    """``gate(x) . h + inc(x)``, one term at a time in the canonical order."""
    enc, add, mul, _ = mode.kernels
    zero = enc(Fraction(0))
    out = []
    for j in range(len(h)):
        if isinstance(gate, TimeInvariantGate):
            acc = zero
            for k, w in gate.rows[j].terms:
                acc = add(acc, mul(enc(w), h[k]))
        else:
            g = enc(gate.offset[j])
            for k, w in gate.rows[j].terms:
                g = add(g, mul(enc(w), x[k]))
            acc = mul(g, h[j])
        acc = add(acc, enc(inc.offset[j]))
        for k, w in inc.rows[j].terms:
            acc = add(acc, mul(enc(w), x[k]))
        out.append(acc)
    return tuple(out)


def _layer_step(layer: SsmLayer, h: tuple, x: Sequence, mode: ArithMode) -> tuple[tuple, tuple]:
    """One position of one layer: the new hidden vector from ``h`` and the
    input ``x``, and the layer's output ``z``.  The pass-through rule is
    applied here, not read from ``phi``: ``net`` gives the coordinates it
    computes, and every other coordinate takes ``_depth`` unit products of
    its new value, as a copy node ``add(enc(0), mul(enc(1), v))`` of the
    view would."""
    h = _recurrence(layer.gate, layer.inc, h, x, mode)
    z = list(h)
    if layer.net is not None:
        for j, v in zip(layer.computes, eval_program(layer.net, h + tuple(x), mode)):
            z[j] = v
    enc, _, mul, _ = mode.kernels
    one, computed = enc(_ONE), set(layer.computes)
    for j in range(layer.dim):
        if j not in computed:
            for _ in range(_depth(layer)):
                z[j] = mul(one, z[j])
    return h, tuple(z)


def run_layer(layer: SsmLayer, xs: Sequence[Sequence], mode: ArithMode) -> list[tuple]:
    """Apply one SSM layer to a whole input sequence, returning the z
    sequence.  Inputs/outputs are Fractions (exact) or raw ints (fixed)."""
    h = tuple(map(mode.kernels[0], layer.h0))
    zs = []
    for x in xs:
        if len(x) != layer.dim:
            raise DimensionError(f"layer has {layer.dim} inputs, got {len(x)} values")
        h, z = _layer_step(layer, h, x, mode)
        zs.append(z)
    return zs


def _embed(model: SsmModel, symbol: str, mode: ArithMode) -> tuple:
    """The embedding of ``symbol`` in the encoding of ``mode``."""
    i = model.symbol_index.get(symbol)
    if i is None:
        raise UnknownSymbolError(f"symbol {symbol!r} not in model alphabet")
    return tuple(map(mode.kernels[0], model.emb[i]))


def evaluate_layerwise(model: SsmModel, word: Sequence[str], mode: ArithMode) -> Scalar:
    """Whole-sequence evaluation, one layer at a time; must agree with the
    streaming order on every model and word."""
    if len(word) == 0:
        raise EmptyWordError("evaluation of the empty word is undefined")
    xs = [_embed(model, s, mode) for s in word]
    for layer in model.layers:
        xs = run_layer(layer, xs, mode)
    return _scalar(eval_program(model.out, xs[-1], mode)[0], mode)


# ---------------------------------------------------------------------------
# Model metadata operations

def state_count_bound_log2(model: SsmModel, bits: int) -> int:
    """The exponent 2*L*d*b of ``state_count_bound``."""
    if bits < 0:
        raise DimensionError("bit-width must be >= 0")
    return 2 * model.num_layers * model.dim * bits


def state_count_bound(model: SsmModel, bits: int) -> int:
    """The pigeonhole bound 2**(2*L*d*b) on shortest accepted words under
    b-bit fixed-width arithmetic."""
    return 1 << state_count_bound_log2(model, bits)


class GateClasses(Value):
    __slots__ = _fields = ("time_invariant", "diagonal")

    def __init__(self, time_invariant: bool, diagonal: bool):
        self._assign(time_invariant, diagonal)


def classify_gates(model: SsmModel) -> GateClasses:
    """Membership in the time-invariant and diagonal model classes."""
    ti = all(isinstance(l.gate, TimeInvariantGate) for l in model.layers)
    diag = all(
        isinstance(l.gate, DiagonalAffineGate)
        or (isinstance(l.gate, TimeInvariantGate) and l.gate.is_diagonal())
        for l in model.layers
    )
    return GateClasses(time_invariant=ti, diagonal=diag)


def _holders(model: SsmModel) -> tuple[list[Fraction], list[Row]]:
    """The constants that the model's vectors hold and the rows that hold
    the others, dead ones included; a constant or a row that several places
    share is listed for each.  A carried coordinate's copy rows and its
    offsets, which are 0, are left out."""
    vectors, rows = list(model.emb), []
    for layer in model.layers:
        vectors += (layer.h0, [layer.inc.offset[j] for j in layer.updates])
        if isinstance(layer.gate, DiagonalAffineGate):
            vectors.append([layer.gate.offset[j] for j in layer.updates])
        rows += [m.rows[j] for m in (layer.gate, layer.inc) for j in layer.updates]
    for net in (*(layer.net for layer in model.layers if layer.net is not None), model.out):
        for fnn_layer in net.layers:
            vectors.append([node.bias for node in fnn_layer.nodes])
            rows += [node.row for node in fnn_layer.nodes]
    return list(chain.from_iterable(vectors)), rows


def _distinct(objects: list) -> dict:
    """Each distinct object of ``objects``, told apart by identity, by its
    id."""
    return {id(obj): obj for obj in objects}


def _count(objects: list, weight) -> int:
    """The sum of ``weight`` over ``objects``, called once per distinct
    object: where it is 0 on each, as it is on most models, nothing is
    counted."""
    weights = {i: w for i, obj in _distinct(objects).items() if (w := weight(obj))}
    if not weights:
        return 0
    return sum(n * weights[i] for i, n in Counter(map(id, objects)).items() if i in weights)


def _constants(model: SsmModel):
    """Every model constant as (path, value).  A zero weight is exact in
    every encoding, so the rows' nonzero terms are all the weights there
    are."""

    def fnn(path: str, net: Fnn):
        for li, layer in enumerate(net.layers):
            for ni, node in enumerate(layer.nodes):
                yield f"{path}.layer{li}.node{ni}.bias", node.bias
                for wi, w in node.row.terms:
                    yield f"{path}.layer{li}.node{ni}.w{wi}", w

    for s, vec in zip(model.alphabet, model.emb):
        for i, v in enumerate(vec):
            yield f"emb[{s}][{i}]", v
    for li, layer in enumerate(model.layers):
        for i, v in enumerate(layer.h0):
            yield f"layer{li}.h0[{i}]", v
        for name, mat in (("gate", layer.gate), ("inc", layer.inc)):
            for i, row in enumerate(mat.rows):
                for j, w in row.terms:
                    yield f"layer{li}.{name}[{i}][{j}]", w
        if isinstance(layer.gate, DiagonalAffineGate):
            for i, v in enumerate(layer.gate.offset):
                yield f"layer{li}.gate.offset[{i}]", v
        for i, v in enumerate(layer.inc.offset):
            yield f"layer{li}.inc.offset[{i}]", v
        yield from fnn(f"layer{li}.phi", layer.phi)
    yield from fnn("out", model.out)


def quantization_report(model: SsmModel, fmt: FixedPointFormat) -> list[tuple[str, Fraction]]:
    """Model constants that are not exactly representable in ``fmt`` (they
    will be truncated/saturated when evaluating in that format)."""
    return [(path, v) for path, v in _constants(model)
            if raw_encode(v, fmt) * v.denominator != v.numerator * fmt.scale]
