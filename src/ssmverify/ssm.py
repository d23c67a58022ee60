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
``accepts`` build each model, once per mode, into one straight-line step
program, interpreted and compiled to Python past 32 steps: the live part
of the model is generated, its constants folded in, unit weights and unit
copies become aliases and fixed-point truncation and saturation are
inlined per term (partial evaluation; Jones, Gomard and Sestoft, 1993).
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

A hidden input takes the whole domain, except that a *rising* coordinate
never falls: its gate row is the encoded 1 on itself, and its inc offset
and every inc term are not negative over their inputs' intervals (a Minsky
violation sum, an ILP row sum or count).  Its hidden input takes
[enc(h0), top], a range proved by induction from the initial key.  For
each rising key coordinate the build derives a threshold T, the least
value from which the same interval analysis keeps the output below 1 at
every later position, by one backward pass from ``y`` through the sums the
step computes (bound-based pruning over intervals; Cousot and Cousot, POPL
1977).  A key whose coordinate has reached T is *dead*: no accepted word
passes through it, so the solvers neither store nor expand it.

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
from operator import itemgetter
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


def _literal(k: int) -> str:
    """``k`` as a Python literal, in hex past 2048 bits (617 digits): CPython
    refuses decimal text for ints past a settable limit of 640 or more
    digits, and hex text for none."""
    return repr(k) if k.bit_length() <= 2048 else hex(k)


def _times(k: int, code: str) -> str:
    return code if k == 1 else f"-{code}" if k == -1 else f"{_literal(k)} * {code}"


# The kinds of op of a step program.  An op is (kind, slot written, number n of the local
# ``v<n>`` it renders as or None for a product inlined into a sum, then the clamp's low and
# high, None on a side that cannot overflow):
#   _SUM      (..., start, terms): start + k * env[s] for each (k, s)
#   _RELU     (..., c, ((k, u),)): the same with low 0, one line of text
#   _PRODUCT  (..., k, a, b, f, form): k * env[a] (env[a] * env[b] for k None) >> f, truncated
#             toward zero; form chooses its text
#   _DIVIDED  (..., k, a, b, q, None): that product over q, or ``Inexact``
_SUM, _RELU, _PRODUCT, _DIVIDED = range(4)

#: How many transitions one call of a step (a search, one word's walk)
#: interprets before it compiles the step; ``_Stepper`` derives it.
_COMPILE_AFTER = 32


class _Val:
    """A value of the step being generated, in the slot ``code``: a folded
    constant (``const`` is set), a local, or, only on its way into a sum,
    an integer product, which has no slot (``code`` is None), or another
    product, which an inline op computes.  ``lo``/``hi`` bound its
    encoding; an exact bound that nothing fixes is infinite.  ``coef`` and
    ``base`` say that a local or an integer product is ``coef * base`` for
    the slot ``base``; ``coef`` is None for a constant or another product."""

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
    """Emits ``step(key, x) -> (new key, y)`` for one model and mode as a
    ``program``, a list of the ops listed at ``_SUM``, in SSA form: every
    computed value gets a fresh slot.  ``_interpreter`` runs it, and
    ``_render`` writes it as Python source, one emitter per line form.  The
    domain is fixed-point raw mantissas or, in exact mode, ints over the
    scale ``scale``.

    Terms are emitted in the canonical order (gate terms, inc offset, inc
    terms, each by ascending column; bias then terms in FNN nodes), with
    fixed-mode truncation and saturation inlined per term, so the function is
    bit-exact with ``evaluate_layerwise``.  Constants fold at generation
    time (an exact sum, which no order changes, folds all of its constant
    terms into one), zero terms vanish and a term whose encoded weight is
    the unit becomes an alias, as does a whole unit copy.  A sum subtracts
    a negative constant or integer product (``1 - v10 - 2 * x3``), which
    ``mul`` marks with its coefficient and slot; and
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

    A hidden input takes the whole domain, but a ``rising`` one takes
    [enc(h0), top]: that range is proved, since each new value is a
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

    def __init__(self, mode: ArithMode, scale: int = _SCALE):
        self.fmt = fmt = mode.fmt
        if fmt is None:
            self.scale, self.bottom, self.top = scale, -_INF, _INF
        else:
            self.scale, self.bottom, self.top = fmt.scale, fmt.min_raw, fmt.max_raw
        self._blocks: list[tuple[int, list[tuple], tuple]] = []  # (slot, ops, reads)
        self._count = 0  # the locals v0, v1, ... named so far
        self._rising: dict[int, int] = {}  # each rising hidden input -> its encoded h0
        self._sums: dict[int, tuple] = {}  # each sum: (start, terms, where it saturates)
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
        exactly, dead ones included.  Each distinct constant, told apart by
        identity, and the unit where a coordinate is carried or passed
        through is checked first, on the build's encodings; where one is
        inexact or not encoded, the inexact ones are counted where the
        model holds them.  A carried coordinate counts as the
        weight 1 of its copy row, and each unit product of a coordinate
        passed through as that of a copy node of ``phi``."""
        consts, rows = _holders(model)
        units = sum(layer.dim - len(layer.updates)
                    + (layer.dim - len(layer.computes)) * _depth(layer) for layer in model.layers)
        memo, ids = self._memo, set(map(id, consts))
        ids.update(id(w) for row in rows for _, w in row.terms)
        if not (units and self._const(_ONE)[2]) and all(i in memo and not memo[i][2] for i in ids):
            return 0
        return (_count(consts, lambda w: self._const(w)[2])
                + _count(rows, lambda r: self._row(r)[2]) + units * self._const(_ONE)[2])

    # -- values -------------------------------------------------------------

    def const(self, value: int) -> _Val:
        v = self._consts.get(value)
        if v is None:
            v = self._consts[value] = _Val(self._slot(value), value, value, value, (), None)
        return v

    def _slot(self, value=None) -> int:
        """A new slot of the template, which holds ``value`` at the start."""
        self._template.append(value)
        return self._base + len(self._template) - 1

    def _fresh(self) -> tuple[int, int]:
        """The slot and the number of a new local."""
        self._count += 1
        return self._slot(), self._count - 1

    def _bind(self, slot: int, ops: list[tuple], reads: tuple, lo, hi) -> _Val:
        """Record the block of ops that computes the local in ``slot``."""
        self._blocks.append((slot, ops, reads))
        return _Val(slot, None, lo, hi, (slot,))

    def _saturates(self, lo, hi, floor) -> tuple:
        """Where a value in [lo, hi] saturates (``floor`` below: the range
        minimum, or zero where a relu follows): the floor it raises a value
        to and the top it lowers one to, None where it does not."""
        return floor if lo < floor else None, self.top if hi > self.top else None

    def _clamp(self, lo, hi, floor) -> tuple:
        """The interval of a value in [lo, hi] once clamped where
        ``_saturates`` says it saturates, and what ``_saturates`` said."""
        top = self.top
        low, high = saturates = self._saturates(lo, hi, floor)
        lo = floor if low is not None else min(lo, top)
        return lo, top if high is not None else max(hi, floor), saturates

    def _fits(self, lo, hi, reads, coef=None, base=None, product=()) -> _Val:
        """A product term, ``coef * base`` or the ``_PRODUCT`` op with the
        fields ``product`` after its clamp: an expression when it cannot
        leave the range, the op inlined, else a local saturated on the
        sides that can overflow."""
        if self.bottom <= lo and hi <= self.top:
            if not product:
                return _Val(None, None, lo, hi, reads, coef, base)
            slot = self._slot()
            self._blocks.append((slot, [(_PRODUCT, slot, None, None, None, *product)], reads))
            return _Val(slot, None, lo, hi, (slot,), None)
        slot, n = self._fresh()
        clamped_lo, clamped_hi, saturates = self._clamp(lo, hi, self.bottom)
        if product:
            op = (_PRODUCT, slot, n, *saturates, *product)
        else:
            self._sums[slot] = 0, [_Val(None, None, lo, hi, reads, coef, base)], {1: saturates}
            op = (_SUM, slot, n, *saturates, 0, ((coef, base),))
        return self._bind(slot, [op], reads, clamped_lo, clamped_hi)

    def _divided(self, q: int, reads, lo, hi, k, a: int, b=None) -> _Val:
        """A local holding the int ``k * a`` (``a * b`` where ``k`` is
        None) divided by ``q``, which raises ``Inexact`` unless the
        division is exact.  At ``q = 1`` it is the product itself."""
        if q == 1:
            return self._fits(lo, hi, reads, product=(k, a, b, 0, "exact"))
        slot, n = self._fresh()
        return self._bind(slot, [(_DIVIDED, slot, n, None, None, k, a, b, q, None)], reads, lo, hi)

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
            return self._fits(lo, hi, v.reads, k, v.code)
        if self.fmt is None:  # the weight is a / q in lowest terms
            g = gcd(w, scale)
            lo, hi = _outward(w, v.lo, v.hi, scale)
            return self._divided(scale // g, v.reads, lo, hi, w // g, v.code)
        lo, hi = sorted((_scaled_bound(w, v.lo, scale), _scaled_bound(w, v.hi, scale)))
        # truncation toward zero of w*v / 2**f, its text split on the sign of v
        form = "pos" if v.lo >= 0 else "neg" if v.hi <= 0 else "sign"
        return self._fits(lo, hi, v.reads, product=(w, v.code, None, self.fmt.frac_bits, form))

    def mul_var(self, g: _Val, v: _Val) -> _Val:
        """The term ``g * v`` of a diagonal input-dependent gate; unbounded
        in exact mode, where the hidden input ``v`` is."""
        if g.const is not None:
            return self.mul(g.const, v)
        reads = g.reads + v.reads
        if self.fmt is None:
            return self._divided(self.scale, reads, -_INF, _INF, None, g.code, v.code)
        ends = (g.lo * v.lo, g.lo * v.hi, g.hi * v.lo, g.hi * v.hi)
        scale, f = self.fmt.scale, self.fmt.frac_bits
        lo, hi = _scaled_bound(1, min(ends), scale), _scaled_bound(1, max(ends), scale)
        if f == 0 or min(ends) >= 0:
            return self._fits(lo, hi, reads, product=(None, g.code, v.code, f, "shift"))
        slot, n = self._fresh()
        lo, hi, saturates = self._clamp(lo, hi, self.bottom)
        op = (_PRODUCT, slot, n, *saturates, None, g.code, v.code, f, "lines")
        return self._bind(slot, [op], reads, lo, hi)

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
        value, part, slot = start, None, None  # part None: the sum is `value`
        ops: list[tuple] = []
        reads: tuple = ()
        pending = 0
        joined, clamps = [], {}  # the terms after `value`; where the sum saturates
        for t in terms:
            if part is None:
                if t.const is not None:
                    value = min(max(value + t.const, bottom), top)
                    continue
                part, begin = [], value  # the terms of the line and the value it starts from
                lo = hi = value
            elif t.const == 0:
                continue
            # saturate the sum so far where it may have overflowed (and
            # every 64 terms, to keep expressions shallow for compile())
            elif lo < bottom or hi > top or pending >= 64:
                if slot is None:
                    slot, n = self._fresh()
                lo, hi, clamps[len(joined)] = self._clamp(lo, hi, bottom)
                ops.append((_SUM, slot, n, *clamps[len(joined)], begin, tuple(part)))
                part, begin, pending = [(1, slot)], 0, 0
            # a constant term reads the slot that holds 1
            part.append((t.coef, t.base) if t.coef is not None else
                        (t.const, self._base) if t.const is not None else (1, t.code))
            try:
                lo, hi = lo + t.lo, hi + t.hi
            except OverflowError:  # an int past a float's range meets an infinite bound
                lo, hi = _plus(lo, t.lo), _plus(hi, t.hi)
            reads += t.reads
            pending += 1
            joined.append(t)
        # relu after saturation is a clamp to [0, top]: the range holds 0
        floor = 0 if relu else bottom
        if part is None:
            return self.const(max(value, floor))
        if span is not None:
            lo, hi = max(lo, span[0]), min(hi, span[1])
        if hi <= floor:
            return self.const(floor)
        one, first = len(joined) == 1 and hi <= top, joined[0]  # one term: no line yet
        if one and value == 0 and first.coef == 1 and lo >= floor:  # a local
            return _Val(first.code, None, lo, hi, (first.code,))
        if slot is None:
            slot, n = self._fresh()
        if one and relu and first.coef in (1, -1):  # one line, not two
            clamps[len(joined)] = self._saturates(lo, hi, 0)
            self._sums[slot] = value, joined, clamps
            return self._bind(slot, [(_RELU, slot, n, 0, None, value, tuple(part))], reads, 0, hi)
        lo, hi, clamps[len(joined)] = self._clamp(lo, hi, floor)
        self._sums[slot] = value, joined, clamps
        ops.append((_SUM, slot, n, *clamps[len(joined)], begin, tuple(part)))
        return self._bind(slot, ops, reads, lo, hi)

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

    def rising(self, layer: SsmLayer, olds: list[int], x: list[_Val]) -> dict:
        """The range [enc(h0), top] of each hidden input of ``olds`` that
        never falls: its gate row is the encoded 1 on itself (``{j: 1}`` of
        a time-invariant gate, or a diagonal row with no term and offset 1),
        its inc offset is not negative and neither is any inc term over the
        intervals of the inputs ``x``.  A saturating sum of ``h`` and terms
        that are not negative is not below ``h``, so by induction from the
        initial key such a coordinate stays in its range."""
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

    def program(self, model: SsmModel, inputs: list[tuple]) -> tuple:
        """The step's ``(ops, template, dim, hidden, live, outs, y)``, timed
        as ``source_s``; ``inputs`` are the encoded embeddings, the only
        vectors it is ever called with.  The slots hold ``dim`` columns, a
        hidden input per ``(layer, index)`` of ``hidden``, then the
        ``template``: 1, the operand of each constant term, the folded
        constants and None for each local.  ``ops`` are those the slots
        ``live`` need; ``outs`` and ``y`` are returned.  Generates only the
        nodes and new hidden values that ``_plan`` finds ``y`` can need, so
        only their constants are encoded, and sets ``key`` and
        ``dead_rule``.  A hidden input takes its ``rising`` range or the
        whole domain."""
        started = time.perf_counter()
        layers, out_plan = _plan(model)
        dim = model.dim
        hidden_inputs = [(li, j) for li, plan in enumerate(layers) for j in plan[1]]
        self._base, self._template = dim + len(hidden_inputs), [1]
        x = []
        for k, column in enumerate(zip(*inputs)):
            lo, hi = min(column), max(column)
            x.append(self.const(lo) if lo == hi else _Val(k, None, lo, hi, (k,)))
        hidden = {}  # the slot of each generated hidden input -> ((layer, index), new value)
        slot = dim
        for li, (layer, (news, olds, phi_plan, passes)) in enumerate(zip(model.layers, layers)):
            rising = self.rising(layer, olds, x)
            h = {}
            for j in olds:
                lo, hi = rising.get(j) or (self.bottom, self.top)
                h[j] = _Val(slot, None, lo, hi, (slot,))
                if j in rising:
                    self._rising[slot] = lo
                slot += 1
            new, updates = [None] * layer.dim, layer.updates
            for j in news:  # a carried coordinate's new value is its input
                new[j] = self.recurrence(layer, j, h, x) if j in updates else self.unit(x[j])
                if j in h:
                    hidden[h[j].code] = (li, j), new[j]
            x = self.phi(layer, phi_plan, passes, new, x)
        (y,) = self.fnn(model.out, out_plan, x)
        live = self._live(y, hidden)
        keyed = [s for s in hidden if s in live]
        self.key = tuple(hidden[s][0] for s in keyed)
        self.dead_rule = self._dead_rule(y, keyed)
        ops = [op for s, block, _ in self._blocks if s in live for op in block]
        self.source_s = time.perf_counter() - started
        return (ops, self._template, dim, hidden_inputs, live,
                tuple(hidden[s][1].code for s in keyed), y.code)

    def _dead_rule(self, y: _Val, keyed: list[int]) -> tuple:
        """``(i, T)`` for each rising coordinate at index i of the key, the
        slots ``keyed``, that ``_threshold`` finds a least T for: from a key
        whose coordinate i is at least T, every later ``y`` is below the
        encoded 1.  Every rising coordinate has its h0 as T where ``y``
        never reaches 1."""
        if not self._rising:
            return ()
        if y.hi < self.scale:
            found = dict(self._rising)
        else:
            found, kept = {}, self._sums.get(y.code)
            if kept:
                self._moves = self._directions()  # read by ``_threshold``
                self._threshold(kept, False, self.scale - 1, found, [4 * self._count])
        return tuple((i, found[slot]) for i, slot in enumerate(keyed) if slot in found)

    def _directions(self) -> dict:
        """Whether each rising input and kept sum can fall and whether it can
        rise as a rising input grows, in one pass: a sum reads earlier slots."""
        moves = dict.fromkeys(self._rising, (False, True))
        for slot, (_, terms, _) in self._sums.items():
            falls = rises = False
            for t in terms:
                if t.coef is not None:  # a negative term swaps falling and rising
                    down, up = moves.get(t.base, (False, False))[::1 if t.coef > 0 else -1]
                    falls, rises = falls or down, rises or up
            moves[slot] = falls, rises
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
                if (high is not None and up and bound > top
                        or floor is not None and not up and bound < floor):
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

    def _live(self, y: _Val, hidden: dict) -> set:
        """The slots that ``y`` needs, where a hidden input needs its new
        value too: the least such set, with what folding removed left out."""
        reads = {slot: block_reads for slot, _, block_reads in self._blocks}
        reads.update((slot, value.reads) for slot, (_, value) in hidden.items())
        live, todo = set(), list(y.reads)
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


def _render(program: tuple) -> str:
    """The source of ``step(key, x)`` for a ``_StepCompiler`` program: the
    lines of each op in turn, between the unpacking of the key and ``x``
    and the return of the new key and ``y``."""
    ops, template, dim, hidden, live, outs, y = program
    base = dim + len(hidden)  # the slot that holds 1
    names = ([f"x{k}" for k in range(dim)] + [f"h{li}_{j}" for li, j in hidden]
             + [None if c is None else _literal(c) for c in template])

    def joined(expr, k, s):  # expr + k * s, a negative constant or product subtracted
        if s == base:
            return f"{expr} - {_literal(-k)}" if k < 0 else f"{expr} + {_literal(k)}"
        return f"{expr} - {_times(-k, names[s])}" if k < 0 else f"{expr} + {_times(k, names[s])}"

    def product(k, a, b, f, form):
        if b is not None:
            return f"{names[a]} * {names[b]}" + (f" >> {f}" if form == "shift" else "")
        v, w = names[a], abs(k)
        pos, neg = f"{w} * {v} >> {f}", f"{w} * -{v} >> {f}"
        pos, neg = (pos, f"-({neg})") if k > 0 else (f"-({pos})", neg)
        return pos if form == "pos" else neg if form == "neg" else f"{pos} if {v} >= 0 else {neg}"

    keyed = [names[s] for s in range(dim, base) if s in live]
    lines = [", ".join(keyed) + ", = key"] if keyed else []
    if dim:
        lines.append(", ".join([names[k] if k in live else "_" for k in range(dim)]) + ", = x")
    for kind, slot, n, low, high, *rest in ops:
        if n is None:  # a product inlined into the sum that reads it
            names[slot] = f"({product(*rest)})"
            continue
        name = names[slot] = f"v{n}"
        if kind <= _RELU:
            start, ((k, s), *terms) = rest
            expr = _times(k, names[s]) if start == 0 else joined(_literal(start), k, s)
            for k, s in terms:
                expr = joined(expr, k, s)
            if kind == _RELU:  # relu(start + k * u) for k = 1 or -1
                u, c = names[s], _literal(start if k == -1 else -start)
                expr = f"{u} - {c}" if k == 1 and start < 0 else expr
                lines.append(f"{name} = {expr} if {u} {'<' if k == -1 else '>'} {c} else 0")
                continue
            lines.append(f"{name} = {expr}")
        elif kind == _PRODUCT and rest[-1] == "lines":
            f = rest[3]
            lines += [f"{name} = {names[rest[1]]} * {names[rest[2]]}",
                      f"{name} = {name} >> {f} if {name} >= 0 else -(-{name} >> {f})"]
        elif kind == _PRODUCT:
            lines.append(f"{name} = {product(*rest)}")
        elif kind == _DIVIDED:
            k, a, b, q, _ = rest
            code = _times(k, names[a]) if b is None else f"{names[a]} * {names[b]}"
            lines += ([f"{name}, rest = divmod({code}, {_literal(q)})", "if rest: raise Inexact"]
                      if q & (q - 1) else
                      [f"{name} = {code}", f"if {name} & {_literal(q - 1)}: raise Inexact",
                       f"{name} >>= {q.bit_length() - 1}"])
            continue
        if high is not None:
            lines.append(f"if {name} > {high}: {name} = {high}")
        if low is not None:
            lines.append(f"{'elif' if high is not None else 'if'} {name} < {_literal(low)}: "
                         f"{name} = {_literal(low)}")
    lines.append(f"return ({''.join(names[s] + ', ' for s in outs)}), {names[y]}")
    return "def step(key, x):\n    " + "\n    ".join(lines) + "\n"


def _getter(indices):
    """A function from a sequence to the tuple of its items at ``indices``."""
    return (itemgetter(*indices) if len(indices) > 1
            else lambda seq: tuple(map(seq.__getitem__, indices)))


def _interpreter(program: tuple):
    """``step(key, x)`` that runs a ``_StepCompiler`` program op by op on a
    list of slots, as its ``_render``ed source does; a product truncates
    toward zero, as each form of its text does where it is chosen."""
    ops, template, dim, hidden, live, outs, y = program
    slots = [s for s in range(dim, dim + len(hidden)) if s in live]
    # a hidden input that no op reads takes the None appended to the key
    spread = None if len(slots) == len(hidden) else _getter(
        [slots.index(s) if s in live else len(slots) for s in range(dim, dim + len(hidden))])
    get = _getter(outs)

    def step(key, x):
        env = [*x, *(key if spread is None else spread((*key, None))), *template]
        for op in ops:
            kind = op[0]
            if kind <= _RELU:
                _, slot, _, low, high, v, terms = op
                for k, s in terms:
                    v += k * env[s]
            else:
                _, slot, _, low, high, k, a, b, d, _ = op
                v = k * env[a] if b is None else env[a] * env[b]
                if kind == _PRODUCT:
                    v = v >> d if v >= 0 else -(-v >> d)
                else:
                    v, rest = divmod(v, d)
                    if rest:
                        raise _Inexact
            if high is not None and v > high:
                v = high
            elif low is not None and v < low:
                v = low
            env[slot] = v
        return get(env), env[y]

    return step


class _Stepper:
    """Model compiled for one arithmetic mode: the encoded embeddings, the
    step program on keys, the number of model constants the mode
    quantises, and its build: ``builds`` (1), ``build_s`` and its part
    ``source_s``.  A call that replaces its step runs on a copy of the new
    one that sums the builds of the call's steps.
    ``one`` encodes the value 1: the scale in exact mode, which ``_stepper``
    starts on ``_first_scale`` of the model's denominators (1 for only
    integer constants); a call raises ``_Inexact`` when a value leaves it.

    ``search_step`` interprets the program; ``compiled`` renders and
    compiles it once for the stepper and its copies, a function that
    computes the same and raises at the same step.  A call of the step (a
    search, a word's walk) interprets its first ``_COMPILE_AFTER``
    transitions and compiles from there on (Hoelzle and Ungar, OOPSLA
    1994).  On the benchmark's seed-401 models (2 vCPUs, CPython 3.11)
    compiling costs C = 200-250 us and interpreting 2.5-3.1 us more a
    transition, 5-6 times a compiled one: past 32 transitions a call has
    spent under C / 2 interpreting, so it pays under 1.5 C over compiling
    up front, and a search of up to 25 transitions (90th percentile)
    never compiles.

    A key is the flat tuple of the hidden coordinates the step reads,
    ``key`` lists them as (layer, index) pairs and ``init`` is the initial
    state's key.  ``step`` maps a key and a symbol to the next key and the
    output.  In fixed mode with b total bits ``key_state_bound_log2`` is
    b * |key|, since at most 2**(b * |key|) keys exist; in exact mode, where
    nothing bounds them, it is None.  ``dead_rule`` holds an
    ``(i, T)`` pair for each rising key coordinate i with an encoded
    threshold T: a key whose coordinate i is at least T is dead, and every
    output from it on is below 1."""

    def __init__(self, model: SsmModel, mode: ArithMode, scale: int | None):
        started = time.perf_counter()
        comp = _StepCompiler(mode, scale)
        self.mode, self.one = mode, comp.scale
        self.emb = {s: tuple(map(comp.enc, vec)) for s, vec in zip(model.alphabet, model.emb)}
        self.program = comp.program(model, list(self.emb.values()))
        self.search_step = _interpreter(self.program)
        self._compiled: list = []  # the compiled step, once compiled; copies share it
        self.key = comp.key
        self.dead_rule = comp.dead_rule
        self.key_state_bound_log2 = None if mode.is_exact else mode.fmt.total_bits * len(self.key)
        self.init = tuple(comp.enc(model.layers[li].h0[j]) for li, j in self.key)
        self.quantized_constants = 0 if mode.is_exact else comp.quantized(model)
        self.builds, self.source_s = 1, comp.source_s
        self.build_s = time.perf_counter() - started

    def compiled(self) -> tuple:
        """The compiled step, and the seconds this call spent rendering and
        compiling it: 0 where it was compiled before."""
        started, fresh = time.perf_counter(), not self._compiled
        if fresh:
            code = compile(_render(self.program), f"<ssm step {self.mode.fmt or 'exact'}>", "exec")
            exec(code, namespace := {"Inexact": _Inexact})
            self._compiled.append(namespace["step"])
        return self._compiled[0], time.perf_counter() - started if fresh else 0.0

    def step(self, key, symbol, step=None):
        """The next key and output, through ``step`` or ``search_step``."""
        x = self.emb.get(symbol)
        if x is None:
            raise UnknownSymbolError(f"symbol {symbol!r} not in model alphabet")
        return (step or self.search_step)(key, x)

    def walk(self, word: Sequence[str]):
        """The key and output after each symbol of ``word`` from ``init``,
        interpreted for the first ``_COMPILE_AFTER`` symbols."""
        key, step = self.init, self.search_step
        for i, symbol in enumerate(word):
            if i == _COMPILE_AFTER:
                step = self.compiled()[0]
            key, y = self.step(key, symbol, step)
            yield key, y

    def scalar(self, y) -> Scalar:
        """An output of the step as the public scalar of the mode."""
        return Fraction(y, self.one) if self.mode.is_exact else _scalar(y, self.mode)


def _stepper(model: SsmModel, mode: ArithMode, scale: int | None = None) -> _Stepper:
    """The model's step for ``mode``, built on first use.  In exact mode it
    runs over ``scale``, by default ``_first_scale`` of the model's
    ``_denominator``, which holds every constant; a given scale that lacks
    a prime of it raises ``_Inexact`` and builds nothing."""
    stepper = model._steppers.get(mode)
    if stepper is None:
        if scale is None and mode.is_exact:
            scale = _first_scale(_denominator(model))
        stepper = model._steppers[mode] = _Stepper(model, mode, scale)
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
    calls never raise."""
    stepper = _stepper(model, mode)
    while True:
        try:
            return call(stepper)
        except _Inexact:
            del model._steppers[mode]
        # the builds of this call, on a copy: the cached step keeps its own
        earlier, stepper = stepper, copy(_stepper(model, mode, stepper.one ** 2))
        for name in ("builds", "build_s", "source_s"):
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
    for _, y in stepper.walk(word):
        pass
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
