"""Model-emitting compilers: temporal-logic formulas, two-counter machines
and 0-1 integer programs all reduce to SSM satisfiability.

Each compiler ships with an independent brute-force oracle over its source
language so compiled models can be checked differentially.  The shared
machinery lives up front: the sparse matrix helpers; ``_pointwise``, the
one place that puts gadgets of any depth on chosen input columns and
stacks networks on their outputs, and builds only those, so that a layer
stores only what it computes; ``_layer``, which also lists the
coordinates whose recurrence does more than copy the input, so that a
layer stores only those rows; and the previous-bit decoder, which
smuggles a step of history through ``h = h/4 + x`` and decodes it from h
and x.

The LTL compiler is levelled.  An atom has DAG height 0 and reads its
proposition's embedding column.  Every gate and inc row is affine in its
layer's input, and so is negating a 0/1 value, so a subformula's value is
a sum of weighted coordinates (``_value``): ``!psi`` is ``1 - psi``, at
psi's height and on no coordinate of its own; ``tt``, the parser's ``a |
!a``, is the constant coordinate, and ``ff``, its ``a & !a``, is no terms
at all, both of height 0.  Every other subformula has its own coordinate,
and the subformulas of one height are computed together in one layer:
each reads only lower heights, and each layer update is per coordinate,
so their inc rows, until gates and gadgets merge.  ``l & r`` is one relu
node, ``relu(l + r - 1)``, and ``l | r`` stores ``!l & !r``, which its
readers read negated.  ``X psi`` runs the history ``h = h/4 + psi``
under the constant gate 1/4, and its level's phi decodes psi's previous
value, so the layer count is the formula's height.

Until is Boolean.  ``l U r`` runs ``h = g * h + r`` under the diagonal gate
``g = l & !r``, so h is 0 or 1 in every arithmetic mode and a search's keys
do not grow with the format.  A gate is affine in its layer's input, so
``relu(l - r)``, which is ``l & !r`` on 0/1 values, is one more coordinate
of that input, after the subformulas' and before the constant.  For an
until of height 1 it is an embedding column, a Boolean of the letter;
otherwise the phi of the layer just below the until's level stacks it,
one relu node over the terms of ``l - r``, on that layer's outputs, an
``X``'s decoded value included.  No layer is added.

``F`` needs no gate coordinate: ``F psi``, the parser's ``tt U psi``,
stores ``G !psi``, which runs ``h = (1 - psi) * h`` from 1, a gate affine
in the operand itself and no inc term, one coordinate one level above psi
that ``F psi`` reads negated.  ``G psi``, the parser's ``!(tt U !psi)``,
is that coordinate for ``F !psi`` read negated twice, ``h = psi * h``.

Every coordinate's output is thus 0 or 1 wherever the format holds 1, so
``out`` is one identity node over the formula's terms, which is 1 exactly
where ``eq(1)`` of it is.  No interval shows that an until or ``F``
coordinate stays in [0, 1], so the step compiler keeps the saturation
tests of their new values (``ssm._StepCompiler``).

The Minsky and ILP compilers write their outputs as affine terms too.  A
Minsky model runs its previous-state history beside the counter sums in
layer 1, both constant diagonal gates, and decodes it there; layer 2
computes only the violation coordinate, from its own input; layer 3 sums
it; and ``out`` is ``relu(final - violations)``.  An ILP model's letter
i embeds as column i of A followed by the unit vector e_i, so its one
layer adds its input to its state under the identity gate and inc, one
addition per coordinate; its ``out`` is one relu layer of misses, then
``relu(1 - sum of the misses)``.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import ltl as ltl_mod
from ._row import Row
from ._value import Value
from .errors import (
    DimensionError,
    InputFormatError,
    InvalidMachineError,
    PreconditionError,
    ResourceLimitError,
)
from .fnn import (
    Fnn,
    FnnLayer,
    FnnNode,
    IDENTITY,
    RELU,
    compose,
    gadget_eq,
    gadget_geq0,
    gadget_implies,
    gadget_lookup,
    identity_fnn,
    linear_fnn,
    _copies,
)
from .ltl import LtlFormula, Atom, Not, And, Or, Next, Until, children, subformulas_topo
from .solvers import ResourceLimits
from .ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    Vector,
    carried,
    classify_gates,
)
from .words import pair_symbol, set_symbol, symbol_pair

F0, F1 = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# Matrix helpers (0-indexed throughout).  ``carried(d)`` gives the rows of
# the d x d zero matrix (one shared empty row), those of the identity and
# the zero vector; a layer shares them wherever it only copies its input.

def _mask(i: int, j: int, d: int) -> tuple[Row, ...]:
    """The rows of the identity restricted to the diagonal window i..j."""
    return _sparse(carried(d)[0], [(r, r, F1) for r in range(i, j + 1)])


def _sparse(base: tuple[Row, ...], entries) -> tuple[Row, ...]:
    """The rows of the matrix ``base`` plus each (row, col, w) of entries;
    rows without an entry stay the rows of ``base``, shared."""
    extra: dict[int, list] = {}
    for r, c, w in entries:
        extra.setdefault(r, list(base[r].terms)).append((c, w))
    rows = list(base)
    for r, pairs in extra.items():
        rows[r] = Row.of(len(base), pairs)
    return tuple(rows)


def _pointwise(d: int, gadgets: dict, width: Optional[int] = None,
               stacked: Optional[dict] = None) -> Fnn:
    """``width`` inputs (default 2d, the (h, x) of a layer) -> one output
    per key of ``gadgets`` and ``stacked``, all below d, in ascending order.
    Output j is ``gadgets[j]``, a one-output network reading input j or a
    pair (network, columns) whose first layer reads those inputs in any
    order; a gadget shallower than the deepest one is copied on identity
    nodes after its end.  ``stacked`` maps more outputs to pairs (network,
    operands): the network reads the outputs of those operands in the layer
    after their gadgets end, so it shares their nodes; an operand without a
    gadget is its input, carried there on copies, and no stacked output is
    an operand.  As a layer's ``net`` it computes exactly those outputs and
    the layer passes the others through."""
    width = 2 * d if width is None else width
    stacked = stacked or {}
    read = {o for _, operands in stacked.values() for o in operands}
    if not (positions := {*gadgets, *stacked, *read}) <= set(range(d)):
        raise DimensionError(f"tracked positions {sorted(positions)} outside dimension {d}")
    if not stacked.keys().isdisjoint({*gadgets, *read}):
        raise DimensionError(f"stacked outputs {sorted(stacked)} are also gadgets or operands")
    # the columns each output reads next: first its gadget's (a stacked
    # one's are its operands' outputs), later the nodes of the previous
    # layer, which ascend
    slots = [(j,) for j in range(d)]
    nets = {}
    for j, gadget in gadgets.items():
        if isinstance(gadget, tuple):
            gadget, slots[j] = gadget
            if not all(0 <= c < width for c in slots[j]):
                raise DimensionError(f"gadget columns {slots[j]} outside {width} inputs")
        nets[j] = gadget
    # the depth at which each stacked output starts, and the depth up to
    # which each of its operands without a gadget is carried
    start, carried = {}, {}
    for j, (net, operands) in stacked.items():
        start[j] = max((len(nets[o].layers) for o in operands if o in nets), default=0)
        for o in operands:
            if o not in nets:
                carried[o] = max(carried.get(o, 0), start[j])
    nets.update((j, net) for j, (net, _) in stacked.items())
    layers = []
    for depth in range(max((start.get(j, 0) + len(net.layers) for j, net in nets.items()),
                           default=1)):
        for j, begins in start.items():
            if begins == depth:
                slots[j] = tuple(slots[o][0] for o in stacked[j][1])
        nodes: list[FnnNode] = []
        copies = _copies(width)
        for j in sorted({*nets, *carried}):
            first, cols, net = len(nodes), slots[j], nets.get(j)
            at = depth - start.get(j, 0)
            if at < 0 or depth >= carried.get(j, depth + 1):
                continue  # a stacked output not begun, or an operand no longer read
            if net is None or at >= len(net.layers):
                nodes.append(copies[cols[0]])
            elif at == 0 and any(a >= b for a, b in zip(cols, cols[1:])):  # Row.of sorts
                nodes += [FnnNode(Row.of(width, ((cols[k], w) for k, w in n.row.terms)),
                                  n.bias, n.activation)
                          for n in net.layers[0].nodes]
            else:
                nodes += [FnnNode(Row(tuple((cols[k], w) for k, w in n.row.terms), width),
                                  n.bias, n.activation)
                          for n in net.layers[at].nodes]
            slots[j] = tuple(range(first, len(nodes)))
        layers.append(FnnLayer(tuple(nodes)))
        width = len(nodes)
    return Fnn(tuple(layers))


# ---------------------------------------------------------------------------
# Previous-bit history (the binary expansion of h = h/4 + x)
#
# Unlike until, X still relies on truncation: h keeps every earlier input
# as a base-4 digit, and only a fixed-point format forgets the digits below
# its fractional bits.  A diagonal layer has no exact one-step delay with
# bounded state, so in exact mode every word keeps its own key:
# ``G (p -> X q) & G (q -> X !p) & F (p & X X p)`` has a frontier of
# 4**8 = 65,536 keys at bound 8.

_QUARTER = Fraction(1, 4)

# The previous-bit decoder on the new history value h and the value x that
# it added, one relu layer per stage.  s = h - x is the truncated
# h_{t-1}/4: it lies in [0, 1/12] after a 0 and in [1/4, 1/3] after a 1,
# seed h0 = 1 included, since h <= 4/3.  The first stage, relu(2s - 1/4),
# is 0 after a 0 and at least 1/4 after a 1; two doublings lift that to at
# least 1, and the clamp to 1 reads the bit.  Every weight is within +-2,
# so the pipeline is exact in every mode with at least 2 fractional bits
# and room for 8/3.  ``_decoder`` writes the first stage; these are the
# other three.
_DECODER_TAIL = tuple(
    linear_fnn(matrix, bias, RELU).layers[0]
    for matrix, bias in (
        ([[2]], [0]),
        ([[2], [2]], [0, -1]),     # clamp to 1: relu(2b) - relu(2b - 1)
        ([[1, -1]], [0]),
    )
)


def _decoder(h: int, d: int, x: list, one: Optional[int] = None) -> tuple[Fnn, tuple]:
    """The gadget that decodes the history ``h = h/4 + x`` of coordinate
    ``h``, for x the (column, weight) terms over the layer's input, and the
    columns its first layer reads.  That layer is one node, ``relu(2h - 2x
    - 1/4)``, with the weight of the constant column ``one`` folded into its
    bias, so that on an LTL value x, one coordinate read as it is or
    negated, each partial sum stays in [-2.25, 2.42]."""
    terms = Row.of(d, x).terms
    const = sum((w for c, w in terms if c == one), F0)
    read = [(c, w) for c, w in terms if c != one]
    first = linear_fnn([[2, *(-2 * w for _, w in read)]], [-_QUARTER - 2 * const], RELU)
    return Fnn(first.layers + _DECODER_TAIL), (h, *(d + c for c, _ in read))


def _layer(h0: Vector, gate, inc: AffineMap, gadgets: dict,
           stacked: Optional[dict] = None) -> SsmLayer:
    """The layer whose ``net`` is ``_pointwise`` of ``gadgets`` and
    ``stacked`` and that passes every other coordinate through, with no
    copy node stored; it carries each coordinate whose gate and inc only
    copy the input (``SsmLayer.updates``)."""
    d = len(h0)
    computes = tuple(sorted([*gadgets, *(stacked or ())]))
    net = _pointwise(d, gadgets, stacked=stacked) if computes else None
    return SsmLayer(h0, gate, inc, net, computes)


def _prev_bit(d: int, positions: Iterable[int]) -> tuple:
    """The gate, inc and gadgets of ``prev_bit_layer``."""
    tracked = sorted(set(positions))
    empty, eye, zeros = carried(d)
    gate = TimeInvariantGate(_sparse(empty, [(p, p, _QUARTER) for p in tracked]))
    return gate, AffineMap(eye, zeros), {p: _decoder(p, d, [(p, F1)]) for p in tracked}


def prev_bit_layer(d: int, positions: Iterable[int]) -> SsmLayer:
    """Layer whose output on each tracked 0/1 dimension is that dimension's
    previous input (0 at the first position); passthrough elsewhere.  The
    delay is exact in every mode, but in exact mode the hidden value keeps
    the whole history (see above)."""
    return _layer(carried(d)[2], *_prev_bit(d, positions))


# ---------------------------------------------------------------------------
# Model metadata shared by the three compilers

def _finish(model: SsmModel, *source: tuple[str, str]) -> SsmModel:
    """``model`` carrying the ``source`` metadata and its gate classes."""
    classes = classify_gates(model)
    names = [name for name, member in (("time_invariant", classes.time_invariant),
                                       ("diagonal", classes.diagonal)) if member]
    return SsmModel(model.alphabet, model.emb, model.layers, model.out,
                    (*source, ("gate_classes", ",".join(names) or "none")))


# ---------------------------------------------------------------------------
# LTL_f -> SSM (models are checked on reversed words)

class LtlLayout(Value):
    """Dimension bookkeeping of a compiled formula.  An atom has DAG height
    0 and reads its proposition's embedding column.  ``tt`` (``a | !a`` for
    an atom a) and ``ff`` (``a & !a``) have height 0 and a negation its
    operand's, and none of them takes a coordinate (``_value``).
    ``levels`` holds the other subformulas by height 1, 2, ..., each in
    topological order, and they take the coordinates after the
    propositions in that order; ``subformulas`` holds them and the atoms.
    The gate of each until other than an ``F``, in the same order, takes
    the next coordinate (``gate_of``), and the constant 1 the last."""

    __slots__ = _fields = ("props", "subformulas", "levels", "dim_of", "gate_of", "const_dim",
                           "dimension")

    def __init__(self, props: tuple[str, ...], subformulas: tuple[LtlFormula, ...],
                 levels: tuple[tuple[LtlFormula, ...], ...],
                 dim_of: tuple[tuple[LtlFormula, int], ...],
                 gate_of: tuple[tuple[Until, int], ...], const_dim: int, dimension: int):
        self._assign(props, subformulas, levels, dim_of, gate_of, const_dim, dimension)

    def dim(self, sub: LtlFormula) -> int:
        return dict(self.dim_of)[sub]


def _is_tt(sub: LtlFormula) -> bool:
    """Whether ``sub`` is ``a | !a`` for an atom a, the parser's ``tt``."""
    return (isinstance(sub, Or) and isinstance(sub.left, Atom) and isinstance(sub.right, Not)
            and sub.right.sub == sub.left)


def _is_ff(sub: LtlFormula) -> bool:
    """Whether ``sub`` is ``a & !a`` for an atom a, the parser's ``ff``."""
    return (isinstance(sub, And) and isinstance(sub.left, Atom) and isinstance(sub.right, Not)
            and sub.right.sub == sub.left)


def _is_f(sub: LtlFormula) -> bool:
    """Whether ``sub`` is ``tt U psi``, the parser's ``F psi``."""
    return isinstance(sub, Until) and _is_tt(sub.left)


def ltl_layout(phi: LtlFormula) -> LtlLayout:
    every = subformulas_topo(phi)
    props = tuple(sorted(sub.name for sub in every if isinstance(sub, Atom)))
    height: dict[LtlFormula, int] = {}
    for sub in every:  # children come first
        if isinstance(sub, Atom) or _is_tt(sub) or _is_ff(sub):
            height[sub] = 0
        elif isinstance(sub, Not):
            height[sub] = height[sub.sub]
        else:
            height[sub] = 1 + max(height[c] for c in children(sub))
    subs = tuple(sub for sub in every
                 if isinstance(sub, Atom) or height[sub] and not isinstance(sub, Not))
    levels = [[sub for sub in subs if height[sub] == k] for k in range(1, height[phi] + 1)]
    column = {sub: props.index(sub.name) for sub in subs if isinstance(sub, Atom)}
    for level in levels:
        for sub in level:  # the atoms fill columns 0 .. |P| - 1
            column[sub] = len(column)
    untils = [sub for level in levels for sub in level
              if isinstance(sub, Until) and not _is_f(sub)]
    gate = {sub: len(column) + k for k, sub in enumerate(untils)}
    const_dim = len(column) + len(gate)
    return LtlLayout(
        props=props,
        subformulas=subs,
        levels=tuple(map(tuple, levels)),
        dim_of=tuple((sub, column[sub]) for sub in subs),
        gate_of=tuple(gate.items()),
        const_dim=const_dim,
        dimension=const_dim + 1,
    )


# The most atoms ``compile_ltl`` accepts: the alphabet and the embedding
# table hold every letter of 2^P, and 16 atoms already take seconds and
# hundreds of MiB to compile.
MAX_ATOMS = 16

# The one-input gadget that the logic compiler's phi applies pointwise
_RELU = linear_fnn([[1]], activation=RELU)


def _value(sub: LtlFormula, dim: dict, one: int) -> list[tuple[int, Fraction]]:
    """The 0/1 value of ``sub`` as (column, weight) terms over the
    coordinates, ``one`` the constant one's, a column possibly repeated:
    an affine form, which any gate or inc row may read.  ``!psi`` is ``1 -
    psi``, ``tt`` the constant and ``ff`` no terms at all.  ``l | r`` and
    ``F psi`` store their negations, ``!l & !r`` and ``G !psi``, and read
    their own coordinate negated; any other subformula reads its own."""
    if isinstance(sub, Not):
        return [(one, F1), *((c, -w) for c, w in _value(sub.sub, dim, one))]
    if _is_tt(sub):
        return [(one, F1)]
    if _is_ff(sub):
        return []
    if isinstance(sub, Or) or _is_f(sub):
        return [(one, F1), (dim[sub], -F1)]
    return [(dim[sub], F1)]


def _ltl_entry(sub: LtlFormula, dim: dict, gate: dict, one: int):
    """What the layer of a subformula with a coordinate does to it: its
    start value h0, the (column, weight) terms of its gate row (none for
    the zero gate) and of its inc row, and the gadget phi applies to it
    (``None`` for the projection).  Every other coordinate passes through.

    ``l & r`` is ``relu(l + r - 1)`` on one relu node, and ``l | r`` stores
    ``!l & !r``.  Until is Boolean: ``h = g * h + r`` under the diagonal
    gate ``g = l & !r``, which is the coordinate ``gate[sub]`` of the
    layer's input.  A letter keeps the value while l holds and r does not,
    sets it to 1 where r holds and clears it elsewhere, so h is 0 or 1 in
    every mode and needs no clamp.  ``F psi`` stores ``G !psi``, which is
    ``h = (1 - psi) * h`` from ``h0 = 1``: its gate is affine in psi, so it
    takes no gate coordinate and no inc term.  ``X psi`` runs the history
    ``h = h/4 + psi`` under a constant gate of 1/4, which the caller sets,
    and decodes psi's previous value from it (``_decoder``)."""
    if isinstance(sub, Next):
        psi = _value(sub.sub, dim, one)
        return F0, [], psi, _decoder(dim[sub], one + 1, psi, one)
    if _is_f(sub):
        return F1, _value(Not(sub.right), dim, one), [], None
    if isinstance(sub, Until):
        return F0, [(gate[sub], F1)], _value(sub.right, dim, one), None
    if isinstance(sub, Or):
        return _ltl_entry(And(Not(sub.left), Not(sub.right)), dim, gate, one)
    return F0, [], [*_value(sub.left, dim, one), *_value(sub.right, dim, one), (one, -F1)], _RELU


def compile_ltl(phi: LtlFormula) -> SsmModel:
    """Model over 2^P that accepts a word iff its reversal is a model of the
    formula.  Atoms read their propositions' embedding columns and tt the
    constant coordinate; ff and every negation read affine forms of those
    (``_value``) and take no coordinate.  Every other subformula of one DAG
    height is computed in one layer, an X included: its history runs under
    a constant gate of 1/4 (a time-invariant row, or an offset beside the
    untils' rows) and its level's phi decodes it, so the model has one
    layer per DAG height.  ``F psi`` is one coordinate, gated by its
    operand, and ``G psi``, the parser's ``!F!psi``, reads the coordinate
    of ``F !psi`` as it is.  The gate of any other until of height 1 is an
    embedding column; that of a higher until is one relu node over the
    terms of ``l - r``, stacked on the outputs of the layer below its level.
    Each layer stores the recurrence of its own level's coordinates and
    carries the others (``SsmLayer.updates``).  The compiled model is exact
    under the 6-bit profile, and an X-free one under ``fx:3:0``, which its
    ``min_bits`` and ``frac_bits`` metadata name.  Every coordinate's output
    is 0 or 1 wherever the format holds 1, so ``out`` is one identity node
    over the formula's terms.  A formula over more than ``MAX_ATOMS`` atoms
    is a ``ResourceLimitError``."""
    layout = ltl_layout(phi)
    count = len(layout.props)
    if count > MAX_ATOMS:
        raise ResourceLimitError(
            f"formula has {count} atoms; compile_ltl enumerates all 2^{count} letters "
            f"and accepts at most {MAX_ATOMS} atoms")
    d, one = layout.dimension, layout.const_dim
    dim, gate = dict(layout.dim_of), dict(layout.gate_of)
    empty, eye, zero_off = carried(d)

    # (h0, gate, inc, gadgets, stacked) of each layer; a level stacks its
    # untils' gates on the outputs of the layer below before any layer is built
    stages: list[tuple] = []
    for level in layout.levels:
        h0, gate_terms, inc_terms, gadgets, nexts = list(zero_off), [], [], {}, set()
        for sub in level:
            i = dim[sub]
            h0[i], gate_row, terms, gadget = _ltl_entry(sub, dim, gate, one)
            gate_terms += [(i, c, w) for c, w in gate_row]
            if sub in gate and stages:  # at height 1 the gate is a column of the letter
                g = Row.of(d, _ltl_entry(And(sub.left, Not(sub.right)), dim, gate, one)[2]).terms
                stages[-1][4][gate[sub]] = (linear_fnn([[w for _, w in g]], activation=RELU),
                                            tuple(c for c, _ in g))
            inc_terms += [(i, c, w) for c, w in terms]
            if gadget is not None:
                gadgets[i] = gadget
            if isinstance(sub, Next):
                nexts.add(i)
        # an X's gate is the constant 1/4: a row term in a time-invariant
        # gate, an offset beside the untils' input-dependent rows
        if gate_terms:
            offset = tuple(_QUARTER if j in nexts else z for j, z in enumerate(zero_off))
            layer_gate = DiagonalAffineGate(_sparse(empty, gate_terms), offset)
        else:
            layer_gate = TimeInvariantGate(_sparse(empty, [(i, i, _QUARTER) for i in nexts]))
        stages.append((tuple(h0), layer_gate, AffineMap(_sparse(eye, inc_terms), zero_off),
                       gadgets, {}))

    out = Fnn((FnnLayer((FnnNode(Row.of(d, _value(phi, dim, one)), F0, IDENTITY),)),))
    letters = ltl_mod.letters(layout.props)
    alphabet = tuple(set_symbol(l) for l in letters)
    letter_gates = [(gate[sub], And(sub.left, Not(sub.right)))
                    for level in layout.levels[:1] for sub in level if sub in gate]
    emb = []
    for letter in letters:
        row = [F1 if p in letter else F0 for p in layout.props] + [F0] * (d - count - 1) + [F1]
        for c, opens in letter_gates:
            if ltl_mod.holds(opens, (letter,), 1):
                row[c] = F1
        emb.append(tuple(row))
    layers = tuple(_layer(*stage) for stage in stages)
    # the previous-bit decoder needs 2 fractional bits and room for 8/3,
    # which the 6-bit profile fx:6:3 gives; every value of an X-free model
    # is an integer in [-2, 2], partial sums included (``!p & !q`` runs -1,
    # -2, -1), which fx:3:0 holds
    if any(isinstance(sub, Next) for sub in layout.subformulas):
        bits = (("min_bits", "6"),)
    else:
        bits = (("min_bits", "3"), ("frac_bits", "0"))
    return _finish(SsmModel(alphabet=alphabet, emb=tuple(emb), layers=layers, out=out),
                   ("source", "ltl"), ("formula", ltl_mod.pretty(phi)), *bits)


# ---------------------------------------------------------------------------
# Minsky machines

ACTIONS = ("inc1", "inc2", "dec1", "dec2", "ztest1", "ztest2")
_ACTION_INDEX = {a: i for i, a in enumerate(ACTIONS)}
# the counter an action reads or writes, and what it adds to that counter
_EFFECT = {"inc1": (0, 1), "inc2": (1, 1), "dec1": (0, -1), "dec2": (1, -1),
           "ztest1": (0, 0), "ztest2": (1, 0)}
# the word length that a compiled machine's ``min_bits`` covers
MINSKY_WORD_BOUND = 64


class MinskyMachine(Value):
    __slots__ = ("states", "start", "final", "transitions", "_moves")  # ``outgoing`` reads _moves
    _fields = __slots__[:4]

    def __init__(self, states: tuple[str, ...], start: str, final: str, transitions: frozenset):
        self._assign(states, start, final, transitions)
        known = set(self.states)
        if len(known) != len(self.states):
            raise InvalidMachineError("duplicate state names")
        if self.start not in known or self.final not in known:
            raise InvalidMachineError("start/final state not among the states")
        moves: dict[str, list[tuple[str, str]]] = {}
        for q, a, q2 in self.transitions:
            if q not in known or q2 not in known:
                raise InvalidMachineError(f"transition ({q}, {a}, {q2}) uses unknown states")
            if a not in _ACTION_INDEX:
                raise InvalidMachineError(f"unknown action {a!r}")
            moves.setdefault(q, []).append((q2, a))
        # determinism rule: a state either halts, increments one counter, or
        # branches on exactly one counter with a dec/ztest pair
        for q, outs in moves.items():
            outs.sort(key=lambda move: _ACTION_INDEX[move[1]])
            shape = [a for _, a in outs]
            if shape not in (["inc1"], ["inc2"], ["dec1", "ztest1"], ["dec2", "ztest2"]):
                raise InvalidMachineError(
                    f"state {q!r} must have one inc or a dec/ztest pair on one counter"
                )
        object.__setattr__(self, "_moves", {q: tuple(outs) for q, outs in moves.items()})

    def outgoing(self, q: str) -> tuple[tuple[str, str], ...]:
        """The moves out of ``q`` in action order, each the (target, action)
        step that a run through it records."""
        return self._moves.get(q, ())


class MinskyRun(Value):
    """A run as the sequence of (entered state, action) pairs, the initial
    state being implicit."""

    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "steps", steps)

    def counters(self) -> list[tuple[int, int]]:
        c = [0, 0]
        trajectory = []
        for _, a in self.steps:
            i, delta = _EFFECT[a]
            c[i] += delta
            trajectory.append((c[0], c[1]))
        return trajectory


def minsky_oracle(machine: MinskyMachine, max_steps: int) -> Optional[MinskyRun]:
    """Deterministic simulation from (q0, 0, 0); the machine structure admits
    exactly one applicable transition per configuration.  The run is kept
    step by step, so the simulation is held to ``ResourceLimits.from_env()``:
    past ``max_states`` steps, the memory ceiling or the time ceiling, it
    raises ``ResourceLimitError``."""
    if max_steps < 0:
        raise PreconditionError("max_steps must be >= 0")
    limits, started = ResourceLimits.from_env(), time.monotonic()
    q, c = machine.start, [0, 0]
    steps: list[tuple[str, str]] = []
    for n in range(max_steps + 1):
        if n > limits.max_states or n % 4096 == 0:
            limits.check(n, started)
        if q == machine.final:
            return MinskyRun(tuple(steps))
        outs = machine.outgoing(q)
        if not outs:
            return None
        move = outs[0]
        i, delta = _EFFECT[move[1]]
        if c[i] + delta < 0:  # a dec on an empty counter takes the ztest move
            move = outs[1]
        else:
            c[i] += delta
        steps.append(move)  # the run shares the table's tuple: 8 bytes a step
        q = move[0]
    return None


def run_encode(run: MinskyRun) -> list[str]:
    """The word spelling a run: one (state, action) letter per step."""
    return [pair_symbol(q, a) for q, a in run.steps]


def minsky_alphabet(machine: MinskyMachine) -> list[tuple[str, str]]:
    """(target state, action) pairs occurring in the transition relation, in
    canonical (state order, action order)."""
    state_idx = {q: i for i, q in enumerate(machine.states)}
    pairs = {(q2, a) for (_, a, q2) in machine.transitions}
    return sorted(pairs, key=lambda p: (state_idx[p[0]], _ACTION_INDEX[p[1]]))


def validate_word(machine: MinskyMachine, symbols: Sequence[str]) -> bool:
    """True iff the word spells a valid run from the start state that ends in
    the final state (the independent judge for the compiled model)."""
    q, c = machine.start, [0, 0]
    for symbol in symbols:
        q2, a = symbol_pair(symbol)
        if (q, a, q2) not in machine.transitions:
            return False
        i, delta = _EFFECT[a]
        # a dec must find its counter positive, and a ztest find it zero
        if c[i] + delta < 0 or (delta == 0 and c[i] != 0):
            return False
        c[i] += delta
        q = q2
    return q == machine.final and len(symbols) > 0


def parse_minsky(text: str) -> MinskyMachine:
    """Line format: `start: q` / `final: q` headers, then `state action state`
    triples; `#` starts a comment.  States are ordered by first appearance."""
    start = final = None
    states: dict[str, None] = {}
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start:"):
            start = line.split(":", 1)[1].strip()
            states[start] = None
        elif line.startswith("final:"):
            final = line.split(":", 1)[1].strip()
            states[final] = None
        else:
            parts = line.split()
            if len(parts) != 3:
                raise InputFormatError(f"line {lineno}: expected `state action state`")
            q, a, q2 = parts
            states.update(dict.fromkeys((q, q2)))
            transitions.append((q, a, q2))
    if start is None or final is None:
        raise InputFormatError("missing start:/final: header")
    try:
        return MinskyMachine(tuple(states), start, final, frozenset(transitions))
    except InvalidMachineError as exc:
        raise InputFormatError(str(exc)) from None


def minsky_min_bits(max_len: int) -> int:
    """Fixed-point width sufficient for words up to max_len: three fractional
    bits for the state history plus integer bits covering the violation sum,
    which grows at most 5 per position."""
    return 3 + 1 + max(2, (5 * max_len + 1).bit_length())


def compile_minsky(machine: MinskyMachine) -> SsmModel:
    """Model accepting exactly the words that spell accepting runs.

    Dimension layout: current-state block, previous-state block (recovered
    from the quarter-shift history), six action flags, two counters, one
    violation accumulator.  Layer 1 runs the quarter-shift history on the
    previous-state block, seeded with the start state, and sums the
    counters; its phi decodes the previous-state block with the
    previous-bit decoder.  Layer 2 computes only the violation coordinate,
    the transition lookup plus the four counter checks, from the decoded
    and current states, the action flags and the counters, and passes the
    rest through.  Layer 3 sums the violations, and ``out`` is one node,
    ``relu(final - violations)``: 1 exactly where the sum is 0 and the run
    ends in the final state.  Gates are constant diagonal masks, so the
    model is both time-invariant and diagonal."""
    n = len(machine.states)
    d = 2 * n + 9
    state_idx = {q: i for i, q in enumerate(machine.states)}
    act_base = 2 * n
    c_dims = (2 * n + 6, 2 * n + 7)
    chk = 2 * n + 8

    pairs = minsky_alphabet(machine)
    alphabet = tuple(pair_symbol(q, a) for q, a in pairs)
    emb = []
    for q, a in pairs:
        vec = [F0] * d
        vec[state_idx[q]] = F1
        vec[n + state_idx[q]] = F1
        vec[act_base + _ACTION_INDEX[a]] = F1
        i, delta = _EFFECT[a]
        vec[c_dims[i]] = delta * F1
        emb.append(tuple(vec))

    # layer 1: the quarter-shift history beside the counter sums, both
    # constant diagonal gates
    gate, inc, decoders = _prev_bit(d, range(n, 2 * n))
    gate = TimeInvariantGate(_sparse(gate.rows, [(c, c, F1) for c in c_dims]))
    h0 = tuple(F1 if j == n + state_idx[machine.start] else F0 for j in range(d))
    # layer 2: the violations of the step, on the layer's input
    accepted = {(state_idx[q], state_idx[q2], _ACTION_INDEX[a])
                for (q, a, q2) in machine.transitions}
    parts = [(gadget_lookup((n, n, 6), accepted),
              (*range(n, 2 * n), *range(n), *range(act_base, act_base + 6)))]
    for action, test in (("dec1", gadget_geq0()), ("dec2", gadget_geq0()),
                         ("ztest1", gadget_eq(0)), ("ztest2", gadget_eq(0))):
        # 1 iff the action is taken while its counter test fails
        check = _pointwise(2, {0: identity_fnn(1), 1: test}, width=2)
        parts.append((compose(gadget_implies(), check),
                      (act_base + _ACTION_INDEX[action], c_dims[_EFFECT[action][0]])))
    violations = compose(linear_fnn([[1] * len(parts)]),
                         _pointwise(len(parts), dict(enumerate(parts)), width=chk))
    # every layer's inc is the identity; layer 3 sums the violations
    empty, _, zero_off = carried(d)
    layers = (_layer(h0, gate, inc, decoders),
              _layer(zero_off, TimeInvariantGate(empty), inc,
                     {chk: (violations, tuple(range(chk)))}),
              _layer(zero_off, TimeInvariantGate(_mask(chk, chk, d)), inc, {}))
    out = linear_fnn([Row.of(d, ((state_idx[machine.final], F1), (chk, -F1)))], activation=RELU)
    return _finish(SsmModel(alphabet=alphabet, emb=tuple(emb), layers=layers, out=out),
                   ("source", "minsky"), ("min_bits", str(minsky_min_bits(MINSKY_WORD_BOUND))),
                   ("min_bits_word_bound", str(MINSKY_WORD_BOUND)))


# ---------------------------------------------------------------------------
# 0-1 integer programming

class IlpInstance(Value):
    __slots__ = _fields = ("matrix", "target")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], target: tuple[int, ...]):
        self._assign(matrix, target)
        d = len(self.matrix)
        if d == 0:
            raise DimensionError("empty instance")
        if any(len(row) != d for row in self.matrix) or len(self.target) != d:
            raise DimensionError("matrix must be square and match the target length")
        if any(w < 0 for row in self.matrix for w in row) or any(b < 0 for b in self.target):
            raise DimensionError("entries must be natural numbers")

    @property
    def dim(self) -> int:
        return len(self.matrix)


def ilp_oracle(inst: IlpInstance) -> Optional[tuple[int, ...]]:
    """Exhaustive search over {0,1}^d in binary-counting order, held to
    ``ResourceLimits.from_env()``: past ``max_states`` candidates, the
    memory ceiling or the time ceiling, it raises ``ResourceLimitError``."""
    d = inst.dim
    limits, started = ResourceLimits.from_env(), time.monotonic()
    for m in range(1 << d):
        if m > limits.max_states or m % 4096 == 0:
            limits.check(m, started)
        v = tuple((m >> i) & 1 for i in range(d))
        if all(
            sum(inst.matrix[r][c] * v[c] for c in range(d)) == inst.target[r]
            for r in range(d)
        ):
            return v
    return None


def ilp_alphabet(d: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(d))


def compile_ilp(inst: IlpInstance) -> SsmModel:
    """Single-layer model over {1..d}: the first half of the state accumulates
    A v, the second half counts index occurrences.  Letter i embeds as
    column i of A followed by the unit vector e_i, and the layer adds its
    input to its state under the identity gate and inc, so each coordinate's
    update is one addition.  ``out`` is one relu layer, ``relu(s_r - b_r)``
    and ``relu(b_r - s_r)`` for each row r of A v and ``relu(n_i - 1)`` for
    each count, then the node ``relu(1 -`` the sum of those ``)``: 1 exactly
    where every row meets its target and no index repeats.  After the bias
    every term is non-positive, so a saturated partial sum can only push the
    output toward 0."""
    d = inst.dim
    dd = 2 * d
    weights = {w: Fraction(w) for row in inst.matrix for w in row}
    unit = tuple(tuple(F1 if j == i else F0 for j in range(d)) for i in range(d))
    emb = tuple(tuple(weights[row[i]] for row in inst.matrix) + unit[i] for i in range(d))
    _, eye, zeros = carried(dd)
    layer = _layer(zeros, TimeInvariantGate(eye), AffineMap(eye, zeros), {})
    # relu(s_r - b_r) and relu(b_r - s_r) for each row, relu(n_i - 1) for each count
    misses = [(Row(((r, w),), dd), -w * b) for r, b in enumerate(inst.target) for w in (F1, -F1)]
    misses += [(Row(((d + i, F1),), dd), -F1) for i in range(d)]
    out = compose(linear_fnn([[-1] * 3 * d], [1], RELU), linear_fnn(*zip(*misses), RELU))
    biggest = max(max(sum(row) for row in inst.matrix), max(inst.target), d, 1)
    return _finish(SsmModel(alphabet=ilp_alphabet(d), emb=emb, layers=(layer,), out=out),
                   ("source", "ilp"), ("min_bits", str(biggest.bit_length() + 2)))


def ilp_decode_word(inst: IlpInstance, word: Sequence[str]) -> Optional[tuple[int, ...]]:
    """The 0/1 vector a duplicate-free word over ``ilp_alphabet`` encodes,
    None on a repeated or unknown symbol."""
    index = {symbol: i for i, symbol in enumerate(ilp_alphabet(inst.dim))}
    v = [0] * inst.dim
    for symbol in word:
        i = index.get(symbol)
        if i is None or v[i]:
            return None
        v[i] = 1
    return tuple(v)


_INT_LINE = re.compile(r"-?\d+")


def parse_ilp(text: str) -> IlpInstance:
    """Decimal file: dimension, then d matrix rows, then the target row."""
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    lines = [l for l in lines if l]
    if not lines:
        raise InputFormatError("empty instance file")
    try:
        d = int(lines[0])
    except ValueError:
        raise InputFormatError("first line must be the dimension") from None
    if len(lines) != d + 2:
        raise InputFormatError(f"expected {d} matrix rows plus a target row")
    rows = []
    for line in lines[1 : d + 1]:
        row = tuple(int(t) for t in _INT_LINE.findall(line))
        if len(row) != d:
            raise InputFormatError(f"matrix row {line!r} must have {d} entries")
        rows.append(row)
    target = tuple(int(t) for t in _INT_LINE.findall(lines[d + 1]))
    if len(target) != d:
        raise InputFormatError("target row length mismatch")
    try:
        return IlpInstance(tuple(rows), target)
    except DimensionError as exc:
        raise InputFormatError(str(exc)) from None
