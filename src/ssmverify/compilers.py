"""Model-emitting compilers: temporal-logic formulas, two-counter machines
and 0-1 integer programs all reduce to SSM satisfiability.

Each compiler ships with an independent brute-force oracle over its source
language so compiled models can be checked differentially.  The shared
machinery lives up front: the sparse matrix helpers, ``_pointwise``,
the one place that puts gadgets of any depth on chosen input columns, and
the previous-bit layer that smuggles one step of history through the
recurrence ``h = h/4 + x``.

The LTL compiler is levelled.  An atom has DAG height 0 and reads its
proposition's embedding column.  Every other subformula has its own
coordinate, and the subformulas of one height are computed together in
one layer: each reads only lower heights, and each layer update is per
coordinate, so their inc rows, until gates and gadgets merge.  A level
that holds an ``X`` gets one previous-bit layer after it, for all of its
``X`` coordinates.  The layer count is thus the formula's height plus the
number of levels with an ``X``.

Until is Boolean.  ``l U r`` runs ``h = g * h + r`` under the diagonal gate
``g = l & !r``, so h is 0 or 1 in every arithmetic mode and a search's keys
do not grow with the format.  A gate is affine in its layer's input, so
``relu(l - r)``, which is ``l & !r`` on 0/1 values, is one more coordinate
of that input, after the subformulas' and before the constant.  For an
until of height 1 it is an embedding column, a Boolean of the letter;
otherwise the phi of the layer just below the until's level (the level
layer, or the previous-bit layer when that level holds an ``X``) stacks
it, one relu node, on that layer's outputs for l and r.  No layer is
added.
"""

from __future__ import annotations

import re
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
    RELU,
    compose,
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
    classify_gates,
)
from .words import pair_symbol, set_symbol, symbol_pair

F0, F1 = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# Matrix helpers (0-indexed throughout)

def _empty(d: int) -> tuple[Row, ...]:
    """The rows of the d x d zero matrix, one shared row object."""
    return (Row((), d),) * d


def _eye(d: int) -> tuple[Row, ...]:
    return tuple(Row(((r, F1),), d) for r in range(d))


def _mask(i: int, j: int, d: int) -> tuple[Row, ...]:
    """The rows of the identity restricted to the diagonal window i..j."""
    return _sparse(_empty(d), [(r, r, F1) for r in range(i, j + 1)])


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


def _zeros(d: int) -> Vector:
    return (F0,) * d


def _pointwise(d: int, gadgets: dict, width: Optional[int] = None,
               compact: bool = False, stacked: Optional[dict] = None) -> Fnn:
    """``width`` inputs (default 2d, the (h, x) of a layer) -> d outputs:
    output j is ``gadgets[j]``, a one-output network reading input j or a
    pair (network, columns) whose first layer reads those inputs in any
    order; every other output j copies input j on identity nodes, one per
    layer, as does a gadget shallower than the deepest one after its end.
    Nodes keep output order; with no gadget this is the projection.  With
    ``compact`` only the gadgets' outputs are built, in ascending order:
    the ``net`` of a layer that computes those coordinates and passes the
    others through (it needs at least one gadget).  There ``stacked`` maps
    more outputs to pairs (network, outputs): the network reads those
    outputs in the layer after their gadgets end, so it shares their nodes;
    an output without a gadget is its input, carried there on copies."""
    width = 2 * d if width is None else width
    stacked = stacked or {}
    if any(not 0 <= j < d for j in [*gadgets, *stacked]):
        raise DimensionError(
            f"tracked positions {sorted([*gadgets, *stacked])} outside dimension {d}")
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
        for j in sorted({*nets, *carried}) if compact else range(d):
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
# Previous-bit layer (history in the binary expansion of h = h/4 + x)
#
# Unlike until, X still relies on truncation: h keeps every earlier input
# as a base-4 digit, and only a fixed-point format forgets the digits below
# its fractional bits.  A diagonal layer has no exact one-step delay with
# bounded state, so in exact mode every word keeps its own key:
# ``G (p -> X q) & G (q -> X !p) & F (p & X X p)`` has a frontier of
# 4**8 = 65,536 keys at bound 8.

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_EIGHTH = Fraction(1, 8)


# The previous-bit decoder on one recurrence value r, one relu layer per
# stage.  The four-interval rule: r lies in [0,1/8], [1/4,1/2], [1,9/8] or
# [5/4,3/2], and the previous bit is 1 exactly on the second and fourth
# interval.  All weights are within +-2 and the pipeline is exact under any
# fixed format with at least 3 fractional bits and 6 total, so the slope-8
# ramps of the naive piecewise-linear decoder never need to materialise.
_PREV_BIT_DECODER = Fnn(tuple(
    linear_fnn(matrix, bias, RELU).layers[0]
    for matrix, bias in (
        ([[1], [1], [1]], [-_HALF, -1, 0]),  # relu(r - 1/2), relu(r - 1), r
        ([[2, -2, 0], [0, 0, 1]], [0, 0]),   # the current bit, r
        ([[-1, 1]], [-_EIGHTH]),             # r - bit - 1/8
        *[([[2]], [0])] * 3,                 # scale the 1/8-spaced remainder up to >= 1
        ([[1], [1]], [0, -1]),               # clamp to 1: relu(s) - relu(s - 1)
        ([[1, -1]], [0]),
    )
))


def _layer(h0: Vector, gate, inc: AffineMap, gadgets: dict,
           stacked: Optional[dict] = None) -> SsmLayer:
    """The layer whose phi applies ``gadgets`` and ``stacked`` as
    ``_pointwise`` does and passes every other coordinate through, with no
    copy node stored."""
    computes = tuple(sorted([*gadgets, *(stacked or ())]))
    net = _pointwise(len(h0), gadgets, compact=True, stacked=stacked) if computes else None
    return SsmLayer(h0, gate, inc, net, computes)


def _prev_bit(d: int, positions: Iterable[int]) -> tuple:
    """The gate, inc and gadgets of ``prev_bit_layer``."""
    tracked = sorted(set(positions))
    gate = TimeInvariantGate(_sparse(_empty(d), [(p, p, _QUARTER) for p in tracked]))
    return gate, AffineMap(_eye(d), _zeros(d)), dict.fromkeys(tracked, _PREV_BIT_DECODER)


def prev_bit_layer(d: int, positions: Iterable[int]) -> SsmLayer:
    """Layer whose output on each tracked 0/1 dimension is that dimension's
    previous input (0 at the first position); passthrough elsewhere.  The
    delay is exact in every mode, but in exact mode the hidden value keeps
    the whole history (see above)."""
    return _layer(_zeros(d), *_prev_bit(d, positions))


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
    0 and reads its proposition's embedding column; ``levels`` holds the
    other subformulas by height 1, 2, ..., each in topological order, and
    they take the coordinates after the propositions in that order.  The
    gate of each until, in the same order, takes the next coordinate
    (``gate_of``).  The constant 1 is the last coordinate."""

    __slots__ = _fields = ("props", "subformulas", "levels", "dim_of", "gate_of", "const_dim",
                           "dimension")

    def __init__(self, props: tuple[str, ...], subformulas: tuple[LtlFormula, ...],
                 levels: tuple[tuple[LtlFormula, ...], ...],
                 dim_of: tuple[tuple[LtlFormula, int], ...],
                 gate_of: tuple[tuple[Until, int], ...], const_dim: int, dimension: int):
        self._assign(props, subformulas, levels, dim_of, gate_of, const_dim, dimension)

    def dim(self, sub: LtlFormula) -> int:
        return dict(self.dim_of)[sub]


def ltl_layout(phi: LtlFormula) -> LtlLayout:
    subs = tuple(subformulas_topo(phi))
    props = tuple(sorted(sub.name for sub in subs if isinstance(sub, Atom)))
    height: dict[LtlFormula, int] = {}
    for sub in subs:  # children come first
        height[sub] = 1 + max((height[c] for c in children(sub)), default=-1)
    levels: list[list[LtlFormula]] = [[] for _ in range(height[phi])]
    for sub in subs:
        if height[sub]:
            levels[height[sub] - 1].append(sub)
    column = {sub: props.index(sub.name) for sub in subs if isinstance(sub, Atom)}
    for level in levels:
        for sub in level:  # the atoms fill columns 0 .. |P| - 1
            column[sub] = len(column)
    untils = [sub for level in levels for sub in level if isinstance(sub, Until)]
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

# The one-input gadgets that the logic compiler's phi applies pointwise,
# and the until gate relu(a - b), which is a & !b on 0/1 inputs.
_RELU = linear_fnn([[1]], activation=RELU)
_MIN1 = gadget_min1()
_AND_NOT = gadget_implies()


def _ltl_entry(sub: LtlFormula, dim: dict, gate: dict, const_dim: int):
    """What the layer of a non-atom subformula does to its own coordinate:
    the coordinate that gates it (``None`` for the zero gate), the (column,
    weight) terms of its inc row, and the gadget phi applies to it (``None``
    for the projection).  Every other coordinate passes through.

    Until is Boolean: ``h = g * h + r`` under the diagonal gate ``g = l &
    !r``, which is the coordinate ``gate[sub]`` of the layer's input.  A
    letter keeps the value while l holds and r does not, sets it to 1 where
    r holds and clears it elsewhere, so h is 0 or 1 in every mode and needs
    no clamp."""
    if isinstance(sub, Not):
        return None, [(const_dim, F1), (dim[sub.sub], -F1)], None
    if isinstance(sub, And):
        return None, [(dim[sub.left], F1), (dim[sub.right], F1), (const_dim, -F1)], _RELU
    if isinstance(sub, Or):  # min(1, left + right)
        return None, [(dim[sub.left], F1), (dim[sub.right], F1)], _MIN1
    if isinstance(sub, Next):  # the previous-bit layer that follows delays it
        return None, [(dim[sub.sub], F1)], None
    return gate[sub], [(dim[sub.right], F1)], None


def compile_ltl(phi: LtlFormula) -> SsmModel:
    """Model over 2^P that accepts a word iff its reversal is a model of the
    formula.  Atoms read their propositions' embedding columns; every other
    subformula of one DAG height is computed in one layer, and a level that
    holds an X gets one previous-bit layer after it.  The gate of an until
    of height 1 is an embedding column; that of a higher until is stacked on
    the outputs of the layer below its level.  The compiled model is exact
    under the 6-bit profile, and an X-free one under ``fx:3:0``, which its
    ``min_bits`` and ``frac_bits`` metadata name.  A formula over more than
    ``MAX_ATOMS`` atoms is a ``ResourceLimitError``."""
    layout = ltl_layout(phi)
    count = len(layout.props)
    if count > MAX_ATOMS:
        raise ResourceLimitError(
            f"formula has {count} atoms; compile_ltl enumerates all 2^{count} letters "
            f"and accepts at most {MAX_ATOMS} atoms")
    d = layout.dimension
    dim, gate = dict(layout.dim_of), dict(layout.gate_of)
    eye, empty, zero_off = _eye(d), _empty(d), _zeros(d)
    no_gate = TimeInvariantGate(empty)

    # (gate, inc, gadgets, stacked) of each layer; a level stacks its
    # untils' gates on the outputs of the layer below before any layer is built
    stages: list[tuple] = []
    for level in layout.levels:
        gate_terms, inc_terms, gadgets, nexts = [], [], {}, []
        for sub in level:
            i = dim[sub]
            gated_by, terms, gadget = _ltl_entry(sub, dim, gate, layout.const_dim)
            if gated_by is not None:
                gate_terms.append((i, gated_by, F1))
                if stages:  # at height 1 the gate is a column of the letter
                    stages[-1][3][gated_by] = (_AND_NOT, (dim[sub.left], dim[sub.right]))
            inc_terms += [(i, c, w) for c, w in terms]
            if gadget is not None:
                gadgets[i] = gadget
            if isinstance(sub, Next):
                nexts.append(i)
        stages.append((
            DiagonalAffineGate(_sparse(empty, gate_terms), zero_off) if gate_terms else no_gate,
            AffineMap(_sparse(eye, inc_terms), zero_off),
            gadgets,
            {},
        ))
        if nexts:
            stages.append((*_prev_bit(d, nexts), {}))

    out = compose(gadget_eq(1), select_fnn([dim[phi]], d))
    letters = ltl_mod.letters(layout.props)
    alphabet = tuple(set_symbol(l) for l in letters)
    letter_gates = [(gate[sub], sub.left.name, sub.right.name)
                    for level in layout.levels[:1] for sub in level if isinstance(sub, Until)]
    emb = []
    for letter in letters:
        row = [F1 if p in letter else F0 for p in layout.props] + [F0] * (d - count - 1) + [F1]
        for c, left, right in letter_gates:
            if left in letter and right not in letter:
                row[c] = F1
        emb.append(tuple(row))
    layers = tuple(_layer(zero_off, *stage) for stage in stages)
    # the previous-bit decoder needs 3 fractional bits of 6; every value of
    # an X-free model is an integer in [-1, 2]
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
_COUNTER_OF = {a: i for a, (i, _) in _EFFECT.items()}


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
    past ``max_states`` steps, or the memory ceiling, it raises
    ``ResourceLimitError``."""
    if max_steps < 0:
        raise PreconditionError("max_steps must be >= 0")
    limits = ResourceLimits.from_env()
    q, c = machine.start, [0, 0]
    steps: list[tuple[str, str]] = []
    for n in range(max_steps + 1):
        if n > limits.max_states or n % 4096 == 0:
            limits.check(n)
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
        i = _COUNTER_OF.get(a)
        if a.startswith("inc"):
            c[i] += 1
        elif a.startswith("dec"):
            if c[i] <= 0:
                return False
            c[i] -= 1
        else:
            if c[i] != 0:
                return False
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


def compile_minsky(machine: MinskyMachine, word_bound: int = 64) -> SsmModel:
    """Model accepting exactly the words that spell accepting runs.

    Dimension layout: current-state block, previous-state block (recovered
    from the quarter-shift history), six action flags, two counters, one
    violation accumulator.  Layer 1 sums the counters.  Layer 2's phi is the
    previous-bit decoder followed by one ``_pointwise`` stage that adds to
    the violation coordinate the transition lookup and the four counter
    validators, each reading its columns of the decoded state directly.
    Layer 3 sums the violations, and ``out``, the conjunction of two
    ``_pointwise`` equality gadgets on the violation and final-state
    columns, accepts when the sum is 0 and the run ends in the final state.
    Gates are constant diagonal masks, so the model is both time-invariant
    and diagonal.
    """
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
        i = _COUNTER_OF[a]
        if a.startswith("inc"):
            vec[c_dims[i]] = F1
        elif a.startswith("dec"):
            vec[c_dims[i]] = -F1
        emb.append(tuple(vec))

    def accumulator(first: int, last: int) -> SsmLayer:
        """Sums coordinates first..last over the word; passes the rest through."""
        return _layer(_zeros(d), TimeInvariantGate(_mask(first, last, d)),
                      AffineMap(_eye(d), _zeros(d)), {})

    # layer 2: quarter-shift history on the second state block, seeded with
    # the start state; phi decodes it, then sums the violations of the step
    history = prev_bit_layer(d, range(n, 2 * n))
    h0_2 = list(history.h0)
    h0_2[n + state_idx[machine.start]] = F1

    accepted = {
        (state_idx[q], state_idx[q2], _ACTION_INDEX[a])
        for (q, a, q2) in machine.transitions
    }
    parts = [(identity_fnn(1), (chk,)),
             (gadget_lookup((n, n, 6), accepted),
              (*range(n, 2 * n), *range(n), *range(act_base, act_base + 6)))]
    for action, test in (("dec1", gadget_geq0()), ("dec2", gadget_geq0()),
                         ("ztest1", gadget_eq(0)), ("ztest2", gadget_eq(0))):
        # 1 iff the action is taken while its counter test fails
        parts.append((compose(gadget_implies(), _pointwise(2, {1: test}, width=2)),
                      (act_base + _ACTION_INDEX[action], c_dims[_COUNTER_OF[action]])))
    violations = compose(linear_fnn([[1] * len(parts)]),
                         _pointwise(len(parts), dict(enumerate(parts)), width=d))
    phi2 = compose(_pointwise(d, {chk: (violations, tuple(range(d)))}, width=d), history.phi)
    l2 = SsmLayer(tuple(h0_2), history.gate, history.inc, phi2)

    out = compose(gadget_and(2), _pointwise(
        2, {0: (gadget_eq(0), (chk,)), 1: (gadget_eq(1), (state_idx[machine.final],))},
        width=d))
    # layer 1 accumulates the counters, layer 3 the violation dimension
    layers = (accumulator(*c_dims), l2, accumulator(chk, chk))
    return _finish(SsmModel(alphabet=alphabet, emb=tuple(emb), layers=layers, out=out),
                   ("source", "minsky"), ("min_bits", str(minsky_min_bits(word_bound))),
                   ("min_bits_word_bound", str(word_bound)))


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
    ``ResourceLimits.from_env()``: past ``max_states`` candidates, or the
    memory ceiling, it raises ``ResourceLimitError``."""
    d = inst.dim
    limits = ResourceLimits.from_env()
    for m in range(1 << d):
        if m > limits.max_states or m % 4096 == 0:
            limits.check(m)
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
    A v, the second half counts index occurrences; the output demands the
    target and occurrence counts of at most one."""
    d = inst.dim
    dd = 2 * d
    emb = tuple(
        tuple(F1 if j == i else F0 for j in range(d)) + _zeros(d) for i in range(d)
    )
    inc = _sparse(_empty(dd), [(r, c, Fraction(w)) for r, row in enumerate(inst.matrix)
                               for c, w in enumerate(row) if w]
                  + [(d + r, r, F1) for r in range(d)])
    layer = _layer(_zeros(dd), TimeInvariantGate(_eye(dd)), AffineMap(inc, _zeros(dd)), {})
    gadgets = [gadget_eq(b) for b in inst.target] + [gadget_leq(1)] * d
    out = compose(gadget_and(dd), _pointwise(dd, dict(enumerate(gadgets)), width=dd))
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
