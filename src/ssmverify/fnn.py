"""Relu feedforward networks: nodes, layers, combinators and gadgets.

A node computes ``act(sum_i c_i * x_i + b)`` where ``act`` is relu or the
identity.  Identity nodes let a network pass possibly-negative values
through (counter dimensions in compiled models).

A node holds its weights as one sparse row (``_row.Row``: the nonzero
``(input, weight)`` pairs in input order, plus the input width); every
combinator builds those rows directly, and ``FnnNode.weights`` densifies
them only on demand.  ``eval_program`` is the one evaluator of a network,
in either scalar domain: it takes values already in the mode (rationals, or
raw mantissas) and runs the mode's kernels.  Each network keeps one program
per arithmetic mode (the node rows with their constants encoded in the
mode), which ``eval_program`` interprets.  The SSM step compiler in
``ssm.py`` does not use these programs: it reads each node's row and bias
and encodes them itself.  Every node, a plain copy included, applies its
weights: where 1 is not representable, a copy multiplies by the saturated
unit like any other weight-1 term.  A compiled SSM layer stores no copy
nodes for the coordinates it passes through: each evaluator in ``ssm.py``
applies the pass-through rule itself, with the same unit products.
``SsmLayer.phi``, which ``_with_copies`` builds from ``_copies`` nodes, is
a derived view; in the library only the quantisation report reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from ._row import Row
from ._value import Value
from .arithmetic import EXACT, ArithMode, FixedPointFormat
from .errors import DimensionError

RELU = "relu"
IDENTITY = "identity"

_ZERO, _ONE = Fraction(0), Fraction(1)


class FnnNode(Value):
    """``act(row . x + bias)``; ``weights`` may be given dense or as a row."""

    __slots__ = _fields = ("row", "bias", "activation")

    def __init__(self, weights, bias: Fraction, activation: str = RELU):
        if activation not in (RELU, IDENTITY):
            raise DimensionError(f"unknown activation {activation!r}")
        row = weights if isinstance(weights, Row) else Row.from_dense(weights)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "activation", activation)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The dense weight vector."""
        return self.row.dense()


class FnnLayer(Value):
    __slots__ = _fields = ("nodes",)

    def __init__(self, nodes: tuple[FnnNode, ...]):
        object.__setattr__(self, "nodes", nodes)
        if not self.nodes:
            raise DimensionError("a layer needs at least one node")
        width = self.nodes[0].row.width
        if any(n.row.width != width for n in self.nodes):
            raise DimensionError("all nodes of a layer must share the input dimension")

    @property
    def input_dim(self) -> int:
        return self.nodes[0].row.width

    @property
    def output_dim(self) -> int:
        return len(self.nodes)


class Fnn(Value):
    _fields = ("layers",)

    def __init__(self, layers: tuple[FnnLayer, ...]):
        object.__setattr__(self, "layers", layers)
        if not self.layers:
            raise DimensionError("a network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise DimensionError(
                    f"layer dimensions do not chain: {a.output_dim} -> {b.input_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    @cached_property
    def _programs(self) -> dict:
        return {}

    def _program_for(self, mode: ArithMode):
        """The program in ``mode``: per node ``(relu?, bias, ((src,
        weight), ...))``, the node's row with its constants encoded."""
        prog = self._programs.get(mode)
        if prog is None:
            enc = mode.kernels[0]
            prog = self._programs[mode] = tuple(
                tuple(
                    (
                        node.activation == RELU,
                        enc(node.bias),
                        tuple((i, enc(w)) for i, w in node.row.terms),
                    )
                    for node in layer.nodes
                )
                for layer in self.layers
            )
        return prog


def eval_program(net: Fnn, values: Sequence, mode: ArithMode) -> tuple:
    """Evaluate ``net`` on values already in ``mode`` (rationals, or raw
    mantissas): each node adds its terms to the bias one by one, so in fixed
    mode every product and partial sum saturates in the canonical order.
    ``values`` must have one entry per input of ``net``."""
    if len(values) != net.input_dim:
        raise DimensionError(f"network has {net.input_dim} inputs, got {len(values)} values")
    _, add, mul, relu = mode.kernels
    current = values
    for layer in net._program_for(mode):
        out = []
        for is_relu, acc, terms in layer:
            for i, w in terms:
                acc = add(acc, mul(w, current[i]))
            out.append(relu(acc) if is_relu else acc)
        current = out
    return tuple(current)


def eval_fractions(net: Fnn, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact-mode evaluation on a tuple of rationals."""
    return eval_program(net, values, EXACT)


def eval_raws(net: Fnn, raws: Sequence[int], fmt: FixedPointFormat) -> tuple[int, ...]:
    """Fixed-mode evaluation on raw mantissas in ``fmt``."""
    return eval_program(net, raws, ArithMode(fmt))


# ---------------------------------------------------------------------------
# Combinators

def compose(n1: Fnn, n2: Fnn) -> Fnn:
    """The network computing n1(n2(x))."""
    if n2.output_dim != n1.input_dim:
        raise DimensionError(
            f"cannot compose: inner output {n2.output_dim} != outer input {n1.input_dim}"
        )
    return Fnn(n2.layers + n1.layers)


# ---------------------------------------------------------------------------
# Construction helpers

def linear_fnn(matrix: Sequence[Sequence], bias: Sequence | None = None,
               activation: str = IDENTITY) -> Fnn:
    """One layer computing ``act(M x + b)`` row by row."""
    if bias is None:
        bias = [_ZERO] * len(matrix)
    nodes = tuple(FnnNode(row, Fraction(b), activation) for row, b in zip(matrix, bias))
    return Fnn((FnnLayer(nodes),))


def identity_fnn(dim: int) -> Fnn:
    return select_fnn(range(dim), dim)


def select_fnn(indices: Sequence[int], input_dim: int) -> Fnn:
    """Identity routing that picks the given input coordinates, in order."""
    nodes = []
    for i in indices:
        if not 0 <= i < input_dim:
            raise DimensionError(f"selected index {i} outside 0..{input_dim - 1}")
        nodes.append(FnnNode(Row(((i, _ONE),), input_dim), _ZERO, IDENTITY))
    return Fnn((FnnLayer(tuple(nodes)),))


@lru_cache(maxsize=16)
def _copies(width: int) -> tuple[FnnNode, ...]:
    """The identity node copying each input of a ``width``-input layer;
    immutable, so every network of that width shares them.  A model's
    networks use a handful of widths, hence the bound."""
    return tuple(FnnNode(Row(((k, _ONE),), width), _ZERO, IDENTITY) for k in range(width))


def _with_copies(net: Fnn | None, computes: tuple, d: int) -> Fnn:
    """The full 2d -> d network of a layer that computes the coordinates
    ``computes`` with ``net`` (None for none) and passes every other
    coordinate j through: input j copied on one identity node per layer of
    ``net``, at least one.  A derived view, which no evaluator reads: each
    layer but the last holds ``net``'s nodes at their own indices, then the
    copies in coordinate order; the last layer is in coordinate order."""
    if len(computes) == d:
        return net
    output = {j: i for i, j in enumerate(computes)}
    passes = [j for j in range(d) if j not in output]
    depth = len(net.layers) if net is not None else 1
    layers, at, width = [], passes, 2 * d  # where each copied input is in the layer below
    for t in range(depth):
        nodes = () if net is None else tuple(
            FnnNode(n.row._replace(width=width), n.bias, n.activation)
            for n in net.layers[t].nodes)
        copies = [_copies(width)[k] for k in at]
        if t < depth - 1:
            at = range(len(nodes), len(nodes) + len(copies))
            nodes += tuple(copies)
        else:
            pick = iter(copies)
            nodes = tuple(nodes[output[j]] if j in output else next(pick) for j in range(d))
        layers.append(FnnLayer(nodes))
        width = len(nodes)
    return Fnn(tuple(layers))


def _relu_layer(rows: Sequence[tuple[Sequence | Row, int | Fraction]]) -> FnnLayer:
    """Relu nodes from (weights, bias) pairs, the weights dense or a row."""
    return FnnLayer(tuple(FnnNode(ws, Fraction(b), RELU) for ws, b in rows))


# ---------------------------------------------------------------------------
# Gadgets.  Exact predicates on integer inputs; outputs are 0/1.

def gadget_eq(b: int) -> Fnn:
    """1 iff the integer input equals b: relu(relu(x-(b-1)) - 2*relu(x-b))."""
    l1 = _relu_layer([((1,), -(b - 1)), ((1,), -b)])
    l2 = _relu_layer([((1, -2), 0)])
    return Fnn((l1, l2))


def gadget_leq(b: int) -> Fnn:
    """1 iff the integer input is <= b: relu(relu(b+1-x) - relu(b-x))."""
    l1 = _relu_layer([((-1,), b + 1), ((-1,), b)])
    l2 = _relu_layer([((1, -1), 0)])
    return Fnn((l1, l2))


def gadget_and(k: int) -> Fnn:
    """1 iff all k 0/1 inputs are 1: the equality gadget over their sum."""
    if k < 1:
        raise DimensionError("conjunction needs arity >= 1")
    summing = Fnn((_relu_layer([((1,) * k, 0)]),))
    return compose(gadget_eq(k), summing)


def gadget_geq0() -> Fnn:
    """1 iff the integer input is >= 0: relu(relu(x+1) - relu(x))."""
    l1 = _relu_layer([((1,), 1), ((1,), 0)])
    l2 = _relu_layer([((1, -1), 0)])
    return Fnn((l1, l2))


def gadget_min1() -> Fnn:
    """min(1, x) for any scalar: relu(x) - relu(-x) - relu(x-1)."""
    l1 = _relu_layer([((1,), 0), ((-1,), 0), ((1,), -1)])
    combine = FnnNode((Fraction(1), Fraction(-1), Fraction(-1)), Fraction(0), IDENTITY)
    return Fnn((l1, FnnLayer((combine,))))


def gadget_implies() -> Fnn:
    """On 0/1 inputs (x, y): 0 iff x -> y holds, 1 otherwise (inverted
    polarity).  One node, relu(x - y), which equals 1 - min(1, 1 - x + y)
    on every rational input."""
    return Fnn((_relu_layer([((1, -1), 0)]),))


def gadget_lookup(block_sizes: Sequence[int], accepted: Iterable[tuple[int, ...]]) -> Fnn:
    """Tabulated predicate over concatenated one-hot blocks: 0 on every tuple
    in ``accepted``, 1 on every other well-formed one-hot combination."""
    sizes = tuple(block_sizes)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    width = sum(sizes)
    entries = sorted(set(tuple(t) for t in accepted))
    for entry in entries:
        if len(entry) != len(sizes) or any(
            not 0 <= idx < size for idx, size in zip(entry, sizes)
        ):
            raise DimensionError(f"lookup entry {entry} does not match blocks {sizes}")
    rows = [
        (Row(tuple((off + idx, _ONE) for idx, off in zip(entry, offsets)), width),
         -(len(sizes) - 1))
        for entry in entries
    ]
    if not rows:
        rows.append((Row((), width), 0))
    l1 = _relu_layer(rows)
    l2 = _relu_layer([((-1,) * len(rows), 1)])
    return Fnn((l1, l2))
