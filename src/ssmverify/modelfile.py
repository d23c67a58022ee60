"""Model files: a structured-text (JSON) serialisation of compiled models.

Every rational is stored as a ``num`` or ``num/den`` decimal string; no
binary floats at rest.  ``save`` writes the canonical form: ``load`` of a
``save`` is the identity, and ``save`` of a ``load`` of a canonical file is
byte-identical.

``save_model`` writes ``ssmverify-model-v2``.  A model holds every gate row,
inc row and FNN weight vector as one sparse ``_row.Row``, and a compiled
model repeats most of them across layers: identity and zero rows, and copy
nodes.  So v2 stores each distinct row once, in the top-level ``rows``
table, as ``[width, [column, literal], ...]`` with strictly ascending
columns and no zero weight.  Each distinct FNN node is stored once, in the
``nodes`` table, as ``[row, bias, activation]`` with ``row`` an index into
``rows``.  A gate or inc ``matrix`` is the list of its rows' indices, and a
network (``phi``, ``output``) is a list of layers, each the list of its
nodes' indices.  ``h0``, offsets, biases and the embedding stay literal
strings, so the only JSON numbers are the dimension, indices, columns and
widths.  A layer that passes coordinates through (see ``ssm.SsmLayer``)
has the key ``computes``, the ascending list of the coordinates it
computes, and its ``phi`` is the network of those alone, ``[]`` when the
list is empty.  A layer that carries coordinates has the key ``updates``
(``SsmLayer.updates``), and its gate and inc ``matrix`` and ``offset``
list the rows and offsets of those coordinates alone; a load gives each
carried coordinate the ``ssm.carried`` rows and offsets.  Without a key a
layer computes, or lists the rows of, every coordinate, so files written
before the keys existed still load.  The tables list entries in order of
first use, the layers first and the output network last, so equal models
give equal bytes whether or not they share row objects.  A save looks each
row, node and literal up by identity first, so a shared object is
formatted once, and writes the whole tree with one compact ``json.dumps``.

``load_model`` reads v2 alone.  A file in the retired first format, which
stored every row dense and every layer's full network, is refused with an
error that names its tag and says to recompile the model from its source.

Every malformed file (not UTF-8, not JSON, a missing key, a value of the
wrong type, a bad literal, mismatched dimensions) raises ``InputFormatError``
naming the file.  That includes a table index that is not an int in
range, row columns not strictly ascending or outside the row's width, a
zero weight, an ``h0`` whose length the stored rows contradict, a
``computes`` that is not a list of ints in range, strictly ascending, with
one output of ``phi`` each, and an ``updates`` that is not a list of ints
in range, strictly ascending, with one stored row and offset each.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._row import Row
from .arithmetic import format_rational, parse_rational
from .errors import InputFormatError, SsmVerifyError
from .fnn import Fnn, FnnLayer, FnnNode
from .ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    _coordinates,
    carried,
)

V2_TAG = "ssmverify-model-v2"


class _Literals(dict):
    """Literal text -> ``Fraction``, parsed on first lookup; one per load.
    A JSON list or object is unhashable: its lookup raises ``TypeError``."""

    __slots__ = ()

    def __missing__(self, text) -> Fraction:
        if not isinstance(text, str):
            raise _not_a_literal(text)
        value = self[text] = parse_rational(text)
        return value

    def vec(self, data) -> tuple[Fraction, ...]:
        data = _list(data, "literals")
        try:
            return tuple(map(self.__getitem__, data))
        except TypeError:
            raise _not_a_literal(next(v for v in data if not isinstance(v, str))) from None

    def mat(self, data) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.vec, _list(data, "rows")))


def _not_a_literal(value) -> InputFormatError:
    return InputFormatError(f"expected a literal string, got {type(value).__name__}")


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise InputFormatError(f"expected a list of {what}, got {type(data).__name__}")
    return data


def _pick(table: list, data, what: str) -> tuple:
    """The entries of ``table`` at the indices ``data``: ints, not bools,
    in range."""
    size = len(table)
    for i in _list(data, f"{what} indices"):
        if type(i) is not int or not 0 <= i < size:
            raise InputFormatError(f"bad {what} index {i!r}: the table has {size} entries")
    return tuple(map(table.__getitem__, data))


def _spread(stored: tuple, updates, base: tuple, what: str) -> tuple:
    """``base`` with its entries at the coordinates ``updates`` replaced by
    the ``stored`` ones, one each in that order."""
    if len(stored) != len(updates):
        raise InputFormatError(f"the layer updates {len(updates)} coordinates, but its {what} "
                               f"lists {len(stored)}")
    full = list(base)
    for j, entry in zip(updates, stored):
        full[j] = entry
    return tuple(full)


def _row(data, lit: _Literals) -> Row:
    """The row of a ``rows`` entry ``[width, [column, literal], ...]``."""
    if not isinstance(data, list) or not data or type(data[0]) is not int or data[0] < 0:
        raise InputFormatError("a row must be a list: its width, then [column, literal] pairs")
    width = data[0]
    terms = []
    last = -1
    for pair in data[1:]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError("a row term must be a [column, literal] pair")
        k, text = pair
        if type(k) is not int or not last < k < width:
            raise InputFormatError(
                f"row columns must ascend strictly inside the width {width}, got {k!r}")
        try:
            w = lit[text]
        except TypeError:
            raise _not_a_literal(text) from None
        if not w:
            raise InputFormatError(f"zero weight {text!r} at column {k} of a row")
        terms.append((k, w))
        last = k
    return Row(tuple(terms), width)


def _node(data, rows: list[Row], lit: _Literals) -> FnnNode:
    """The node of a ``nodes`` entry ``[row, bias, activation]``."""
    if not isinstance(data, list) or len(data) != 3:
        raise InputFormatError("a node must be a [row, bias, activation] list")
    row, bias, act = data
    try:
        bias = lit[bias]
    except TypeError:
        raise _not_a_literal(bias) from None
    return FnnNode(_pick(rows, [row], "row")[0], bias, act)


def _read(data: dict) -> SsmModel:
    """The model of a v2 JSON tree.  The ``rows`` and ``nodes`` tables are
    built first, one ``Row`` and one ``FnnNode`` per entry, which every
    matrix and network naming it shares, as after a compile.  ``h0`` is
    checked against the stored rows; then a layer with ``updates`` gets the
    shared ``ssm.carried`` rows and offsets at every other coordinate, and
    is built from its rows alone."""
    lit = _Literals()
    rows = [_row(entry, lit) for entry in _list(data["rows"], "rows")]
    nodes = [_node(entry, rows, lit) for entry in _list(data["nodes"], "nodes")]

    def net(data) -> Fnn:
        return Fnn(tuple(FnnLayer(_pick(nodes, layer, "node"))
                         for layer in _list(data, "network layers")))

    layers = []
    for entry in _list(data["layers"], "layers"):
        h0 = lit.vec(entry["h0"])
        d = len(h0)
        gate_data, inc_data = entry["gate"], entry["inc"]
        kind = gate_data["kind"]
        if kind not in ("time_invariant", "diagonal_affine"):
            raise InputFormatError(f"unknown gate kind {kind!r}")
        gate_rows = _pick(rows, gate_data["matrix"], "row")
        inc_rows = _pick(rows, inc_data["matrix"], "row")
        gate_offset = lit.vec(gate_data["offset"]) if kind == "diagonal_affine" else None
        inc_offset = lit.vec(inc_data["offset"])
        updates = entry.get("updates")
        sizes = ({len(gate_rows), len(inc_rows)} if updates is None
                 else {row.width for row in gate_rows + inc_rows})
        if len(sizes) == 1 and d not in sizes:
            raise InputFormatError(f"h0 has {d} entries, but the stored rows give the layer "
                                   f"width {sizes.pop()}")
        if updates is not None:
            updates = _coordinates("updates", _list(updates, "updated coordinates"), d)
            gates, copies, zeros = carried(d)
            gate_rows = _spread(gate_rows, updates, gates, "gate matrix")
            inc_rows = _spread(inc_rows, updates, copies, "inc matrix")
            inc_offset = _spread(inc_offset, updates, zeros, "inc offset")
            if gate_offset is not None:
                gate_offset = _spread(gate_offset, updates, zeros, "gate offset")
        computes = entry.get("computes")
        layers.append(SsmLayer(
            h0=h0,
            gate=(TimeInvariantGate(gate_rows) if gate_offset is None
                  else DiagonalAffineGate(gate_rows, gate_offset)),
            inc=AffineMap(inc_rows, inc_offset),
            net=None if entry["phi"] == [] else net(entry["phi"]),
            computes=None if computes is None else _list(computes, "computed coordinates"),
        ))
    alphabet = data["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise InputFormatError("the alphabet must be a list of strings")
    model = SsmModel(
        alphabet=tuple(alphabet),
        emb=lit.mat(data["embedding"]),
        layers=tuple(layers),
        out=net(data["output"]),
        metadata=tuple(sorted(data.get("metadata", {}).items())),
    )
    dim = data.get("dimension")
    if type(dim) is not int or dim != model.dim:
        raise InputFormatError("declared dimension disagrees with the embedding table")
    return model


class _Tables:
    """The ``rows`` and ``nodes`` tables of one save.  A row, node or literal
    is looked up by identity first, so an object the model shares is
    formatted once; a new object is then looked up by its formatted entry,
    so equal objects get one entry however the model shares them.  Every
    object looked up is part of the model, so its id is not reused while
    the save runs."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.nodes: list[tuple] = []
        self._row_at: dict[tuple, int] = {}
        self._node_at: dict[tuple, int] = {}
        self._by_id: dict[int, int] = {}
        self._texts: dict[int, str] = {}
        self._vecs: dict[int, list[str]] = {}

    def text(self, x: Fraction) -> str:
        text = self._texts.get(id(x))
        if text is None:
            text = self._texts[id(x)] = format_rational(x)
        return text

    def vec(self, vec, keep=None) -> list[str]:
        """The texts of ``vec``, or of its entries at the indices ``keep``."""
        if keep is not None:
            return [self.text(vec[j]) for j in keep]
        texts = self._vecs.get(id(vec))
        if texts is None:
            texts = self._vecs[id(vec)] = list(map(self.text, vec))
        return texts

    def _add(self, obj, table: list, at: dict, entry: tuple) -> int:
        i = at.setdefault(entry, len(table))
        if i == len(table):
            table.append(entry)
        self._by_id[id(obj)] = i
        return i

    def row(self, row: Row) -> int:
        i = self._by_id.get(id(row))
        if i is None:
            entry = (row.width, *[(k, self.text(w)) for k, w in row.terms])
            i = self._add(row, self.rows, self._row_at, entry)
        return i

    def node(self, node: FnnNode) -> int:
        i = self._by_id.get(id(node))
        if i is None:
            entry = (self.row(node.row), self.text(node.bias), node.activation)
            i = self._add(node, self.nodes, self._node_at, entry)
        return i

    def matrix(self, rows, keep=None) -> list[int]:
        """The row indices of ``rows``, or of those at the indices ``keep``."""
        return list(map(self.row, rows if keep is None else map(rows.__getitem__, keep)))

    def net(self, net: Fnn) -> list[list[int]]:
        return [list(map(self.node, layer.nodes)) for layer in net.layers]


def _v2_json(model: SsmModel) -> dict:
    """The v2 JSON tree of ``model``."""
    t = _Tables()
    layers = []
    for layer in model.layers:
        updates = layer.updates if len(layer.updates) != layer.dim else None
        gate = {"kind": "time_invariant", "matrix": t.matrix(layer.gate.rows, updates)}
        if isinstance(layer.gate, DiagonalAffineGate):
            gate["kind"] = "diagonal_affine"
            gate["offset"] = t.vec(layer.gate.offset, updates)
        entry = {
            "h0": t.vec(layer.h0),
            "gate": gate,
            "inc": {"matrix": t.matrix(layer.inc.rows, updates),
                    "offset": t.vec(layer.inc.offset, updates)},
        }
        if updates is not None:
            entry["updates"] = list(updates)
        if len(layer.computes) != layer.dim:
            entry["computes"] = list(layer.computes)
        entry["phi"] = t.net(layer.net) if layer.net is not None else []
        layers.append(entry)
    output = t.net(model.out)
    return {
        "format": V2_TAG,
        "alphabet": list(model.alphabet),
        "dimension": model.dim,
        "embedding": list(map(t.vec, model.emb)),
        "rows": t.rows,
        "nodes": t.nodes,
        "layers": layers,
        "output": output,
        "metadata": dict(sorted(model.metadata)),
    }


def model_from_json(data: dict) -> SsmModel:
    """The model of a v2 JSON tree."""
    if not isinstance(data, dict):
        raise InputFormatError(f"not a model file (top-level JSON {type(data).__name__})")
    tag = data.get("format")
    if tag != V2_TAG:
        raise InputFormatError(
            f"the model format {tag} is retired: recompile the model from its source"
            if tag == "ssmverify-model-v1" else f"not a model file (format tag {tag!r})")
    try:
        return _read(data)
    except KeyError as exc:
        raise InputFormatError(f"malformed model: missing key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise InputFormatError(f"malformed model: {exc}") from None


def save_model(model: SsmModel, path: str):
    """Write ``model`` to ``path`` as a v2 file."""
    text = json.dumps(_v2_json(model), separators=(",", ":"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def load_model(path: str) -> SsmModel:
    """The model of a v2 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read the model file: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"{path}: not valid JSON: {exc}") from None
    try:
        return model_from_json(data)
    except SsmVerifyError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
