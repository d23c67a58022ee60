"""Model files: a structured-text (JSON) serialisation of compiled models.

Every number is stored as a ``num`` or ``num/den`` decimal string; no binary
floats at rest.  ``load`` of a ``save`` is the identity on canonical form.

The file stores every matrix row and weight vector dense, while a model
holds them as sparse rows (``_row.Row``); the two directions convert at the
file boundary.  Loading parses each distinct literal once: ``model_from_json``
keeps one literal table per call, a ``dict`` from literal text to its
``Fraction`` that parses a text on its first lookup.  Compiled matrices hold
a handful of distinct values (``"0"``, ``"1"``, ``"-1"``, ``"1/2"``, ...), so
equal entries share one ``Fraction``.  The table also builds each distinct
row once, straight from its dense JSON list: entries whose text is ``"0"``
are skipped unparsed, and any other literal that parses to zero (``"-0"``,
``"0/7"``) is dropped.  Compiled models repeat most rows across layers (the
zero rows of a constant gate, identity rows, copy nodes), so a load costs
one tuple and one dict lookup per repeated row, and equal rows share one
``Row``.

Saving writes the same bytes as ``json.dump(model_to_json(m), fh, indent=1)``
followed by a newline, without CPython's pure-Python indenting encoder.  A
row is written by streaming the quoted zero literal and formatting only its
nonzero weights; every other vector of literals is quoted and joined in one
call.  The file is written one top-level entry at a time, and the layers,
most of a file, are converted and written one at a time, so neither the
whole text nor the whole JSON tree is held at once.

Every malformed file (not UTF-8, not JSON, a missing key, a value of the
wrong type, a bad literal, mismatched dimensions) raises ``InputFormatError``
naming the file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from ._row import Row
from .arithmetic import format_rational, parse_rational
from .errors import InputFormatError, SsmVerifyError
from .fnn import Fnn, FnnLayer, FnnNode, IDENTITY, RELU
from .ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
)

FORMAT_TAG = "ssmverify-model-v1"


def _vec_json(vec) -> list[str]:
    return list(map(format_rational, vec))


def _mat_json(mat) -> list[list[str]]:
    return list(map(_vec_json, mat))


def _row_json(row: Row) -> list[str]:
    return _vec_json(row.dense())


def _kept(row: Row) -> Row:
    """A row left as it is, for ``_encode`` to write."""
    return row


class _Literals(dict):
    """Literal text -> ``Fraction``, parsed on first lookup; one per load.
    ``rows`` holds the sparse row of each distinct list of texts, so equal
    rows share one ``Row``."""

    __slots__ = ("rows",)

    def __init__(self):
        super().__init__()
        self.rows: dict[tuple, Row] = {}

    def __missing__(self, text) -> Fraction:
        if not isinstance(text, str):
            raise InputFormatError(f"expected a literal string, got {type(text).__name__}")
        value = self[text] = parse_rational(text)
        return value

    def vec(self, data) -> tuple[Fraction, ...]:
        if not isinstance(data, list):
            raise InputFormatError(f"expected a list of literals, got {type(data).__name__}")
        return tuple(map(self.__getitem__, data))

    def mat(self, data) -> tuple[tuple[Fraction, ...], ...]:
        if not isinstance(data, list):
            raise InputFormatError(f"expected a list of rows, got {type(data).__name__}")
        return tuple(map(self.vec, data))

    def row(self, data) -> Row:
        """The sparse row of a dense list of literals."""
        if not isinstance(data, list):
            raise InputFormatError(f"expected a list of literals, got {type(data).__name__}")
        texts = tuple(data)
        row = self.rows.get(texts)
        if row is None:
            terms = [(k, w) for k, text in enumerate(texts) if text != "0" and (w := self[text])]
            row = self.rows[texts] = Row(tuple(terms), len(texts))
        return row

    def sparse_mat(self, data) -> tuple[Row, ...]:
        if not isinstance(data, list):
            raise InputFormatError(f"expected a list of rows, got {type(data).__name__}")
        return tuple(map(self.row, data))


def _fnn_json(net: Fnn, row_json) -> dict:
    return {
        "layers": [
            [
                {
                    "weights": row_json(node.row),
                    "bias": format_rational(node.bias),
                    "activation": node.activation,
                }
                for node in layer.nodes
            ]
            for layer in net.layers
        ]
    }


def _fnn_load(data, lit: _Literals) -> Fnn:
    layers = []
    for layer in data["layers"]:
        nodes = []
        for node in layer:
            act = node.get("activation", RELU)
            if act not in (RELU, IDENTITY):
                raise InputFormatError(f"unknown activation {act!r}")
            nodes.append(FnnNode(lit.row(node["weights"]), lit[node["bias"]], act))
        layers.append(FnnLayer(tuple(nodes)))
    return Fnn(tuple(layers))


def _layer_json(layer: SsmLayer, row_json) -> dict:
    """The JSON of a layer, each row rendered by ``row_json``."""
    if isinstance(layer.gate, TimeInvariantGate):
        gate = {"kind": "time_invariant", "matrix": list(map(row_json, layer.gate.rows))}
    else:
        gate = {
            "kind": "diagonal_affine",
            "matrix": list(map(row_json, layer.gate.rows)),
            "offset": _vec_json(layer.gate.offset),
        }
    return {
        "h0": _vec_json(layer.h0),
        "gate": gate,
        "inc": {
            "matrix": list(map(row_json, layer.inc.rows)),
            "offset": _vec_json(layer.inc.offset),
        },
        "phi": _fnn_json(layer.phi, row_json),
    }


def _model_json(model: SsmModel, row_json, layers) -> dict:
    return {
        "format": FORMAT_TAG,
        "alphabet": list(model.alphabet),
        "dimension": model.dim,
        "embedding": _mat_json(model.emb),
        "layers": layers,
        "output": _fnn_json(model.out, row_json),
        "metadata": dict(sorted(model.metadata)),
    }


def model_to_json(model: SsmModel) -> dict:
    layers = [_layer_json(layer, _row_json) for layer in model.layers]
    return _model_json(model, _row_json, layers)


def _model_from_json(data: dict, lit: _Literals) -> SsmModel:
    if not isinstance(data["layers"], list):
        raise InputFormatError(f"expected a list of layers, got {type(data['layers']).__name__}")
    layers = []
    for entry in data["layers"]:
        gate_data = entry["gate"]
        if gate_data["kind"] == "time_invariant":
            gate = TimeInvariantGate(lit.sparse_mat(gate_data["matrix"]))
        elif gate_data["kind"] == "diagonal_affine":
            gate = DiagonalAffineGate(lit.sparse_mat(gate_data["matrix"]),
                                      lit.vec(gate_data["offset"]))
        else:
            raise InputFormatError(f"unknown gate kind {gate_data['kind']!r}")
        layers.append(
            SsmLayer(
                h0=lit.vec(entry["h0"]),
                gate=gate,
                inc=AffineMap(lit.sparse_mat(entry["inc"]["matrix"]),
                              lit.vec(entry["inc"]["offset"])),
                phi=_fnn_load(entry["phi"], lit),
            )
        )
    alphabet = data["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise InputFormatError("the alphabet must be a list of strings")
    model = SsmModel(
        alphabet=tuple(alphabet),
        emb=lit.mat(data["embedding"]),
        layers=tuple(layers),
        out=_fnn_load(data["output"], lit),
        metadata=tuple(sorted(data.get("metadata", {}).items())),
    )
    if model.dim != data.get("dimension"):
        raise InputFormatError("declared dimension disagrees with the embedding table")
    return model


def model_from_json(data: dict) -> SsmModel:
    if not isinstance(data, dict):
        raise InputFormatError(f"not a model file (top-level JSON {type(data).__name__})")
    if data.get("format") != FORMAT_TAG:
        raise InputFormatError(f"not a model file (format tag {data.get('format')!r})")
    try:
        return _model_from_json(data, _Literals())
    except KeyError as exc:
        raise InputFormatError(f"malformed model: missing key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise InputFormatError(f"malformed model: {exc}") from None


_QUOTED_ZERO = _quote("0")


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=1)`` renders it nested at
    indentation ``pad``; a ``Row`` renders as its dense list of literals."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + " "
    sep = ",\n" + inner
    if isinstance(value, Row):
        if not value.width:
            return "[]"
        cells = [_QUOTED_ZERO] * value.width
        for k, w in value.terms:
            cells[k] = _quote(format_rational(w))
        return "[\n" + inner + sep.join(cells) + "\n" + pad + "]"
    if isinstance(value, list) and value:
        if all(isinstance(v, str) for v in value):
            body = sep.join(map(_quote, value))
        else:
            body = sep.join([_encode(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        body = sep.join([_quote(k) + ": " + _encode(v, inner) for k, v in value.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    # scalars, tuples, empty containers and non-string keys; encoded
    # strings hold no raw newline, so re-indenting the lines is exact
    return json.dumps(value, indent=1).replace("\n", "\n" + pad)


def save_model(model: SsmModel, path: str):
    layers = (_layer_json(layer, _kept) for layer in model.layers)
    data = _model_json(model, _kept, layers)
    with open(path, "w", encoding="ascii") as fh:
        sep = "{\n "
        for key, value in data.items():
            fh.write(sep + _quote(key) + ": ")
            sep = ",\n "
            if key != "layers":
                fh.write(_encode(value, " "))
            elif not model.layers:
                fh.write("[]")
            else:
                fh.write("[\n  " + _encode(next(value), "  "))
                for layer in value:
                    fh.write(",\n  " + _encode(layer, "  "))
                fh.write("\n ]")
        fh.write("\n}\n")


def load_model(path: str) -> SsmModel:
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
