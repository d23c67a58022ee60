"""Shared test machinery: corpus generators, differential walkers, the
equivalence check of a compiled formula, the expanded twin of a model and
the full-row form of a model file."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from ssmverify.arithmetic import ArithMode, FixedPointFormat, raw_saturate
from ssmverify.compilers import IlpInstance, MinskyMachine
from ssmverify.fnn import Fnn, compose, gadget_eq, select_fnn
from ssmverify.ltl import Atom, Not, And, Or, Next, Until, _automaton
from ssmverify.ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    _with_stepper,
    as_matrix,
    as_vector,
    initial_state,
    projection_phi,
    step,
)
from ssmverify.words import set_symbol, symbol_set


def is_one(value, mode: ArithMode) -> bool:
    if mode.is_exact:
        return value == Fraction(1)
    return value.raw == mode.fmt.scale


def counting_model(out: Fnn = gadget_eq(3)) -> SsmModel:
    """A coordinate that counts the ``a``s from 0 under the diagonal gate
    that reads the embedding's constant column 1, by default accepted at
    exactly 3: the range [0, 1] that the step assumes for a gated
    coordinate fails at the second ``a``.  The constant column is carried."""
    layer = SsmLayer(as_vector([0, 0]),
                     DiagonalAffineGate(as_matrix([[0, 1], [0, 0]]), as_vector([0, 0])),
                     AffineMap(as_matrix([[1, 0], [0, 1]]), as_vector([0, 0])), projection_phi(2))
    return SsmModel(("a", "b"), (as_vector([1, 1]), as_vector([0, 1])), (layer,),
                    compose(out, select_fnn([0], 2)))


def fraction_encode(x, fmt: FixedPointFormat) -> int:
    """The raw encoding of ``x`` as a Fraction product that ``int()``
    truncates toward zero, then saturated: the reference for the integer
    encode."""
    return raw_saturate(int(Fraction(x) * fmt.scale), fmt)


def expanded(model: SsmModel) -> SsmModel:
    """The twin of ``model`` whose layers store their full networks ``phi``
    and so compute every coordinate: its v2 file has no ``computes`` key.
    Its layers hold the same rows, so they carry what the model's carry."""
    layers = tuple(SsmLayer(layer.h0, layer.gate, layer.inc, layer.phi) for layer in model.layers)
    return SsmModel(model.alphabet, model.emb, layers, model.out, model.metadata)


def full_rows(text: str) -> str:
    """The file ``text`` in the form written before the ``updates`` key:
    every layer lists a gate and inc row and offset for every coordinate,
    the carried ones appended to the ``rows`` table."""
    data = json.loads(text)
    rows, d = data["rows"], data["dimension"]

    def index(row: list) -> int:
        if row not in rows:
            rows.append(row)
        return rows.index(row)

    for entry in data["layers"]:
        stored = {j: i for i, j in enumerate(entry.pop("updates", range(d)))}
        for part, carried_row in ((entry["gate"], lambda j: [d]),
                                  (entry["inc"], lambda j: [d, [j, "1"]])):
            part["matrix"] = [part["matrix"][stored[j]] if j in stored else index(carried_row(j))
                              for j in range(d)]
            if "offset" in part:
                part["offset"] = [part["offset"][stored[j]] if j in stored else "0"
                                  for j in range(d)]
    return json.dumps(data, separators=(",", ":")) + "\n"


def walk_words(model: SsmModel, mode: ArithMode, max_len: int) -> list:
    """(word, accepted) for every word of length 1..max_len, sharing prefix
    computations through the keys of the step the solvers run, which a
    retraction rebuilds as it does theirs."""

    def walk(stepper):
        def rec(key, word):
            for symbol in model.alphabet:
                nxt, y = stepper.step(key, symbol)
                extended = word + (symbol,)
                yield extended, y == stepper.one
                if len(extended) < max_len:
                    yield from rec(nxt, extended)

        return list(rec(stepper.init, ()))

    return _with_stepper(model, mode, walk)


def distinguishing_word(phi, model: SsmModel, mode: ArithMode, oracle: bool = False):
    """Translation validation of a compiled formula (Pnueli, Siegel and
    Singerman, TACAS 1998): a breadth-first search over the pairs (key of
    ``_automaton(phi)``, state of the model under ``mode``), levels in
    discovery order and letters in alphabet order.  At each transition the
    model must output 1 exactly where ``phi`` holds.  Returns None when the
    two agree on every word, else the least among the shortest words on
    which they differ.  The model's states are the keys of the step the
    solvers run or, with ``oracle``, the full states of the layer-major
    oracle behind the public ``step``, so that a step-compiler bug cannot
    hide a compiler bug.  They must be finitely many: a fixed format, or
    exact mode on an X-free formula."""
    if oracle:
        def advance(state, symbol):
            state, y = step(model, state, symbol)
            return state, is_one(y, mode)

        return _product_search(phi, model, initial_state(model, mode), advance)

    def search(stepper):
        def advance(key, symbol):
            key, y = stepper.step(key, symbol)
            return key, y == stepper.one

        return _product_search(phi, model, stepper.init, advance)

    return _with_stepper(model, mode, search)


def _product_search(phi, model: SsmModel, init, advance):
    """The breadth-first search of ``distinguishing_word`` from the model
    state ``init``, where ``advance(state, symbol)`` gives the next state
    and whether the model accepts."""
    judge_key, judge = _automaton(phi)
    letters = [(symbol, symbol_set(symbol)) for symbol in model.alphabet]
    pair = (judge_key, init)
    parents: dict = {pair: None}
    level = [pair]
    while level:
        next_level = []
        for pair in level:
            for symbol, letter in letters:
                judge_key, truth = judge(pair[0], letter)
                model_key, accepted = advance(pair[1], symbol)
                if accepted != truth:
                    word = [symbol]
                    while parents[pair] is not None:
                        pair, prior = parents[pair]
                        word.append(prior)
                    return tuple(reversed(word))
                if (judge_key, model_key) not in parents:
                    parents[judge_key, model_key] = (pair, symbol)
                    next_level.append((judge_key, model_key))
        level = next_level
    return None


def word_to_trace(word) -> tuple:
    return tuple(symbol_set(s) for s in word)


def trace_to_word(trace) -> list[str]:
    return [set_symbol(letter) for letter in trace]


# ---------------------------------------------------------------------------
# Random corpora (all deterministic under a caller-provided rng)

def random_formula(rng: random.Random, target_size: int, props=("p", "q")):
    """A random formula of exactly the given node count in core syntax."""
    if target_size <= 1:
        return Atom(rng.choice(props))
    if target_size == 2:
        op = rng.choice((Not, Next))
        return op(random_formula(rng, 1, props))
    if rng.random() < 0.4:
        op = rng.choice((Not, Next))
        return op(random_formula(rng, target_size - 1, props))
    op = rng.choice((And, Or, Until))
    left_size = rng.randint(1, target_size - 2)
    return op(
        random_formula(rng, left_size, props),
        random_formula(rng, target_size - 1 - left_size, props),
    )


def hand_formulas() -> list[str]:
    """25 formulas covering each operator, sugar, and nested temporal use."""
    return [
        "p",
        "q",
        "!p",
        "p & q",
        "p | q",
        "X p",
        "p U q",
        "F p",
        "G p",
        "p -> q",
        "tt",
        "ff",
        "tt U p",
        "X X p",
        "X (p U q)",
        "(X p) U q",
        "p U (q U p)",
        "p U X q",
        "!(p U !q)",
        "G (p -> X q)",
        "F (p & X p)",
        "(p | q) U (p & q)",
        "!X !p",
        "G F p",
        "F G p",
    ]


def random_machine(rng: random.Random, num_states: int) -> MinskyMachine:
    """A structurally valid machine: every non-final state either increments
    or branches on one counter; the final state halts."""
    states = tuple(f"q{i}" for i in range(num_states))
    transitions = set()
    for q in states[:-1]:
        if rng.random() < 0.5:
            i = rng.choice((1, 2))
            transitions.add((q, f"inc{i}", rng.choice(states)))
        else:
            i = rng.choice((1, 2))
            transitions.add((q, f"dec{i}", rng.choice(states)))
            transitions.add((q, f"ztest{i}", rng.choice(states)))
    return MinskyMachine(states, states[0], states[-1], frozenset(transitions))


def random_ilp(rng: random.Random, max_dim: int = 4, max_entry: int = 3) -> IlpInstance:
    """Random instance with natural entries; the target is resampled until it
    is nonzero, since an all-zero target is solved by the empty support,
    which no nonempty word can encode."""
    d = rng.randint(1, max_dim)
    matrix = tuple(
        tuple(rng.randint(0, max_entry) for _ in range(d)) for _ in range(d)
    )
    while True:
        target = tuple(rng.randint(0, max_entry) for _ in range(d))
        if any(target):
            return IlpInstance(matrix, target)


def geometric_model(gate, out):
    """One layer over the single symbol ``a``: h0 counts the symbols and h1
    becomes gate * h1 + 1, so after t symbols h1 is the geometric sum
    (1 - gate**t) / (1 - gate)."""
    layer = SsmLayer(
        as_vector([0, 0]),
        TimeInvariantGate(as_matrix([[1, 0], [0, gate]])),
        AffineMap(as_matrix([[1, 0], [0, 1]]), as_vector([0, 0])),
        projection_phi(2),
    )
    return SsmModel(alphabet=("a",), emb=(as_vector([1, 1]),), layers=(layer,), out=out)
