"""Linear temporal logic over finite traces: grammar, a parser without
recursion, the recursive 1-based semantics ``holds`` (the independent
reference), one automaton that serves both ``models`` and the complete
satisfiability judge, brute-force satisfiability, and the small-model bound.

Core connectives are atom, !, |, &, X and U; ->, F, G, tt and ff are sugar
lowered as the parser reads them (tt becomes ``a | !a`` over the
alphabetically least atom of the text, or the atom ``p`` when the text
mentions none, so its atom is a proposition of the formula; the LTL
compiler reads any ``a | !a`` as the constant 1).  Traces are tuples of
letters, each letter a frozenset of proposition names.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Iterator, Optional

from ._value import Value
from .errors import LtlSyntaxError, TracePositionError

Trace = tuple[frozenset, ...]


class Atom(Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Not(Value):
    __slots__ = _fields = ("sub",)

    def __init__(self, sub: LtlFormula):
        object.__setattr__(self, "sub", sub)


class Or(Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: LtlFormula, right: LtlFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: LtlFormula, right: LtlFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Next(Value):
    __slots__ = _fields = ("sub",)

    def __init__(self, sub: LtlFormula):
        object.__setattr__(self, "sub", sub)


class Until(Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: LtlFormula, right: LtlFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


LtlFormula = Atom | Not | Or | And | Next | Until


def children(phi: LtlFormula) -> tuple[LtlFormula, ...]:
    """The direct subformulas, left before right."""
    if isinstance(phi, Atom):
        return ()
    if isinstance(phi, (Not, Next)):
        return (phi.sub,)
    return (phi.left, phi.right)


def size(phi: LtlFormula) -> int:
    """Node count of the lowered formula tree."""
    return 1 + sum(map(size, children(phi)))


def atoms(phi: LtlFormula) -> frozenset:
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    return frozenset().union(*map(atoms, children(phi)))


def small_model_bound(phi: LtlFormula) -> int:
    """Every satisfiable formula has a model no longer than |phi| * 2**|phi|."""
    n = size(phi)
    return n * (1 << n)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<op>[!&|()])|(?P<temporal>[XUFG])|(?P<word>[a-z][a-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise LtlSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "word":
            word = m.group("word")
            kind = word if word in ("tt", "ff") else "atom"
            tokens.append((kind, word, m.start("word")))
        elif m.lastgroup == "arrow":
            tokens.append(("->", "->", m.start("arrow")))
        else:
            val = m.group(m.lastgroup)
            tokens.append((val, val, m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# The deepest lowered tree ``parse`` accepts, counted in nodes from the root
# to the deepest leaf, and the most parentheses it keeps open at once.
# ``pretty`` takes two stack frames per level and ``holds`` one, so this
# leaves them room under the default recursion limit.
MAX_NESTING = 256

# How tightly each operator binds; "(" binds nothing until its ")".  The
# prefix operators bind tightest, -> and U group to the right and | and & to
# the left.
_POWER = {"(": 0, "->": 1, "|": 2, "&": 3, "U": 4, "!": 5, "X": 5, "F": 5, "G": 5}
_BINARY = {"|": Or, "&": And, "U": Until}


def parse(text: str) -> LtlFormula:
    """Parse and lower a formula; round-trips through ``pretty``.

    One loop over the tokens, with no recursion, keeps the operands read so
    far, each with the nodes on its longest root-to-leaf path, and the
    operators and parentheses still waiting for theirs.  A formula whose
    lowered tree is deeper than ``MAX_NESTING``, or that keeps more than
    ``MAX_NESTING`` parentheses open, is an ``LtlSyntaxError`` at the first
    token that shows it: the node's last token, the ``(`` past the limit, or
    an operator that leaves ``MAX_NESTING`` operators over the next operand,
    each of which is its ancestor."""
    tokens = _tokenize(text)
    anchor = Atom(min((v for k, v, _ in tokens if k == "atom"), default="p"))
    tt = Or(anchor, Not(anchor))
    constants = {"tt": (tt, 3), "ff": (And(anchor, Not(anchor)), 3)}
    operands: list[tuple[LtlFormula, int]] = []
    ops: list[str] = []
    opened, operand_next = 0, True

    def reduce(pos: int):
        op = ops.pop()
        sub, d = operands.pop()
        if op == "!":
            node, d = Not(sub), d + 1
        elif op == "X":
            node, d = Next(sub), d + 1
        elif op == "F":
            node, d = Until(tt, sub), max(d, 3) + 1
        elif op == "G":
            node, d = Not(Until(tt, Not(sub))), max(d + 1, 3) + 2
        else:
            left, e = operands.pop()
            if op == "->":
                node, d = Or(Not(left), sub), max(e + 1, d) + 1
            else:
                node, d = _BINARY[op](left, sub), max(e, d) + 1
        if d > MAX_NESTING:
            raise LtlSyntaxError("formula nested too deeply", pos)
        operands.append((node, d))

    for kind, value, pos in tokens:
        if operand_next:
            if kind in ("atom", "tt", "ff"):
                operands.append((Atom(value), 1) if kind == "atom" else constants[kind])
                operand_next = False
                continue
            if kind not in ("(", "!", "X", "F", "G"):
                raise LtlSyntaxError(f"expected a formula, found {value or 'end of input'!r}", pos)
        else:
            if kind in ("->", "|", "&", "U"):
                # an operator completes those that bind at least as tightly,
                # but -> and U leave their own kind waiting for its right side
                bar = _POWER[kind] + (kind in ("->", "U"))
            elif kind == (")" if opened else "eof"):
                bar = 1
            elif opened:
                raise LtlSyntaxError(f"expected ')', found {value or 'end of input'!r}", pos)
            else:
                raise LtlSyntaxError(f"trailing input {value!r}", pos)
            while ops and _POWER[ops[-1]] >= bar:
                reduce(pos)
            if kind == "eof":
                return operands[0][0]
            if kind == ")":
                ops.pop()
                opened -= 1
                continue
            operand_next = True
        ops.append(kind)
        opened += kind == "("
        if opened > MAX_NESTING or len(ops) - opened >= MAX_NESTING:
            raise LtlSyntaxError("formula nested too deeply", pos)


_PREC = {Or: 1, And: 2, Until: 3, Not: 4, Next: 4, Atom: 5}


def pretty(phi: LtlFormula) -> str:
    """Core-syntax text; ``parse(pretty(phi)) == phi``."""

    def wrap(sub: LtlFormula, limit: int) -> str:
        text = pretty(sub)
        return f"({text})" if _PREC[type(sub)] < limit else text

    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        return "!" + wrap(phi.sub, 4)
    if isinstance(phi, Next):
        return "X " + wrap(phi.sub, 4)
    if isinstance(phi, Until):
        # right-associative: parenthesise a left child that is itself an U
        left = wrap(phi.left, 4)
        return f"{left} U {wrap(phi.right, 3)}"
    if isinstance(phi, And):
        return f"{wrap(phi.left, 2)} & {wrap(phi.right, 3)}"
    return f"{wrap(phi.left, 1)} | {wrap(phi.right, 2)}"


# ---------------------------------------------------------------------------
# Semantics

def holds(phi: LtlFormula, trace: Trace, i: int) -> bool:
    """The inductive satisfaction relation at 1-based position i."""
    n = len(trace)
    if not 1 <= i <= n:
        raise TracePositionError(f"position {i} outside 1..{n}")
    if isinstance(phi, Atom):
        return phi.name in trace[i - 1]
    if isinstance(phi, Not):
        return not holds(phi.sub, trace, i)
    if isinstance(phi, And):
        return holds(phi.left, trace, i) and holds(phi.right, trace, i)
    if isinstance(phi, Or):
        return holds(phi.left, trace, i) or holds(phi.right, trace, i)
    if isinstance(phi, Next):
        return i < n and holds(phi.sub, trace, i + 1)
    # Until: some k in [i, n] satisfies the right side, left holds before it
    for k in range(i, n + 1):
        if holds(phi.right, trace, k):
            return True
        if not holds(phi.left, trace, k):
            return False
    return False


def subformulas_topo(phi: LtlFormula) -> list[LtlFormula]:
    """Distinct subformulas ordered so children precede parents (syntactic
    duplicates shared); the last entry is the formula itself."""
    seen: dict[LtlFormula, None] = {}

    def walk(node: LtlFormula):
        if node in seen:
            return
        for child in children(node):
            walk(child)
        seen[node] = None

    walk(phi)
    return list(seen)


def _automaton(phi: LtlFormula):
    """The deterministic automaton that reads a trace from its last letter
    to its first (De Giacomo and Vardi, IJCAI 2013).  Each subformula's
    truth at a position follows from the letter there and the truths one
    position later, of which only those of the X operands and the untils
    are read.  A key is the tuple of those carried truths, all false past
    the end.  Returns the initial key and ``step(key, letter)``, which gives
    the key at this position and the truth of ``phi`` there."""
    subs = subformulas_topo(phi)
    at = {sub: k for k, sub in enumerate(subs)}
    carried = sorted({at[s.sub] for s in subs if isinstance(s, Next)}
                     | {at[s] for s in subs if isinstance(s, Until)})
    slot = {k: c for c, k in enumerate(carried)}

    def step(key: tuple, letter: frozenset) -> tuple[tuple, bool]:
        row: list[bool] = []
        for sub in subs:
            if isinstance(sub, Atom):
                row.append(sub.name in letter)
            elif isinstance(sub, Not):
                row.append(not row[at[sub.sub]])
            elif isinstance(sub, And):
                row.append(row[at[sub.left]] and row[at[sub.right]])
            elif isinstance(sub, Or):
                row.append(row[at[sub.left]] or row[at[sub.right]])
            elif isinstance(sub, Next):
                row.append(key[slot[at[sub.sub]]])
            else:
                row.append(row[at[sub.right]] or (row[at[sub.left]] and key[slot[at[sub]]]))
        return tuple(row[k] for k in carried), row[-1]

    return (False,) * len(carried), step


def _run(automaton, trace: Trace) -> bool:
    """The truth that ``automaton``, an ``_automaton`` pair, gives at the
    first position of ``trace``; False on the empty trace."""
    key, step = automaton
    truth = False
    for letter in reversed(trace):
        key, truth = step(key, letter)
    return truth


def models(phi: LtlFormula, trace: Trace) -> bool:
    """Whether ``phi`` holds at the first position of ``trace``: ``_automaton``
    folded over the reversed trace.  The empty trace is a model of nothing."""
    return _run(_automaton(phi), trace)


def letters(props) -> list[frozenset]:
    """All subsets of the proposition set in binary-counting order."""
    names = sorted(props)
    return [
        frozenset(name for bit, name in enumerate(names) if m >> bit & 1)
        for m in range(1 << len(names))
    ]


def least_reversed_model(phi: LtlFormula) -> Optional[Trace]:
    """Decide LTL_f satisfiability on the formula: the lexicographically
    least among the shortest reversed models of ``phi`` (a model read from
    its last letter to its first, letters in ``letters`` order), or None
    when ``phi`` has no model.

    A breadth-first search over the keys of ``_automaton``, levels in
    discovery order and letters in ``letters`` order, stops at the first
    letter that makes ``phi`` true.  No SSM and no arithmetic take part."""
    key, step = _automaton(phi)
    parents: dict = {key: None}
    level, alphabet = [key], letters(atoms(phi))
    while level:
        next_level = []
        for key in level:
            for letter in alphabet:
                new_key, truth = step(key, letter)
                if truth:
                    word = [letter]
                    while parents[key] is not None:
                        key, prior = parents[key]
                        word.append(prior)
                    return tuple(reversed(word))
                if new_key not in parents:
                    parents[new_key] = (key, letter)
                    next_level.append(new_key)
        level = next_level
    return None


def enumerate_traces(props, length: int) -> Iterator[Trace]:
    """All traces of exactly this length, lexicographic in the letter order."""
    for combo in product(letters(props), repeat=length):
        yield combo


def satisfiable_bruteforce(phi: LtlFormula, max_len: int) -> Optional[Trace]:
    """First model in canonical order among traces of length 1..max_len over
    the formula's own propositions; None is a definite no-model-up-to-bound."""
    props, automaton = atoms(phi), _automaton(phi)
    for length in range(1, max_len + 1):
        for trace in enumerate_traces(props, length):
            if _run(automaton, trace):
                return trace
    return None
