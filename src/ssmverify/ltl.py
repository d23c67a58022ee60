"""Linear temporal logic over finite traces: grammar, 1-based semantics,
a complete satisfiability judge, brute-force satisfiability, and the
small-model bound.

Core connectives are atom, !, |, &, X and U; ->, F, G, tt and ff are sugar
lowered as the parser reads them (tt becomes ``a | !a`` over the
alphabetically least atom of the text, or the atom ``p`` when the text
mentions none).  Traces are tuples of letters, each letter a frozenset of
proposition names.
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
            raise LtlSyntaxError(f"unexpected character {stripped[0]!r}", pos)
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        anchor = Atom(min((v for k, v, _ in self.tokens if k == "atom"), default="p"))
        self.tt = Or(anchor, Not(anchor))
        self.ff = And(anchor, Not(anchor))

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise LtlSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        ast = self.implication()
        tok = self.peek()
        if tok[0] != "eof":
            raise LtlSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return ast

    def implication(self):
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take("->")
            return Or(Not(left), self.implication())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.until()
        while self.peek()[0] == "&":
            self.take("&")
            node = And(node, self.until())
        return node

    def until(self):
        left = self.unary()
        if self.peek()[0] == "U":
            self.take("U")
            return Until(left, self.until())
        return left

    def unary(self):
        kind, _, _ = self.peek()
        if kind == "!":
            self.take("!")
            return Not(self.unary())
        if kind == "X":
            self.take("X")
            return Next(self.unary())
        if kind == "F":
            self.take("F")
            return Until(self.tt, self.unary())
        if kind == "G":
            self.take("G")
            return Not(Until(self.tt, Not(self.unary())))
        return self.primary()

    def primary(self):
        kind, value, pos = self.peek()
        if kind == "atom":
            self.take("atom")
            return Atom(value)
        if kind in ("tt", "ff"):
            self.take(kind)
            return self.tt if kind == "tt" else self.ff
        if kind == "(":
            self.take("(")
            node = self.implication()
            self.take(")")
            return node
        raise LtlSyntaxError(f"expected a formula, found {value or 'end of input'!r}", pos)


# The deepest lowered tree ``parse`` accepts, counted in nodes from the root
# to the deepest leaf.  ``pretty`` takes two stack frames per level and
# ``holds`` one, so this leaves them room under the default recursion limit.
MAX_NESTING = 256


def _depth(phi: LtlFormula) -> int:
    """Nodes on the longest root-to-leaf path, measured without recursion."""
    deepest, stack = 0, [(phi, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += [(child, depth + 1) for child in children(node)]
    return deepest


def parse(text: str) -> LtlFormula:
    """Parse and lower a formula; round-trips through ``pretty``.  A formula
    nested deeper than ``MAX_NESTING`` is an ``LtlSyntaxError``."""
    parser = _Parser(text)
    try:
        phi = parser.parse()
    except RecursionError:
        raise LtlSyntaxError("formula nested too deeply", parser.peek()[2]) from None
    if _depth(phi) > MAX_NESTING:
        raise LtlSyntaxError("formula nested too deeply", 0)
    return phi


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


def trace_labels(phi: LtlFormula, trace: Trace) -> dict[LtlFormula, list[bool]]:
    """Bottom-up truth tables: for each distinct subformula, its value at
    every position.  Agrees with ``holds`` but costs O(k * n) per trace."""
    n = len(trace)
    labels: dict[LtlFormula, list[bool]] = {}
    for sub in subformulas_topo(phi):
        if isinstance(sub, Atom):
            row = [sub.name in letter for letter in trace]
        elif isinstance(sub, Not):
            inner = labels[sub.sub]
            row = [not v for v in inner]
        elif isinstance(sub, And):
            lrow, rrow = labels[sub.left], labels[sub.right]
            row = [a and b for a, b in zip(lrow, rrow)]
        elif isinstance(sub, Or):
            lrow, rrow = labels[sub.left], labels[sub.right]
            row = [a or b for a, b in zip(lrow, rrow)]
        elif isinstance(sub, Next):
            inner = labels[sub.sub]
            row = [inner[i + 1] if i + 1 < n else False for i in range(n)]
        else:
            lrow, rrow = labels[sub.left], labels[sub.right]
            row = [False] * n
            for i in range(n - 1, -1, -1):
                nxt = row[i + 1] if i + 1 < n else False
                row[i] = rrow[i] or (lrow[i] and nxt)
        labels[sub] = row
    return labels


def models(phi: LtlFormula, trace: Trace) -> bool:
    if not trace:
        return False
    return trace_labels(phi, trace)[phi][0]


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

    The reversed trace is read as ``trace_labels`` reads a trace, right to
    left: each subformula's truth at a position follows from the letter
    there and the truths one position later, of which only the operands of
    X and the untils are read.  Those truths, all false past the end, are
    the states of a deterministic automaton, and a breadth-first search over
    them, levels in discovery order, stops at the first letter that makes
    ``phi`` true (De Giacomo and Vardi, IJCAI 2013).  No SSM and no
    arithmetic take part."""
    subs = subformulas_topo(phi)
    at = {sub: k for k, sub in enumerate(subs)}
    carried = sorted({at[s.sub] for s in subs if isinstance(s, Next)}
                     | {at[s] for s in subs if isinstance(s, Until)})

    def labels(key: tuple, letter: frozenset) -> list[bool]:
        """The truths at a position with this letter, where ``key`` holds
        the carried truths one position later."""
        later = dict(zip(carried, key))
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
                row.append(later[at[sub.sub]])
            else:
                row.append(row[at[sub.right]] or (row[at[sub.left]] and later[at[sub]]))
        return row

    parents: dict = {(False,) * len(carried): None}
    level, alphabet = list(parents), letters(atoms(phi))
    while level:
        next_level = []
        for key in level:
            for letter in alphabet:
                row = labels(key, letter)
                if row[-1]:
                    word = [letter]
                    while parents[key] is not None:
                        key, prior = parents[key]
                        word.append(prior)
                    return tuple(reversed(word))
                new_key = tuple(row[k] for k in carried)
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
    props = atoms(phi)
    for length in range(1, max_len + 1):
        for trace in enumerate_traces(props, length):
            if models(phi, trace):
                return trace
    return None
