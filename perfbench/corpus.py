"""Seeded instance generators for the three workloads.

Everything here is the benchmark's own: formulas are built as small tuple
trees and printed to text without the library's parser or printer, and
machines and integer programs are drawn directly.  A change to the library
or to its tests therefore cannot change a workload's inputs; the digest
printed by ``run.py`` shows that two commits ran identical inputs.

Formula trees use the tags ``ap``, ``tt``, ``ff``, ``not``, ``X``, ``F``,
``G``, ``and``, ``or``, ``->`` and ``U``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

PROPS = ("p", "q", "r")

# Draws are stratified by a cost estimate: each corpus takes the same number
# of instances from each band of estimated cost, so that two seeds give
# corpora of nearly the same cost profile and a run's figures move with the
# program, not with the draw.  Unbounded, a single draw can pass 61k
# transitions.
#
# ltl_cost estimates `sat fixed` time in units of one L*d*d coordinate of the
# dense quantisation scan, which it runs twice; one fx transition costs
# about L*d/80 of those units.
#
# A percentile is steady only where many instances cost about the same: where
# they are sparse, a few per cent of noise in each swaps ranks and moves the
# percentile by the gap between neighbours.  So the random ltl_cli formulas
# are drawn in turn from this cycle of bands: two cheap ones, then dense
# clusters of six and of seven, which hold p50 and p90 once the 25 hand
# formulas (24 of them under 600) are counted in.
LTL_CLI_BANDS = ((0, 1000),) * 2 + ((1200, 1500),) * 6 + ((2800, 3600),) * 7
LTL_CLI_MAX_TRANSITIONS = 300
# ltl_deep, sorted by cost, is a body of two-pattern conjunctions with at
# most 500 transitions, an upper stratum of two- and three-pattern
# conjunctions a few times dearer, which holds p90, and a top of two
# four-pattern conjunctions and the two anchors.  Each stratum is dense, so
# p50 and p90 fall among many instances of similar cost.
DEEP_BODY_BANDS = tuple((low, low + 300) for low in range(400, 2200, 300))
DEEP_BODY_MAX_TRANSITIONS = 500
DEEP_UPPER = 24
DEEP_UPPER_BAND = (3200, 3700)
DEEP_UPPER_MAX_TRANSITIONS = 2_500
DEEP_TOP_BAND = (9000, 13000)


# ---------------------------------------------------------------------------
# Formula trees


def ap(name):
    return ("ap", name)


def neg(a):
    return ("not", a)


def nxt(a):
    return ("X", a)


def ev(a):
    return ("F", a)


def al(a):
    return ("G", a)


def conj(a, b):
    return ("and", a, b)


def disj(a, b):
    return ("or", a, b)


def impl(a, b):
    return ("->", a, b)


def until(a, b):
    return ("U", a, b)


TT = ("tt",)
FF = ("ff",)
_UNARY = {"not": "!", "X": "X ", "F": "F ", "G": "G "}
_BINARY = {"and": "&", "or": "|", "->": "->", "U": "U"}


def text(node) -> str:
    """Formula text in the CLI's grammar; every compound operand is
    parenthesised, so no precedence rule is relied on."""
    tag = node[0]
    if tag == "ap":
        return node[1]
    if tag in ("tt", "ff"):
        return tag

    def wrap(sub):
        return text(sub) if sub[0] in ("ap", "tt", "ff") else f"({text(sub)})"

    if tag in _UNARY:
        return _UNARY[tag] + wrap(node[1])
    return f"{wrap(node[1])} {_BINARY[tag]} {wrap(node[2])}"


def atoms(node) -> frozenset:
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n[0] == "ap":
            names.add(n[1])
        else:
            stack.extend(n[1:])
    return frozenset(names)


def lower(node):
    """Core syntax (ap, not, and, or, X, U) with the documented sugar rules:
    tt is ``m | !m`` over the least atom m of the formula (``p`` if none),
    F a is ``tt U a``, G a is ``!(tt U !a)`` and a -> b is ``!a | b``."""
    names = atoms(node)
    anchor = ap(min(names) if names else "p")
    tt = disj(anchor, neg(anchor))

    def go(n):
        tag = n[0]
        if tag == "ap":
            return n
        if tag == "tt":
            return tt
        if tag == "ff":
            return conj(anchor, neg(anchor))
        if tag == "F":
            return until(tt, go(n[1]))
        if tag == "G":
            return neg(until(tt, neg(go(n[1]))))
        if tag == "->":
            return disj(neg(go(n[1])), go(n[2]))
        return (tag,) + tuple(go(sub) for sub in n[1:])

    return go(node)


def subformulas(core) -> list:
    """Distinct subformulas, children first; the last is the formula."""
    seen: dict = {}

    def walk(n):
        if n in seen:
            return
        if n[0] != "ap":
            for sub in n[1:]:
                walk(sub)
        seen[n] = None

    walk(core)
    return list(seen)


def model_shape(core) -> tuple[int, int]:
    """(layers, dimension) of the compiled model: one layer per distinct
    subformula plus one for each X; one coordinate per proposition and per
    subformula plus a constant."""
    subs = subformulas(core)
    layers = len(subs) + sum(1 for s in subs if s[0] == "X")
    return layers, len(atoms(core)) + len(subs) + 1


def letters(props) -> list[frozenset]:
    names = sorted(props)
    return [
        frozenset(n for bit, n in enumerate(names) if m >> bit & 1)
        for m in range(1 << len(names))
    ]


def predicted_transitions(core, cap: int) -> int:
    """Transitions that breadth-first search over the compiled model's
    fx:6:3 stream states takes before it accepts or exhausts, or ``cap + 1``
    once it passes ``cap``.

    The compiled model reads the trace backwards.  Its stream state is fixed
    by the current letter, the value of each X at the current position, and
    each U's recurrence value l*u + r, which counts consecutive positions up
    to saturation at 3.875 (written 4 here).  This is a cost model used only
    to bound the draw, not a judge of any verdict."""
    subs = subformulas(core)
    index = {s: i for i, s in enumerate(subs)}
    program = [(s[0], index.get(s[1], s[1]), index[s[2]] if len(s) > 2 else 0) for s in subs]
    alphabet = letters(atoms(core))
    size = len(subs)

    def successor(truth_prev, counts_prev, letter):
        truth = [False] * size
        counts = []
        xs = []
        for i, (tag, a, b) in enumerate(program):
            if tag == "ap":
                truth[i] = a in letter
            elif tag == "not":
                truth[i] = not truth[a]
            elif tag == "and":
                truth[i] = truth[a] and truth[b]
            elif tag == "or":
                truth[i] = truth[a] or truth[b]
            elif tag == "X":
                truth[i] = truth_prev[a]
                xs.append(truth[i])
            else:
                u = min(truth[a] * counts_prev[len(counts)] + truth[b], 4)
                counts.append(u)
                truth[i] = u >= 1
        return truth, tuple(counts), tuple(xs)

    seen = set()
    level = [([False] * size, (0,) * size)]
    taken = 0
    while level:
        following = []
        for truth_prev, counts_prev in level:
            for letter in alphabet:
                taken += 1
                if taken > cap:
                    return taken
                truth, counts, xs = successor(truth_prev, counts_prev, letter)
                if truth[-1]:
                    return taken
                key = (letter, counts, xs)
                if key not in seen:
                    seen.add(key)
                    following.append((truth, counts))
        level = following
    return taken


def ltl_cost(core, max_transitions: int, ceiling: float):
    """Estimated `sat fixed` cost, or None when it needs more than
    max_transitions or costs ``ceiling`` or more."""
    layers, dim = model_shape(core)
    scan = layers * dim * dim
    if scan >= ceiling:
        return None
    cap = min(max_transitions, int((ceiling - scan) * 80 / (layers * dim)))
    taken = predicted_transitions(core, cap)
    if taken > cap:
        return None
    return scan + taken * layers * dim / 80


def banded(rng: random.Random, draw, cost, bands) -> list:
    """One draw per band, redrawn until its cost lies in the band."""
    out = []
    for low, high in bands:
        while True:
            item = draw(rng)
            c = cost(item)
            if c is not None and low <= c < high:
                out.append(item)
                break
    return out


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Instance:
    """One verdict request.  ``kind`` is ltl, minsky or ilp; ``source`` is
    the formula text or the input file text; ``max_len`` is set for the
    bounded search."""

    kind: str
    source: str
    formula: tuple = ()
    machine: tuple = ()
    matrix: tuple = ()
    target: tuple = ()
    max_len: int = 0


def ltl_instance(node) -> Instance:
    return Instance("ltl", text(node), formula=node)


HAND_FORMULAS = [
    ap("p"),
    ap("q"),
    neg(ap("p")),
    conj(ap("p"), ap("q")),
    disj(ap("p"), ap("q")),
    nxt(ap("p")),
    until(ap("p"), ap("q")),
    ev(ap("p")),
    al(ap("p")),
    impl(ap("p"), ap("q")),
    TT,
    FF,
    until(TT, ap("p")),
    nxt(nxt(ap("p"))),
    nxt(until(ap("p"), ap("q"))),
    until(nxt(ap("p")), ap("q")),
    until(ap("p"), until(ap("q"), ap("p"))),
    until(ap("p"), nxt(ap("q"))),
    neg(until(ap("p"), neg(ap("q")))),
    al(impl(ap("p"), nxt(ap("q")))),
    ev(conj(ap("p"), nxt(ap("p")))),
    until(disj(ap("p"), ap("q")), conj(ap("p"), ap("q"))),
    neg(nxt(neg(ap("p")))),
    al(ev(ap("p"))),
    ev(al(ap("p"))),
]


def random_core(rng: random.Random, size: int):
    """A core-syntax formula of exactly ``size`` nodes over PROPS."""
    if size <= 1:
        return ap(rng.choice(PROPS))
    if size == 2 or rng.random() < 0.4:
        return (rng.choice(("not", "X")), random_core(rng, size - 1))
    left = rng.randint(1, size - 2)
    return (rng.choice(("and", "or", "U")), random_core(rng, left),
            random_core(rng, size - 1 - left))


def ltl_cli_corpus(rng: random.Random, count: int) -> list[Instance]:
    """The 25 hand formulas and random formulas of 6-14 nodes, taken in
    turn from the LTL_CLI_BANDS cycle, then shuffled."""
    bands = [LTL_CLI_BANDS[i % len(LTL_CLI_BANDS)] for i in range(count - len(HAND_FORMULAS))]
    nodes = list(HAND_FORMULAS) + banded(
        rng, lambda r: random_core(r, r.randint(6, 14)),
        lambda core: ltl_cost(core, LTL_CLI_MAX_TRANSITIONS, max(b[1] for b in LTL_CLI_BANDS)),
        bands)
    rng.shuffle(nodes)
    return [ltl_instance(n) for n in nodes]


PATTERNS = [
    lambda a, b: al(impl(a, nxt(b))),
    lambda a, b: al(impl(a, nxt(neg(b)))),
    lambda a, b: ev(conj(a, nxt(b))),
    lambda a, b: ev(conj(a, nxt(nxt(b)))),
    lambda a, b: until(a, b),
    lambda a, b: until(neg(a), b),
    lambda a, b: al(disj(a, b)),
    lambda a, b: al(ev(a)),
    lambda a, b: ev(al(a)),
    lambda a, b: al(impl(a, ev(b))),
]

ANCHORS = [
    conj(until(ap("a"), until(ap("b"), until(ap("c"), ap("d")))),
         nxt(nxt(nxt(neg(ap("d")))))),
    conj(conj(al(impl(ap("p"), nxt(ap("q")))),
              al(impl(ap("q"), nxt(neg(ap("p")))))),
         ev(conj(ap("p"), nxt(nxt(ap("p")))))),
]


def pattern_conjunction(rng: random.Random, width: int):
    parts = []
    for _ in range(width):
        a, b = rng.sample(PROPS, 2)
        parts.append(rng.choice(PATTERNS)(ap(a), ap(b)))
    node = parts[0]
    for part in parts[1:]:
        node = conj(node, part)
    return node


def ltl_deep_corpus(rng: random.Random, count: int) -> list[Instance]:
    """The two anchors, two four-pattern draws in DEEP_TOP_BAND, DEEP_UPPER
    draws of two or three patterns in DEEP_UPPER_BAND and a body of
    two-pattern draws taken in turn from DEEP_BODY_BANDS.  Shuffled."""

    def stratum(widths, max_transitions, bands):
        return [
            node
            for width, band in zip(widths, bands)
            for node in banded(rng, lambda r: pattern_conjunction(r, width),
                               lambda node: ltl_cost(lower(node), max_transitions, band[1]),
                               [band])
        ]

    body = count - len(ANCHORS) - 2 - DEEP_UPPER
    nodes = list(ANCHORS)
    nodes += stratum((4, 4), DEEP_UPPER_MAX_TRANSITIONS, (DEEP_TOP_BAND,) * 2)
    nodes += stratum((2, 3) * (DEEP_UPPER // 2), DEEP_UPPER_MAX_TRANSITIONS,
                     (DEEP_UPPER_BAND,) * DEEP_UPPER)
    nodes += stratum((2,) * body, DEEP_BODY_MAX_TRANSITIONS,
                     [DEEP_BODY_BANDS[i % len(DEEP_BODY_BANDS)] for i in range(body)])
    rng.shuffle(nodes)
    return [ltl_instance(n) for n in nodes]


def random_machine(rng: random.Random, states: int) -> tuple:
    """(state names, transitions) of a machine obeying the CLI's determinism
    rule: every non-final state increments one counter or branches on one
    counter with a dec/ztest pair; the last state is final."""
    names = tuple(f"q{i}" for i in range(states))
    transitions = set()
    for q in names[:-1]:
        c = rng.choice((1, 2))
        if rng.random() < 0.5:
            transitions.add((q, f"inc{c}", rng.choice(names)))
        else:
            transitions.add((q, f"dec{c}", rng.choice(names)))
            transitions.add((q, f"ztest{c}", rng.choice(names)))
    return names, tuple(sorted(transitions))


def machine_text(names, transitions) -> str:
    lines = [f"start: {names[0]}", f"final: {names[-1]}"]
    lines += [f"{q} {a} {q2}" for q, a, q2 in transitions]
    return "\n".join(lines) + "\n"


def ilp_text(matrix, target) -> str:
    rows = [str(len(matrix))] + [" ".join(map(str, row)) for row in matrix]
    return "\n".join(rows + [" ".join(map(str, target))]) + "\n"


ACTIONS = ("inc1", "inc2", "dec1", "dec2", "ztest1", "ztest2")


def machine_run(names, transitions, max_len: int):
    """The machine's unique run from (q0, 0, 0) as (state, action) letters,
    if it reaches the final state within max_len steps."""
    step = {}
    for q, a, q2 in transitions:
        step.setdefault(q, {})[a[:-1]] = (a, q2, int(a[-1]) - 1)
    q, counters, run = names[0], [0, 0], []
    while q != names[-1]:
        if len(run) == max_len or q not in step:
            return None
        moves = step[q]
        if "inc" in moves:
            a, q2, c = moves["inc"]
            counters[c] += 1
        else:
            a, q2, c = moves["dec"]
            if counters[c]:
                counters[c] -= 1
            else:
                a, q2, c = moves["ztest"]
        run.append((q2, a))
        q = q2
    return run


def machine_transitions(names, transitions, max_len: int) -> int:
    """Transitions of ``sat bounded --max-len max_len`` on the compiled
    machine: iterative deepening over the letters in the model's order, up
    to the machine's run.  Exact-mode stream states keep the whole state
    history, so the memo is taken never to hit."""
    text_order = [names[0], names[-1]] + [q for t in transitions for q in (t[0], t[2])]
    rank = {q: i for i, q in reversed(list(enumerate(text_order)))}
    alphabet = sorted({(q2, a) for _, a, q2 in transitions},
                      key=lambda p: (rank[p[0]], ACTIONS.index(p[1])))
    run = machine_run(names, transitions, max_len)
    taken = 0
    for length in range(1, max_len + 1):
        next_index, prefix = [0], []
        while next_index:
            if next_index[-1] == len(alphabet):
                next_index.pop()
                if prefix:
                    prefix.pop()
                continue
            letter = alphabet[next_index[-1]]
            next_index[-1] += 1
            taken += 1
            if len(next_index) < length:
                next_index.append(0)
                prefix.append(letter)
            elif prefix + [letter] == run:
                return taken
    return taken


def ilp_solutions(matrix, target) -> list[tuple]:
    d = len(matrix)
    return [
        v for m in range(1, 1 << d)
        for v in [tuple(m >> i & 1 for i in range(d))]
        if all(sum(w * x for w, x in zip(row, v)) == b for row, b in zip(matrix, target))
    ]


# Minsky draws take (states, --max-len, transitions band) in turn, the bands
# being of machine_transitions.  ILP draws take (dimension, ones) in turn: a
# program with k ones has the target A v of a drawn v with k ones, and one
# with none has a random target and no solution, so its bounded search
# visits every multiset of indices (1,050 transitions at dimension 5; 4,752
# at dimension 6, which is why those stop at dimension 5).
#
# A shared host speeds up and slows down by up to 2x within seconds, and an
# instance of a few tens of milliseconds is timed within one such phase.
# Sorted by cost, a corpus is therefore three clusters of equal work: about
# 40% programs and machines that end within ten transitions, 45% two-state
# machines with two letters that take all 114 transitions of --max-len 5,
# which hold p50, and 15% unsatisfiable five-dimensional programs, which
# hold p90.
MINSKY_SHAPES = ((2, 5, (100, 150)),) * 9 + ((3, 4, (1, 10)),) + (
    (2, 5, (100, 150)),) * 9 + ((4, 5, (1, 10)),)
ILP_SHAPES = ((2, 1), (5, 0), (3, 0), (6, 1), (5, 0), (4, 2), (2, 0), (5, 0),
              (6, 2), (3, 1))


def minsky_instance(rng: random.Random, states: int, max_len: int, band: tuple) -> Instance:
    while True:
        names, transitions = random_machine(rng, states)
        if band[0] <= machine_transitions(names, transitions, max_len) < band[1]:
            return Instance("minsky", machine_text(names, transitions),
                            machine=(names, transitions), max_len=max_len)


def ilp_instance(rng: random.Random, dim: int, ones: int) -> Instance:
    while True:
        matrix = tuple(tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(dim))
        if ones:
            picked = rng.sample(range(dim), ones)
            target = tuple(sum(row[c] for c in picked) for row in matrix)
        else:
            target = tuple(rng.randint(0, 3) for _ in range(dim))
        if any(target) and bool(ones) == bool(ilp_solutions(matrix, target)):
            return Instance("ilp", ilp_text(matrix, target), matrix=matrix,
                            target=target, max_len=dim)


def bounded_exact_corpus(rng: random.Random, count: int) -> list[Instance]:
    """Minsky machines and 0-1 integer programs in alternation."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(minsky_instance(rng, *MINSKY_SHAPES[(i // 2) % len(MINSKY_SHAPES)]))
        else:
            out.append(ilp_instance(rng, *ILP_SHAPES[(i // 2) % len(ILP_SHAPES)]))
    return out


GENERATORS = {
    "ltl_cli": ltl_cli_corpus,
    "ltl_deep": ltl_deep_corpus,
    "bounded_exact": bounded_exact_corpus,
}


def generate(workload: str, seed: int, count: int) -> list[Instance]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), count)


def digest(instances: list[Instance]) -> str:
    """SHA-256 over the instance kinds, sources and bounds, in order."""
    payload = json.dumps([(i.kind, i.source, i.max_len) for i in instances])
    return hashlib.sha256(payload.encode()).hexdigest()
