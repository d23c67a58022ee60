"""Grammar, finite-trace semantics, and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hand_formulas, random_formula
from ssmverify.errors import LtlSyntaxError, TracePositionError
from ssmverify.ltl import (
    MAX_NESTING,
    And,
    Atom,
    Next,
    Not,
    Or,
    Until,
    atoms,
    enumerate_traces,
    holds,
    least_reversed_model,
    letters,
    models,
    parse,
    pretty,
    satisfiable_bruteforce,
    size,
    small_model_bound,
    subformulas_topo,
)

P, Q = Atom("p"), Atom("q")


def T(*sets):
    return tuple(frozenset(s) for s in sets)


def test_parse_basics():
    assert parse("p U q") == Until(P, Q)
    assert parse("!X p") == Not(Next(P))
    assert parse("p & q | r") == Or(And(P, Q), Atom("r"))
    assert parse("p U q & r") == And(Until(P, Q), Atom("r"))
    assert parse("p U q U r") == Until(P, Until(Q, Atom("r")))
    assert parse("p -> q") == Or(Not(P), Q)
    assert parse("X X p") == Next(Next(P))


def test_parse_lowers_sugar():
    tt = Or(P, Not(P))
    assert parse("F p") == Until(tt, P)
    assert parse("G p") == Not(Until(tt, Not(P)))
    assert parse("tt") == Or(P, Not(P))  # anchored on the fallback atom
    assert parse("ff U q") == Until(And(Q, Not(Q)), Q)
    # anchored on the alphabetically least atom, not on the first one
    a = Atom("a")
    assert parse("F b & a") == And(Until(Or(a, Not(a)), Atom("b")), a)


def test_parse_errors_carry_position():
    with pytest.raises(LtlSyntaxError) as err:
        parse("p U")
    assert err.value.position == 3
    # the bad character's own position, not that of the space before it
    with pytest.raises(LtlSyntaxError) as err:
        parse("p % q")
    assert err.value.position == 2
    with pytest.raises(LtlSyntaxError):
        parse("(p")
    with pytest.raises(LtlSyntaxError):
        parse("p q")


def test_f_lowering_semantically_equals_direct_f():
    phi = parse("F p")
    for n in range(1, 5):
        for trace in enumerate_traces({"p"}, n):
            direct = any(holds(P, trace, k) for k in range(1, n + 1))
            assert holds(phi, trace, 1) == direct


def test_holds_examples():
    assert holds(P, T({"p"}), 1)
    assert not holds(Next(P), T({"p"}), 1)  # X fails at the last position
    assert holds(Until(P, Q), T({"p"}, {"p"}, {"q"}), 1)
    assert not holds(Until(P, Q), T({"p"}, {}, {"q"}), 1)


def test_holds_position_bounds():
    with pytest.raises(TracePositionError):
        holds(P, T({"p"}), 0)
    with pytest.raises(TracePositionError):
        holds(P, T({"p"}), 2)
    with pytest.raises(TracePositionError):
        holds(P, (), 1)  # the empty trace has no positions


@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200)
def test_negation_duality(seed, fsize, tlen):
    rng = random.Random(seed)
    phi = random_formula(rng, fsize)
    trace = tuple(
        frozenset(p for p in ("p", "q") if rng.random() < 0.5) for _ in range(tlen)
    )
    i = rng.randint(1, tlen)
    assert holds(Not(phi), trace, i) == (not holds(phi, trace, i))


def test_until_unrolling_exhaustive():
    pairs = [(P, Q), (Q, P), (Not(P), Q), (P, And(P, Q)), (Next(P), Q)]
    for phi, psi in pairs:
        u = Until(phi, psi)
        for n in range(1, 5):
            for trace in enumerate_traces({"p", "q"}, n):
                for i in range(1, n + 1):
                    unrolled = holds(psi, trace, i) or (
                        holds(phi, trace, i) and i < n and holds(u, trace, i + 1)
                    )
                    assert holds(u, trace, i) == unrolled


@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200)
def test_models_agree_with_holds(seed, fsize, tlen):
    """The automaton behind ``models``, run on each suffix, against the
    recursive ``holds`` at each position."""
    rng = random.Random(seed)
    phi = random_formula(rng, fsize)
    trace = tuple(
        frozenset(p for p in ("p", "q") if rng.random() < 0.5) for _ in range(tlen)
    )
    for i in range(1, tlen + 1):
        assert models(phi, trace[i - 1:]) == holds(phi, trace, i)


def test_bruteforce_contradiction():
    assert satisfiable_bruteforce(And(P, Not(P)), 6) is None


def test_bruteforce_canonical_order():
    # binary-counting letters: {} before {p}; shortest first
    assert satisfiable_bruteforce(P, 1) == T({"p"})
    assert satisfiable_bruteforce(Next(P), 2) == T({}, {"p"})


def check_judge_by_bruteforce(phi, max_len: int):
    """``least_reversed_model`` against every trace of up to ``max_len``
    letters: no model that short exists iff the judge's is longer or
    missing, and a judged model that short is the first of its length whose
    reversal is a model, in ``enumerate_traces`` order."""
    judged = least_reversed_model(phi)
    if judged is None or len(judged) > max_len:
        assert satisfiable_bruteforce(phi, max_len) is None
        return
    assert len(satisfiable_bruteforce(phi, max_len)) == len(judged)
    first = next(t for t in enumerate_traces(atoms(phi), len(judged)) if models(phi, t[::-1]))
    assert judged == first


@pytest.mark.parametrize("text", hand_formulas() + ["G p & F !p", "(p U q) & G !q",
                                                    "G (p -> X q) & G (q -> X !p) & F (p & X X p)"])
def test_judge_agrees_with_bruteforce_on_hand_formulas(text):
    check_judge_by_bruteforce(parse(text), 5)


@given(st.integers(0, 10**9), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_judge_agrees_with_bruteforce(seed, fsize):
    check_judge_by_bruteforce(random_formula(random.Random(seed), fsize), 4)


def test_judge_decides_past_any_bound():
    """The judge is complete: it proves unsatisfiability outright, and finds
    models longer than a brute force would reach."""
    assert least_reversed_model(parse("G p & F !p")) is None
    assert least_reversed_model(parse("(p U q) & G !q")) is None
    deep = least_reversed_model(parse("X X X X X X X X p"))
    assert deep == T({"p"}, *[()] * 8)


def test_letters_binary_counting():
    assert letters({"p", "q"}) == [
        frozenset(),
        frozenset({"p"}),
        frozenset({"q"}),
        frozenset({"p", "q"}),
    ]


def test_subformulas_topo():
    assert subformulas_topo(Until(P, Q)) == [P, Q, Until(P, Q)]
    assert subformulas_topo(Or(Not(P), P)) == [P, Not(P), Or(Not(P), P)]
    assert subformulas_topo(Next(Next(P))) == [P, Next(P), Next(Next(P))]
    # syntactic duplicates are shared
    assert subformulas_topo(And(Until(P, Q), Until(P, Q))) == [
        P,
        Q,
        Until(P, Q),
        And(Until(P, Q), Until(P, Q)),
    ]


def test_small_model_bound_values():
    assert small_model_bound(P) == 2
    assert small_model_bound(Until(P, Q)) == 24
    ten = And(Until(P, Q), Or(Not(P), Next(Next(Q))))  # size 10
    assert size(ten) == 10
    assert small_model_bound(ten) == 10240


@given(st.integers(0, 10**9), st.integers(1, 7))
@settings(max_examples=300)
def test_pretty_round_trips(seed, fsize):
    phi = random_formula(random.Random(seed), fsize)
    assert parse(pretty(phi)) == phi


def test_size_and_atoms():
    phi = parse("p U (q & X p)")
    assert size(phi) == 6
    assert atoms(phi) == frozenset({"p", "q"})


def test_models_on_empty_trace_is_false():
    assert not models(P, ())


@pytest.mark.parametrize("text, position", [
    ("!" * 3000 + "p", MAX_NESTING - 1),
    ("(" * 3000 + "p" + ")" * 3000, MAX_NESTING),
    ("(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1), MAX_NESTING),
], ids=["not", "parentheses", "redundant_parentheses"])
def test_deep_nesting_is_a_syntax_error(text, position):
    """The error names the token past the limit: the ``!`` that leaves
    ``MAX_NESTING`` negations over the next operand, or the ``(`` that
    leaves ``MAX_NESTING + 1`` open.  Parentheses count however redundant."""
    with pytest.raises(LtlSyntaxError, match="nested too deeply") as err:
        parse(text)
    assert err.value.position == position
    assert parse("(" * MAX_NESTING + "p" + ")" * MAX_NESTING) == P


def _deepest_trees() -> dict:
    """Trees of ``MAX_NESTING`` nodes from root to deepest leaf, built
    without the parser: left-nested untils, whose text parenthesises every
    left operand, right-nested conjunctions, likewise, and a ``!`` chain."""
    until, conj, neg = P, Q, P
    for _ in range(MAX_NESTING - 1):
        until, conj, neg = Until(until, Q), And(P, conj), Not(neg)
    return {"until": until, "and": conj, "not": neg}


def test_nesting_limit_leaves_room_for_pretty_and_holds():
    """Each deepest tree round-trips through ``pretty`` and ``parse`` and
    ``holds`` evaluates it; one negation more is refused."""
    trace = (frozenset({"p"}), frozenset({"q"}))
    truths = {"until": True, "and": False, "not": (MAX_NESTING - 1) % 2 == 0}
    for name, deepest in _deepest_trees().items():
        assert parse(pretty(deepest)) == deepest, name
        assert holds(deepest, trace, 1) == truths[name], name
        with pytest.raises(LtlSyntaxError, match="nested too deeply"):
            parse(pretty(Not(deepest)))


@pytest.mark.parametrize("name", ["until", "and", "not"])
def test_parse_does_not_depend_on_the_callers_stack(name):
    """``parse`` does not recurse, so the deepest text parses the same
    from 600 frames down as from the top."""
    deepest = _deepest_trees()[name]
    text = pretty(deepest)

    def down(frames):
        return parse(text) if frames == 0 else down(frames - 1)

    phi = down(600)
    assert phi == parse(text) == deepest
