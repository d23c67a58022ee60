"""Bounded enumeration, fixed-width reachability, and witness pumping."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    geometric_model,
    halving_model,
    hand_formulas,
    is_one,
    random_formula,
    random_ilp,
    random_machine,
    trace_to_word,
    word_to_trace,
)
from ssmverify import ssm
from ssmverify.arithmetic import EXACT, FX6, ArithMode, FixedPointFormat
from ssmverify.compilers import (
    IlpInstance,
    compile_ilp,
    compile_ltl,
    compile_minsky,
    parse_ilp,
    parse_minsky,
)
from ssmverify.errors import PreconditionError, ResourceLimitError
from ssmverify.fnn import RELU, compose, gadget_eq, gadget_leq, linear_fnn, select_fnn
from ssmverify.ltl import holds, parse, pretty
from ssmverify.solvers import (
    SATISFIABLE,
    UNSATISFIABLE,
    UNSAT_WITHIN_BOUND,
    LengthBound,
    ResourceLimits,
    _bfs,
    pump_down,
    sat_bounded,
    sat_fixed,
)
from ssmverify.ssm import (
    SCALE_BITS,
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    _StepCompiler,
    _stepper,
    _with_stepper,
    accepts,
    as_matrix,
    as_vector,
    evaluate,
    evaluate_layerwise,
    initial_state,
    projection_phi,
    quantization_report,
    step,
)
from test_ssm import small_models

FX6_MODE = ArithMode(FX6)


def test_length_bound_encodings():
    assert LengthBound.unary(5).value == 5
    assert LengthBound.binary(3).value == 8
    with pytest.raises(PreconditionError):
        LengthBound(0)


def test_sat_bounded_ilp_witness():
    model = compile_ilp(IlpInstance(((1, 1), (0, 1)), (1, 1)))
    result = sat_bounded(model, 2, EXACT)
    assert result.verdict == SATISFIABLE
    assert result.witness == ("2",)


def test_sat_bounded_contradiction():
    model = compile_ltl(parse("p & !p"))
    result = sat_bounded(model, 8, EXACT)
    assert result.verdict == UNSAT_WITHIN_BOUND
    assert result.witness is None


def test_sat_bounded_shortest_lex_least():
    model = compile_ltl(parse("p"))
    result = sat_bounded(model, LengthBound.unary(1), EXACT)
    assert result.witness == ("{p}",)
    # a longer bound must return the same shortest witness
    assert sat_bounded(model, 5, EXACT).witness == ("{p}",)


def test_sat_bounded_stores_each_state_once_and_takes_no_memoize():
    # the search always stores each state once; the old memoize switch is gone
    model = compile_ltl(parse("X X p"))
    result = sat_bounded(model, 4, EXACT)
    assert result.verdict == SATISFIABLE
    assert result.witness == ("{p}", "{}", "{}")
    with pytest.raises(TypeError):
        sat_bounded(model, 4, EXACT, memoize=False)


def _first_accepted(model, mode, bound):
    """The first accepted word in order of length, then alphabet order."""
    for n in range(1, bound + 1):
        for word in itertools.product(model.alphabet, repeat=n):
            if accepts(model, word, mode):
                return word
    return None


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE], ids=["exact", "fx6"])
def test_sat_bounded_witness_is_the_first_accepted_word(mode):
    rng = random.Random(53)
    models = [compile_ltl(parse(t)) for t in ("X X p", "p U X q", "F (p & X p)", "G p")]
    models += [compile_ltl(random_formula(rng, rng.randint(1, 7))) for _ in range(10)]
    models += [compile_minsky(random_machine(rng, rng.randint(2, 3))) for _ in range(12)]
    models += [compile_ilp(random_ilp(rng, 3)) for _ in range(12)]
    for model in models:
        expected = _first_accepted(model, mode, 3)
        result = sat_bounded(model, 3, mode)
        assert result.witness == expected
        if expected is None:
            assert result.verdict == UNSAT_WITHIN_BOUND


def test_sat_bounded_monotone_in_bound():
    model = compile_ltl(parse("X p"))
    first_sat = None
    for bound in range(1, 6):
        result = sat_bounded(model, bound, EXACT)
        if first_sat is None and result.verdict == SATISFIABLE:
            first_sat = bound
        if first_sat is not None:
            assert result.verdict == SATISFIABLE
    assert first_sat == 2


def test_sat_fixed_until():
    phi = parse("p U q")
    model = compile_ltl(phi)
    result = sat_fixed(model, FX6)
    assert result.verdict == SATISFIABLE
    assert accepts(model, list(result.witness), FX6_MODE)
    trace = tuple(reversed(word_to_trace(result.witness)))
    assert holds(phi, trace, 1)


def test_sat_fixed_unsat_is_unconditional():
    model = compile_ltl(parse("p & !p"))
    result = sat_fixed(model, FX6)
    assert result.verdict == UNSATISFIABLE


def test_sat_fixed_constant_state_saturates_immediately():
    # gate I, inc 0: the only reachable state is h0, so the frontier dies
    # after one expansion of the alphabet
    d = 1
    layer = SsmLayer(
        as_vector([0]),
        TimeInvariantGate(as_matrix([[1]])),
        AffineMap(as_matrix([[0]]), as_vector([0])),
        projection_phi(d),
    )
    model = SsmModel(
        alphabet=("a", "b"),
        emb=(as_vector([1]), as_vector([0])),
        layers=(layer,),
        out=gadget_eq(1),
    )
    result = sat_fixed(model, FX6)
    assert result.verdict == UNSATISFIABLE
    assert result.stats.states_explored == len(model.alphabet)
    assert result.stats.distinct_states == 1


def test_sat_fixed_length_cap_weakens_verdict():
    model = compile_ltl(parse("X X p"))
    capped = sat_fixed(model, FX6, length_cap=1)
    assert capped.verdict == UNSAT_WITHIN_BOUND
    assert sat_fixed(model, FX6).verdict == SATISFIABLE
    # a frontier that dies before the cap still gives the unconditional verdict
    contradiction = compile_ltl(parse("p & !p"))
    assert sat_fixed(contradiction, FX6, length_cap=50).verdict == UNSATISFIABLE


def test_sat_fixed_thread_count_does_not_change_answer():
    # threads is deprecated and ignored; repeated runs stay deterministic
    model = compile_ltl(parse("(X p) U q"))
    first = sat_fixed(model, FX6)
    again = sat_fixed(model, FX6, threads=4)
    assert first.verdict == again.verdict == SATISFIABLE
    assert first.witness == again.witness
    assert first.stats.states_explored == again.stats.states_explored


def test_sat_fixed_quantisation_is_reported():
    layer = SsmLayer(
        as_vector([Fraction(1, 3)]),
        TimeInvariantGate(as_matrix([[1]])),
        AffineMap(as_matrix([[0]]), as_vector([0])),
        projection_phi(1),
    )
    model = SsmModel(("a",), (as_vector([1]),), (layer,), gadget_eq(1))
    result = sat_fixed(model, FX6)
    assert result.stats.quantized_constants == 1


@pytest.mark.parametrize(
    "fmt",
    [FX6, FixedPointFormat(3, 2), FixedPointFormat(4, 0)],
    ids=str,
)
def test_sat_fixed_counts_quantised_constants_like_the_report(fmt):
    rng = random.Random(41)
    models = [compile_ltl(parse("(p U q) & X !p")), compile_ltl(random_formula(rng, 7))]
    models += [compile_minsky(random_machine(rng, 3)), compile_ilp(random_ilp(rng, 4))]
    for model in models:
        expected = len(quantization_report(model, fmt))
        assert sat_fixed(model, fmt, length_cap=2).stats.quantized_constants == expected
        assert sat_bounded(model, 2, ArithMode(fmt)).stats.quantized_constants == expected


def test_solver_agreement_small_corpus():
    rng = random.Random(23)
    formulas = [parse(t) for t in ("p U q", "X p", "p & !p", "G p", "F (p & q)")]
    formulas += [random_formula(rng, rng.randint(1, 5)) for _ in range(10)]
    for phi in formulas:
        model = compile_ltl(phi)
        fixed = sat_fixed(model, FX6)
        bounded = sat_bounded(model, 8, FX6_MODE)
        if fixed.verdict == SATISFIABLE and len(fixed.witness) <= 8:
            assert bounded.verdict == SATISFIABLE
        if fixed.verdict == UNSATISFIABLE:
            assert bounded.verdict == UNSAT_WITHIN_BOUND


def test_witnesses_reverify():
    rng = random.Random(31)
    for _ in range(10):
        phi = random_formula(rng, rng.randint(1, 6))
        model = compile_ltl(phi)
        result = sat_fixed(model, FX6)
        if result.witness is not None:
            assert accepts(model, list(result.witness), FX6_MODE)


def test_determinism_of_results():
    model = compile_ltl(parse("(p | q) U (p & q)"))
    runs = [sat_fixed(model, FX6) for _ in range(2)]
    assert runs[0].verdict == runs[1].verdict
    assert runs[0].witness == runs[1].witness
    assert runs[0].stats.states_explored == runs[1].stats.states_explored
    assert runs[0].stats.max_frontier == runs[1].stats.max_frontier


def test_resource_limits_read_from_environment(monkeypatch):
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "1234")
    monkeypatch.setenv("SSMVERIFY_MAX_MEM_MB", "256")
    monkeypatch.setenv("SSMVERIFY_MAX_SECONDS", "9")
    limits = ResourceLimits.from_env()
    assert limits.max_states == 1234
    assert limits.max_mem_mb == 256
    assert limits.max_seconds == 9
    monkeypatch.delenv("SSMVERIFY_MAX_STATES")
    monkeypatch.delenv("SSMVERIFY_MAX_MEM_MB")
    monkeypatch.delenv("SSMVERIFY_MAX_SECONDS")
    assert ResourceLimits.from_env().max_mem_mb is None
    assert ResourceLimits.from_env().max_seconds is None
    monkeypatch.setenv("SSMVERIFY_MAX_STATES", "0")  # 0 is a ceiling, not bad input
    monkeypatch.setenv("SSMVERIFY_MAX_SECONDS", "0")
    assert ResourceLimits.from_env().max_states == 0
    assert ResourceLimits.from_env().max_seconds == 0


def test_search_stats_name_the_exact_domain_and_the_step_build():
    rng = random.Random(7)
    models = [compile_ltl(parse("(p U q) & X !p")), compile_minsky(random_machine(rng, 3)),
              compile_ilp(random_ilp(rng))]
    # X puts 1/2 into an LTL model's constants; a 0-1 ILP has only integers
    for model, scale_bits in zip(models, (SCALE_BITS + 1, SCALE_BITS + 1, 1)):
        stats = sat_bounded(model, 3, EXACT).stats
        assert stats.exact_domain == "int" and stats.key_state_bound_log2 is None
        assert stats.exact_scale_bits == scale_bits
        assert stats.transitions == stats.states_explored > 0
        assert stats.stepper_build_s > 0
    stats = sat_fixed(models[0], FX6).stats
    assert stats.exact_domain is stats.exact_scale_bits is None
    assert stats.key_state_bound_log2 == 6 * stats.key_coordinates > 0
    assert stats.transitions == stats.states_explored > 0


def test_elapsed_s_is_the_search_alone(monkeypatch):
    """With the step build 0.2 s slower, ``elapsed_s`` stays the search
    alone under both solvers: on a fresh model, after a prebuild, and over
    the two runs of a widened exact scale.  ``stepper_build_s`` sums the
    builds: one, or two where the scale widens."""
    program = _StepCompiler.program

    def slow(self, *args):
        time.sleep(0.2)
        return program(self, *args)

    monkeypatch.setattr(_StepCompiler, "program", slow)
    fresh = lambda: compile_ltl(parse("(p U q) & X !p"))
    prebuilt = fresh()
    _stepper(prebuilt, ArithMode(FX6))
    results = (sat_bounded(fresh(), 4, EXACT), sat_fixed(fresh(), FX6),
               sat_fixed(prebuilt, FX6), sat_bounded(halving_model(80), 80, EXACT))
    for result, builds in zip(results, (1, 1, 1, 2)):
        assert result.stats.elapsed_s < 0.2 and result.stats.builds == builds
        assert 0.2 * builds <= result.stats.stepper_build_s


TIMINGS = ("elapsed_s", "stepper_build_s", "source_s", "compile_s")


def decision(result) -> tuple:
    """A search's verdict, witness and every count of its report."""
    return result.verdict, result.witness, [
        getattr(result.stats, name) for name in result.stats._fields if name not in TIMINGS]


def test_a_search_compiles_its_step_only_past_compile_after(monkeypatch):
    """A search interprets its step for the first ``_COMPILE_AFTER``
    transitions and compiles it from there on, once per step: a search of
    26 transitions never compiles and reports ``compile_s`` 0, one of 37
    compiles its step and reports the compile, and a second search on the
    same model runs on the compiled step and reports 0.  Each decides as
    the search that compiles before its first transition does.  With
    the compile 0.2 s slower, ``elapsed_s`` stays the search alone and
    ``compile_s`` and ``stepper_build_s`` count the compile."""
    short, long = (compile_ltl(parse(text)) for text in
                   ("F (p & X (q & X r))", "G (p -> X q) & F (r & X X q)"))
    results = [sat_fixed(model, FX6) for model in (short, long, long)]
    assert [r.stats.transitions for r in results] == [26, 37, 37]
    assert ssm._COMPILE_AFTER == 32 and [r.stats.compile_s > 0 for r in results] == [
        False, True, False]
    assert [len(model._steppers[FX6_MODE]._compiled) for model in (short, long)] == [0, 1]
    assert all(r.stats.source_s + r.stats.compile_s <= r.stats.stepper_build_s for r in results)
    monkeypatch.setattr(ssm, "_COMPILE_AFTER", 0)
    eager = [sat_fixed(compile_ltl(parse(text)), FX6) for text in
             ("F (p & X (q & X r))", "G (p -> X q) & F (r & X X q)")]
    assert all(r.stats.compile_s > 0 for r in eager)
    assert [decision(r) for r in eager] == [decision(r) for r in results[:2]]
    monkeypatch.setattr(ssm, "_COMPILE_AFTER", 32)
    render = ssm._render

    def slow(program):
        time.sleep(0.2)
        return render(program)

    monkeypatch.setattr(ssm, "_render", slow)
    stats = sat_fixed(compile_ltl(parse("G (p -> X q) & F (r & X X q)")), FX6).stats
    assert stats.elapsed_s < 0.2 <= stats.compile_s <= stats.stepper_build_s


def test_a_copy_of_a_compiled_step_compiles_no_more():
    """An exact search of 80 symbols leaves its first scale and runs again
    on a copy of the step rebuilt on the square, which compiles past
    ``_COMPILE_AFTER`` transitions.  The rebuilt step left on the model
    shares that compile: a second search reports ``compile_s`` 0."""
    model = halving_model(80)
    first = sat_bounded(model, 80, EXACT)
    assert first.stats.builds == 2 and first.stats.transitions > ssm._COMPILE_AFTER
    assert first.stats.compile_s > 0 and len(model._steppers[EXACT]._compiled) == 1
    again = sat_bounded(model, 80, EXACT)
    assert (again.stats.compile_s, again.stats.builds) == (0, 1)
    assert (again.verdict, again.stats.transitions) == (first.verdict, first.stats.transitions)


def test_integral_models_search_on_scale_one_as_on_the_dyadic_scale():
    """0-1 ILPs and X-free LTL formulas have only integer constants, so
    their exact step runs on scale 1.  Its search reports what a step
    forced onto 2**SCALE_BITS reports: verdict, witness and every count."""
    rng = random.Random(29)
    builds = [(lambda ilp=random_ilp(rng, 5): compile_ilp(ilp), 5) for _ in range(12)]
    texts = [t for t in hand_formulas() if "X" not in t]
    texts += [t for t in (pretty(random_formula(rng, rng.randint(3, 9))) for _ in range(20))
              if "X" not in t]
    builds += [(lambda text=text: compile_ltl(parse(text)), 4) for text in texts]
    for build, bound in builds:
        model, forced = build(), build()
        _stepper(forced, EXACT, 1 << SCALE_BITS)
        result, reference = sat_bounded(model, bound, EXACT), sat_bounded(forced, bound, EXACT)
        assert (result.verdict, result.witness) == (reference.verdict, reference.witness)
        for name in ("transitions", "distinct_states", "frontier_sizes", "key_coordinates"):
            assert getattr(result.stats, name) == getattr(reference.stats, name), name
        assert result.stats.exact_scale_bits == 1
        assert reference.stats.exact_scale_bits == SCALE_BITS + 1
        assert model._steppers[EXACT].one == 1
        for _ in range(4):
            word = [rng.choice(model.alphabet) for _ in range(rng.randint(1, bound))]
            assert evaluate(model, word, EXACT) == evaluate_layerwise(model, word, EXACT)


@pytest.mark.parametrize("gate", [Fraction(1, 2), Fraction(1, 3)], ids=str)
def test_sat_bounded_widens_the_exact_scale(gate):
    """The output reads the counter h0 and, through min(1, h1) =
    1 - relu(1 - h1), the geometric coordinate h1, so both are in the key.
    The step starts on 2**SCALE_BITS for gate 1/2 and on 3**SCALE_BITS for
    gate 1/3, whose model has no other fraction; with either gate h1 leaves
    that scale near depth 65 and the search runs again on its square."""
    clipped = linear_fnn([[1, 0], [0, -1]], [0, 1], RELU)
    out = compose(gadget_eq(81), compose(linear_fnn([[1, -1]], [1]), clipped))
    model = geometric_model(gate, out)
    result = sat_bounded(model, 80, EXACT)
    assert result.verdict == SATISFIABLE
    assert result.witness == ("a",) * 80
    assert result.stats.states_explored == result.stats.transitions == 80
    assert result.stats.exact_domain == "int"
    assert result.stats.key_coordinates == 2
    (stepper,) = model._steppers.values()
    assert stepper.one > 1 << SCALE_BITS and stepper.one % gate.denominator ** 80 == 0
    assert sat_bounded(model, 79, EXACT).verdict == UNSAT_WITHIN_BOUND


@pytest.mark.parametrize("text, keys", [("G p & F !p", 1), ("(p U q) & G !q", 3)])
def test_ltl_keys_do_not_grow_with_the_format(text, keys):
    """An until's value is 0 or 1 in every mode, so these unsatisfiable
    formulas store as many keys in exact mode as under any format that
    represents 1, and every search but the bounded one exhausts.  ``G p``
    and ``F !p`` share one coordinate, which their conjunction reads with
    weights that cancel, so the first formula's key is empty."""
    model = compile_ltl(parse(text))
    exact = sat_bounded(model, 8, EXACT)
    fixed = [sat_fixed(model, FixedPointFormat(bits, 3)) for bits in (6, 12, 24)]
    assert [r.stats.distinct_states for r in (exact, *fixed)] == [keys] * 4
    assert exact.verdict == UNSAT_WITHIN_BOUND and len(exact.stats.frontier_sizes) < 8
    assert {r.verdict for r in fixed} == {UNSATISFIABLE}


def test_ltl_transitions_do_not_grow_with_the_format():
    for text in hand_formulas() + ["(p U q) & G !q"]:
        model = compile_ltl(parse(text))
        narrow, wide = (sat_fixed(model, FixedPointFormat(bits, 3)) for bits in (6, 8))
        assert narrow.stats.transitions == wide.stats.transitions, text
        assert (narrow.verdict, narrow.witness) == (wide.verdict, wide.witness), text


def test_resource_limit_is_distinct():
    # 1 is not representable in this format, so no output is 1 and the
    # until's value decays by the saturated unit: the search never ends
    model, fmt = compile_ltl(parse("p U q")), FixedPointFormat(4096, 4095)
    with pytest.raises(ResourceLimitError) as err:
        sat_fixed(model, fmt, limits=ResourceLimits(max_states=3))
    assert err.value.stats is not None
    assert err.value.stats.states_explored >= 3
    # the ceiling counts transitions taken, not keys stored
    with pytest.raises(ResourceLimitError) as err:
        sat_fixed(model, fmt, limits=ResourceLimits(max_states=6))
    assert (err.value.stats.states_explored, err.value.stats.distinct_states) == (8, 3)


# ---------------------------------------------------------------------------
# The search keys its states on the hidden coordinates the step reads


# Full states that the uncapped reference search stores before it stops at
# the last level it completed.  Most draws end well inside it; a draw with a
# large fixed-mode state space is then checked to that depth, in seconds
# rather than minutes.
REFERENCE_STATES = 1000


def reference_search(model, mode, cap, budget=None):
    """Breadth-first search over full ``StreamState``s through the public
    ``step``, levels in discovery order and symbols in alphabet order:
    (witness, exhausted), as ``_search`` returns them, and the number of
    levels searched in full.  A search that has stored more than ``budget``
    states stops before its next level, as at a cap."""
    start = initial_state(model, mode)
    parents = {start: None}
    level, depth = [start], 0
    while level:
        if cap is not None and depth >= cap or budget is not None and len(parents) > budget:
            return None, False, depth
        depth += 1
        next_level = []
        for state in level:
            for symbol in model.alphabet:
                successor, y = step(model, state, symbol)
                if is_one(y, mode):
                    word = [symbol]
                    while parents[state] is not None:
                        state, previous = parents[state]
                        word.append(previous)
                    return tuple(reversed(word)), False, depth
                if successor not in parents:
                    parents[successor] = (state, symbol)
                    next_level.append(successor)
        level = next_level
    return None, True, depth


def check_against_reference(model, fmt, cap, exact_cap):
    """``sat_fixed`` uncapped and capped and ``sat_bounded`` in both modes
    give the reference search's verdict and witness.  Where the reference
    search runs out of its budget, ``sat_fixed`` is checked up to the
    deepest level the reference search completed."""
    fixed = ArithMode(fmt)
    witness, exhausted, depth = reference_search(model, fixed, None, REFERENCE_STATES)
    if witness or exhausted:
        result = sat_fixed(model, fmt)
        assert result.verdict == (SATISFIABLE if witness else UNSATISFIABLE)
    else:
        result = sat_fixed(model, fmt, length_cap=depth)
        assert result.verdict in (UNSAT_WITHIN_BOUND, UNSATISFIABLE)
    assert result.witness == witness
    unsatisfiable = witness is None
    for mode, bound in ((fixed, cap), (EXACT, exact_cap)):
        witness, _, _ = reference_search(model, mode, bound)
        result = sat_bounded(model, bound, mode)
        assert result.verdict == (SATISFIABLE if witness else UNSAT_WITHIN_BOUND)
        assert result.witness == witness
    # fewer keys than states can run out before the cap, never after it
    witness, exhausted, _ = reference_search(model, fixed, cap)
    result = sat_fixed(model, fmt, length_cap=cap)
    assert result.witness == witness
    if witness:
        assert result.verdict == SATISFIABLE
    elif exhausted or result.verdict == UNSATISFIABLE:
        assert unsatisfiable and result.verdict == UNSATISFIABLE
    else:
        assert result.verdict == UNSAT_WITHIN_BOUND


@given(small_models(), st.sampled_from([FX6, FixedPointFormat(4, 1), FixedPointFormat(3, 2)]),
       st.integers(1, 4))
# no shrink phase: shrinking re-runs the full-state reference search for
# minutes, where the failing draw itself is found and printed in seconds
@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
def test_search_on_keys_equals_search_on_full_states(model, fmt, cap):
    check_against_reference(model, fmt, cap, 4)


@pytest.mark.parametrize("text", hand_formulas())
def test_search_on_keys_equals_search_on_full_states_for_hand_formulas(text):
    check_against_reference(compile_ltl(parse(text)), FX6, 6, 3)


@pytest.mark.parametrize("text, dim, key", [
    ("(a U (b U (c U d))) & X X X !d", 60, 6),
    ("!((a U (b U c)) | X X X d)", 52, 5),
    ("G(p -> X q) & G(q -> X !p) & F(p & X X p)", 75, 7),
])
def test_search_key_holds_only_the_read_coordinates(text, dim, key):
    """The anchors of cone-of-influence reduction: a few of the L*d hidden
    coordinates are read, and only they key the search, while the public
    ``step`` still hands out every layer's d entries."""
    model = compile_ltl(parse(text))
    assert model.num_layers * model.dim == dim
    for mode in (FX6_MODE, EXACT):
        assert sat_bounded(model, 1, mode).stats.key_coordinates == key
        state, _ = step(model, initial_state(model, mode), model.alphabet[-1])
        assert [len(h) for h in state.hidden] == [model.dim] * model.num_layers
        assert state.mode.is_exact or all(type(v) is int for h in state.hidden for v in h)
        assert not state.mode.is_exact or all(type(v) is Fraction for h in state.hidden for v in h)


FX12 = ArithMode(FixedPointFormat(12, 3))


def check_pruning_changes_no_answer(model, mode, cap: int) -> tuple:
    """On the same step, the search with the derived dead-key rule and the
    search with the rule cleared find the same witness, or both none, and
    the pruned one takes no more transitions.  Where the unpruned frontier
    runs out, so does the pruned one.  Returns the rule."""

    def both(stepper):
        rule = stepper.dead_rule
        try:
            stepper.dead_rule = ()
            full = _bfs(stepper, cap, ResourceLimits(), [0.0, 0.0])
        finally:
            stepper.dead_rule = rule
        return _bfs(stepper, cap, ResourceLimits(), [0.0, 0.0]), full, rule

    (witness, exhausted, stats), (full_witness, full_exhausted, full_stats), rule = (
        _with_stepper(model, mode, both))
    assert witness == full_witness
    assert stats.transitions <= full_stats.transitions
    assert exhausted or not full_exhausted
    return rule


@given(st.integers(0, 2**32), st.sampled_from(["minsky", "ilp"]), st.sampled_from([EXACT, FX12]))
@settings(max_examples=120, deadline=None)
def test_dead_keys_change_no_answer(seed, kind, mode):
    rng = random.Random(seed)
    if kind == "minsky":
        check_pruning_changes_no_answer(compile_minsky(random_machine(rng, rng.randint(2, 4))),
                                        mode, 5)
    else:
        inst = random_ilp(rng)
        check_pruning_changes_no_answer(compile_ilp(inst), mode, inst.dim)


@pytest.mark.parametrize("gate", [
    TimeInvariantGate(as_matrix([[1, 0], [0, 1]])),
    DiagonalAffineGate(as_matrix([[0, 0], [0, 0]]), as_vector([1, 1]))], ids=["ti", "diagonal"])
def test_rising_coordinates_on_a_hand_model(gate):
    """Coordinate 0 counts the a's from -1, coordinate 1 adds half of each b,
    both under a gate of 1 on themselves, so both rise; the output
    ``relu(1 - relu(z0 - 1) - relu(1 - z0) - z1)`` is 1 exactly after two
    a's and no b.  The step on the proved ranges computes what the oracle
    does on every word up to length 6, also where the count saturates
    (fx:4:1 stops at 3.5).  The exact rule is dead past a count of 1, so
    from two a's on (the count is a whole number), and from any b on."""
    layer = SsmLayer(as_vector([-1, 0]), gate,
                     AffineMap(as_matrix([[1, 0], [0, Fraction(1, 2)]]), as_vector([0, 0])),
                     projection_phi(2))
    out = compose(linear_fnn([[-1, -1, -1]], [1], RELU),
                  linear_fnn([[1, 0], [-1, 0], [0, 1]], [-1, 1, 0], RELU))
    model = SsmModel(("a", "b"), (as_vector([1, 0]), as_vector([0, 1])), (layer,), out)
    for mode in (EXACT, FX6_MODE, ArithMode(FixedPointFormat(4, 1))):
        for n in range(1, 7):
            for word in itertools.product(model.alphabet, repeat=n):
                assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode), word
        rule = check_pruning_changes_no_answer(model, mode, 6)
        if mode is EXACT:
            one = _stepper(model, mode).one
            assert [(i, Fraction(t, one)) for i, t in rule] == [(0, 1 + Fraction(1, one)),
                                                                (1, Fraction(1, one))]
    assert sat_bounded(model, 6, EXACT).witness == ("a", "a")


def test_dead_rules_of_the_ci_models():
    """The Minsky machine's violation sum is dead once above 0, the
    smallest exact value, and each row or count of the 0-1 program once its
    relu miss is at least 1: the sum of row 1, which counts every letter,
    from 1, since its next letter adds 1; the others from 2."""
    machine = parse_minsky("start: q0\nfinal: qf\nq0 inc2 q1\nq1 dec2 q2\nq1 ztest2 q0\n"
                           "q2 inc1 q3\nq3 dec1 qf\nq3 ztest1 q1\n")
    stats = sat_bounded(compile_minsky(machine), 8, EXACT).stats
    assert stats.dead_rule == [[6, f"1/{2 ** SCALE_BITS}"]] and stats.dead == 16
    stats = sat_bounded(compile_ilp(parse_ilp("2\n1 1\n0 1\n1 1\n")), 4, EXACT).stats
    assert stats.dead_rule == [[0, "1"], [1, "2"], [2, "2"], [3, "2"]] and stats.dead == 1


def _dag_model(least: int) -> SsmModel:
    """A count h of the a's, read by the output directly and through 8
    levels of two relu sums, each over both sums below (``relu(u + v)``
    and ``relu(u + 2v)``, above ``relu(2h)`` and ``relu(3h)``), beside a
    copy of h: 256 paths from the top sum u = 1597 h to the count.  The
    output is ``relu(1 - relu(u - 2 * 1597) - relu(h - 2) - relu(least -
    h))``, 1 exactly where ``least`` <= h <= 2."""
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(as_matrix([[1]])),
                     AffineMap(as_matrix([[1]]), as_vector([0])), projection_phi(1))
    nets = [linear_fnn([[2], [3], [1]], activation=RELU)]
    nets += [linear_fnn([[1, 1, 0], [1, 2, 0], [0, 0, 1]], activation=RELU)] * 7
    nets += [linear_fnn([[1, 0, 0], [0, 0, 1], [0, 0, -1]], [-2 * 1597, -2, least], RELU),
             linear_fnn([[-1, -1, -1]], [1], RELU)]
    out = nets[0]
    for net in nets[1:]:
        out = compose(net, out)
    return SsmModel(("a", "b"), (as_vector([1]), as_vector([0])), (layer,), out)


@pytest.mark.parametrize("least, witness", [(2, ("a", "a")), (3, None)])
def test_a_dead_rule_whose_pass_runs_out_of_budget(monkeypatch, least, witness):
    """The backward pass finds h >= 3 dead through ``relu(h - 2)``, then
    follows the 256 paths below ``relu(u - 2 * 1597)``: more visits than
    its budget of 4 per named local, so it stops early.  The build ends,
    and the search with the step's rule finds what a brute-force walk over
    ``evaluate_layerwise`` finds up to the bound: two a's, or no word,
    after one transition to the dead count 3."""
    threshold = _StepCompiler._threshold
    visits, budgets = [], []

    def counted(self, kept, up, bound, found, budget):
        visits.append(None)
        if not budgets:
            budgets.append(budget[0])
        threshold(self, kept, up, bound, found, budget)

    monkeypatch.setattr(_StepCompiler, "_threshold", counted)
    model = _dag_model(least)
    result = sat_bounded(model, 4, EXACT)
    assert budgets and len(visits) > budgets[0]
    assert result.stats.dead_rule == [[0, "3"]] and result.stats.dead == (0 if witness else 1)
    words = [w for n in range(1, 5) for w in itertools.product(model.alphabet, repeat=n)]
    found = next((w for w in words if is_one(evaluate_layerwise(model, w, EXACT), EXACT)), None)
    assert found == witness and result.witness == witness
    assert result.verdict == (SATISFIABLE if witness else UNSAT_WITHIN_BOUND)


def test_search_key_is_the_least_set_closed_under_reads():
    """One coordinate of the second layer's history block is read only by a
    new value that neither ``y`` nor a key coordinate needs: the key holds 7 of
    the machine's 57 coordinates, one fewer than the set that every new
    value reads.  The search and its witness do not change.  The violation
    sum never falls, and a key whose sum is above 0 is dead, so the search
    stores 4 keys."""
    machine = parse_minsky("start: q0\nfinal: qf\nq0 inc2 q1\nq1 dec2 q2\nq1 ztest2 q0\n"
                           "q2 inc1 q3\nq3 dec1 qf\nq3 ztest1 q1\n")
    model = compile_minsky(machine)
    result = sat_bounded(model, 8, EXACT)
    assert model.num_layers * model.dim == 57
    assert result.stats.key_coordinates == 7
    assert result.verdict == SATISFIABLE
    assert result.witness == ("(q1,inc2)", "(q2,dec2)", "(q3,inc1)", "(qf,dec1)")
    assert (result.stats.transitions, result.stats.distinct_states) == (20, 4)


def test_an_output_folded_to_a_constant_keys_on_nothing():
    """Under fx:6:3, whose values stop below 4, the interval analysis folds
    ``eq(9)`` of a count to the constant 0: each of its first nodes
    subtracts the saturated 4 from a value below 4.  So no hidden
    coordinate is in the key and the search ends after one level, where
    the exact search keys on the count and accepts nine a's."""
    layer = SsmLayer(as_vector([0]), TimeInvariantGate(as_matrix([[1]])),
                     AffineMap(as_matrix([[1]]), as_vector([0])), projection_phi(1))
    model = SsmModel(("a", "b"), (as_vector([1]), as_vector([0])), (layer,), gadget_eq(9))
    result = sat_fixed(model, FX6)
    assert result.verdict == UNSATISFIABLE and result.witness is None
    assert result.stats.key_coordinates == 0
    assert result.stats.key_state_bound_log2 == 0
    assert result.stats.distinct_states == 1
    exact = sat_bounded(model, 9, EXACT)
    assert exact.witness == ("a",) * 9 and exact.stats.key_coordinates == 1


def test_a_dead_constant_is_still_counted_as_quantised():
    """1/3, which fx:6:3 cannot hold, weighs a phi node that nothing reads:
    the step never encodes it, and the count still includes it."""
    layer = SsmLayer(
        as_vector([0, 0]),
        TimeInvariantGate(as_matrix([[0, 0], [0, 0]])),
        AffineMap(as_matrix([[1, 0], [0, 1]]), as_vector([0, 0])),
        linear_fnn([[1, 0, 0, 0], [0, Fraction(1, 3), 0, 0]]),
    )
    model = SsmModel(("a",), (as_vector([1, 1]),), (layer,), select_fnn([0], 2))
    assert [path for path, _ in quantization_report(model, FX6)] == ["layer0.phi.layer0.node1.w1"]
    result = sat_fixed(model, FX6)
    assert result.stats.quantized_constants == 1
    assert (result.verdict, result.witness) == (SATISFIABLE, ("a",))
    assert result.stats.key_coordinates == 0
    assert sat_bounded(model, 1, EXACT).stats.quantized_constants == 0


def test_frontier_sizes_list_every_level():
    model = compile_ltl(parse("G(p -> X q) & F(q & X X p)"))
    capped = sat_fixed(model, FX6, length_cap=2).stats
    assert capped.frontier_sizes[0] == 1 and len(capped.frontier_sizes) == 3
    stats = sat_fixed(model, FX6).stats
    assert stats.frontier_sizes[:3] == capped.frontier_sizes
    assert stats.max_frontier == max(stats.frontier_sizes[1:])
    unsat = sat_fixed(compile_ltl(parse("G p & F !p")), FX6).stats
    # an exhausted search has put every stored state on exactly one level
    assert sum(unsat.frontier_sizes) == unsat.distinct_states
    # the ceiling stops p U q, which finds 1 new key per level under this
    # format, at the end of its thirteenth level; 12 atoms give 4096 letters,
    # so the check every 4096 transitions stops the first level inside it
    partials = []
    for formula, fmt, ceiling in (("p U q", FixedPointFormat(4096, 4095), 50),
                                  ("X (" + " | ".join(f"a{i}" for i in range(12)) + ")", FX6, 100)):
        with pytest.raises(ResourceLimitError) as err:
            sat_fixed(compile_ltl(parse(formula)), fmt, limits=ResourceLimits(max_states=ceiling))
        partials.append(err.value.stats)
    assert partials[0].frontier_sizes == [1] * 13
    assert (partials[1].states_explored, partials[1].frontier_sizes) == (4096, [1])
    for exit_stats in (capped, stats, unsat, *partials):
        assert exit_stats.transitions == exit_stats.states_explored
        assert exit_stats.max_frontier == max(exit_stats.frontier_sizes[1:], default=0)


# ---------------------------------------------------------------------------
# pump_down

def noop_symbol_model():
    """Accumulator where symbol x embeds to zero: a state no-op."""
    d = 1
    layer = SsmLayer(
        as_vector([0]),
        TimeInvariantGate(as_matrix([[1]])),
        AffineMap(as_matrix([[1]]), as_vector([0])),
        projection_phi(d),
    )
    return SsmModel(
        alphabet=("s", "t", "x"),
        emb=(as_vector([1]), as_vector([2]), as_vector([0])),
        layers=(layer,),
        out=gadget_eq(3),
    )


def pump_states(model, word, fmt):
    from ssmverify.ssm import initial_state, step

    mode = ArithMode(fmt)
    states = [initial_state(model, mode)]
    for symbol in word:
        nxt, _ = step(model, states[-1], symbol)
        states.append(nxt)
    return states


def test_pump_down_removes_noop_runs():
    model = noop_symbol_model()
    word = ["s", "x", "x", "x", "t"]
    assert accepts(model, word, FX6_MODE)
    pumped = pump_down(model, word, FX6)
    assert accepts(model, pumped, FX6_MODE)
    assert len(pumped) <= 3  # s.x.t or shorter
    assert pumped == ["s", "t"]


def test_pump_down_fixpoint_on_minimal_witness():
    model = compile_ltl(parse("p U q"))
    witness = list(sat_fixed(model, FX6).witness)
    assert pump_down(model, witness, FX6) == witness


def seeded_accepted_words(seed=29, formulas=12, tries=40):
    """Accepted fx:6:3 words of up to 14 symbols over compiled random formulas."""
    rng = random.Random(seed)
    cases = []
    for _ in range(formulas):
        model = compile_ltl(random_formula(rng, rng.randint(3, 9)))
        for _ in range(tries):
            word = [rng.choice(model.alphabet) for _ in range(rng.randint(1, 14))]
            if accepts(model, word, FX6_MODE):
                cases.append((model, word))
    return cases


def test_pump_down_contract():
    model = compile_ltl(parse("F p"))
    word = trace_to_word([frozenset(["p"])] + [frozenset()] * 6)
    for model, word in [(model, word)] + seeded_accepted_words():
        assert accepts(model, word, FX6_MODE)
        pumped = pump_down(model, word, FX6)
        assert accepts(model, pumped, FX6_MODE)
        assert len(pumped) <= len(word)
        # departure states (all but the last) are pairwise distinct
        states = pump_states(model, pumped, FX6)[:-1]
        assert len(set(states)) == len(states)
        assert pump_down(model, pumped, FX6) == pumped


def accumulator_with_out(out, emb_values):
    layer = SsmLayer(
        as_vector([0]),
        TimeInvariantGate(as_matrix([[1]])),
        AffineMap(as_matrix([[1]]), as_vector([0])),
        projection_phi(1),
    )
    return SsmModel(
        alphabet=tuple(chr(ord("a") + i) for i in range(len(emb_values))),
        emb=tuple(as_vector([v]) for v in emb_values),
        layers=(layer,),
        out=out,
    )


def test_pump_down_final_state_repeat_with_empty_prefix_stays():
    # word a,b returns the accumulator to its start state; the only repeat
    # pairs the final state with position 0, and the empty cut is not a word
    model = accumulator_with_out(gadget_eq(0), [1, -1])
    word = ["a", "b"]
    assert accepts(model, word, FX6_MODE)
    assert pump_down(model, word, FX6) == word


def test_pump_down_cuts_a_final_state_repeat_when_reaccepted():
    # sums 0,1,2,1 over a,a,b: departure states distinct, but the final
    # state matches position 1 and the prefix "a" is itself accepted
    model = accumulator_with_out(gadget_leq(1), [1, -1])
    word = ["a", "a", "b"]
    assert accepts(model, word, FX6_MODE)
    assert pump_down(model, word, FX6) == ["a"]


def test_pump_down_requires_accepted_word():
    model = compile_ltl(parse("p"))
    with pytest.raises(PreconditionError):
        pump_down(model, [
            "{}",
        ], FX6)
    with pytest.raises(PreconditionError):
        pump_down(model, [], FX6)
