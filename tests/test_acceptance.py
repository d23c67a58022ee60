"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from itertools import product

from helpers import (
    hand_formulas,
    random_formula,
    random_ilp,
    random_machine,
    walk_words,
    word_to_trace,
)
from ssmverify import ltl
from ssmverify.arithmetic import EXACT, FX6, ArithMode, FixedPointFormat, FixedPointValue, raw_encode
from ssmverify.compilers import (
    compile_ilp,
    compile_ltl,
    compile_minsky,
    ilp_decode_word,
    ilp_oracle,
    minsky_alphabet,
    minsky_oracle,
    parse_minsky,
    prev_bit_layer,
    run_encode,
    validate_word,
)
from ssmverify.errors import ResourceLimitError
from ssmverify.fnn import (
    eval_program,
    gadget_and,
    gadget_eq,
    gadget_geq0,
    gadget_implies,
    gadget_leq,
)
from ssmverify.ltl import models, parse, satisfiable_bruteforce, small_model_bound
from ssmverify.solvers import (
    SATISFIABLE,
    UNSAT_WITHIN_BOUND,
    ResourceLimits,
    pump_down,
    sat_bounded,
    sat_fixed,
)
from ssmverify.ssm import accepts, initial_state, state_count_bound, step
from ssmverify.words import pair_symbol

FX6_MODE = ArithMode(FX6)
SEED = 20250810

MINSKY_EXAMPLE = "start: q0\nfinal: qf\nq0 inc1 q1\nq1 dec1 qf\nq1 ztest1 q0\n"


def _report(name: str, failures: list, elapsed: float, budget: float, extra: str = ""):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    detail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {status} in {elapsed:.2f}s (budget {budget:.0f}s){detail}")
    assert not failures, failures[:5]
    assert elapsed < budget, f"{name} exceeded its time budget: {elapsed:.2f}s"


def _sample_formulas(count: int = 200):
    rng = random.Random(SEED)
    return [random_formula(rng, rng.randint(1, 6)) for _ in range(count)]


def _ltl_corpus():
    return [parse(t) for t in hand_formulas()] + _sample_formulas()


def test_criterion_1_gadget_tables():
    """Equality/threshold/conjunction gadgets match their predicates exactly
    on integers -64..64 (conjunction arity up to 5)."""
    start = time.monotonic()
    failures = []
    for b in range(-8, 9):
        eq, leq = gadget_eq(b), gadget_leq(b)
        for n in range(-64, 65):
            x = [Fraction(n)]
            if eval_program(eq, x, EXACT)[0] != (1 if n == b else 0):
                failures.append(("eq", b, n))
            if eval_program(leq, x, EXACT)[0] != (1 if n <= b else 0):
                failures.append(("leq", b, n))
    geq = gadget_geq0()
    for n in range(-64, 65):
        if eval_program(geq, [Fraction(n)], EXACT)[0] != (1 if n >= 0 else 0):
            failures.append(("geq0", n))
    for k in range(1, 6):
        net = gadget_and(k)
        for m in range(1 << k):
            bits = [Fraction((m >> i) & 1) for i in range(k)]
            if eval_program(net, bits, EXACT)[0] != (1 if all(bits) else 0):
                failures.append(("and", k, m))
    imp = gadget_implies()
    for x, y in product((0, 1), repeat=2):
        want = 1 if (x and not y) else 0
        if eval_program(imp, [Fraction(x), Fraction(y)], EXACT)[0] != want:
            failures.append(("implies", x, y))
    _report("1 gadget tables", failures, time.monotonic() - start, 5.0)


def test_criterion_2_previous_bit_recovery():
    """All 2^12 bit strings of length 12: the layer reproduces the input
    shifted by one, in exact mode and in the 6-bit profile.  The strings
    share prefixes, so the check walks the binary tree of depth 12 and
    verifies the output at every node (= every position of every string).
    """
    start = time.monotonic()
    from ssmverify.fnn import identity_fnn
    from ssmverify.ssm import SsmModel

    model = SsmModel(
        alphabet=("0", "1"),
        emb=((Fraction(0),), (Fraction(1),)),
        layers=(prev_bit_layer(1, [0]),),
        out=identity_fnn(1),  # expose the layer output as the step value
    )
    failures = []
    for mode in (EXACT, FX6_MODE):
        one = Fraction(1) if mode.is_exact else FixedPointValue(FX6.scale, FX6)
        zero = Fraction(0) if mode.is_exact else FixedPointValue(0, FX6)

        def walk(state, prev_bit, depth):
            for bit in (0, 1):
                nxt, out = step(model, state, str(bit))
                want = one if prev_bit else zero
                if out != want:
                    failures.append((str(mode), depth, bit, prev_bit))
                if depth < 12:
                    walk(nxt, bit, depth + 1)

        walk(initial_state(model, mode), 0, 1)
    _report("2 previous-bit recovery", failures, time.monotonic() - start, 5.0)


def test_criterion_3_ltl_differential():
    """Compiled-model acceptance equals the semantics oracle on every trace
    of length <= 5, in exact mode and under 6 bits, for the 25-formula hand
    corpus plus a 200-formula random sample (traces range over each
    formula's own propositions, at most two)."""
    start = time.monotonic()
    failures = []
    checked = 0
    for phi in _ltl_corpus():
        model = compile_ltl(phi)
        oracle = {}
        for word, acc in walk_words(model, EXACT, 5):
            want = models(phi, word_to_trace(tuple(reversed(word))))
            oracle[word] = want
            checked += 1
            if acc != want:
                failures.append(("exact", ltl.pretty(phi), word))
        for word, acc in walk_words(model, FX6_MODE, 5):
            if acc != oracle[word]:
                failures.append(("fx6", ltl.pretty(phi), word))
    _report(
        "3 ltl differential",
        failures,
        time.monotonic() - start,
        300.0,
        extra=f"{checked} word checks x 2 modes",
    )


def test_criterion_4_minsky_differential():
    """50 random machines: acceptance equals the run validator on every word
    of length <= 4; flipping any symbol of a valid encoding rejects."""
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    failures = []
    machines = [parse_minsky(MINSKY_EXAMPLE)]
    while len(machines) < 50:
        machines.append(random_machine(rng, rng.randint(2, 4)))
    mutation_targets = 0
    for machine in machines:
        model = compile_minsky(machine)
        for word, acc in walk_words(model, EXACT, 4):
            if acc != validate_word(machine, list(word)):
                failures.append((machine, word))
        run = minsky_oracle(machine, 20)
        if run is None or not run.steps:
            continue
        word = run_encode(run)
        mutation_targets += 1
        sigma = [pair_symbol(q, a) for q, a in minsky_alphabet(machine)]
        for pos in range(len(word)):
            for other in sigma:
                if other == word[pos]:
                    continue
                mutated = word[:pos] + [other] + word[pos + 1 :]
                if accepts(model, mutated, EXACT):
                    failures.append(("mutation accepted", machine, mutated))
    _report(
        "4 minsky differential",
        failures,
        time.monotonic() - start,
        120.0,
        extra=f"{len(machines)} machines, {mutation_targets} mutated runs",
    )


def test_criterion_5_ilp_reduction():
    """100 random instances: bounded satisfiability at bound d equals the
    0-1 oracle, and witnesses decode to solutions."""
    start = time.monotonic()
    rng = random.Random(SEED + 2)
    failures = []
    for _ in range(100):
        inst = random_ilp(rng)
        model = compile_ilp(inst)
        result = sat_bounded(model, inst.dim, EXACT)
        solvable = ilp_oracle(inst) is not None
        if result.satisfiable != solvable:
            failures.append(("verdict", inst))
            continue
        if result.satisfiable:
            v = ilp_decode_word(inst, result.witness)
            if v is None or any(
                sum(inst.matrix[r][c] * v[c] for c in range(inst.dim)) != inst.target[r]
                for r in range(inst.dim)
            ):
                failures.append(("witness", inst, result.witness))
    _report("5 ilp reduction", failures, time.monotonic() - start, 60.0)


def _solver_corpus():
    rng = random.Random(SEED + 3)
    models = [compile_ltl(parse(t)) for t in hand_formulas()]
    models += [compile_ltl(random_formula(rng, rng.randint(1, 6))) for _ in range(20)]
    models.append(compile_minsky(parse_minsky(MINSKY_EXAMPLE)))
    for _ in range(3):
        models.append(compile_minsky(random_machine(rng, 3)))
    for _ in range(5):
        models.append(compile_ilp(random_ilp(rng, max_dim=3)))
    return models


def test_criterion_6_solver_agreement_and_pumping():
    """Fixed-width reachability agrees with capped enumeration wherever both
    terminate; pumped witnesses stay accepted, never grow, and revisit no
    departure state."""
    start = time.monotonic()
    failures = []
    limits = ResourceLimits(max_states=400_000)
    agreements = {SATISFIABLE: 0, "unsat": 0}
    skipped = 0
    for model in _solver_corpus():
        try:
            fixed = sat_fixed(model, FX6, limits=limits)
        except ResourceLimitError:
            skipped += 1
            continue
        cap = min(state_count_bound(model, FX6.total_bits), 10**4)
        try:
            bounded = sat_bounded(model, cap, FX6_MODE, limits=limits)
        except ResourceLimitError:
            skipped += 1
            continue
        if fixed.verdict == SATISFIABLE:
            if bounded.verdict != SATISFIABLE:
                failures.append(("sat disagreement", model.metadata_dict))
                continue
            agreements[SATISFIABLE] += 1
        else:
            if bounded.verdict != UNSAT_WITHIN_BOUND:
                failures.append(("unsat disagreement", model.metadata_dict))
                continue
            agreements["unsat"] += 1
        for result in (fixed, bounded):
            if result.witness is not None and not accepts(
                model, list(result.witness), FX6_MODE
            ):
                failures.append(("witness invalid", model.metadata_dict, result.witness))
        if fixed.verdict != SATISFIABLE:
            continue
        # pump the witness itself and an inflated variant when one exists
        candidates = [list(fixed.witness)]
        w = list(fixed.witness)
        for i in range(len(w)):
            inflated = w[: i + 1] + w[i : i + 1] * 3 + w[i + 1 :]
            if accepts(model, inflated, FX6_MODE):
                candidates.append(inflated)
                break
        for word in candidates:
            pumped = pump_down(model, word, FX6)
            ok = accepts(model, pumped, FX6_MODE) and len(pumped) <= len(word)
            states = []
            state = initial_state(model, FX6_MODE)
            for symbol in pumped[:-1]:
                states.append(state)
                state, _ = step(model, state, symbol)
            states.append(state)
            if not ok or len(set(states)) != len(states):
                failures.append(("pump", model.metadata_dict, word, pumped))
    _report(
        "6 solver agreement + pumping",
        failures,
        time.monotonic() - start,
        300.0,
        extra=(
            f"{agreements[SATISFIABLE]} sat / {agreements['unsat']} unsat "
            f"agreements, {skipped} skipped at the resource cap"
        ),
    )
    assert agreements[SATISFIABLE] >= 10
    assert agreements["unsat"] >= 1


def test_criterion_7_small_model_bound():
    """Every sampled formula certified satisfiable has a brute-force model
    within min(|phi| * 2^|phi|, 24).  Certification is constructive: either
    the length-5 sweep finds a model, or fixed-width reachability on the
    compiled model produces a witness that brute force then confirms."""
    start = time.monotonic()
    failures = []
    satisfiable_count = 0
    for phi in _sample_formulas():
        bound = small_model_bound(phi)
        cap = min(bound, 24)
        found = satisfiable_bruteforce(phi, min(cap, 5))
        if found is None:
            screen = sat_fixed(compile_ltl(phi), FX6)
            if screen.verdict != SATISFIABLE:
                continue  # certified unsatisfiable; the claim is vacuous
            witness_len = len(screen.witness)
            if witness_len > 8:
                failures.append(("unexpectedly long shortest model", ltl.pretty(phi)))
                continue
            found = satisfiable_bruteforce(phi, min(cap, max(witness_len, 5)))
        if found is None or len(found) > cap:
            failures.append((ltl.pretty(phi), found))
        else:
            satisfiable_count += 1
    _report(
        "7 small-model bound",
        failures,
        time.monotonic() - start,
        120.0,
        extra=f"{satisfiable_count} satisfiable formulas certified",
    )
    assert satisfiable_count >= 100


def test_criterion_8_arithmetic_closure():
    """1e5 random op evaluations across four formats stay in range and agree
    with the compute-exactly-then-quantise oracle; zero tolerance.  The ops
    are the mode's kernels on raw mantissas, the ones every evaluator and
    the generated step run; negation is the product with the encoded -1, as
    in a compiled model."""
    start = time.monotonic()
    rng = random.Random(SEED + 4)
    formats = [
        FixedPointFormat(6, 3),
        FixedPointFormat(8, 4),
        FixedPointFormat(12, 6),
        FixedPointFormat(16, 8),
    ]
    kernels = [ArithMode(fmt).kernels for fmt in formats]
    failures = 0
    triples = 0
    while triples < 100_000:
        fmt = formats[triples % 4]
        _, add, mul, relu = kernels[triples % 4]
        a = rng.randint(fmt.min_raw, fmt.max_raw)
        b = rng.randint(fmt.min_raw, fmt.max_raw)
        va, vb = Fraction(a, fmt.scale), Fraction(b, fmt.scale)
        cases = (
            (add(a, b), va + vb),
            (mul(a, b), va * vb),
            (relu(a), max(Fraction(0), va)),
            (mul(a, raw_encode(Fraction(-1), fmt)), -va),
        )
        for got, exact in cases:
            if not fmt.min_raw <= got <= fmt.max_raw:
                failures += 1
            if got != raw_encode(exact, fmt):
                failures += 1
        triples += 4
    _report(
        "8 arithmetic closure",
        [failures] if failures else [],
        time.monotonic() - start,
        10.0,
        extra=f"{triples} op checks",
    )
