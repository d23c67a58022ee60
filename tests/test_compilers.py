"""The three reductions checked against their brute-force oracles."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    random_ilp,
    random_machine,
    trace_to_word,
    walk_words,
)
from ssmverify import ltl
from ssmverify.arithmetic import EXACT, FX6, ArithMode
from ssmverify.compilers import (
    _pointwise,
    IlpInstance,
    MinskyMachine,
    MinskyRun,
    compile_ilp,
    compile_ltl,
    compile_minsky,
    ilp_decode_word,
    ilp_oracle,
    ltl_layout,
    minsky_alphabet,
    minsky_min_bits,
    minsky_oracle,
    parse_ilp,
    parse_minsky,
    prev_bit_layer,
    run_encode,
    validate_word,
)
from ssmverify.errors import DimensionError, InputFormatError, InvalidMachineError
from ssmverify.fnn import (
    RELU,
    compose,
    eval_program,
    gadget_implies,
    gadget_min1,
    linear_fnn,
    select_fnn,
)
from ssmverify.ltl import holds, parse
from ssmverify.ssm import (
    GateClasses,
    accepts,
    classify_gates,
    evaluate_layerwise,
    initial_state,
    run_layer,
    step,
)
from ssmverify.words import pair_symbol, set_symbol

FX6_MODE = ArithMode(FX6)


# ---------------------------------------------------------------------------
# Previous-bit layer

def test_prev_bit_examples():
    layer = prev_bit_layer(1, [0])
    xs = [(Fraction(1),), (Fraction(1),), (Fraction(0),)]
    zs = run_layer(layer, xs, EXACT)
    assert [z[0] for z in zs] == [0, 1, 1]


def test_prev_bit_history_value():
    layer = prev_bit_layer(1, [0])
    # after inputs 1, 0 the exact history value is 1/4 and decodes to 1
    h = Fraction(0)
    for bit in (1, 0):
        h = Fraction(1, 4) * h + bit
    assert h == Fraction(1, 4)
    zs = run_layer(layer, [(Fraction(1),), (Fraction(0),)], EXACT)
    assert zs[-1][0] == 1


def test_prev_bit_fx6_truncated_history():
    layer = prev_bit_layer(1, [0])
    # raw recurrence after 1,1,0: 8 -> 10 -> 2 (value 1/4), decoding 1
    zs = run_layer(layer, [(8,), (8,), (0,)], ArithMode(FX6))
    assert [z[0] for z in zs] == [0, 8, 8]


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE, ArithMode.parse("fx:8:4")])
def test_prev_bit_exhaustive_short(mode):
    layer = prev_bit_layer(1, [0])
    one = Fraction(1) if mode.is_exact else mode.fmt.scale
    for n in range(1, 9):
        for bits in product((0, 1), repeat=n):
            xs = [(b * one,) for b in bits]
            zs = run_layer(layer, xs, mode)
            want = [0] + list(bits[:-1])
            assert [z[0] for z in zs] == [w * one for w in want], bits


def test_pointwise_reads_columns_out_of_order_and_shared():
    """A gadget placed on columns equals the network after a select of
    those columns, whatever their order and whoever else reads them; a
    plain network reads its own position, and the rest is copied."""
    width = 6
    deep = compose(gadget_min1(), linear_fnn([[1, -2, Fraction(1, 3)]], [1], RELU))
    shallow = linear_fnn([[1, 3]], [-1])
    gadgets = {1: (deep, (5, 0, 3)), 2: gadget_min1(), 3: (shallow, (4, 3))}
    net = _pointwise(4, gadgets, width=width)
    rng = random.Random(13)
    for _ in range(200):
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(width)]
        got = eval_program(net, xs, EXACT)
        assert got[0] == xs[0]
        assert got[2] == eval_program(gadget_min1(), [xs[2]], EXACT)[0]
        for j, (gadget, columns) in ((1, gadgets[1]), (3, gadgets[3])):
            assert got[j] == eval_program(compose(gadget, select_fnn(columns, width)), xs, EXACT)[0]


def test_pointwise_stacks_a_network_on_other_outputs():
    """A stacked network reads the outputs of other coordinates in the
    layer after their gadgets end, so it adds only its own node: here the
    min1 on 0 is built once, and 3, which has no gadget, is carried to the
    stacked nodes on two copies."""
    gadgets = {0: gadget_min1()}
    stacked = {2: (gadget_implies(), (0, 3)), 1: (gadget_implies(), (3, 0))}
    net = _pointwise(4, gadgets, compact=True, stacked=stacked)
    assert [len(layer.nodes) for layer in net.layers] == [3 + 1, 1 + 1, 3]
    rng = random.Random(17)
    for _ in range(200):
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(8)]
        low = min(Fraction(1), xs[0])
        assert eval_program(net, xs, EXACT) == (low, max(xs[3] - low, 0), max(low - xs[3], 0))


@pytest.mark.parametrize("gadgets", [{4: gadget_min1()}, {0: (gadget_min1(), (6,))}])
def test_pointwise_rejects_a_gadget_off_its_network(gadgets):
    with pytest.raises(DimensionError):
        _pointwise(4, gadgets, width=6)


def test_prev_bit_passthrough_keeps_other_dims():
    layer = prev_bit_layer(3, [1])
    xs = [(Fraction(-2), Fraction(1), Fraction(5))]
    zs = run_layer(layer, xs, EXACT)
    assert zs[0] == (-2, 0, 5)


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE])
def test_prev_bit_tracks_dimensions_independently(mode):
    # two tracked dims carry independent histories, as in the state block
    layer = prev_bit_layer(3, [0, 2])
    one = Fraction(1) if mode.is_exact else FX6.scale
    rng = random.Random(3)
    for _ in range(30):
        bits_a = [rng.randint(0, 1) for _ in range(7)]
        bits_b = [rng.randint(0, 1) for _ in range(7)]
        xs = [(a * one, 0 * one, b * one) for a, b in zip(bits_a, bits_b)]
        zs = run_layer(layer, xs, mode)
        got_a = [z[0] for z in zs]
        got_b = [z[2] for z in zs]
        assert got_a == [w * one for w in [0] + bits_a[:-1]]
        assert got_b == [w * one for w in [0] + bits_b[:-1]]
        assert all(z[1] == 0 for z in zs)


# ---------------------------------------------------------------------------
# LTL compiler

def test_compile_ltl_single_atom():
    model = compile_ltl(parse("p"))
    assert accepts(model, [set_symbol({"p"})], EXACT)
    assert not accepts(model, [set_symbol(set())], EXACT)
    # acceptance depends on the original first letter = last fed letter
    assert accepts(model, [set_symbol({"p"}), set_symbol(set())], EXACT) is False
    assert accepts(model, [set_symbol(set()), set_symbol({"p"})], EXACT) is True


def test_compile_ltl_until_example():
    phi = parse("p U q")
    model = compile_ltl(phi)
    w = [{"p"}, {"p"}, {"q"}]
    assert holds(phi, tuple(frozenset(a) for a in w), 1)
    reversed_word = trace_to_word([frozenset(a) for a in reversed(w)])
    assert accepts(model, reversed_word, EXACT)


def test_compile_ltl_next_rejects_single_letters():
    model = compile_ltl(parse("X p"))
    for symbol in model.alphabet:
        assert not accepts(model, [symbol], EXACT)


def test_compile_ltl_dimension_bookkeeping():
    phi = parse("X p U q")  # X binds tighter: (X p) U q
    layout = ltl_layout(phi)
    model = compile_ltl(phi)
    # atoms read their embedding columns; one layer per height >= 1, and one
    # previous-bit layer after each level that holds an X
    assert layout.levels == ((ltl.Next(ltl.Atom("p")),), (phi,))
    non_atoms = [s for s in layout.subformulas if not isinstance(s, ltl.Atom)]
    x_levels = sum(1 for level in layout.levels if any(isinstance(s, ltl.Next) for s in level))
    # each until's gate takes a coordinate after the subformulas', before the constant
    assert layout.gate_of == ((phi, 4),) and layout.const_dim == 5
    assert model.dim == len(layout.props) + len(non_atoms) + len(layout.gate_of) + 1 == 6
    assert model.num_layers == len(layout.levels) + x_levels == 3
    assert [layout.dim(ltl.Atom(p)) for p in layout.props] == [0, 1]
    # the previous-bit layer below the until computes its gate beside X p,
    # and the until itself, 0 or 1, needs no gadget
    assert [layer.computes for layer in model.layers] == [(), (2, 4), ()]


@pytest.mark.parametrize(
    "text", ["p", "!p", "p & q", "p | q", "X p", "p U q", "F p", "G p", "p -> q"]
)
def test_compile_ltl_differential_small(text):
    phi = parse(text)
    model = compile_ltl(phi)
    props = sorted(ltl.atoms(phi))
    for mode in (EXACT, FX6_MODE):
        for n in range(1, 4):
            for trace in ltl.enumerate_traces(props, n):
                want = holds(phi, trace, 1)
                word = trace_to_word(reversed(trace))
                assert accepts(model, word, mode) == want, (text, trace, mode)


def test_compile_ltl_gate_classes():
    assert classify_gates(compile_ltl(parse("p U q"))) == GateClasses(False, True)
    assert classify_gates(compile_ltl(parse("X p & !q"))) == GateClasses(True, True)


def test_nested_next_compiles_in_little_memory():
    """Each X adds a previous-bit decoder over all d coordinates, so a dense
    compile of 127 nested X peaked at 232 MiB of Python allocations; sparse
    rows and shared pass-through nodes keep it far below a quarter of that."""
    phi = parse("X " * 127 + "p")
    tracemalloc.start()
    try:
        model = compile_ltl(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.num_layers == 2 * 127
    assert peak < 57 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_subformula_dims_zero_on_layer_entry():
    """Entering the layer that computes a level, every coordinate of that
    level is still zero at every position."""
    phi = parse("(X p) U q & !X X q")
    layout = ltl_layout(phi)
    model = compile_ltl(phi)
    word = [set_symbol(s) for s in ({"p"}, set(), {"q"}, {"p", "q"})]
    idx = model.symbol_index
    xs = [tuple(model.emb[idx[s]]) for s in word]
    layers = iter(model.layers)
    for level in layout.levels:
        for x in xs:
            assert all(x[layout.dim(sub)] == 0 for sub in level), level
        xs = run_layer(next(layers), xs, EXACT)
        if any(isinstance(sub, ltl.Next) for sub in level):
            xs = run_layer(next(layers), xs, EXACT)  # the previous-bit layer
    assert next(layers, None) is None


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE])
def test_mixed_level_agrees_with_the_oracle(mode):
    """Level 1 holds a relu (p & q), a min1 (p | q) and a diagonal gate
    (p U q) in one layer, and its one pointwise network pads the relu to
    the depth of the min1.  The until's gate is a column of the letter."""
    phi = parse("(p & q) & ((p | q) & (p U q))")
    model = compile_ltl(phi)
    assert (model.num_layers, model.dim) == (3, 9)
    assert len(ltl_layout(phi).levels[0]) == 3
    for n in range(1, 5):
        for trace in ltl.enumerate_traces(("p", "q"), n):
            word = trace_to_word(reversed(trace))
            want = holds(phi, trace, 1)
            assert accepts(model, word, mode) == want, trace
            y = evaluate_layerwise(model, word, mode)
            assert ((y if mode.is_exact else y.value) == 1) == want, trace


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE])
@pytest.mark.parametrize("text, computes", [
    # level 1's layer computes, beside its min1 (2) and relu (3), the gates
    # of level 2: 10 on top of the min1 and the relu, 11 on two copies; the
    # gate 9 of p U q is a column of the letter
    ("((p | q) U (p & q)) & (!p U (p U q))", [(2, 3, 10, 11), (), (8,)]),
    # each previous-bit layer computes the gates of the level above it on
    # top of its decoders (2, 4 and 5) and a copy
    ("(X p) U (X !q) & (p U X q)", [(), (2, 4, 9), (), (5, 10), (), (8,)]),
])
def test_until_gates_agree_with_the_oracle(mode, text, computes):
    """An until above height 1 reads its gate ``relu(l - r)`` from the layer
    below its level, which computes it from the outputs of that layer's
    gadgets on l and r; its own coordinate is 0 or 1 at every position."""
    phi = parse(text)
    model = compile_ltl(phi)
    layout = ltl_layout(phi)
    assert [layer.computes for layer in model.layers] == computes
    untils = [layout.dim(sub) for sub, _ in layout.gate_of]
    one = 1 if mode.is_exact else mode.fmt.scale
    for n in range(1, 5):
        for trace in ltl.enumerate_traces(("p", "q"), n):
            word = trace_to_word(reversed(trace))
            assert accepts(model, word, mode) == holds(phi, trace, 1), trace
            state = initial_state(model, mode)
            for symbol in word:
                state, _ = step(model, state, symbol)
                assert all(h[i] in (0, one) for h in state.hidden for i in untils), trace


# ---------------------------------------------------------------------------
# Minsky compiler

@pytest.fixture
def example_machine():
    return MinskyMachine(
        ("q0", "q1", "qf"),
        "q0",
        "qf",
        frozenset({("q0", "inc1", "q1"), ("q1", "dec1", "qf"), ("q1", "ztest1", "q0")}),
    )


def test_machine_validation_rejects_bad_structure():
    with pytest.raises(InvalidMachineError):
        MinskyMachine(("a", "b"), "a", "b", frozenset({("a", "inc1", "b"), ("a", "inc2", "b")}))
    with pytest.raises(InvalidMachineError):
        MinskyMachine(("a", "b"), "a", "b", frozenset({("a", "dec1", "b")}))
    with pytest.raises(InvalidMachineError):
        MinskyMachine(("a", "b"), "a", "b", frozenset({("a", "dec1", "b"), ("a", "ztest2", "b")}))
    with pytest.raises(InvalidMachineError):
        MinskyMachine(("a",), "a", "a", frozenset({("a", "jump", "a")}))
    with pytest.raises(InvalidMachineError, match="duplicate"):
        MinskyMachine(("a", "b", "a"), "a", "b", frozenset({("a", "inc1", "b")}))
    with pytest.raises(InvalidMachineError, match="start/final"):
        MinskyMachine(("a", "b"), "c", "b", frozenset({("a", "inc1", "b")}))
    with pytest.raises(InvalidMachineError, match="start/final"):
        MinskyMachine(("a", "b"), "a", "c", frozenset({("a", "inc1", "b")}))
    with pytest.raises(InvalidMachineError, match="unknown states"):
        MinskyMachine(("a", "b"), "a", "b", frozenset({("a", "inc1", "c")}))


def test_oracle_and_encoding(example_machine):
    run = minsky_oracle(example_machine, 10)
    assert run == MinskyRun((("q1", "inc1"), ("qf", "dec1")))
    assert run.counters() == [(1, 0), (0, 0)]
    assert run_encode(run) == ["(q1,inc1)", "(qf,dec1)"]


def test_oracle_no_accepting_run():
    loop = MinskyMachine(
        ("a", "b"),
        "a",
        "b",
        frozenset({("a", "inc1", "a")}),
    )
    assert minsky_oracle(loop, 50) is None
    stuck = MinskyMachine(("a", "b", "c"), "a", "c", frozenset({("a", "inc1", "b")}))
    assert minsky_oracle(stuck, 50) is None  # b is not final and has no move


def test_oracle_run_shares_the_move_tables_steps():
    """A run keeps one reference a step: each step is the (target, action)
    tuple of the machine's move table, not a new tuple."""
    loop = parse_minsky("start: q0\nfinal: qf\nq0 inc1 q1\nq1 dec1 q0\nq1 ztest1 q0\n")
    steps = 200_000
    tracemalloc.start()
    try:
        assert minsky_oracle(loop, steps) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / steps < 16, f"{peak / steps:.1f} bytes a step"
    assert loop.outgoing("q1") == (("q0", "dec1"), ("q0", "ztest1"))


def test_layer1_accumulates_counters(example_machine):
    model = compile_minsky(example_machine)
    word = [pair_symbol("q1", "inc1"), pair_symbol("qf", "dec1")]
    idx = model.symbol_index
    xs = [tuple(model.emb[idx[s]]) for s in word]
    zs = run_layer(model.layers[0], xs, EXACT)
    c1_dim = 2 * 3 + 6
    assert [z[c1_dim] for z in zs] == [1, 0]


def test_compile_minsky_accepts_the_run(example_machine):
    model = compile_minsky(example_machine)
    word = run_encode(minsky_oracle(example_machine, 10))
    assert accepts(model, word, EXACT)
    assert validate_word(example_machine, word)


def test_compile_minsky_rejects_invalid(example_machine):
    model = compile_minsky(example_machine)
    # dec from zero and no delta edge from q0 with dec1
    assert not accepts(model, [pair_symbol("qf", "dec1")], EXACT)
    assert not validate_word(example_machine, [pair_symbol("qf", "dec1")])
    # valid run that does not end in the final state
    assert not accepts(model, [pair_symbol("q1", "inc1")], EXACT)


def test_compile_minsky_exhaustive_small(example_machine):
    model = compile_minsky(example_machine)
    sigma = [pair_symbol(q, a) for q, a in minsky_alphabet(example_machine)]
    for n in range(1, 4):
        for word in product(sigma, repeat=n):
            assert accepts(model, list(word), EXACT) == validate_word(
                example_machine, list(word)
            ), word


def test_compile_minsky_differential_random():
    rng = random.Random(11)
    for _ in range(8):
        machine = random_machine(rng, rng.randint(2, 4))
        model = compile_minsky(machine)
        for word, got in walk_words(model, EXACT, 3):
            assert got == validate_word(machine, list(word)), (machine, word)


def test_compile_minsky_mutations(example_machine):
    model = compile_minsky(example_machine)
    word = run_encode(minsky_oracle(example_machine, 10))
    sigma = [pair_symbol(q, a) for q, a in minsky_alphabet(example_machine)]
    for pos in range(len(word)):
        for other in sigma:
            if other == word[pos]:
                continue
            mutated = word[:pos] + [other] + word[pos + 1 :]
            assert not accepts(model, mutated, EXACT), mutated


def test_compile_minsky_classes_and_dims(example_machine):
    model = compile_minsky(example_machine)
    assert classify_gates(model) == GateClasses(True, True)
    assert model.dim == 2 * 3 + 9
    assert model.num_layers == 3


def test_parse_minsky_round_trip(example_machine):
    text = """
    # a three-state machine
    start: q0
    final: qf
    q0 inc1 q1
    q1 dec1 qf
    q1 ztest1 q0
    """
    parsed = parse_minsky(text)
    # states are ordered by first appearance: headers before transitions
    assert parsed.states == ("q0", "qf", "q1")
    assert (parsed.start, parsed.final) == (example_machine.start, example_machine.final)
    assert parsed.transitions == example_machine.transitions
    with pytest.raises(InputFormatError):
        parse_minsky("q0 inc1 q1")  # missing headers
    with pytest.raises(InputFormatError):
        parse_minsky("start: a\nfinal: b\na inc1")


def test_minsky_min_bits_monotone():
    widths = [minsky_min_bits(n) for n in (1, 4, 64, 1024)]
    assert widths == sorted(widths)
    assert minsky_min_bits(64) >= 6


# ---------------------------------------------------------------------------
# ILP compiler

def test_ilp_oracle_examples():
    inst = IlpInstance(((1, 1), (0, 1)), (1, 1))
    assert ilp_oracle(inst) == (0, 1)
    assert ilp_oracle(IlpInstance(((1,),), (0,))) == (0,)
    assert ilp_oracle(IlpInstance(((1, 0), (0, 1)), (1, 1))) == (1, 1)
    assert ilp_oracle(IlpInstance(((2,),), (1,))) is None


def test_compile_ilp_examples():
    inst = IlpInstance(((1, 1), (0, 1)), (1, 1))
    model = compile_ilp(inst)
    assert accepts(model, ["2"], EXACT)
    assert not accepts(model, ["1", "2"], EXACT)
    assert not accepts(model, ["1", "1"], EXACT)
    assert classify_gates(model) == GateClasses(True, True)


def test_compile_ilp_differential_random():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_ilp(rng)
        model = compile_ilp(inst)
        found = None
        for word, got in walk_words(model, EXACT, inst.dim):
            if got:
                found = word
                break
        solvable = ilp_oracle(inst) is not None
        assert (found is not None) == solvable, inst
        if found:
            v = ilp_decode_word(inst, found)
            assert v is not None
            assert all(
                sum(inst.matrix[r][c] * v[c] for c in range(inst.dim)) == inst.target[r]
                for r in range(inst.dim)
            )


def test_ilp_decode_word_reads_only_the_alphabet():
    """Only the symbols 1..d decode; other spellings of an index, which the
    compiled model rejects as unknown symbols, decode to None."""
    inst = IlpInstance(tuple(tuple(int(r == c) for c in range(10)) for r in range(10)), (1,) * 10)
    assert ilp_decode_word(inst, ["10", "2"]) == (0, 1) + (0,) * 7 + (1,)
    assert ilp_decode_word(inst, ["11"]) is None
    assert ilp_decode_word(inst, ["0"]) is None
    assert ilp_decode_word(inst, ["3", "3"]) is None
    odd = ["1_0", "010", " 10", "\u0663"]
    assert not set(odd) & set(compile_ilp(inst).alphabet)
    for symbol in odd:
        assert ilp_decode_word(inst, [symbol]) is None, symbol


def test_ilp_acceptance_permutation_invariant():
    inst = IlpInstance(((1, 0, 1), (0, 1, 1), (1, 1, 0)), (1, 1, 2))
    model = compile_ilp(inst)
    base = ["1", "3"]
    for word in (["1", "3"], ["3", "1"]):
        assert accepts(model, word, EXACT) == accepts(model, base, EXACT)


def test_ilp_zero_target_corner():
    """b = 0 is solved by the empty support, which no nonempty word spells;
    the compiled model diverges from the oracle exactly there."""
    inst = IlpInstance(((1,),), (0,))
    assert ilp_oracle(inst) == (0,)
    model = compile_ilp(inst)
    assert not any(got for _, got in walk_words(model, EXACT, 3))


def test_parse_ilp():
    inst = parse_ilp("2\n1 1\n0 1\n1 1\n")
    assert inst == IlpInstance(((1, 1), (0, 1)), (1, 1))
    with pytest.raises(InputFormatError):
        parse_ilp("2\n1 1\n1 1\n")  # missing target row
    with pytest.raises(InputFormatError):
        parse_ilp("2\n1 1 1\n0 1\n1 1\n")
    with pytest.raises(InputFormatError):
        parse_ilp("1\n-1\n0\n")  # negative entries rejected
