"""The three reductions checked against their brute-force oracles."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    distinguishing_word,
    hand_formulas,
    random_formula,
    random_ilp,
    random_machine,
    trace_to_word,
    walk_words,
)
from ssmverify import ltl
from ssmverify.arithmetic import EXACT, FX6, ArithMode, FixedPointFormat
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
from ssmverify.cli import _recommended_format
from ssmverify.errors import DimensionError, InputFormatError, InvalidMachineError
from ssmverify.fnn import (
    IDENTITY,
    RELU,
    compose,
    eval_program,
    gadget_implies,
    gadget_min1,
    linear_fnn,
    select_fnn,
)
from ssmverify.ltl import holds, least_reversed_model, parse
from ssmverify.solvers import UNSATISFIABLE, sat_bounded, sat_fixed
from ssmverify.ssm import (
    AffineMap,
    GateClasses,
    SsmLayer,
    SsmModel,
    TimeInvariantGate,
    _StepCompiler,
    accepts,
    as_matrix,
    as_vector,
    classify_gates,
    evaluate,
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
    """From h0 = 0, and from the seed h0 = 1 with which ``compile_minsky``
    starts its state history, the first output is the seed."""
    zero = prev_bit_layer(1, [0])
    one = Fraction(1) if mode.is_exact else mode.fmt.scale
    for seed in (0, 1):
        layer = SsmLayer((Fraction(seed),), zero.gate, zero.inc, zero.net, zero.computes)
        for n in range(1, 9):
            for bits in product((0, 1), repeat=n):
                xs = [(b * one,) for b in bits]
                zs = run_layer(layer, xs, mode)
                want = [seed] + list(bits[:-1])
                assert [z[0] for z in zs] == [w * one for w in want], (seed, bits)


def test_prev_bit_decoder_shape():
    """The decoder reads the history value and the current bit of its
    coordinate: 4 relu layers of 1, 1, 2 and 1 nodes, every weight and bias
    within +-2, so that no product saturates in a 6-bit format."""
    d = 3
    net = prev_bit_layer(d, [1]).net
    assert [len(layer.nodes) for layer in net.layers] == [1, 1, 2, 1]
    assert net.layers[0].nodes[0].row.terms == ((1, 2), (d + 1, -2))
    assert all(node.activation == RELU for layer in net.layers for node in layer.nodes)
    assert all(abs(w) <= 2 for layer in net.layers for node in layer.nodes
               for w in (node.bias, *(w for _, w in node.row.terms)))


def test_pointwise_reads_columns_out_of_order_and_shared():
    """A gadget placed on columns equals the network after a select of
    those columns, whatever their order and whoever else reads them; a
    plain network reads its own position.  Only the gadgets' outputs are
    built, in ascending order: output 0, which has none, is not."""
    width = 6
    deep = compose(gadget_min1(), linear_fnn([[1, -2, Fraction(1, 3)]], [1], RELU))
    shallow = linear_fnn([[1, 3]], [-1])
    gadgets = {1: (deep, (5, 0, 3)), 2: gadget_min1(), 3: (shallow, (4, 3))}
    net = _pointwise(4, gadgets, width=width)
    assert net.output_dim == 3
    rng = random.Random(13)
    for _ in range(200):
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(width)]
        got = eval_program(net, xs, EXACT)
        assert got[1] == eval_program(gadget_min1(), [xs[2]], EXACT)[0]
        for k, (gadget, columns) in ((0, gadgets[1]), (2, gadgets[3])):
            assert got[k] == eval_program(compose(gadget, select_fnn(columns, width)), xs, EXACT)[0]


def test_pointwise_stacks_a_network_on_other_outputs():
    """A stacked network reads the outputs of other coordinates in the
    layer after their gadgets end, so it adds only its own node: here the
    min1 on 0 is built once, and 3, which has no gadget, is carried to the
    stacked nodes on two copies."""
    gadgets = {0: gadget_min1()}
    stacked = {2: (gadget_implies(), (0, 3)), 1: (gadget_implies(), (3, 0))}
    net = _pointwise(4, gadgets, stacked=stacked)
    assert [len(layer.nodes) for layer in net.layers] == [3 + 1, 1 + 1, 3]
    rng = random.Random(17)
    for _ in range(200):
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(8)]
        low = min(Fraction(1), xs[0])
        assert eval_program(net, xs, EXACT) == (low, max(xs[3] - low, 0), max(low - xs[3], 0))


@pytest.mark.parametrize("gadgets, stacked", [
    ({4: gadget_min1()}, None),
    ({0: (gadget_min1(), (6,))}, None),
    # a stacked output that is also a gadget, or an operand of a stacked network
    ({0: gadget_min1()}, {0: (gadget_implies(), (1, 2))}),
    ({0: gadget_min1()}, {1: (gadget_implies(), (0, 1))}),
    ({0: gadget_min1()}, {1: (gadget_implies(), (0, 3)), 2: (gadget_implies(), (1, 0))}),
], ids=["gadgets0", "gadgets1", "stacked_gadget", "stacked_own_operand",
        "stacked_other_operand"])
def test_pointwise_rejects_a_gadget_off_its_network(gadgets, stacked):
    with pytest.raises(DimensionError):
        _pointwise(4, gadgets, width=6, stacked=stacked)


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
    # atoms read their embedding columns; one layer per height >= 1, an X
    # included
    assert layout.levels == ((ltl.Next(ltl.Atom("p")),), (phi,))
    non_atoms = [s for s in layout.subformulas if not isinstance(s, ltl.Atom)]
    # each until's gate takes a coordinate after the subformulas', before the constant
    assert layout.gate_of == ((phi, 4),) and layout.const_dim == 5
    assert model.dim == len(layout.props) + len(non_atoms) + len(layout.gate_of) + 1 == 6
    assert model.num_layers == len(layout.levels) == 2
    assert [layout.dim(ltl.Atom(p)) for p in layout.props] == [0, 1]
    # the layer of X p decodes its history and computes the until's gate
    # beside it, and the until itself, 0 or 1, needs no gadget
    assert [layer.computes for layer in model.layers] == [(2, 4), ()]
    # each layer stores the recurrence of its own level alone: the history
    # of X p under its constant gate of 1/4, then the until
    assert [layer.updates for layer in model.layers] == [(2,), (3,)]
    assert model.layers[0].gate == TimeInvariantGate(
        [[Fraction(1, 4) if i == j == 2 else 0 for j in range(6)] for i in range(6)])


@pytest.mark.parametrize("text, layers", [("X p", 1), ("G(p -> X q)", 3), ("F (p & X X p)", 4)])
def test_an_ltl_model_has_one_layer_per_dag_height(text, layers):
    """An X runs its history ``h = h/4 + psi`` in its own level's layer and
    decodes it there, so no previous-bit layer follows a level.  Each layer
    stores the recurrence of its own level's coordinates alone, and every
    hand formula has one layer per DAG height."""
    phi = parse(text)
    layout = ltl_layout(phi)
    model = compile_ltl(phi)
    assert model.num_layers == len(layout.levels) == layers
    for level, layer in zip(layout.levels, model.layers):
        assert layer.updates == tuple(sorted(layout.dim(sub) for sub in level)), text
    for text in hand_formulas():
        assert compile_ltl(parse(text)).num_layers == len(ltl_layout(parse(text)).levels), text


@pytest.mark.parametrize("text, layers", [("F p", 1), ("F p & F q", 2), ("G F p", 2)])
def test_tt_is_the_constant_coordinate(text, layers):
    """The parser's tt, ``a | !a``, is a leaf of height 0 that reads the
    constant coordinate and takes none of its own, so an F puts no layer
    under itself."""
    phi = parse(text)
    layout = ltl_layout(phi)
    tt = parse("p | !p")
    assert tt not in dict(layout.dim_of) and layout.const_dim == layout.dimension - 1
    assert tt not in sum(layout.levels, ())
    assert compile_ltl(phi).num_layers == layers
    model = compile_ltl(tt)
    assert (model.num_layers, model.out) == (0, select_fnn([1], 2))


def test_hand_written_tt_compiles_like_tt():
    """``q | !q`` written out is tt over q: a leaf with no coordinate, and
    ``q`` stays a proposition of the alphabet.  ``!q`` beside it reads ``1 -
    q``, which takes no coordinate either."""
    phi = parse("(q | !q) U p")
    layout = ltl_layout(phi)
    assert layout.props == ("p", "q") and parse("q | !q") not in dict(layout.dim_of)
    assert layout.levels == ((phi,),)
    assert compile_ltl(parse("p | !p")) == compile_ltl(parse("tt"))
    read = parse("(q | !q) & !q")
    assert ltl_layout(read).levels == ((read,),)
    for phi in (phi, read, parse("X (p | !p) & (q U (q | !q))")):
        model = compile_ltl(phi)
        for mode in (EXACT, FX6_MODE):
            for n in range(1, 4):
                for trace in ltl.enumerate_traces(ltl.atoms(phi), n):
                    word = trace_to_word(reversed(trace))
                    assert accepts(model, word, mode) == holds(phi, trace, 1), (phi, trace)


def test_g_tt_keeps_its_alphabet():
    """tt's atom is still a proposition: ``G tt`` is over {} and {p}."""
    model = compile_ltl(parse("G tt"))
    assert model.alphabet == ("{}", "{p}")
    assert all(accepts(model, [symbol], EXACT) for symbol in model.alphabet)


def test_f_and_g_are_one_gated_coordinate_each():
    """``F psi`` stores ``G !psi``, ``h = (1 - psi) * h`` from ``h0 = 1``:
    one coordinate one level above psi, with no gate coordinate and no inc
    term, which ``F psi`` reads negated.  ``G psi``, the parser's ``!F!psi``,
    reads it twice negated, so ``G p`` and ``F !p`` share it."""
    model = compile_ltl(parse("G p"))
    (layer,) = model.layers
    layout = ltl_layout(parse("G p"))
    g = layout.dim(parse("F !p"))
    assert layer.h0[g] == 1 and sum(layer.h0) == 1
    assert layer.gate.rows[g].terms == ((0, 1),) and layer.inc.rows[g].terms == ((g, 1),)
    assert model.out == select_fnn([g], model.dim)
    (layer,) = compile_ltl(parse("F p")).layers
    assert layer.gate.rows[g].terms == ((0, -1), (layout.const_dim, 1))
    assert compile_ltl(parse("G(p -> F q)")).num_layers == 3
    for text, gated in (("G(p -> F q)", []), ("F G p & G(p -> X q)", []),
                        ("(p U q) & G !q", [parse("p U q")]), ("F !p & G p", [])):
        assert [u for u, _ in ltl_layout(parse(text)).gate_of] == gated, text
    assert ltl_layout(parse("F !p & G p")).levels == ((parse("F !p"),), (parse("F !p & G p"),))


def test_ff_is_a_leaf():
    """The parser's ff, ``a & !a``, is a leaf of height 0 whose value has
    no terms at all, so it takes no coordinate."""
    assert ltl_layout(parse("p & q")).dimension == 4
    for text, layers in (("ff", 0), ("p & ff", 1), ("p & (q & !q)", 1)):
        layout, model = ltl_layout(parse(text)), compile_ltl(parse(text))
        ff = parse("p & !p" if "ff" in text else "q & !q")
        assert ff not in dict(layout.dim_of) and model.dim == layout.dimension
        assert layout.dimension == len(layout.props) + layers + 1
        assert model.num_layers == layers
        for result in (sat_fixed(model, FX6, length_cap=None),
                       sat_bounded(model, 4, EXACT), sat_bounded(model, 4, FX6_MODE)):
            assert result.witness is None and result.verdict.startswith(UNSATISFIABLE), text


# Formulas whose F and G share, nest or meet tt and ff, beside the hand formulas
F_AND_G = ["G(p -> F q)", "F !p & G p", "G F p & F G !q", "(p U q) & G !q", "G(p | X q)",
           "F(p & G q)", "G G p", "F F p", "G tt", "F tt", "G ff", "F ff", "ff U p",
           "p U ff", "!ff | p", "G(q | !q) & F p", "X G p & F X !q"]


@pytest.mark.parametrize("text", hand_formulas() + F_AND_G)
def test_compiled_ltl_is_equivalent_to_its_formula(text):
    """The model accepts exactly the reversed models of its formula, on
    every word, under the 6-bit profile and ``fx:8:3``."""
    phi = parse(text)
    for fmt in (FX6, FixedPointFormat(8, 3)):
        assert distinguishing_word(phi, compile_ltl(phi), ArithMode(fmt)) is None


def test_the_oracle_agrees_with_every_hand_formula():
    """The same product search on the full states of the layer-major
    oracle under the 6-bit profile, so that a step-compiler bug cannot hide
    a compiler bug."""
    for text in hand_formulas() + F_AND_G:
        phi = parse(text)
        assert distinguishing_word(phi, compile_ltl(phi), ArithMode(FX6), oracle=True) is None, text


def test_a_compiled_formula_outputs_its_terms():
    """``out`` is one identity node over the formula's terms, which are 0
    or 1 wherever the format holds 1, so acceptance needs no ``eq(1)``
    gadget: the formula's own coordinate, or that coordinate negated for
    an ``|``, an ``F`` or a negation of either, and none for ``ff``."""
    for text in hand_formulas() + F_AND_G:
        model = compile_ltl(parse(text))
        ((node,),) = [layer.nodes for layer in model.out.layers]
        assert (node.bias, node.activation) == (0, IDENTITY), text
    for text, terms in (("p U q", ((2, 1),)), ("p | q", ((2, -1), (3, 1))), ("!p", ((0, -1), (1, 1))),
                        ("!!p", ((0, 1),)), ("tt", ((1, 1),)), ("ff", ()), ("F p", ((1, -1), (2, 1))),
                        ("G p", ((1, 1),)), ("!(p & q)", ((2, -1), (3, 1)))):
        model = compile_ltl(parse(text))
        assert model.out.layers[0].nodes[0].row.terms == terms, text


# The patterns of the ltl_deep benchmark workload, over two distinct atoms
PATTERNS = ["G({a} -> X {b})", "G({a} -> X !{b})", "F({a} & X {b})", "F({a} & X X {b})",
            "{a} U {b}", "!{a} U {b}", "G({a} | {b})", "G F {a}", "F G {a}", "G({a} -> F {b})"]


@st.composite
def pattern_conjunctions(draw):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.permutations(("p", "q", "r")))[:2]
        parts.append(draw(st.sampled_from(PATTERNS)).format(a=a, b=b))
    return " & ".join(f"({part})" for part in parts)


@given(pattern_conjunctions(), st.sampled_from([FX6, FixedPointFormat(8, 3)]))
@settings(max_examples=60, deadline=None)
def test_pattern_conjunctions_are_equivalent_to_their_formulas(text, fmt):
    phi = parse(text)
    assert distinguishing_word(phi, compile_ltl(phi), ArithMode(fmt)) is None


@given(st.integers(0, 2**32 - 1), st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_random_formulas_are_equivalent_to_their_formulas(seed, size):
    """Random core-syntax formulas, which nest !, |, &, X and U in any
    order, under the 6-bit profile and ``fx:8:3``."""
    phi = random_formula(random.Random(seed), size)
    model = compile_ltl(phi)
    for fmt in (FX6, FixedPointFormat(8, 3)):
        assert distinguishing_word(phi, model, ArithMode(fmt)) is None, ltl.pretty(phi)


def test_x_models_step_as_the_oracle_where_1_is_not_representable():
    """Under ``fx:4:3`` 1 encodes as 7/8, so each carried coordinate and
    each pass-through takes a unit product that shrinks it, and the X
    history's constant column, folded into its decoder's bias, is not the
    7/8 that the layers carry.  The generated step still computes what the
    layer-major oracle does, on every word up to length 3 and on seeded
    words of length 8."""
    mode = ArithMode(FixedPointFormat(4, 3))
    texts = [t for t in hand_formulas() + F_AND_G + [p.format(a="p", b="q") for p in PATTERNS]
             if "X" in t]
    rng = random.Random(7)
    for text in texts:
        model = compile_ltl(parse(text))
        words = [list(w) for n in range(1, 4) for w in product(model.alphabet, repeat=n)]
        words += [[rng.choice(model.alphabet) for _ in range(8)] for _ in range(20)]
        for word in words:
            assert evaluate(model, word, mode) == evaluate_layerwise(model, word, mode), (text, word)


def test_a_wrong_model_has_a_least_shortest_distinguishing_word():
    """Where 1 is not representable the model accepts nothing, so it first
    differs from its formula on the formula's least shortest reversed
    model."""
    phi = parse("F p & G(p -> X q)")
    word = distinguishing_word(phi, compile_ltl(phi), ArithMode(FixedPointFormat(4, 3)))
    assert word == tuple(map(set_symbol, least_reversed_model(phi)))


@pytest.mark.parametrize("text", hand_formulas() + F_AND_G)
def test_compile_ltl_differential_small(text):
    """Every word up to length 3 under exact mode and the 6-bit profile,
    and under ``fx:3:0`` for an X-free formula, whose metadata names it."""
    phi = parse(text)
    model = compile_ltl(phi)
    props = sorted(ltl.atoms(phi))
    meta = dict(model.metadata)
    modes = [EXACT, FX6_MODE]
    if "frac_bits" in meta:
        assert not any(isinstance(sub, ltl.Next) for sub in ltl.subformulas_topo(phi))
        modes.append(ArithMode(FixedPointFormat(int(meta["min_bits"]), int(meta["frac_bits"]))))
    for mode in modes:
        for n in range(1, 4):
            for trace in ltl.enumerate_traces(props, n):
                want = holds(phi, trace, 1)
                word = trace_to_word(reversed(trace))
                assert accepts(model, word, mode) == want, (text, trace, mode)


def test_compile_ltl_gate_classes():
    assert classify_gates(compile_ltl(parse("p U q"))) == GateClasses(False, True)
    assert classify_gates(compile_ltl(parse("X p & !q"))) == GateClasses(True, True)


def test_nested_next_compiles_in_little_memory():
    """Each X adds a layer and a previous-bit decoder over all d
    coordinates, so a dense compile of 127 nested X peaked at 232 MiB of
    Python allocations; sparse rows and shared pass-through nodes keep it
    far below a quarter of that."""
    phi = parse("X " * 127 + "p")
    tracemalloc.start()
    try:
        model = compile_ltl(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.num_layers == 127
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
    assert next(layers, None) is None


@pytest.mark.parametrize("mode", [EXACT, FX6_MODE])
def test_mixed_level_agrees_with_the_oracle(mode):
    """Level 1 holds two relus (p & q, and p | q stored as !p & !q) and a
    diagonal gate (p U q) in one layer.  The until's gate is a column of
    the letter."""
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
    # level 1's layer computes, beside its relus for p | q (2, which holds
    # !p & !q) and p & q (3), the gates of level 2: 9, (p | q) - (p & q),
    # which is 1 - h2 - h3, on top of the two relus and a copy of the
    # constant, and 10, !p - (p U q), on three copies; the gate 8 of p U q
    # is a column of the letter
    ("((p | q) U (p & q)) & (!p U (p U q))", [(2, 3, 9, 10), (), (7,)]),
    # X !q reads 1 - q and is one level 1 coordinate beside X p and X q,
    # so level 1's layer computes the gates of both untils on top of its
    # decoders (2, 3 and 4)
    ("(X p) U (X !q) & (p U X q)", [(2, 3, 4, 8, 9), (), (7,)]),
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


def test_random_ilps_decide_in_fixed_point_as_in_exact_mode():
    """``out`` adds only non-positive misses to the bias 1, so no sum in it
    passes 1, and a bounded search under fx:6:3, whose integers stop at 3,
    or under each model's recommended format finds what the exact search
    finds.  The first instance once had the conjunction of its four tests
    summed to 4 past fx:6:3's range, and its search there said
    ``unsatisfiable``."""
    rng = random.Random(36)
    instances = [IlpInstance(((1, 1), (0, 1)), (1, 1))] + [random_ilp(rng) for _ in range(40)]
    for inst in instances:
        model = compile_ilp(inst)
        exact = sat_bounded(model, inst.dim, EXACT)
        for fmt in (FX6, _recommended_format(model.metadata_dict)):
            got = sat_bounded(model, inst.dim, ArithMode(fmt))
            assert (got.verdict, got.witness) == (exact.verdict, exact.witness), (inst, fmt)
    result = sat_fixed(compile_ilp(instances[0]), FX6)
    assert (result.satisfiable, result.witness) == (True, ("2",))


def test_an_ilp_letter_adds_its_column_of_a():
    """Letter i embeds as column i of A, then the unit vector e_i, under the
    identity gate and inc, so the exact step updates each row with one
    addition.  Rows and counts never fall, so where a row's input exceeds
    its target in every letter the output folds to 0, no coordinate is
    keyed and the program has no solution.  The model computes what the one-hot form, whose inc holds A
    and whose letter i embeds as e_i, computes, word by word, in every
    format, also where 1 is not representable (fx:4:3): a truncated product
    does not depend on the order of its factors, and a zero term changes no
    sum, saturated or not."""
    rng = random.Random(39)
    instances = [IlpInstance(((1, 1), (0, 1)), (1, 1)), IlpInstance(((3, 0), (2, 3)), (3, 2))]
    instances += [random_ilp(rng, max_dim=3) for _ in range(6)]
    modes = [EXACT] + [ArithMode(FixedPointFormat(t, f)) for t, f in ((6, 0), (12, 3), (4, 3))]
    for inst in instances:
        d = inst.dim
        unit = [[int(i == j) for j in range(d)] for i in range(d)]
        model = compile_ilp(inst)
        assert [list(vec) for vec in model.emb] == [
            [row[i] for row in inst.matrix] + unit[i] for i in range(d)]
        comp = _StepCompiler(EXACT, 1)
        source = comp.source(model, [tuple(map(comp.enc, vec)) for vec in model.emb])
        # a row whose input is the same in every letter adds a literal, and
        # one whose input is always 0 is its hidden value itself
        updates = re.findall(r"^    v\d+ = (.*\bh0_.*)$", source, re.M)
        assert all(re.fullmatch(r"h0_(\d+) \+ x\1|\d+ \+ h0_\d+", line)
                   for line in updates), source
        assert comp.key in ((), tuple((0, r) for r in range(2 * d))), source
        assert comp.key or ilp_oracle(inst) is None, inst
        assert [int(re.search(r"h0_(\d+)", line)[1]) for line in updates] == [
            r for _, r in comp.key if any(vec[r] for vec in model.emb)]
        zeros = as_vector([0] * 2 * d)
        inc = [list(row) + [0] * d for row in inst.matrix] + [u + [0] * d for u in unit]
        eye = [[int(r == c) for c in range(2 * d)] for r in range(2 * d)]
        layer = SsmLayer(zeros, TimeInvariantGate(as_matrix(eye)),
                         AffineMap(as_matrix(inc), zeros), None, ())
        one_hot = SsmModel(model.alphabet, tuple(as_vector(u + [0] * d) for u in unit),
                           (layer,), model.out)
        for mode in modes:
            for n in range(1, 4):
                for word in product(model.alphabet, repeat=n):
                    expected = evaluate_layerwise(one_hot, word, mode)
                    assert (evaluate(model, word, mode) == evaluate_layerwise(model, word, mode)
                            == evaluate(one_hot, word, mode) == expected), (inst, mode, word)


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
