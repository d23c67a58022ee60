"""ssmverify: evaluate state space models under exact or fixed-point
arithmetic, compile LTL_f / Minsky machines / 0-1 integer programs into
them, and decide satisfiability by bounded enumeration or finite-state
reachability."""

from .arithmetic import (
    EXACT,
    FX6,
    ArithMode,
    FixedPointFormat,
    FixedPointValue,
    Rational,
)
from .compilers import (
    IlpInstance,
    MinskyMachine,
    MinskyRun,
    compile_ilp,
    compile_ltl,
    compile_minsky,
    ilp_oracle,
    minsky_oracle,
    parse_ilp,
    parse_minsky,
    prev_bit_layer,
    run_encode,
    validate_word,
)
from .fnn import (
    Fnn,
    FnnLayer,
    FnnNode,
    compose,
    gadget_and,
    gadget_eq,
    gadget_geq0,
    gadget_implies,
    gadget_leq,
    gadget_lookup,
    gadget_min1,
)
from .ltl import holds, parse, pretty, satisfiable_bruteforce, small_model_bound, subformulas_topo
from .modelfile import load_model, save_model
from .solvers import (
    LengthBound,
    ResourceLimits,
    SatResult,
    pump_down,
    sat_bounded,
    sat_fixed,
)
from .ssm import (
    AffineMap,
    DiagonalAffineGate,
    SsmLayer,
    SsmModel,
    StreamState,
    TimeInvariantGate,
    accepts,
    classify_gates,
    evaluate,
    evaluate_layerwise,
    initial_state,
    quantization_report,
    run_layer,
    state_count_bound,
    step,
)

__version__ = "0.1.0"
