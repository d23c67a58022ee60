"""Decision procedures for SSM satisfiability.

``sat_bounded`` and ``sat_fixed`` run one breadth-first search over the
stream states a model reaches, storing each state once with a predecessor
link.  A state is stored as its key: the hidden coordinates that the
generated step reads, which alone decide every later output.  Levels keep
discovery order and each state is expanded in alphabet order, so the first
accepting transition found spells the lexicographically least among the
shortest accepted words, rebuilt through the links.
A successor key is *dead* where a rising coordinate, one that never falls,
has reached the threshold of the step's ``dead_rule``: from there every
output is below 1.  The search checks the successor's output first, then
neither stores nor expands a dead key.  No accepted word passes through a
dead key and no live key has a dead predecessor, so the live keys are
found in the same order and the witness does not change.
``sat_bounded`` caps the word length and reports a miss as
'unsatisfiable-within-bound'; ``sat_fixed`` runs under a fixed-point format,
whose state space is finite, so an exhausted frontier is a proof of
'unsatisfiable'.  ``pump_down`` shortens accepted words by cutting segments
between repeated keys.

Hitting a state, memory or time ceiling raises ``ResourceLimitError`` with
partial stats; it is never reported as unsatisfiable.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from typing import Optional, Sequence

from ._value import Value
from .arithmetic import ArithMode, FixedPointFormat, format_rational
from .errors import InputFormatError, PreconditionError, ResourceLimitError
from . import ssm
from .ssm import SsmModel, _with_stepper

try:
    import resource as _resource
except ImportError:  # non-Unix platforms lack the resource module
    _resource = None

SATISFIABLE = "satisfiable"
UNSAT_WITHIN_BOUND = "unsatisfiable-within-bound"
UNSATISFIABLE = "unsatisfiable"


class SearchStats(Value):
    """``states_explored`` counts ``step()`` calls (transitions taken), and
    ``transitions`` repeats that count under its plain name;
    ``distinct_states`` counts the stream states stored (the initial one
    included) and ``max_frontier`` the largest breadth-first level.
    ``elapsed_s`` times the search alone.  ``builds`` counts the builds of
    the step that ran it (more than 1 after a retraction or a widened exact
    scale), and ``stepper_build_s``, ``source_s`` and ``compile_s`` sum their
    seconds: whole, generating and compiling the source.  ``exact_domain``
    is the domain exact values ran in, always ``"int"`` (``None`` in fixed mode).
    ``exact_scale_bits`` is the bit length of the scale those ints ran on:
    1 for a model with only integer constants, ``SCALE_BITS + 1`` for a
    dyadic one (``None`` in fixed mode).
    States are stored as keys of the hidden coordinates the step reads;
    ``key_coordinates`` is the length of a key, and under a ``b``-bit
    format ``key_state_bound_log2`` is ``b * key_coordinates``: the search
    stores at most 2 to that many keys (``None`` in exact mode, where
    nothing bounds them).  ``frontier_sizes`` gives
    the size of each breadth-first level reached, the initial state's level
    first; it is a list, so stats have no hash.  ``dead`` counts the
    transitions to a dead key, one that the search neither stores nor
    expands, and ``dead_rule`` gives the rule as ``[i, T]`` pairs, T a
    decoded rational string: a key whose coordinate i is at least T is
    dead.  Coordinate i never falls, and from T on every output is below
    1 (``ssm._StepCompiler._dead_rule``)."""

    __slots__ = _fields = (
        "states_explored", "max_frontier", "elapsed_s", "quantized_constants",
        "distinct_states", "transitions", "stepper_build_s", "builds", "source_s", "compile_s",
        "exact_domain", "exact_scale_bits", "key_coordinates", "key_state_bound_log2",
        "frontier_sizes", "dead", "dead_rule")

    def __init__(self, states_explored: int = 0, max_frontier: int = 0, elapsed_s: float = 0.0,
                 quantized_constants: int = 0, distinct_states: int = 0, transitions: int = 0,
                 stepper_build_s: float = 0.0, builds: int = 0, source_s: float = 0.0,
                 compile_s: float = 0.0, exact_domain: Optional[str] = None,
                 exact_scale_bits: Optional[int] = None, key_coordinates: int = 0,
                 key_state_bound_log2: Optional[int] = None,
                 frontier_sizes: Optional[list[int]] = None, dead: int = 0,
                 dead_rule: Optional[list[list]] = None):
        self._assign(states_explored, max_frontier, elapsed_s, quantized_constants,
                     distinct_states, transitions, stepper_build_s, builds, source_s,
                     compile_s, exact_domain, exact_scale_bits, key_coordinates,
                     key_state_bound_log2, [] if frontier_sizes is None else frontier_sizes,
                     dead, [] if dead_rule is None else dead_rule)


class SatResult(Value):
    __slots__ = _fields = ("verdict", "witness", "stats")

    def __init__(self, verdict: str, witness: Optional[tuple[str, ...]], stats: SearchStats):
        self._assign(verdict, witness, stats)

    @property
    def satisfiable(self) -> bool:
        return self.verdict == SATISFIABLE


class LengthBound(Value):
    """A word-length limit plus the encoding it came from; a binary-encoded
    problem parameter n denotes the limit 2**n."""

    __slots__ = _fields = ("value", "encoding")

    def __init__(self, value: int, encoding: str = "unary"):
        self._assign(value, encoding)
        if self.encoding not in ("unary", "binary"):
            raise PreconditionError(f"unknown encoding {self.encoding!r}")
        if self.value < 1:
            raise PreconditionError("length bound must be >= 1")

    @staticmethod
    def unary(n: int) -> "LengthBound":
        return LengthBound(n, "unary")

    @staticmethod
    def binary(n: int) -> "LengthBound":
        if n < 0:
            raise PreconditionError("binary length exponent must be >= 0")
        return LengthBound(1 << n, "binary")


class ResourceLimits(Value):
    __slots__ = _fields = ("max_states", "max_mem_mb", "max_seconds")

    def __init__(self, max_states: int = 5_000_000, max_mem_mb: Optional[int] = None,
                 max_seconds: Optional[int] = None):
        self._assign(max_states, max_mem_mb, max_seconds)

    @staticmethod
    def from_env() -> "ResourceLimits":
        """Limits from ``SSMVERIFY_MAX_STATES``, ``SSMVERIFY_MAX_MEM_MB`` and
        ``SSMVERIFY_MAX_SECONDS``; a value that is not a non-negative
        integer is an ``InputFormatError``."""

        def read(name: str):
            text = os.environ.get(name)
            if not text:
                return None
            try:
                if int(text) >= 0:
                    return int(text)
            except ValueError:
                pass
            raise InputFormatError(f"{name} must be a non-negative integer, got {text!r}")

        states = read("SSMVERIFY_MAX_STATES")
        return ResourceLimits(
            max_states=5_000_000 if states is None else states,
            max_mem_mb=read("SSMVERIFY_MAX_MEM_MB"),
            max_seconds=read("SSMVERIFY_MAX_SECONDS"),
        )

    def check(self, states: int, started: Optional[float] = None) -> None:
        """Raise ``ResourceLimitError`` once ``states`` is past the state
        ceiling, the process's peak memory is past the memory ceiling or,
        given the ``time.monotonic()`` reading ``started``, ``max_seconds``
        have passed since it.  The search passes the transitions it has taken
        (``states_explored``), not the keys it has stored, so it can stop
        with far fewer stored keys than ``max_states``; the oracles pass the
        steps or candidates they have tried.  The callers run it every
        4,096 transitions, steps or candidates and at each search level, so
        the clock is read no more often."""
        if states > self.max_states:
            raise ResourceLimitError(f"state ceiling {self.max_states} exceeded")
        if self.max_mem_mb is not None and _mem_mb() > self.max_mem_mb:
            raise ResourceLimitError(f"memory ceiling {self.max_mem_mb} MB exceeded")
        if (self.max_seconds is not None and started is not None
                and time.monotonic() - started >= self.max_seconds):
            raise ResourceLimitError(f"time ceiling {self.max_seconds} s reached")


def _mem_mb() -> float:
    if _resource is None:
        return 0.0
    # ru_maxrss is in KiB on Linux
    return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _search(model: SsmModel, mode: ArithMode, length_cap: Optional[int],
            limits: Optional[ResourceLimits]):
    """Breadth-first search over the stream states of ``model`` under
    ``mode``, levels in discovery order and symbols in alphabet order, so
    the first accepting (state, symbol) found spells the lexicographically
    least among the shortest accepted words.  Returns (witness or None,
    whether the frontier was exhausted, stats).  In exact mode a search
    whose values leave the step's scale runs again on a wider one;
    ``elapsed_s`` sums the runs and leaves out every build and compile."""
    limits = limits or ResourceLimits.from_env()
    clock = [0.0, 0.0]  # the seconds of the runs so far, and of the compiles in them
    return _with_stepper(
        model, mode, lambda stepper: _bfs(stepper, length_cap, limits, clock))


def _bfs(stepper, length_cap: Optional[int], limits: ResourceLimits, clock: list):
    """One run of ``_search``, which adds its seconds to ``clock[0]`` however
    it ends, and those of a compile (``ssm._COMPILE_AFTER``) to ``clock[1]``."""
    start = time.monotonic() - clock[0]
    one, init, rule, after = stepper.one, stepper.init, stepper.dead_rule, ssm._COMPILE_AFTER
    parents: dict = {init: None}
    step, letters = stepper.search_step, list(stepper.emb.items())  # in alphabet order
    level, sizes, explored, dead = [init], [], 0, 0  # sizes: one per level reached
    try:
        while level:
            sizes.append(len(level))
            if length_cap is not None and len(sizes) > length_cap:
                return None, False, _stats(stepper, start, explored, sizes, parents, dead, clock)
            next_level = []
            for key in level:
                for symbol, x in letters:
                    if explored == after:
                        step, seconds = stepper.compiled()
                        start += seconds
                        clock[1] += seconds
                    new_key, y = step(key, x)
                    explored += 1
                    if explored % 4096 == 0:
                        limits.check(explored, start)
                    if y == one:
                        word = [symbol]
                        while parents[key] is not None:
                            key, sym = parents[key]
                            word.append(sym)
                        return (tuple(reversed(word)), False,
                                _stats(stepper, start, explored, sizes, parents, dead, clock))
                    if new_key not in parents:
                        for i, threshold in rule:
                            if new_key[i] >= threshold:
                                dead += 1
                                break
                        else:
                            parents[new_key] = (key, symbol)
                            next_level.append(new_key)
            limits.check(explored, start)
            level = next_level
    except ResourceLimitError as exc:
        exc.stats = _stats(stepper, start, explored, sizes, parents, dead, clock)
        raise
    finally:
        clock[0] = time.monotonic() - start
    return None, True, _stats(stepper, start, explored, sizes, parents, dead, clock)


def _stats(stepper, start: float, transitions: int, sizes: list[int], stored: dict,
           dead: int, clock: list) -> SearchStats:
    """The report of a search that took ``transitions`` steps over levels of ``sizes``,
    stored the keys ``stored``, met ``dead`` dead ones and compiled for ``clock[1]`` s."""
    exact, one, compile_s = stepper.mode.is_exact, stepper.one, clock[1]
    return SearchStats(transitions, max(sizes[1:], default=0), time.monotonic() - start,
                       stepper.quantized_constants, len(stored), transitions,
                       stepper.build_s + compile_s, stepper.builds, stepper.source_s, compile_s,
                       "int" if exact else None, one.bit_length() if exact else None,
                       len(stepper.key), stepper.key_state_bound_log2, sizes, dead,
                       [[i, format_rational(Fraction(t, one))] for i, t in stepper.dead_rule])


def sat_bounded(
    model: SsmModel,
    bound,
    mode: ArithMode,
    limits: Optional[ResourceLimits] = None,
) -> SatResult:
    """Is some word of length <= bound accepted?  The returned witness is
    the lexicographically least among the shortest accepted words.  A miss
    is 'unsatisfiable-within-bound', whether the search reached the bound or
    ran out of states."""
    if not isinstance(bound, LengthBound):
        bound = LengthBound.unary(int(bound))
    witness, _, stats = _search(model, mode, bound.value, limits)
    if witness is not None:
        return SatResult(SATISFIABLE, witness, stats)
    return SatResult(UNSAT_WITHIN_BOUND, None, stats)


def sat_fixed(
    model: SsmModel,
    fmt: FixedPointFormat,
    length_cap: Optional[int] = None,
    limits: Optional[ResourceLimits] = None,
    threads: int = 1,
) -> SatResult:
    """Decide satisfiability under fixed-width arithmetic by breadth-first
    reachability over stream states.  An exhausted frontier is an
    unconditional 'unsatisfiable'; a length cap weakens that to
    'unsatisfiable-within-bound'.  ``threads`` is deprecated and ignored:
    the search runs on one thread."""
    witness, exhausted, stats = _search(model, ArithMode(fmt), length_cap, limits)
    if witness is not None:
        return SatResult(SATISFIABLE, witness, stats)
    return SatResult(UNSATISFIABLE if exhausted else UNSAT_WITHIN_BOUND, None, stats)


def pump_down(model: SsmModel, word: Sequence[str], fmt: FixedPointFormat) -> list[str]:
    """Shorten an accepted word by loop erasure: walking it once, cut the
    segment since a departure key was last kept whenever it recurs, and the
    suffix replays from the same key.  A key decides every later output, so
    the result is accepted, never longer, and its departure keys (positions
    0..n-1), hence its departure states, are pairwise distinct; a cut at a
    recurring final key is only taken when the shortened word is itself
    accepted, since equal keys do not imply equal final outputs."""
    return _with_stepper(model, ArithMode(fmt), lambda stepper: _pumped(stepper, word))


def _pumped(stepper, word: Sequence[str]) -> list[str]:
    """One run of ``pump_down``."""
    kept, departs, outputs = [], [], []
    position: dict = {}  # kept departure key -> its position
    key = stepper.init
    for symbol, (after, y) in zip(word, stepper.walk(word)):
        i = position.get(key)
        if i is not None:
            for departed in departs[i:]:
                del position[departed]
            del kept[i:], departs[i:], outputs[i:]
        position[key] = len(kept)
        kept.append(symbol)
        departs.append(key)
        key = after
        outputs.append(y)
    if not outputs or outputs[-1] != stepper.one:
        raise PreconditionError("pump_down requires an accepted word")
    i = position.get(key)
    if i and outputs[i - 1] == stepper.one:
        del kept[i:]
    return kept
