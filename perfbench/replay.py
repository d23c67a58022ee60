"""The traced run: each instance is replayed as the public library calls
that its CLI commands make, with a span around every call, and each model
is stepped along a seeded walk to time the layers of one step.

Spans are recorded from the benchmark's side of each call; nothing inside
the library is instrumented.  Two deliberate differences from the CLI:

* ``sat fixed`` runs ``quantization_report`` itself and again inside
  ``sat_fixed``.  The replay calls only ``sat_fixed``, so the CLI's own scan
  falls into ``cli.overhead_ms``; the scan is timed once more in its own
  span, ``ssm.quant_scan``, which ``solvers.search_ms`` subtracts.
* ``initial_state`` is called before the search so that building the
  stepper gets its own span, ``ssm.stepper_build``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

FX = "fx:6:3"
WALK_LEN = 6


class Tracer:
    """Spans kept in memory as [trace id, span id, parent id, name, start,
    end]; the trace id is the instance index."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.trace_id, len(self.spans),
                  self._open[-1] if self._open else None, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> dict[int, float]:
        """Seconds per trace id spent in spans of this name."""
        out: dict[int, float] = {}
        for trace_id, _, _, span_name, start, end in self.spans:
            if span_name == name:
                out[trace_id] = out.get(trace_id, 0.0) + end - start
        return out

    def child_time(self, name: str) -> dict[int, float]:
        """Seconds per trace id covered by the direct children of spans of
        this name."""
        parents = {s[1] for s in self.spans if s[3] == name}
        out: dict[int, float] = {}
        for trace_id, _, parent, _, start, end in self.spans:
            if parent in parents:
                out[trace_id] = out.get(trace_id, 0.0) + end - start
        return out


def span_cost_s(samples: int = 2000) -> float:
    """Seconds that recording one empty span costs."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - start) / samples


def _compile(lib, tr: Tracer, inst, model_path: str, source_path: str):
    if inst.kind == "ltl":
        with tr.span("ltl.parse"):
            phi = lib.ltl.parse(inst.source)
        with tr.span("compilers.compile"):
            model = lib.compilers.compile_ltl(phi)
    else:
        with open(source_path) as fh:
            source = fh.read()
        parse = lib.compilers.parse_minsky if inst.kind == "minsky" else lib.compilers.parse_ilp
        build = lib.compilers.compile_minsky if inst.kind == "minsky" else lib.compilers.compile_ilp
        with tr.span("compilers.parse"):
            problem = parse(source)
        with tr.span("compilers.compile"):
            model = build(problem)
    with tr.span("modelfile.save"):
        lib.modelfile.save_model(model, model_path)


def _sat(lib, tr: Tracer, inst, model_path: str):
    with tr.span("modelfile.load"):
        model = lib.modelfile.load_model(model_path)
    fixed = inst.kind == "ltl"
    with tr.span("arithmetic.parse"):
        mode = lib.arithmetic.ArithMode.parse(FX if fixed else "exact")
    with tr.span("ssm.stepper_build"):
        lib.ssm.initial_state(model, mode)
    try:
        with tr.span("solvers.search"):
            if fixed:
                result = lib.solvers.sat_fixed(model, mode.fmt, threads=1)
            else:
                bound = lib.solvers.LengthBound.unary(inst.max_len)
                result = lib.solvers.sat_bounded(model, bound, mode)
        stats = result.stats
        witness_len = len(result.witness) if result.witness else None
    except lib.errors.ResourceLimitError as exc:
        stats, witness_len = exc.stats, None
    return model, stats, witness_len


def trace_instance(lib, tr: Tracer, index: int, inst, model_path: str,
                   source_path: str, compile_timed: bool) -> dict:
    """Replay one instance; the compile command is a timed command on
    ltl_cli and a set-up step elsewhere."""
    tr.trace_id = index
    with tr.span("instance"):
        with tr.span("cmd.compile" if compile_timed else "setup.compile"):
            _compile(lib, tr, inst, model_path, source_path)
        with tr.span("cmd.sat"):
            model, stats, witness_len = _sat(lib, tr, inst, model_path)
        with tr.span("ssm.quant_scan"):
            quantized = len(lib.ssm.quantization_report(
                model, lib.arithmetic.FixedPointFormat.parse(FX)))
    return {"model": model, "stats": stats, "witness_len": witness_len,
            "quantized": quantized}


def walk(lib, model, mode, rng: random.Random) -> dict:
    """Step a seeded walk and time, per step, the public ``step``, each
    layer's phi rebuilt from ``StreamState.hidden`` and the output network;
    then time ``evaluate_layerwise`` on the same word."""
    word = [rng.choice(model.alphabet) for _ in range(WALK_LEN)]
    exact = mode.is_exact
    fmt = mode.fmt
    index = model.symbol_index
    if exact:
        evaluate = lib.fnn.eval_fractions
        embed = lambda s: tuple(model.emb[index[s]])
    else:
        evaluate = lambda net, values: lib.fnn.eval_raws(net, values, fmt)
        embed = lambda s: tuple(lib.arithmetic.raw_encode(v, fmt) for v in model.emb[index[s]])
    state = lib.ssm.initial_state(model, mode)
    clock = time.perf_counter
    step_s = phi_s = out_s = 0.0
    for symbol in word:
        start = clock()
        state, y = lib.ssm.step(model, state, symbol)
        step_s += clock() - start
        x = embed(symbol)
        for layer, hidden in zip(model.layers, state.hidden):
            values = tuple(hidden) + tuple(x)
            start = clock()
            x = evaluate(layer.phi, values)
            phi_s += clock() - start
        start = clock()
        (out,) = evaluate(model.out, x)
        out_s += clock() - start
        if out != (y if exact else y.raw):
            raise RuntimeError("phi chain rebuilt from StreamState.hidden disagrees with step")
    start = clock()
    lib.ssm.evaluate_layerwise(model, word, mode)
    layerwise_s = clock() - start
    return {"steps": len(word), "step": step_s, "phi": phi_s, "out": out_s,
            "layerwise": layerwise_s}


def model_shape(lib, model) -> dict:
    """Layers, dimension, nonzero coefficients and plain copies of a model.
    A recurrence row is a copy when it has no gate term, no offset and one
    unit inc weight; a phi node is a copy under the same rule with identity
    activation."""
    terms = copies = slots = 0
    for layer in model.layers:
        gate, inc = layer.gate, layer.inc
        gate_offset = getattr(gate, "offset", (0,) * layer.dim)
        for j in range(layer.dim):
            gate_row = [w for w in gate.matrix[j] if w] + ([gate_offset[j]] if gate_offset[j] else [])
            inc_row = [w for w in inc.matrix[j] if w]
            terms += len(gate_row) + len(inc_row) + (1 if inc.offset[j] else 0)
            copies += not gate_row and not inc.offset[j] and inc_row == [1]
            slots += 1
        for fnn_layer in layer.phi.layers:
            for node in fnn_layer.nodes:
                weights = [w for w in node.weights if w]
                terms += len(weights) + (1 if node.bias else 0)
                copies += (node.activation == "identity" and not node.bias
                           and weights == [1])
                slots += 1
    for fnn_layer in model.out.layers:
        for node in fnn_layer.nodes:
            terms += sum(1 for w in node.weights if w) + (1 if node.bias else 0)
    return {"layers": model.num_layers, "dim": model.dim, "terms": terms,
            "copies": copies, "slots": slots}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer, records: list[dict], walks: dict, command_s: list[dict],
                  host_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run.  Times are means per instance
    (or per step for the walk figures); ``command_s`` holds, per instance,
    the untraced ``cli.run`` seconds of each timed command."""
    ms = lambda name: _mean(tr.durations(name).values()) * 1e3
    n = len(records)
    search = tr.durations("solvers.search")
    scan = tr.durations("ssm.quant_scan")
    fixed = all(r["model"].metadata_dict.get("source") == "ltl" for r in records)
    # sat_fixed repeats the scan inside; sat_bounded runs none
    search_s = {i: search[i] - (scan[i] if fixed else 0.0) for i in search}
    transitions = [r["stats"].states_explored for r in records]
    shapes = [r["shape"] for r in records]
    covered = {cmd: tr.child_time("cmd." + cmd) for cmd in ("compile", "sat")}
    cli_total = sum(sum(c.values()) for c in command_s)
    overhead = sum(
        t - covered[cmd].get(i, 0.0) for i, c in enumerate(command_s) for cmd, t in c.items()
    )
    replay_total = sum(sum(tr.durations(name).values()) for name in ("cmd.compile", "cmd.sat"))
    witness = [r["witness_len"] for r in records if r["witness_len"]]
    out = {
        "ltl.parse_ms": (ms("ltl.parse"), "ms"),
        "compilers.compile_ms": (ms("compilers.compile"), "ms"),
        "compilers.layers": (_mean(s["layers"] for s in shapes), "count"),
        "compilers.dim": (_mean(s["dim"] for s in shapes), "count"),
        "compilers.terms": (_mean(s["terms"] for s in shapes), "count"),
        "compilers.copy_share": (sum(s["copies"] for s in shapes)
                                 / sum(s["slots"] for s in shapes), "ratio"),
        "modelfile.save_ms": (ms("modelfile.save"), "ms"),
        "modelfile.load_ms": (ms("modelfile.load"), "ms"),
        "modelfile.kib": (_mean(r["kib"] for r in records), "KiB"),
        "ssm.quant_scan_ms": (ms("ssm.quant_scan"), "ms"),
        "ssm.quantized_constants": (_mean(r["quantized"] for r in records), "count"),
        "ssm.stepper_build_ms": (ms("ssm.stepper_build"), "ms"),
    }
    for mode, w in walks.items():
        steps = w["steps"]
        out[f"ssm.step_us.{mode}"] = (w["step"] / steps * 1e6, "us")
        out[f"ssm.recurrence_us.{mode}"] = ((w["step"] - w["phi"] - w["out"]) / steps * 1e6, "us")
        out[f"fnn.phi_us.{mode}"] = (w["phi"] / steps * 1e6, "us")
        out[f"fnn.out_us.{mode}"] = (w["out"] / steps * 1e6, "us")
        out[f"ssm.layerwise_us.{mode}"] = (w["layerwise"] / steps * 1e6, "us")
    out.update({
        "solvers.search_ms": (_mean(search_s.values()) * 1e3, "ms"),
        "solvers.us_per_transition": (sum(search_s.values()) / max(sum(transitions), 1) * 1e6, "us"),
        "solvers.transitions": (_mean(transitions), "count"),
        "solvers.max_frontier": (max(r["stats"].max_frontier for r in records), "count"),
        "solvers.witness_len": (_mean(witness), "count"),
        "solvers.capped_share": (sum(1 for r in records if r["capped"]) / n, "ratio"),
        "cli.sat_ms": (_mean(c["sat"] for c in command_s if "sat" in c) * 1e3, "ms"),
        "cli.overhead_ms": (overhead / n * 1e3, "ms"),
        "cli.uncovered_share": (overhead / cli_total, "ratio"),
        "arithmetic.fraction_loop_ms": (host_ms, "ms"),
        "trace.ips_ratio": (cli_total / replay_total, "ratio"),
        "trace.span_cost_share": (len(tr.spans) * span_cost_s() / replay_total, "ratio"),
    })
    return out
