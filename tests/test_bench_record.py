"""The benchmark record's aggregation, on canned output of
``perfbench/run.py --trace 0``; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def canned(p50: float, ips: float, probe: str = "3.323", digest: str = "b42a") -> str:
    metrics = {"instances_per_s": {"value": ips, "unit": "1/s"},
               "verdict_s.p50": {"value": p50, "unit": "s"}}
    return "\n".join([
        f"workload bounded_exact seed 401 instances 100 digest {digest}",
        "host Fraction loop: 40.19 ms at start, 32.53 ms at end (diagnostic of host speed, "
        "not a metric)",
        "samples: 100 instances; setup_s is the median of 11 set-ups",
        f"host-speed probe: 232 probes, p10 2.275 ms, median {probe} ms, p90 3.658 ms; times "
        "below are in reference-host seconds, where the probe takes 2.5 ms",
        f"verdict_s.p50 = {p50:g} s",
        json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_a_run_is_its_last_json_line_digest_and_probe():
    record = bench_record.parse_run(canned(0.0016, 614.7))
    assert record["digest"] == "b42a" and record["probe_ms"] == 3.323
    assert record["metrics"]["verdict_s.p50"] == {"value": 0.0016, "unit": "s"}
    assert (record["correct"], record["failed"]) == (True, 0)
    with pytest.raises(ValueError):
        bench_record.parse_run("")


def test_a_workload_keeps_the_median_and_range_of_each_metric():
    runs = [bench_record.parse_run(canned(p50, ips, probe))
            for p50, ips, probe in ((0.003, 500.0, "3.0"), (0.001, 700.0, "2.0"),
                                    (0.002, 600.0, "4.0"))]
    entry = bench_record.aggregate(runs, 401, "abc")
    assert entry["metrics"]["verdict_s.p50"] == {
        "median": 0.002, "range": [0.001, 0.003], "unit": "s"}
    assert entry["metrics"]["instances_per_s"]["range"] == [500.0, 700.0]
    assert (entry["commit"], entry["seed"], entry["runs"], entry["digest"]) == (
        "abc", 401, 3, "b42a")
    assert (entry["correct"], entry["failed"], entry["probe_ms_median"]) == (True, 0, 3.0)


def test_runs_of_different_corpora_list_every_digest():
    runs = [bench_record.parse_run(canned(0.001, 1.0, digest=d)) for d in ("bb", "aa")]
    assert bench_record.aggregate(runs, 401, "abc")["digest"] == ["aa", "bb"]
