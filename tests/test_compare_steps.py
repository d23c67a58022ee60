"""The step comparison's renumbering and verdict, on hand-made dumps; no
checkout is built here."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_steps.py"
_spec = importlib.util.spec_from_file_location("compare_steps", _SCRIPT)
compare_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_steps)

SOURCE = ("def step(key, x):\n    h0_1, = key\n    v3 = h0_1 + 8\n    v7 = v3 + v3\n"
          "    return (v7, ), v7\n")


def dump(*builds, workload="ltl_cli", mode="exact") -> str:
    """``dump``'s lines for ``builds``: (index, source, key) each, in
    ``mode`` at seed 401 of ``workload``, with every other field fixed."""
    return "".join(json.dumps([workload, 401, i, mode, source, key, "()", "(8,)", "0", "8"])
                   + "\n" for i, source, key in builds)


def test_locals_are_renumbered_by_first_appearance():
    assert compare_steps.renumber(SOURCE) == SOURCE.replace("v3", "v0").replace("v7", "v1")
    # the names of hidden inputs, columns and the Inexact check stay
    text = "v12 = x0 * h1_2\n    if v12 & 7: raise Inexact\n    v2 = v12"
    assert compare_steps.renumber(text) == (
        "v0 = x0 * h1_2\n    if v0 & 7: raise Inexact\n    v1 = v0")


def test_sources_are_counted_and_fields_decide():
    old = compare_steps.parse_dump(dump((0, SOURCE, "((0, 1),)"), (1, SOURCE, "((0, 1),)"),
                                        (2, SOURCE, "((0, 1),)")))
    renamed = SOURCE.replace("v3", "v5")
    new = compare_steps.parse_dump(dump((0, SOURCE, "((0, 1),)"), (1, renamed, "((0, 1),)"),
                                        (2, SOURCE.replace("+ 8", "+ 9"), "((0, 1),)")))
    result = compare_steps.compare(old, new)
    assert (result["byte_equal"], result["renumbered_equal"], result["different"]) == (1, 1, 1)
    assert result["differing"] == result["missing"] == []
    assert compare_steps.verdict(result) == 0

    new = compare_steps.parse_dump(dump((0, SOURCE, "((0, 1),)"),
                                        (1, SOURCE, "((0, 0), (0, 1))")))
    result = compare_steps.compare(old, new)
    assert result["differing"] == [(("ltl_cli", 401, 1, "exact"), "key")]
    assert result["missing"] == [("ltl_cli", 401, 2, "exact")]
    assert compare_steps.verdict(result) == 1
    assert compare_steps.verdict(compare_steps.compare(old, {**old, **new})) == 1


def test_step_lines_are_summed_per_workload_and_mode():
    """Each side's lines after the ``def``, in the script's order of
    workloads and modes; a pair that neither side built is left out."""
    folded = "def step(key, x):\n    return (), 0\n"
    old = compare_steps.parse_dump(
        dump((0, SOURCE, "((0, 1),)"), (1, SOURCE, "((0, 1),)"))
        + dump((0, SOURCE, "((0, 1),)"), workload="bounded_exact", mode="fx:6:3")
        + dump((0, SOURCE, "((0, 1),)"), workload="bounded_exact"))
    new = compare_steps.parse_dump(
        dump((0, SOURCE, "((0, 1),)"), (1, folded, "()"))
        + dump((0, folded, "()"), workload="bounded_exact", mode="fx:6:3")
        + dump((0, SOURCE, "((0, 1),)"), workload="bounded_exact"))
    assert compare_steps.step_lines(old, new) == [
        "step lines, ltl_cli exact: 8 -> 5",
        "step lines, bounded_exact exact: 4 -> 4",
        "step lines, bounded_exact fx:6:3: 4 -> 1",
    ]
