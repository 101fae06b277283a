"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dephaselab import cli, dephaser, qcore, recurrence  # noqa: E402
from dephaselab.qcore import DimensionError  # noqa: E402
from dephaselab.tolerances import TOL  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    originals = spans.install(t)
    try:
        yield t
    finally:
        spans.uninstall(originals)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argv_depends_only_on_the_seed(workload):
    first = workloads.commands(workload, 7)
    assert first == workloads.commands(workload, 7)
    other = workloads.commands(workload, 8)
    assert len(other) == len(first)
    for a, b in zip(first, other):
        i = a.index("--seed")
        assert (a[i + 1], b[i + 1]) == ("7", "8")
        assert a[:i + 1] + a[i + 2:] == b[:i + 1] + b[i + 2:]


def test_by_design_failure_stays_in_its_workload():
    failing = [argv for w in workloads.WORKLOADS for argv in workloads.commands(w, 0)
               if workloads.expected_failure(argv)]
    assert [workloads.key(a) for a in failing] == ["fig3 --m 9 --samples 16"]


def test_wrapper_returns_the_same_value_and_raises_the_same_exception():
    t = spans.Tracer()

    def divide(a, b=1):
        return a / b

    wrapped = t.wrap("toy.divide", divide)
    assert wrapped(6, b=3) == divide(6, b=3)
    with pytest.raises(ZeroDivisionError) as plain:
        divide(1, 0)
    with pytest.raises(ZeroDivisionError) as traced:
        wrapped(1, 0)
    assert str(traced.value) == str(plain.value)
    assert [s[0] for s in t.spans] == ["toy.divide", "toy.divide"]
    assert t._stack == []


def test_library_wrappers_keep_values_and_exceptions(tracer):
    rho = qcore.hermitize(qcore.tensor(*[[[0.75, 0.25], [0.25, 0.25]]] * 2))
    original_norm = qcore.trace_norm.__wrapped__
    assert qcore.trace_norm(rho) == original_norm(rho)
    with pytest.raises(DimensionError, match="keep indices"):
        qcore.partial_trace(rho, (2, 2), [5])
    with pytest.raises(ValueError, match="needs at least one operator"):
        qcore.tensor()
    names = {s[0] for s in tracer.spans}
    assert {"qcore.trace_norm", "qcore.partial_trace", "qcore.tensor"} <= names


def test_install_rebinds_imported_names_and_methods(tracer):
    assert cli.partial_trace is qcore.partial_trace
    assert cli.tensor is qcore.tensor and dephaser.tensor is qcore.tensor
    assert recurrence.pinch is dephaser.pinch
    assert all(hasattr(f, "__wrapped__") for f in cli._COMMANDS.values())
    assert hasattr(dephaser.NoisyChannel.apply, "__wrapped__")
    assert hasattr(recurrence.ContinuousEvolver.__init__, "__wrapped__")


def test_uninstall_restores_the_originals():
    before = (qcore.tensor, cli.tensor, cli._COMMANDS["dephase"], dephaser.NoisyChannel.apply)
    originals = spans.install(spans.Tracer())
    spans.uninstall(originals)
    after = (qcore.tensor, cli.tensor, cli._COMMANDS["dephase"], dephaser.NoisyChannel.apply)
    assert after == before


def test_spans_nest_and_self_time_never_exceeds_span_time(tracer, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for i, argv in enumerate([["chain", "--n", "2", "--d", "3"], ["recur", "--m", "3"],
                              ["bounds", "--d", "4"]]):
        tracer.request = i
        assert cli.main(argv + ["--out", f"out{i}", "--deterministic"]) == 0
    assert spans.nesting_errors(tracer.spans) == []
    totals = {}
    for name, start, end, _, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    summary = tracer.summary()
    for name, entry in summary["functions"].items():
        assert 0.0 <= entry["self_s"] <= totals[name] + 1e-9
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(summary["modules"].values()) == pytest.approx(roots, rel=1e-9)
    assert {s[4] for s in tracer.spans} == {0, 1, 2}
    assert summary["counts"]["dephaser.joint_dim_max"] == 9 * 2
    assert summary["counts"]["reporting.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())


def test_nesting_errors_detects_a_child_outside_its_parent():
    good = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 2.0, 0, 0]]
    assert spans.nesting_errors(good) == []
    bad = [["a", 0.0, 10.0, -1, 0], ["b", 9.0, 11.0, 0, 0]]
    assert spans.nesting_errors(bad)


def test_output_check_flags_a_residual_above_tolerance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = workloads.commands("many-small", 3)[0]
    assert cli.main(argv) == 0
    problems, payload = outputs.check_command(tmp_path, 0, argv, 0, "", TOL)
    assert problems == [] and payload["rows"] == (50, None)
    path = outputs.written_files(tmp_path, 0, argv)[0]
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1e-3"
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    problems, _ = outputs.check_command(tmp_path, 0, argv, 0, "", TOL)
    assert any("system_residual" in p for p in problems)


def test_reference_comparison_uses_the_column_tolerance():
    entry = {"invariant": {"x": 1.0}, "keys": ["y"], "by_seed": {"3": [2.0]}}
    ok, complete = outputs.compare_reference({"x": (1.0 + 1e-12, "bound_slack"),
                                              "y": (2.0, "bound_slack")}, entry, 3, TOL)
    assert ok == [] and complete
    bad, _ = outputs.compare_reference({"x": (1.0 + 1e-6, "bound_slack"),
                                        "y": (2.0, "bound_slack")}, entry, 3, TOL)
    assert bad and bad[0].startswith("x =")
    partial, complete = outputs.compare_reference({"x": (1.0, "bound_slack"),
                                                   "y": (5.0, "bound_slack")}, entry, 4, TOL)
    assert partial == [] and not complete


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_command():
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    for workload in workloads.WORKLOADS:
        expected = {workloads.key(a) for a in workloads.commands(workload, 0)
                    if workloads.expected_failure(a) is None}
        assert set(reference[workload]) == expected
