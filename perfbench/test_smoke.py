"""Smoke test of the benchmark's checks and metric extraction on a 201-node case.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from cases import Case, Workload  # noqa: E402
from checks import output_problems  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TINY = Workload("tiny", (Case("tiny-constant", 1, 201, 4.0, "constant", "random:1"),))


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_reports_every_metric(trace, section, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    report = []
    result = run.measure(TINY, seed=0, seconds=0, trace=trace, report=report)
    assert result["correct"] and result["failed"] == 0, report
    assert result["attempted"] == (12 if trace else 8)  # passes of four commands
    names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        builds = metrics["operators.kernel_builds"]
        assert builds >= 1 and metrics["solve.descend_calls"] >= 1
        assert metrics["operators.admissible_pairs"] == builds * _tiny_pairs()
        assert 0 < metrics["solve.accepted_ratio"] <= 1
        assert metrics["grid.io_bytes"] > 0
        import fpxlab.cli
        assert not hasattr(fpxlab.cli.main, "__wrapped__")  # the tracer restored the original
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_pairs():
    """Index-space count for TINY: h = 0.04, interior nodes 75..124, reach 75 h."""
    interior = range(75, 125)
    return sum(1 for i in range(201) for j in range(i + 1, min(i + 76, 201))
               if i in interior or j in interior)


def _write(path, payload):
    path.write_text(json.dumps(payload))


def test_exponent_expectations(tmp_path):
    product = Case("p", 1, 201, 4.0, "product", "random:1")
    radial = Case("r", 1, 201, 4.0, "radial", "random:1")
    _write(tmp_path / "exponent.json", {"interior_oscillation": {"passed": True},
                                        "exterior_comparison": {"passed": True},
                                        "log_holder": {"passed": False}})
    assert output_problems("check-exponent", tmp_path, product) == []
    assert output_problems("check-exponent", tmp_path, radial) == ["log_holder passed=False, expected True"]


def test_solve_and_diagnose_checks(tmp_path):
    case = Case("r", 1, 201, 4.0, "radial", "random:1")
    _write(tmp_path / "solve.json", {"final_residual": 2e-8, "max_principle": {"passed": True}})
    (tmp_path / "energy_history.csv").write_text("step,energy\n0,2.0\n1,1.0\n2,1.5\n")
    assert output_problems("solve", tmp_path, case) == [
        "final_residual 2.000e-08 above grad_tol", "energy history increases"]
    _write(tmp_path / "diagnostics.json", {"caccioppoli": [{"level": 0.5, "satisfied": False}]})
    assert output_problems("diagnose", tmp_path, case) == ["level-set estimate violated at levels [0.5]"]


def test_product_exit_zero_is_a_wrong_answer(tmp_path):
    """check-exponent on product must exit 1; exit 0 claims log_holder passes."""
    bench = run.Bench(TINY, seed=0, run_dir=tmp_path, store=None)
    product = Case("p", 1, 201, 4.0, "product", "random:1")
    verdicts = {"interior_oscillation": {"passed": True}, "exterior_comparison": {"passed": True}}
    for log_holder, exit_code, silent in ((False, 1, False), (True, 0, True), (False, 0, True)):
        _write(tmp_path / "exponent.json", {**verdicts, "log_holder": {"passed": log_holder}})
        op = run.Op(product, "check-exponent", 0, exit_code, 0.1, 0.0, "")
        bench.judge(op, tmp_path)
        assert (op.failed, op.silent) == (silent, silent), op.problems
