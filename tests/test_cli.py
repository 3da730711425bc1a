import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlab.cli import _quantile, main
from fpxlab.config import _SECTIONS, ConfigError, DiagnosticsSpec, parse_text
from fpxlab.grid import build_grid, read_grid_function, write_grid_function
from fpxlab.spaces import gagliardo_modular, lebesgue_modular

from conftest import write_exponent_table

BASE_CONFIG = """\
[grid]
dim = 1
center = 0
halfwidth = 1
r_trunc = 4
nodes_per_axis = 201

[field]
preset = radial

[problem]
s = 0.5
sigma = 0.3
q = 1.5
exterior = linear
grad_tol = 1e-8

[diagnostics]
radius = 0.5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


# -- configuration -------------------------------------------------------------


def test_parse_minimal_defaults():
    cfg = parse_text("[grid]\ndim = 1\n")
    assert cfg.solve.nodes_per_axis == 201
    assert cfg.solve.s == 0.5
    assert cfg.solve.field_kind == "constant"
    assert cfg.diagnostics == DiagnosticsSpec(center=(0.0,), radius=0.5)


def test_parse_reports_all_problems():
    bad = "[grid]\ndim = 7\nbogus = 1\n[problem]\ns = 0.5\nsigma = 0.9\n"
    with pytest.raises(ConfigError) as err:
        parse_text(bad)
    fields = {p["field"] for p in err.value.problems}
    assert "grid.dim" in fields
    assert "grid.bogus" in fields
    assert "problem.sigma" in fields  # sigma >= s is named explicitly


def test_parse_rejects_2d_tabulated():
    with pytest.raises(ConfigError) as err:
        parse_text("[grid]\ndim = 2\n[field]\npreset = tabulated\ntable = field.csv\n")
    assert [p["field"] for p in err.value.problems] == ["field.preset"]


def test_parse_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_text("[mystery]\nkey = 1\n")
    assert any(p["field"] == "mystery" for p in err.value.problems)


@pytest.mark.parametrize("field, value", [
    ("diagnostics.scales", "0.1,0.01"),
    ("problem.step0", "1"),
    ("problem.backtrack", "0.5"),
], ids=["scales", "step0", "backtrack"])
def test_parse_rejects_removed_scales_key(field, value):
    section, key = field.split(".")
    with pytest.raises(ConfigError) as err:
        parse_text(f"[{section}]\n{key} = {value}\n")
    assert err.value.problems == [{"field": field, "message": "unknown key"}]


@pytest.mark.parametrize("edit, argv, field", [
    (("exterior = linear", "exterior = bogus"), [], "problem.exterior"),
    (("exterior = linear", "exterior = sine:abc"), [], "problem.exterior"),
    (("halfwidth = 1", "halfwidth = 0.99"), [], "grid.halfwidth"),  # h = 0.04 at 201 nodes
    (None, ["--seed", "-1"], "problem.seed"),
    # the diagnostics ball needs its closure inside the domain (-1, 1)
    (("radius = 0.5", "radius = 1.5"), [], "diagnostics.radius"),
    (("radius = 0.5", "center = 0.9\nradius = 0.5"), [], "diagnostics.radius"),
    (("radius = 0.5", "center = 1.5\nradius = 0.5"), [], "diagnostics.center"),  # no radius fits
    # diagnose works these out from the ball and the data, so a config cannot set them
    (("radius = 0.5", "radius = 0.5\ninner_factor = 0.5"), [], "diagnostics.inner_factor"),
    (("radius = 0.5", "radius = 0.5\nlevels = quartiles"), [], "diagnostics.levels"),
    (("radius = 0.5", "radius = 0.5\ndyadic_levels = 3"), [], "diagnostics.dyadic_levels"),
    (("radius = 0.5", "radius = 0.5\ngamma = 0.25"), [], "diagnostics.gamma"),
    (("radius = 0.5", "radius = 0.5\ndelta = 0.1"), [], "diagnostics.delta"),
    # a relative table is read next to the config, where there is none
    (("preset = radial", "preset = tabulated\ntable = field.csv"), [], "field.table"),
], ids=["exterior-kind", "exterior-number", "halfwidth-alignment", "seed",
        "ball-radius", "ball-near-boundary", "ball-center-outside",
        "removed-inner_factor", "removed-levels", "removed-dyadic_levels", "removed-gamma", "removed-delta",
        "missing-table"])
def test_config_rejects_what_the_run_would_reject(tmp_path, capsys, edit, argv, field):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.replace(*edit) if edit else BASE_CONFIG)
    assert main(argv + ["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["code"] == "config"
    assert [p["field"] for p in error["problems"]] == [field]
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("text, center, radius", [
    ("[grid]\ncenter = 2\n", (2.0,), 0.5),
    ("[grid]\nhalfwidth = 0.5\nnodes_per_axis = 161\n", (0.0,), 0.25),
], ids=["off-centre", "narrow"])
def test_default_ball_follows_the_grid(tmp_path, text, center, radius):
    # the default diagnostics ball is centred on the grid and fits inside it
    path = tmp_path / "run.cfg"
    path.write_text(text)
    diagnostics = parse_text(text).diagnostics
    assert (diagnostics.center, diagnostics.radius) == (center, radius)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert main(["diagnose", "--config", str(path), "--input", str(out / "solution.csv"),
                 "--out", str(out)]) == 0


# -- subcommands -----------------------------------------------------------------


def test_solve_writes_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    solution = (out / "solution.csv").read_text().splitlines()
    assert solution[0] == "x,u"
    assert len(solution) == 202
    sidecar = json.loads((out / "solve.json").read_text())
    assert set(sidecar) == {"iterations", "final_residual", "energy_history_path", "max_principle"}
    assert sidecar["final_residual"] <= 1e-8
    history = (out / "energy_history.csv").read_text().splitlines()
    energies = [float(line.split(",")[1]) for line in history[1:]]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))


def test_solve_constant_data_all_constant(tmp_path):
    path = tmp_path / "const.cfg"
    path.write_text("[field]\npreset = constant\nvalue = 2\n"
                    "[problem]\nexterior = constant:2.5\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    values = [float(line.split(",")[1])
              for line in (out / "solution.csv").read_text().splitlines()[1:]]
    assert all(v == 2.5 for v in values)


def test_solve_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(config_path), "--out", str(out1)])
    main(["solve", "--config", str(config_path), "--out", str(out2)])
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "energy_history.csv").read_bytes() == (out2 / "energy_history.csv").read_bytes()


def test_norms_fields(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    rc = main(["norms", "--config", str(config_path),
               "--input", str(out / "solution.csv"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "norms.json").read_text())
    expected = {"modular", "norm", "bracket", "iterations",
                "gagliardo_modular", "seminorm", "seminorm_bracket", "seminorm_iterations"}
    assert set(report) == expected
    for key in ("modular", "norm", "gagliardo_modular", "seminorm"):
        assert math.isfinite(report[key])


def test_diagnose_fields(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    rc = main(["diagnose", "--config", str(config_path),
               "--input", str(out / "solution.csv"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert set(report) == {"caccioppoli", "tail", "sup_bound", "growth",
                           "growth_delta", "sublevel", "holder"}
    assert all(rep["satisfied"] for rep in report["caccioppoli"])
    assert set(report["tail"]) == {"plus", "minus", "abs"}
    for rep in report["caccioppoli"]:
        for key in ("lhs_modular", "lhs_cross", "rhs_local", "rhs_tail", "c_explicit"):
            assert math.isfinite(rep[key])
    # fitted constants carry no verdict: no pass flag, no reference constant
    assert set(report["sup_bound"]) == {"applicable", "radius", "q", "p_minus", "p_plus", "lhs_sup",
                                        "average_term", "tail_term", "c_empirical", "reason"}
    assert report["sublevel"]
    for rep in report["sublevel"]:
        assert set(rep) == {"level", "radius", "lhs", "envelope", "sublevel_measure", "c_empirical"}
    assert set(report["growth"]["scenario"]) == {"x0", "radius", "H", "delta", "gamma", "sigma"}


@pytest.mark.parametrize("height, delta", [(11.0, None), (12.0, 0.125)])
def test_diagnose_calibrated_delta_reported_only_where_lemma_holds(tmp_path, height, delta):
    # a plateau of the given height over the domain calibrates to delta = 1/8 with
    # H = height / 2; the scale hypothesis R^s = 0.707 <= delta H fails at
    # 11 (delta H = 0.6875) and holds at 12 (0.75)
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.replace("preset = radial", "preset = constant"))
    grid = parse_text(path.read_text()).solve.build_grid()
    write_grid_function(tmp_path / "u.csv", grid, np.where(grid.interior, height, 0.0))
    assert main(["diagnose", "--config", str(path), "--input", str(tmp_path / "u.csv"),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnostics.json").read_text())
    growth = report["growth"]
    assert growth["scenario"]["delta"] == 0.125
    assert growth["scenario"]["H"] == height / 2
    assert growth["failed"] == ([] if delta else ["scale"])
    assert report["growth_delta"] == delta


@pytest.mark.parametrize("command", ["norms", "diagnose"])
def test_empty_input_is_a_structured_error(config_path, tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main([command, "--config", str(config_path), "--input", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(err) == {"code", "field", "message"}
    assert err["code"] == "ValueError"


def test_norms_modulars_match_library(config_path, tmp_path):
    # norms.json takes both modulars from its norms' unit-scaling evaluations
    out = tmp_path / "out"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    assert main(["norms", "--config", str(config_path),
                 "--input", str(out / "solution.csv"), "--out", str(out)]) == 0
    report = json.loads((out / "norms.json").read_text())
    cfg = parse_text(BASE_CONFIG)
    grid, field = cfg.solve.build_grid(), cfg.solve.build_field()
    u = read_grid_function(out / "solution.csv", grid)
    pbar = np.asarray(field.diagonal(grid.nodes))
    assert report["modular"] == lebesgue_modular(u, pbar, grid).value
    assert report["gagliardo_modular"] == gagliardo_modular(u, field, cfg.solve.s, grid).value


def test_analysis_outputs_deterministic(config_path, tmp_path):
    """Two identical runs of each analysis command write byte-identical JSON."""
    solved = tmp_path / "solved"
    assert main(["solve", "--config", str(config_path), "--out", str(solved)]) == 0
    solution = str(solved / "solution.csv")
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["norms", "--config", str(config_path), "--input", solution, "--out", out]) == 0
        assert main(["diagnose", "--config", str(config_path), "--input", solution, "--out", out]) == 0
        assert main(["check-exponent", "--config", str(config_path), "--out", out]) == 0
    for name in ("norms.json", "diagnostics.json", "exponent.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_iterate_table(capsys):
    rc = main(["iterate", "--C", "1", "--b", "2", "--betas", "1", "--y0", "0.5", "--jmax", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "j,y,bound"
    for j, line in enumerate(lines[1:]):
        _, y, bound = line.split(",")
        assert float(y) <= 2.0 ** -(1 + j) + 1e-15
        assert float(bound) == 2.0 ** -(1 + j)


def _preset_config(tmp_path, preset):
    path = tmp_path / f"{preset}.cfg"
    path.write_text(f"[field]\npreset = {preset}\n")
    return str(path)


def test_check_exponent_radial_passes(tmp_path):
    out = tmp_path / "out"
    rc = main(["check-exponent", "--config", _preset_config(tmp_path, "radial"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "exponent.json").read_text())
    assert report["interior_oscillation"]["passed"]
    assert report["exterior_comparison"]["passed"]
    assert report["log_holder"]["passed"]


def test_check_exponent_product_fails(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["check-exponent", "--config", _preset_config(tmp_path, "product"), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "exponent_condition"
    report = json.loads((out / "exponent.json").read_text())
    assert not report["log_holder"]["passed"]


def test_tabulated_table_is_read_next_to_the_config(tmp_path, monkeypatch):
    # a relative field.table names a file beside the config, wherever the command runs
    home = tmp_path / "config"
    home.mkdir()
    write_exponent_table(home / "field.csv", build_grid(1, 0.0, 1.0, 1.5, 121))
    (home / "run.cfg").write_text("[grid]\nr_trunc = 1.5\nnodes_per_axis = 121\n\n"
                                  "[field]\npreset = tabulated\ntable = field.csv\n\n[problem]\nexterior = linear\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    args = ["--config", str(home / "run.cfg"), "--out", "out"]
    assert main(["solve", *args]) == 0
    assert main(["norms", *args, "--input", "out/solution.csv"]) == 0
    assert main(["diagnose", *args, "--input", "out/solution.csv"]) == 0
    assert main(["check-exponent", *args]) == 0
    assert sorted(path.name for path in (elsewhere / "out").iterdir()) == [
        "diagnostics.json", "energy_history.csv", "exponent.json", "norms.json", "solution.csv", "solve.json"]


def test_tabulated_cell_that_is_not_a_number_is_a_config_problem(tmp_path, capsys):
    # numpy 2 writes a float64 as np.float64(...); the table names the cell, and nothing runs
    write_exponent_table(tmp_path / "field.csv", build_grid(1, 0.0, 1.0, 2.0, 41))
    lines = (tmp_path / "field.csv").read_text().splitlines()
    x, y, p = lines[5].split(",")
    lines[5] = f"{x},{y},np.float64({p})"
    (tmp_path / "field.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "run.cfg").write_text("[grid]\nr_trunc = 2\nnodes_per_axis = 41\n\n"
                                      "[field]\npreset = tabulated\ntable = field.csv\n")
    assert main(["check-exponent", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {"code": "config", "problems": [{
        "field": "field.table",
        "message": f"tabulated field CSV line 6, column p: 'np.float64({p})' is not a number"}]}
    assert not (tmp_path / "out").exists()


# values with ties, and one sign of zero: np.sort and np.quantile's partition may order -0.0 and 0.0 apart
_SAMPLES = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False)),
                    min_size=1, max_size=40).map(lambda values: np.array(values) + 0.0)


@given(_SAMPLES, st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quartiles_match_numpy_bit_for_bit(values, shift):
    ordered = np.sort(values)
    ours = [_quantile(ordered, q) for q in (0.25, 0.5, 0.75)] + [_quantile(ordered - shift, 0.5)]
    numpy = [np.quantile(values, q) for q in (0.25, 0.5, 0.75)] + [np.quantile(values - shift, 0.5)]
    assert np.array(ours).tobytes() == np.array(numpy, dtype=float).tobytes()


def test_config_error_json(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nsigma = 0.9\n")
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config"
    assert any(p["field"] == "problem.sigma" for p in err["problems"])


def test_csv_cells_finite(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    for name in ("solution.csv", "energy_history.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row.split(","))


def test_readme_configuration_example_names_every_key():
    # the README's example parses, and names each key the parser knows, the commented table too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration format\n", 1)[1].split("\n## ", 1)[0]
    block = "\n".join(line[4:] for line in section.splitlines() if line.startswith("    "))
    parse_text(block)
    named: dict = {}
    current = None
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            current = named.setdefault(header.group(1), set())
        elif "=" in line:
            current.add(line.lstrip("# ").split("=", 1)[0].strip())
    assert named == _SECTIONS
