"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 4 and 8 share the same twenty solved instances (built
once per session, on the base mesh and its halving).
"""

import time

import numpy as np
import pytest

from fpxlab.exponents import constant_field, product_field, radial_field
from fpxlab.grid import build_grid
from fpxlab.operators import PairKernel, tail, weighted_residual
from fpxlab.regularity import (
    DeGiorgiParams,
    caccioppoli_report,
    degiorgi_iterate,
    holder_exponent_fit,
)
from fpxlab.solve import NonConvergenceError, SolveConfig, comparison_check, exterior_data, minimize
from fpxlab.spaces import gagliardo_modular, lebesgue_modular, lebesgue_norm
from fpxlab.exponents import check_exterior_comparison, check_interior_oscillation, check_log_holder

from conftest import algebraic_inequality_check, box_mask


def _announce(number, detail, started):
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {detail}")


@pytest.fixture(scope="module")
def random_instances():
    """Twenty seeded random-data instances, p = 2, s = 0.5, two meshes."""
    field = constant_field(2.0)
    out = {}
    for n in (201, 401):
        grid = build_grid(1, 0.0, 1.0, 4.0, n)
        cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=n,
                          field_kind="constant", field_params={"value": 2.0},
                          exterior="random:1.0", grad_tol=1e-9)
        rows = []
        for seed in range(20):
            g = exterior_data("random:1.0", grid, seed)
            try:
                result = minimize(cfg, grid=grid, field=field, g=g)
                u = result.u
                residual = result.final_residual
            except NonConvergenceError as err:  # pinned at the float64 floor
                u = err.result.u
                residual = err.result.final_residual
            assert residual <= 1e-8
            rows.append((seed, g, u))
        out[n] = (grid, field, cfg, rows)
    return out


def test_criterion_01_iteration_lemma_exactness():
    started = time.perf_counter()
    run = degiorgi_iterate(DeGiorgiParams(C=1.0, b=2.0, betas=(1.0,), y0=0.5), 50)
    assert run.threshold_met
    bounds = 2.0 ** -(1.0 + np.arange(51))
    excess = np.max(run.ys - bounds)
    assert excess <= 1e-12, f"decay bound violated by {excess:.2e}"
    assert time.perf_counter() - started < 1.0
    _announce(1, f"Y_j <= 2^-(1+j) for j <= 50, max excess {excess:.1e}", started)


def test_criterion_02_algebraic_inequality_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    total = 0
    for p_lo, p_hi in ((1.5, 3.0), (1.1, 1.2), (2.0, 5.0)):
        n = 100_000
        a = rng.uniform(0.0, 10.0, n)
        b = rng.uniform(0.0, 10.0, n)
        t1 = rng.uniform(0.0, 1.0, n)
        t2 = rng.uniform(0.0, 1.0, n)
        p = rng.uniform(p_lo, p_hi, n)
        _, _, holds = algebraic_inequality_check(a, b, t1, t2, p, p_lo, p_hi)
        violations = int(np.count_nonzero(~holds))
        assert violations == 0, f"{violations} violations for bounds ({p_lo}, {p_hi})"
        total += n
    assert time.perf_counter() - started < 10.0
    _announce(2, f"{total} random tuples, zero violations beyond 1e-9", started)


def test_criterion_03_exact_linear_solution():
    started = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 4.0, 401)
    field = radial_field()
    cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=401,
                      field_kind="radial", exterior="linear", grad_tol=1e-9)
    result = minimize(cfg, grid=grid, field=field)
    error = float(np.max(np.abs(result.u - grid.nodes[:, 0])))
    kernel = PairKernel(grid, field, cfg.s)
    residual = weighted_residual(grid, kernel.gradient(result.u))
    assert error <= 1e-6, f"nodal max error {error:.2e}"
    assert residual <= 1e-8, f"residual {residual:.2e}"
    assert time.perf_counter() - started < 60.0
    _announce(3, f"nodal max error {error:.1e}, residual {residual:.1e}", started)


def test_criterion_04_discrete_maximum_principle(random_instances):
    started = time.perf_counter()
    grid, _, _, rows = random_instances[201]
    for seed, g, u in rows:
        rep = comparison_check(u, grid, g, tol=1e-8)
        assert rep.passed, f"seed {seed}: excess {rep.excess:.2e} at {rep.worst_node}"
    assert time.perf_counter() - started < 300.0
    _announce(4, "20 seeded instances within the collar range (tol 1e-8)", started)


def test_criterion_05_luxemburg_vs_classical():
    started = time.perf_counter()
    grid = build_grid(1, 0.5, 0.5, 2.0, 161)
    region = box_mask(grid, 0.0, 1.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        pbar = np.full(grid.n_nodes, p)
        for _ in range(100):
            u = rng.normal(size=grid.n_nodes) * rng.uniform(0.1, 10.0)
            classical = (grid.measure * np.sum(np.abs(u[region]) ** p)) ** (1.0 / p)
            value = lebesgue_norm(u, pbar, grid, region, tol=1e-12).value
            worst = max(worst, abs(value - classical) / classical)
    assert worst <= 1e-10, f"worst relative error {worst:.2e}"

    small = build_grid(1, 0.5, 0.5, 2.0, 41)
    small_region = box_mask(small, 0.0, 1.0)
    pbar = 2.0 + small.nodes[:, 0]
    for _ in range(1000):
        u = rng.normal(size=small.n_nodes) * rng.uniform(0.05, 20.0)
        norm = lebesgue_norm(u, pbar, small, small_region, tol=1e-12).value
        mod = lebesgue_modular(u, pbar, small, small_region).value
        if norm > 1.0:
            assert mod > 1.0 - 1e-8
            assert norm**2.0 <= mod * (1 + 1e-8) and mod <= norm**3.0 * (1 + 1e-8)
        elif norm < 1.0:
            assert mod < 1.0 + 1e-8
            assert norm**3.0 <= mod * (1 + 1e-8) and mod <= norm**2.0 * (1 + 1e-8)
    _announce(5, f"300 classical reductions (worst {worst:.1e}) and 1000 unit-ball checks", started)


def test_criterion_06_gagliardo_closed_form():
    started = time.perf_counter()
    # base refinement: 41 nodes per axis over the [-1.5, 2.5] box (h = 0.1)
    grid = build_grid(1, 0.5, 0.5, 2.0, 401)  # tenfold refinement, h = 0.01
    region = box_mask(grid, 0.0, 1.0)
    value = gagliardo_modular(grid.nodes[:, 0].copy(), constant_field(2.0), 0.25,
                              grid, region).value
    exact = 8.0 / 15.0
    rel = abs(value - exact) / exact
    assert rel <= 1e-2, f"relative error {rel:.2e}"
    _announce(6, f"grid modular {value:.6f} vs closed form {exact:.6f} (rel {rel:.1e})", started)


def test_criterion_07_tail_closed_form():
    started = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 4.0, 1601)
    s, radius = 0.4, 0.5
    rep = tail(grid, constant_field(2.0), s, np.ones(grid.n_nodes), 0.0, radius)
    truncated = (radius ** (-2 * s) - rep.truncation_radius ** (-2 * s)) / s
    err = abs(rep.value - truncated)
    assert err <= 1e-4, f"absolute error {err:.2e}"
    _announce(7, f"grid tail {rep.value:.8f} vs truncated closed form {truncated:.8f}", started)


def test_criterion_08_caccioppoli_estimates(random_instances):
    started = time.perf_counter()
    constants = {}
    for n in (201, 401):
        grid, field, cfg, rows = random_instances[n]
        per_instance = []
        for seed, _, u in rows:
            values = []
            for quart in (0.25, 0.5, 0.75):
                level = float(np.quantile(u[grid.interior], quart))
                rep = caccioppoli_report(u, field, cfg.s, grid, 0.0, 0.25, 0.5, level)
                assert rep.satisfied, f"seed {seed} level {level:.3f} on mesh {n}"
                assert rep.c_empirical <= rep.c_explicit
                values.append(rep.c_empirical)
            # the instance's fitted constant is the one covering every level;
            # single-level values at nearly-degenerate levels are noise near 0
            per_instance.append(max(values))
        constants[n] = per_instance
    worst = 1.0
    for c_c, c_f in zip(constants[201], constants[401]):
        assert min(c_c, c_f) > 0.0
        ratio = max(c_c, c_f) / min(c_c, c_f)
        assert ratio <= 2.0, f"constant moved by {ratio:.2f}x under halving"
        worst = max(worst, ratio)
    _announce(8, f"120 reports satisfied; 20 fitted constants stable (worst {worst:.2f}x)", started)


def test_criterion_09_exponent_conditions():
    started = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 4.0, 201)

    rep = check_interior_oscillation(radial_field(), grid)
    assert rep.passed, "radial field must satisfy the ball-oscillation condition"
    assert check_exterior_comparison(radial_field(), grid).passed
    assert check_log_holder(radial_field(), grid).passed

    assert check_interior_oscillation(product_field(), grid).passed
    log_rep = check_log_holder(product_field(), grid)
    assert not log_rep.passed
    measures = [row["measure"] for row in log_rep.rows]
    assert measures[-1] > measures[-2], "violation must show at the smallest scale"

    const_rep = check_interior_oscillation(constant_field(2.0), grid)
    assert const_rep.passed
    assert const_rep.l_estimate == pytest.approx(1.0, abs=1e-14)
    _announce(9, "radial passes all, product fails log-Holder, constant L = 1", started)


def test_criterion_10_holder_estimator():
    started = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 2.0, 2001)
    fit = holder_exponent_fit(np.sqrt(np.abs(grid.nodes[:, 0])), grid, 0.0, 0.64)
    assert fit.defined
    assert abs(fit.alpha - 0.5) <= 0.05, f"calibration alpha {fit.alpha:.3f}"

    alphas = []
    for n in (401, 801):
        sgrid = build_grid(1, 0.0, 1.0, 4.0, n)
        cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=n,
                          field_kind="constant", field_params={"value": 2.0},
                          exterior="sine:1", grad_tol=5e-9)
        result = minimize(cfg, grid=sgrid, field=constant_field(2.0))
        alphas.append(holder_exponent_fit(result.u, sgrid, 0.0, 0.64).alpha)
    assert alphas[0] > 0.2 and alphas[1] > 0.2, f"alphas {alphas}"
    assert abs(alphas[0] - alphas[1]) <= 0.05
    _announce(10, f"calibration {fit.alpha:.3f}; solved alphas {alphas[0]:.3f}/{alphas[1]:.3f}", started)


def test_criterion_11_gradient_correctness():
    started = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 4.0, 81)
    rng = np.random.default_rng(77)
    step = 1e-5
    worst = 0.0
    for field in (constant_field(2.0), radial_field(), product_field()):
        kernel = PairKernel(grid, field, 0.5)
        for _ in range(20):
            u = rng.normal(size=grid.n_nodes) * rng.uniform(0.2, 3.0)
            analytic = kernel.gradient(u)
            numeric = np.zeros_like(u)
            for i in np.flatnonzero(grid.interior):
                up, dn = u.copy(), u.copy()
                up[i] += step
                dn[i] -= step
                numeric[i] = (kernel.energy(up) - kernel.energy(dn)) / (2 * step)
            scale = np.max(np.abs(analytic[grid.interior]))
            rel = np.max(np.abs((analytic - numeric)[grid.interior])) / scale
            worst = max(worst, rel)
    assert worst <= 1e-5, f"worst relative gradient error {worst:.2e}"
    _announce(11, f"60 random states, worst relative error {worst:.1e}", started)
