import numpy as np
import pytest

from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import build_grid
from fpxlab.operators import PairKernel, weighted_residual
from fpxlab.solve import (
    FACTOR_BLOCK,
    Cholesky,
    NonConvergenceError,
    SolveConfig,
    comparison_check,
    exterior_data,
    minimize,
)


def make_config(**overrides):
    base = dict(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=201,
                field_kind="constant", field_params={"value": 2.0},
                exterior="constant:0", grad_tol=1e-9)
    base.update(overrides)
    return SolveConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(sigma=0.6)  # sigma >= s
    with pytest.raises(ValueError):
        make_config(grad_tol=0.0)


def test_constant_data_is_exact(line_grid):
    cfg = make_config(exterior="constant:2.5")
    result = minimize(cfg, grid=line_grid, field=constant_field(2.0))
    assert result.iterations <= 1
    assert np.all(result.u == 2.5)
    assert result.energy_history[-1] == 0.0


def test_linear_data_radial_field_exact(radial_solution):
    cfg, grid, field, result = radial_solution
    err = np.max(np.abs(result.u - grid.nodes[:, 0]))
    assert err <= 1e-6
    assert result.final_residual <= 1e-8


def test_energy_history_monotone(radial_solution):
    _, _, _, result = radial_solution
    assert np.all(np.diff(result.energy_history) <= 1e-14)


def test_energy_history_ends_at_the_solution_energy(radial_solution):
    # the history adds each accepted change to F(u0), so it ends at the computed F(u)
    cfg, grid, field, result = radial_solution
    assert result.energy_history[-1] == pytest.approx(PairKernel(grid, field, cfg.s).energy(result.u), rel=1e-14)


def test_exterior_values_pinned(line_grid):
    g = exterior_data("sign", line_grid)
    cfg = make_config(exterior="sign")
    result = minimize(cfg, grid=line_grid, field=constant_field(2.0), g=g)
    assert np.array_equal(result.u[line_grid.exterior], g[line_grid.exterior])
    rep = comparison_check(result.u, line_grid, g)
    assert rep.passed


def test_sign_data_respects_bounds(line_grid):
    g = exterior_data("sign", line_grid)
    cfg = make_config(exterior="sign")
    result = minimize(cfg, grid=line_grid, field=constant_field(2.0), g=g)
    assert np.all(result.u >= -1.0 - 1e-8)
    assert np.all(result.u <= 1.0 + 1e-8)


def test_max_principle_sweep(line_grid):
    field = constant_field(2.0)
    for seed in range(5):
        cfg = make_config(exterior="random:1.0", seed=seed)
        g = exterior_data("random:1.0", line_grid, seed)
        result = minimize(cfg, grid=line_grid, field=field, g=g)
        rep = comparison_check(result.u, line_grid, g)
        assert rep.passed, f"seed {seed} violated by {rep.excess:.2e}"


def test_restarts_agree(rng):
    # strictly convex above exponent two: restarts land on one minimiser
    grid = build_grid(1, 0.0, 1.0, 4.0, 81)
    field = constant_field(2.5)
    cfg = make_config(nodes_per_axis=81, field_params={"value": 2.5},
                      exterior="sine:2", grad_tol=1e-11)
    g = exterior_data("sine:2", grid)
    kernel = PairKernel(grid, field, cfg.s)
    solutions = []
    from fpxlab.solve import descend

    for _ in range(5):
        u0 = g.copy()
        u0[grid.interior] = rng.normal(scale=2.0, size=grid.interior.sum())
        u, _, res, _ = descend(kernel, u0, cfg.grad_tol, cfg.max_iter)
        assert res <= cfg.grad_tol
        solutions.append(u)
    for u in solutions[1:]:
        assert np.max(np.abs(u - solutions[0])) <= 1e-5


@pytest.mark.parametrize("seed", [3, 7])
def test_slow_descent_is_not_cut_short(line_grid, seed):
    # the residual here improves by under 0.1% over 50 steps while the energy still
    # falls, far above grad_tol; descent must go on rather than stop as stalled
    cfg = make_config(field_kind="product", field_params={}, exterior="random:1",
                      grad_tol=1e-8, seed=seed)
    result = minimize(cfg, grid=line_grid)
    assert result.final_residual <= cfg.grad_tol
    assert np.all(np.diff(result.energy_history) <= 0.0)


@pytest.mark.parametrize("nodes, r_trunc, exterior, s, steps", [
    (301, 3.0, "sign", 0.5, 1),
    (301, 3.0, "sine:1", 0.5, 1),
    (101, 2.0, "sign", 0.5, 1),
    (401, 4.0, "sign", 0.9, 2),
])
def test_quadratic_solve_is_exact(dense, nodes, r_trunc, exterior, s, steps):
    cfg = make_config(nodes_per_axis=nodes, r_trunc=r_trunc, exterior=exterior, s=s, grad_tol=1e-14)
    grid = cfg.build_grid()
    result = minimize(cfg, grid=grid)
    assert result.iterations <= steps
    assert result.final_residual <= 1e-14
    # the linear system grad F = 0 on the interior, from the dense ordered-pair oracle
    _, _, _, coeff = dense(grid, constant_field(2.0), s)
    inner, outer = grid.interior, grid.exterior
    matrix = np.diag(coeff[inner].sum(axis=1)) - coeff[np.ix_(inner, inner)]
    g = exterior_data(exterior, grid)
    exact = np.linalg.solve(matrix, coeff[np.ix_(inner, outer)] @ g[outer])
    assert np.max(np.abs(result.u[inner] - exact)) <= 1e-12


REFINED_CASES = {
    "radial": ("radial", {}, "random:1", 0.5),
    "product": ("product", {}, "random:1", 0.5),
    "radial-s0.9": ("radial", {}, "sign", 0.9),
    "constant-p1.2": ("constant", {"value": 1.2}, "sine:1", 0.5),
}
# the metric refreshed at the iterate holds every case at 21 iterations or fewer
# (radial 9 / 9 / 11 / 15, product 15 / 16 / 16 / 21, s = 0.9 6 / 6 / 6 / 7,
# p = 1.2 7 / 7 / 7 / 9 at 201 / 401 / 801 / 1601 nodes)
REFINED_BOUND = 25


@pytest.mark.parametrize("case, nodes", [
    pytest.param(case, nodes, id=f"{case}-{nodes}") for case in REFINED_CASES for nodes in (201, 401, 801, 1601)
])
def test_iterations_stay_bounded_under_refinement(case, nodes):
    field_kind, field_params, exterior, s = REFINED_CASES[case]
    cfg = make_config(nodes_per_axis=nodes, field_kind=field_kind, field_params=field_params,
                      exterior=exterior, s=s, grad_tol=1e-8)
    assert minimize(cfg).iterations <= REFINED_BOUND


def test_hardest_product_seed_converges(fine_line_grid):
    # the p = 2 metric took 5,812 iterations on this data seed
    cfg = make_config(nodes_per_axis=401, field_kind="product", field_params={},
                      exterior="random:1", grad_tol=1e-8, seed=329)
    result = minimize(cfg, grid=fine_line_grid)
    assert result.iterations <= 500
    assert result.final_residual <= cfg.grad_tol


@pytest.mark.parametrize("n", [FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 2 * FACTOR_BLOCK + 37])
def test_blocked_cholesky_solve_matches_numpy(rng, n):
    spread = rng.normal(size=(n, n))
    matrix = spread @ spread.T + n * np.eye(n)
    rhs = rng.normal(size=n)
    exact = np.linalg.solve(matrix, rhs)
    assert np.max(np.abs(Cholesky(matrix).solve(rhs) - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_gradient_matches_finite_differences(rng):
    grid = build_grid(1, 0.0, 1.0, 4.0, 81)
    for field in (constant_field(2.0), radial_field()):
        kernel = PairKernel(grid, field, 0.5)
        u = rng.normal(size=grid.n_nodes)
        analytic = kernel.gradient(u)
        step = 1e-5
        numeric = np.zeros_like(u)
        for i in np.flatnonzero(grid.interior):
            up, dn = u.copy(), u.copy()
            up[i] += step
            dn[i] -= step
            numeric[i] = (kernel.energy(up) - kernel.energy(dn)) / (2 * step)
        scale = np.max(np.abs(analytic[grid.interior]))
        err = np.max(np.abs((analytic - numeric)[grid.interior])) / scale
        assert err <= 1e-5


def test_residual_norm_values(line_grid, rng):
    kernel = PairKernel(line_grid, constant_field(2.0), 0.5)
    assert weighted_residual(line_grid, kernel.gradient(np.full(line_grid.n_nodes, 1.5))) == 0.0
    assert weighted_residual(line_grid, kernel.gradient(rng.normal(size=line_grid.n_nodes))) > 0.0


def test_solution_residual_below_tolerance(radial_solution):
    cfg, grid, field, result = radial_solution
    kernel = PairKernel(grid, field, cfg.s)
    assert weighted_residual(grid, kernel.gradient(result.u)) <= cfg.grad_tol


def test_nonconvergence_carries_partial_result(line_grid):
    # a p = 2 solve converges in one step, so the budget runs out on a product field
    cfg = make_config(field_kind="product", field_params={}, exterior="random:1", max_iter=2)
    with pytest.raises(NonConvergenceError) as err:
        minimize(cfg, grid=line_grid)
    partial = err.value.result
    assert partial.u.shape == (line_grid.n_nodes,)
    assert np.all(np.isfinite(partial.u))


@pytest.mark.parametrize("field_kind, field_params", [("constant", {"value": 2.0}), ("radial", {})])
def test_float_floor_ends_the_descent(line_grid, field_kind, field_params):
    # no float64 iterate meets this tolerance: once a step no longer moves u the descent
    # stops there, rather than repeating that step until the budget is spent
    cfg = make_config(field_kind=field_kind, field_params=field_params, exterior="random:1",
                      grad_tol=1e-17, max_iter=5000)
    with pytest.raises(NonConvergenceError) as err:
        minimize(cfg, grid=line_grid)
    assert err.value.result.iterations < 1000
    assert err.value.result.final_residual <= 1e-14


def test_rejects_nonfinite_exterior(line_grid):
    g = np.zeros(line_grid.n_nodes)
    g[line_grid.exterior] = np.nan
    with pytest.raises(ValueError):
        minimize(make_config(), grid=line_grid, field=constant_field(2.0), g=g)


def test_2d_solve_smoke():
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), 3.0, 19)
    cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, dim=2, center=(0.0, 0.0),
                      halfwidths=(1.0, 1.0), r_trunc=3.0, nodes_per_axis=19,
                      field_kind="constant", field_params={"value": 2.0},
                      exterior="linear", grad_tol=1e-7)
    result = minimize(cfg, grid=grid, field=constant_field(2.0))
    # odd data on a symmetric grid: the linear function is the exact solution
    assert np.max(np.abs(result.u - grid.nodes[:, 0])) <= 1e-6
