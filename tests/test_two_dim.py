import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import ball_mask, build_grid
from fpxlab.operators import PairKernel, tail
from fpxlab.regularity import caccioppoli_report, holder_exponent_fit, sublevel_energy_check
from fpxlab.solve import comparison_check, exterior_data, minimize


@pytest.fixture(scope="module")
def plane_grid():
    return build_grid(2, (0.0, 0.0), (1.0, 1.0), 3.0, 25)


@pytest.fixture(scope="module")
def plane_solution(plane_grid):
    cfg = types.SimpleNamespace(s=0.5, sigma=0.3, q=1.5)
    field = constant_field(2.0)
    g = 3.0 + exterior_data("random:1.0", plane_grid, 5)
    result = minimize(plane_grid, field, cfg.s, g, 1e-8, 50_000)
    return cfg, field, g, result


def test_anisotropic_domain_measure():
    grid = build_grid(2, (0.0, 0.0), (1.0, 0.5), 3.0, 25)
    assert np.count_nonzero(grid.interior) * grid.measure == pytest.approx(2.0, abs=1e-12)
    assert grid.circumradius == pytest.approx(math.hypot(1.0, 0.5))


def test_2d_max_principle(plane_grid, plane_solution):
    _, _, g, result = plane_solution
    rep = comparison_check(result.u, plane_grid, g)
    assert rep.passed, f"excess {rep.excess:.2e}"


def test_2d_caccioppoli(plane_grid, plane_solution):
    cfg, field, _, result = plane_solution
    level = float(np.quantile(result.u[plane_grid.interior], 0.5))
    rep = caccioppoli_report(result.u, field, cfg.s, plane_grid, (0.0, 0.0), 0.25, 0.5, level)
    assert rep.satisfied
    assert rep.c_empirical <= rep.c_explicit


def test_2d_sublevel(plane_grid, plane_solution):
    cfg, field, _, result = plane_solution
    level = float(np.quantile(result.u[plane_grid.interior], 0.5))
    rep = sublevel_energy_check(result.u, field, cfg.s, plane_grid, (0.0, 0.0),
                                0.5, level, sigma=cfg.sigma, q=cfg.q)
    assert np.isfinite(rep.c_empirical)
    assert rep.lhs <= rep.c_empirical * rep.envelope + 1e-12


def test_2d_tail_between_ring_bounds(plane_grid):
    # u = 1 everywhere, p = 2: the box sum is sandwiched between the exact
    # tails truncated at the inscribed and circumscribed box radii
    s, radius = 0.5, 0.5
    rep = tail(plane_grid, constant_field(2.0), s, np.ones(plane_grid.n_nodes),
               (0.0, 0.0), radius)
    ring = lambda a, b: 2 * math.pi * (a ** (-2 * s) - b ** (-2 * s)) / (2 * s)
    inner = ring(radius, plane_grid.r_trunc)
    outer = ring(radius, plane_grid.r_trunc * math.sqrt(2.0) + plane_grid.h)
    assert inner * 0.95 <= rep.value <= outer * 1.05


def test_2d_radial_oscillation_fit(plane_solution, plane_grid):
    # fits need finer grids than the solve; reuse data via a synthetic cone
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), 2.0, 513)
    u = np.sqrt(np.sum(grid.nodes**2, axis=1))
    fit = holder_exponent_fit(u, grid, (0.0, 0.0), 0.5)
    assert fit.defined
    assert fit.alpha == pytest.approx(1.0, abs=0.05)


def test_2d_ball_mask_counts(plane_grid):
    mask = ball_mask(plane_grid, (0.0, 0.0), 0.5)
    # 0.5 / h = 2 cells: 13-node discrete disc (cross plus diagonals)
    assert mask.sum() == 13


@given(st.floats(min_value=0.1, max_value=8.0), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_energy_homogeneity_constant_exponent(scale, seed):
    grid = build_grid(1, 0.0, 1.0, 4.0, 41)
    kernel = PairKernel(grid, constant_field(2.5), 0.5)
    u = np.random.default_rng(seed).normal(size=grid.n_nodes)
    base = kernel.energy(u)
    assert kernel.energy(scale * u) == pytest.approx(scale**2.5 * base, rel=1e-10)


@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_energy_shift_invariance(shift, seed):
    grid = build_grid(1, 0.0, 1.0, 4.0, 41)
    kernel = PairKernel(grid, radial_field(), 0.5)
    u = np.random.default_rng(seed).normal(size=grid.n_nodes)
    assert kernel.energy(u + shift) == pytest.approx(kernel.energy(u), rel=1e-9)
