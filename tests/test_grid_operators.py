import math

import numpy as np
import pytest

from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import (
    GridGeometryError,
    ball_mask,
    box_mask,
    build_grid,
    read_grid_function,
    write_grid_function,
)
from fpxlab.operators import PairKernel, tail


# -- grid construction -------------------------------------------------------


def test_domain_measure_exact(line_grid):
    assert line_grid.domain_measure() == pytest.approx(2.0, abs=1e-12)
    assert line_grid.h == pytest.approx(0.04, abs=1e-15)
    assert np.all(np.abs(line_grid.nodes[line_grid.interior, 0]) <= 1.0)


def test_center_node_exists(line_grid):
    assert np.any(np.all(line_grid.nodes == 0.0, axis=1))


def test_even_node_count_rejected():
    with pytest.raises(GridGeometryError):
        build_grid(1, 0.0, 1.0, 4.0, 200)


def test_too_small_truncation_rejected():
    with pytest.raises(GridGeometryError):
        build_grid(1, 0.0, 1.0, 0.5, 201)


def test_misaligned_domain_rejected():
    # h = 8/200 = 0.04 does not divide 0.95
    with pytest.raises(GridGeometryError):
        build_grid(1, 0.0, 0.95, 4.0, 201)


def test_2d_interior_count_matches_area():
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), 3.0, 25)
    assert grid.domain_measure() == pytest.approx(4.0, abs=1e-12)
    # count matches the analytic area to within one cell layer
    assert abs(grid.interior.sum() * grid.measure - 4.0) <= 4 * 2 * grid.h + 1e-12


def test_grid_function_roundtrip(tmp_path, line_grid, rng):
    u = rng.normal(size=line_grid.n_nodes)
    path = tmp_path / "u.csv"
    write_grid_function(path, line_grid, u)
    back = read_grid_function(path, line_grid)
    assert np.array_equal(back, u)  # 17 significant digits round-trip floats


def test_grid_function_validates_nodes(tmp_path, line_grid):
    other = build_grid(1, 0.0, 1.0, 4.0, 209)
    path = tmp_path / "u.csv"
    write_grid_function(path, other, np.zeros(other.n_nodes))
    with pytest.raises(ValueError):
        read_grid_function(path, line_grid)


# -- energy -------------------------------------------------------------------


def test_energy_constant_is_zero(quadratic_kernel):
    assert quadratic_kernel.energy(np.full(quadratic_kernel.grid.n_nodes, 3.7)) == 0.0


def test_energy_nonnegative(quadratic_kernel, rng):
    for _ in range(5):
        u = rng.normal(size=quadratic_kernel.grid.n_nodes)
        assert quadratic_kernel.energy(u) >= 0.0


def test_energy_linear_closed_form():
    # u(x) = x, p = 2, s = 1/4: the restricted double integral over
    # (not both exterior) pairs within the interaction radius 3 is
    # 8 sqrt(3) - 16 sqrt(2) / 15 for domain (-1, 1).
    exact = 8.0 * math.sqrt(3.0) - 16.0 * math.sqrt(2.0) / 15.0
    grid = build_grid(1, 0.0, 1.0, 4.0, 801)  # tenfold the 81-node base grid
    kern = PairKernel(grid, constant_field(2.0), 0.25)
    value = kern.energy(grid.nodes[:, 0].copy())
    assert value == pytest.approx(exact, rel=1e-2)


def test_energy_refinement_stability():
    values = []
    for n in (201, 401):
        grid = build_grid(1, 0.0, 1.0, 4.0, n)
        kern = PairKernel(grid, constant_field(2.0), 0.5)
        values.append(kern.energy(grid.nodes[:, 0].copy()))
    assert abs(values[1] - values[0]) / values[0] < 0.02


# -- nodal operator ----------------------------------------------------------


def test_operator_constant_zero(quadratic_kernel):
    u = np.full(quadratic_kernel.grid.n_nodes, 2.5)
    ops = quadratic_kernel.operator(u)
    assert np.max(np.abs(ops[quadratic_kernel.grid.interior])) == 0.0


def test_operator_odd_cancellation(line_grid):
    # linear data with a separation-dependent exponent: every interior node
    # sees a centrally symmetric window, so the operator vanishes there
    kern = PairKernel(line_grid, radial_field(), 0.5)
    ops = kern.operator(line_grid.nodes[:, 0].copy())
    assert np.max(np.abs(ops[line_grid.interior])) < 1e-12


def test_operator_parabola_negative_at_center(line_grid):
    kern = PairKernel(line_grid, constant_field(2.0), 0.5)
    i0 = int(np.argmin(np.abs(line_grid.nodes[:, 0])))
    value = kern.operator_at(line_grid.nodes[:, 0] ** 2, i0)
    assert value < 0.0
    # p = 2, s = 1/2 collapses the integrand to -1 on the window
    assert value == pytest.approx(-2.0 * line_grid.interaction_radius, rel=1e-12)


def test_operator_requires_interior(line_grid):
    kern = PairKernel(line_grid, constant_field(2.0), 0.5)
    with pytest.raises(ValueError):
        kern.operator_at(np.zeros(line_grid.n_nodes), 0)


# -- weak form ----------------------------------------------------------------


def test_weak_residual_constant(quadratic_kernel, rng):
    grid = quadratic_kernel.grid
    phi = np.where(grid.interior, rng.normal(size=grid.n_nodes), 0.0)
    assert quadratic_kernel.weak_residual(np.full(grid.n_nodes, 4.0), phi) == 0.0


def test_weak_residual_linear_in_phi(quadratic_kernel, rng):
    grid = quadratic_kernel.grid
    u = rng.normal(size=grid.n_nodes)
    phi = np.where(grid.interior, rng.normal(size=grid.n_nodes), 0.0)
    e1 = quadratic_kernel.weak_residual(u, phi)
    e3 = quadratic_kernel.weak_residual(u, 3.0 * phi)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-12)


def test_weak_residual_hat_at_center(line_grid):
    kern = PairKernel(line_grid, radial_field(), 0.5)
    u = line_grid.nodes[:, 0].copy()
    i0 = int(np.argmin(np.abs(line_grid.nodes[:, 0])))
    phi = np.zeros(line_grid.n_nodes)
    phi[i0] = 1.0
    assert abs(kern.weak_residual(u, phi)) < 1e-8


def test_weak_residual_rejects_exterior_support(quadratic_kernel):
    grid = quadratic_kernel.grid
    phi = np.ones(grid.n_nodes)
    with pytest.raises(ValueError):
        quadratic_kernel.weak_residual(np.zeros(grid.n_nodes), phi)


def test_weak_form_matches_operator_pairing(line_grid, rng):
    kern = PairKernel(line_grid, radial_field(), 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    phi = np.where(line_grid.interior, rng.normal(size=line_grid.n_nodes), 0.0)
    paired = 2.0 * line_grid.measure * np.sum(
        kern.operator(u)[line_grid.interior] * phi[line_grid.interior]
    )
    assert kern.weak_residual(u, phi) == pytest.approx(paired, rel=1e-12)


def test_weak_residual_matches_pair_double_sum(line_grid, rng):
    """The gradient pairing agrees with the defining sum over ordered pairs."""
    kern = PairKernel(line_grid, radial_field(), 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    phi = np.where(line_grid.interior, rng.normal(size=line_grid.n_nodes), 0.0)
    d = np.subtract.outer(u, u)
    terms = kern.coeff * np.sign(d) * np.abs(d) ** (kern.pmat - 1.0) * np.subtract.outer(phi, phi)
    scale = np.sum(np.abs(terms))
    assert kern.weak_residual(u, phi) == pytest.approx(np.sum(terms), rel=1e-12, abs=1e-14 * scale)


def test_energy_gradient_matches_directional_derivative(line_grid, rng):
    kern = PairKernel(line_grid, radial_field(), 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    phi = np.where(line_grid.interior, rng.normal(size=line_grid.n_nodes), 0.0)
    step = 1e-5
    derivative = (kern.energy(u + step * phi) - kern.energy(u - step * phi)) / (2 * step)
    pairing = kern.weak_residual(u, phi)
    assert abs(pairing - derivative) <= 1e-6 * (1.0 + abs(kern.energy(u)))


def test_kernel_symmetry_exact(line_grid):
    kern = PairKernel(line_grid, radial_field(), 0.5)
    assert np.array_equal(kern.coeff, kern.coeff.T)
    assert np.array_equal(kern.pmat, kern.pmat.T)


# -- tail ---------------------------------------------------------------------


def test_tail_zero_outside(line_grid):
    u = np.where(ball_mask(line_grid, 0.0, 0.25), 1.0, 0.0)
    rep = tail(line_grid, constant_field(2.0), 0.5, u, 0.0, 0.5)
    assert rep.value == 0.0


def test_tail_closed_form():
    # u = 1 outside B_R(0), p = 2: the exact tail is R^(-2s)/s; the grid
    # value carries the analytic remainder of the dropped far field
    grid = build_grid(1, 0.0, 1.0, 4.0, 1601)
    s, radius = 0.4, 0.5
    rep = tail(grid, constant_field(2.0), s, np.ones(grid.n_nodes), 0.0, radius)
    truncated = (radius ** (-2 * s) - rep.truncation_radius ** (-2 * s)) / s
    assert rep.value == pytest.approx(truncated, abs=1e-4)
    untruncated = radius ** (-2 * s) / s
    assert rep.value + rep.remainder_bound >= untruncated


def test_tail_monotone_in_data(line_grid, rng):
    u = np.abs(rng.normal(size=line_grid.n_nodes))
    f = radial_field()
    small = tail(line_grid, f, 0.5, u, 0.0, 0.5).value
    large = tail(line_grid, f, 0.5, 2.0 * u, 0.0, 0.5).value
    assert large >= small


def test_tail_rejects_escaping_ball(line_grid):
    with pytest.raises(GridGeometryError):
        tail(line_grid, constant_field(2.0), 0.5, np.ones(line_grid.n_nodes), 0.0, 1.5)


def test_ball_and_box_masks(line_grid):
    mask = ball_mask(line_grid, 0.0, 0.2)
    assert mask.sum() == 11  # nodes at multiples of 0.04 within |x| <= 0.2
    half = box_mask(line_grid, 0.0, 1.0)
    assert half.sum() * line_grid.measure == pytest.approx(1.0, abs=1e-12)
