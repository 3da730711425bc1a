import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlab.exponents import constant_field, product_field, radial_field
from fpxlab.grid import (
    GridGeometryError,
    ball_mask,
    build_grid,
    read_grid_function,
    write_grid_function,
)
from fpxlab.operators import METRIC_FLOOR, PairKernel, tail
from fpxlab.regularity import caccioppoli_report
from fpxlab.spaces import region_pair_terms

from conftest import box_mask


# -- grid construction -------------------------------------------------------


def test_domain_measure_exact(line_grid):
    assert np.count_nonzero(line_grid.interior) * line_grid.measure == pytest.approx(2.0, abs=1e-12)
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
    assert np.count_nonzero(grid.interior) * grid.measure == pytest.approx(4.0, abs=1e-12)
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
    ops = quadratic_kernel.gradient(u) / (2 * quadratic_kernel.grid.measure)
    assert np.max(np.abs(ops[quadratic_kernel.grid.interior])) == 0.0


def test_operator_odd_cancellation(line_grid):
    # linear data with a separation-dependent exponent: every interior node
    # sees a centrally symmetric window, so the operator vanishes there
    kern = PairKernel(line_grid, radial_field(), 0.5)
    ops = kern.gradient(line_grid.nodes[:, 0].copy()) / (2 * line_grid.measure)
    assert np.max(np.abs(ops[line_grid.interior])) < 1e-12


def test_operator_parabola_negative_at_center(line_grid):
    kern = PairKernel(line_grid, constant_field(2.0), 0.5)
    i0 = int(np.argmin(np.abs(line_grid.nodes[:, 0])))
    value = kern.gradient(line_grid.nodes[:, 0] ** 2)[i0] / (2 * line_grid.measure)
    assert value < 0.0
    # p = 2, s = 1/2 collapses the integrand to -1 on the window
    assert value == pytest.approx(-2.0 * line_grid.interaction_radius, rel=1e-12)


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
        kern.gradient(u)[line_grid.interior] / (2 * line_grid.measure) * phi[line_grid.interior]
    )
    assert kern.weak_residual(u, phi) == pytest.approx(paired, rel=1e-12)


def test_weak_residual_matches_pair_double_sum(line_grid, rng, dense):
    """The gradient pairing agrees with the defining sum over ordered pairs."""
    kern = PairKernel(line_grid, radial_field(), 0.5)
    pmat, _, _, coeff = dense(line_grid, radial_field(), 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    phi = np.where(line_grid.interior, rng.normal(size=line_grid.n_nodes), 0.0)
    d = np.subtract.outer(u, u)
    terms = coeff * np.sign(d) * np.abs(d) ** (pmat - 1.0) * np.subtract.outer(phi, phi)
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


@pytest.mark.parametrize("field", [constant_field(2.0), radial_field(), product_field()],
                         ids=["p2", "radial", "product"])
def test_energy_change_resolves_below_one_ulp(line_grid, field, rng):
    kern = PairKernel(line_grid, field, 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    phi = np.where(line_grid.interior, rng.normal(size=line_grid.n_nodes), 0.0)
    energy = kern.energy(u)
    for step in (1e-13, 1e-6, 1.0):
        v = u + step * phi
        # a change is the difference of the two energies, within their rounding
        assert kern.energy_change(u, v) == pytest.approx(kern.energy(v) - energy, abs=1e-14 * energy)
    # a change of a few hundred ulps of F matches its first-order term to 1e-10; the
    # difference of the two computed energies is off by about 1e-3 here
    v = u + 1e-13 * phi
    first = kern.gradient(u) @ (v - u)
    assert abs(first) < 1e3 * np.spacing(energy)
    assert kern.energy_change(u, v) == pytest.approx(first, rel=1e-10)


def test_p2_hessian_matches_dense_oracle(line_grid, dense):
    _, _, _, coeff = dense(line_grid, constant_field(2.0), 0.5)
    inner = line_grid.interior
    expected = 2.0 * (np.diag(coeff[inner].sum(axis=1)) - coeff[np.ix_(inner, inner)])
    hessian = PairKernel(line_grid, constant_field(2.0), 0.5).p2_hessian()
    assert np.allclose(hessian, expected, rtol=1e-13, atol=0.0)


def test_iterate_metric_matches_dense_oracle(line_grid, dense, rng):
    pmat, _, _, coeff = dense(line_grid, product_field(), 0.5)
    u = rng.normal(size=line_grid.n_nodes)
    lift = (METRIC_FLOOR * (u.max() - u.min())) ** 2
    weight = 2.0 * (pmat - 1.0) * coeff * ((u[:, None] - u[None, :]) ** 2 + lift) ** (pmat / 2 - 1.0)
    inner = line_grid.interior
    expected = np.diag(weight[inner].sum(axis=1)) - weight[np.ix_(inner, inner)]
    metric = PairKernel(line_grid, product_field(), 0.5).p2_hessian(u)
    assert np.allclose(metric, expected, rtol=1e-12, atol=0.0)


def test_iterate_metric_at_p2_is_the_p2_hessian(line_grid, rng):
    kernel = PairKernel(line_grid, constant_field(2.0), 0.5)
    for u in (rng.normal(size=line_grid.n_nodes), 1e6 * rng.normal(size=line_grid.n_nodes),
              np.zeros(line_grid.n_nodes)):
        assert np.array_equal(kernel.p2_hessian(u), kernel.p2_hessian())


def test_kernel_symmetry_exact(line_grid, dense):
    kern = PairKernel(line_grid, radial_field(), 0.5)
    pmat, _, admissible, coeff = dense(line_grid, radial_field(), 0.5)
    # both orientations of every listed pair carry the listed coefficient and exponent
    for full, listed in ((coeff, kern.coeff), (pmat, kern.p)):
        assert np.array_equal(full[kern.i, kern.j], listed)
        assert np.array_equal(full[kern.j, kern.i], listed)
    # every admissible unordered pair is listed exactly once
    count = np.zeros(admissible.shape, dtype=int)
    np.add.at(count, (kern.i, kern.j), 1)
    np.add.at(count, (kern.j, kern.i), 1)
    assert np.array_equal(count, admissible.astype(int))


@st.composite
def small_kernels(draw):
    """A small random grid, exponent field and nodal data."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from(range(9, 22, 2)))
    h = 0.25
    span = (n - 1) // 2  # r_trunc in units of h
    widest = int((span - 1e-9) / math.sqrt(dim))  # halfwidth below r_trunc / sqrt(dim)
    width = draw(st.integers(min_value=1, max_value=widest)) * h
    grid = build_grid(dim, (0.0,) * dim, (width,) * dim, span * h, n)
    field = draw(st.sampled_from([constant_field(2.0), radial_field(), product_field()]))
    u = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=grid.n_nodes)
    return grid, field, u


@given(small_kernels())
@settings(max_examples=40, deadline=None)
def test_pair_list_matches_dense_oracle(dense, case):
    grid, field, u = case
    s, x0 = 0.5, np.zeros(grid.dim)
    R = grid.room(x0) * 0.75
    r, k = R / 2, float(np.median(u[grid.interior]))
    kern = PairKernel(grid, field, s)
    pmat, dist, admissible, coeff = dense(grid, field, s)

    d = np.subtract.outer(u, u)
    energy = np.sum(coeff * np.abs(d) ** pmat / pmat)
    gradient = 2.0 * np.sum(coeff * np.sign(d) * np.abs(d) ** (pmat - 1.0), axis=1)
    assert kern.energy(u) == pytest.approx(energy, rel=1e-12)
    assert np.max(np.abs(kern.gradient(u) - gradient)) <= 1e-12 * np.max(np.abs(gradient))

    # the three pair sums of the level-set estimate over ordered pairs
    w_plus, w_minus = np.maximum(u - k, 0.0), np.maximum(k - u, 0.0)
    inner, outer = ball_mask(grid, x0, r), ball_mask(grid, x0, R)
    lhs_modular = np.sum(coeff * np.abs(np.subtract.outer(w_plus, w_plus)) ** pmat * np.outer(inner, inner))
    lhs_cross = np.sum(coeff * np.outer(w_plus * inner, outer) * w_minus ** (pmat - 1.0))
    flat = np.where(admissible, dist, 1.0) ** ((1.0 - s) * pmat - grid.dim)
    wr = (w_plus / (R - r))[:, None] ** pmat
    rhs_local = grid.measure**2 * np.sum(np.where(admissible & np.outer(outer, outer), wr * flat, 0.0))
    rep = caccioppoli_report(u, field, s, grid, x0, r, R, k)
    assert rep.lhs_modular == pytest.approx(lhs_modular, rel=1e-12)
    assert rep.lhs_cross == pytest.approx(lhs_cross, rel=1e-12)
    assert rep.rhs_local == pytest.approx(rhs_local, rel=1e-12)

    # region double sums are untruncated: the dense sums over ordered pairs of distinct region nodes,
    # summed per distinct exponent
    for region_a, region_b in ((grid.interior, None), (outer, None), (outer, grid.interior)):
        pairs = np.outer(region_a, region_a if region_b is None else region_b) & ~np.eye(grid.n_nodes, dtype=bool)
        for expo, order in ((field, s), (1.5, 0.25)):
            e = np.broadcast_to(pmat if expo is field else expo, pairs.shape)[pairs]
            dense_terms = (grid.measure**2 * np.abs(d[pairs]) ** e * dist[pairs] ** -(grid.dim + order * e))
            terms, expos = region_pair_terms(u, expo, order, grid, region_a, region_b)
            assert np.array_equal(expos, np.unique(e))
            dense_sums = [np.sum(dense_terms[e == value]) for value in expos]
            assert terms == pytest.approx(dense_sums, rel=1e-12)
            assert np.sum(terms) == pytest.approx(np.sum(dense_terms), rel=1e-12)


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


def _unit_tail(field, s, r_trunc):
    """The tail of u = 1 beyond B_0.25(0) on a box of radius r_trunc, domain (-0.5, 0.5), h = 0.01."""
    grid = build_grid(1, 0.0, 0.5, r_trunc, int(round(2 * r_trunc / 0.01)) + 1)
    return tail(grid, field, s, np.ones(grid.n_nodes), 0.0, 0.25)


def test_tail_remainder_below_unit_truncation_radius():
    # the remainder splits at r = 1 when the box stops short of it
    s, radius = 0.4, 0.25
    rep = _unit_tail(constant_field(2.0), s, 0.8)
    assert rep.truncation_radius == pytest.approx(0.805, abs=1e-12)
    assert rep.value + rep.remainder_bound >= radius ** (-2 * s) / s


@pytest.mark.parametrize("r_trunc", [1.6, 3.2, 8.0])
@pytest.mark.parametrize("s", [0.25, 0.4, 0.75])
@pytest.mark.parametrize("field", [radial_field(), product_field()], ids=["radial", "product"])
def test_tail_remainder_below_unit_radius_covers_larger_boxes(field, s, r_trunc):
    small = _unit_tail(field, s, 0.8)
    assert small.truncation_radius < 1.0
    assert small.value + small.remainder_bound >= _unit_tail(field, s, r_trunc).value


def test_tail_monotone_in_data(line_grid, rng):
    u = np.abs(rng.normal(size=line_grid.n_nodes))
    f = radial_field()
    small = tail(line_grid, f, 0.5, u, 0.0, 0.5).value
    large = tail(line_grid, f, 0.5, 2.0 * u, 0.0, 0.5).value
    assert large >= small


def test_tail_and_far_term_match_double_sum(line_grid, rng):
    # the quadrature written out: sup over x in B_sup(x0) of
    # sum_y m frac_y u(y)^(p(x,y) - 1) / (|y - x0| / reach)^(dim + s p(x,y))
    grid, field, s, x0 = line_grid, radial_field(), 0.5, 0.0
    u = rng.normal(size=grid.n_nodes)
    dist0 = np.abs(grid.nodes[:, 0] - x0)

    def far_sup(data, radius, sup_radius, reach):
        frac = np.clip((dist0 - radius) / grid.h + 0.5, 0.0, 1.0)
        xs = grid.nodes[ball_mask(grid, x0, sup_radius), 0]
        pxy = np.asarray(field.eval(xs[:, None, None], grid.nodes[None, :, :]))
        with np.errstate(divide="ignore", invalid="ignore"):  # y = x0 carries no weight
            kern = np.where(frac > 0, data ** (pxy - 1.0) / (dist0 / reach) ** (grid.dim + s * pxy), 0.0)
        return float(np.max(kern @ (grid.measure * frac)))

    parts = {"plus": np.maximum(u, 0.0), "minus": np.maximum(-u, 0.0), "abs": np.abs(u)}
    reports = tail(grid, field, s, u, x0, 0.5, tuple(parts))  # one shared table for every sign
    for rep, (sign, data) in zip(reports, parts.items()):
        assert rep.sign == sign
        assert rep.value == tail(grid, field, s, u, x0, 0.5, sign).value
        assert rep.value == pytest.approx(far_sup(data, 0.5, 0.5, 1.0), rel=1e-12)
    r, R, k = 0.25, 0.5, float(np.median(u[grid.interior]))
    rep = caccioppoli_report(u, field, s, grid, x0, r, R, k)
    w_plus = np.maximum(u - k, 0.0)
    far = far_sup(w_plus, R, (R + r) / 2.0, 2.0 * R / (R - r))
    mass = grid.measure * np.sum(w_plus[ball_mask(grid, x0, R)])
    assert rep.rhs_tail == pytest.approx(far * mass, rel=1e-12)


def test_tail_rejects_escaping_ball(line_grid):
    with pytest.raises(GridGeometryError):
        tail(line_grid, constant_field(2.0), 0.5, np.ones(line_grid.n_nodes), 0.0, 1.5)


def test_ball_and_box_masks(line_grid):
    mask = ball_mask(line_grid, 0.0, 0.2)
    assert mask.sum() == 11  # nodes at multiples of 0.04 within |x| <= 0.2
    half = box_mask(line_grid, 0.0, 1.0)
    assert half.sum() * line_grid.measure == pytest.approx(1.0, abs=1e-12)
