import dataclasses
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpxlab import regularity
from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import GridGeometryError, ball_mask, build_grid
from fpxlab.regularity import (
    DeGiorgiParams,
    GrowthScenario,
    ResolutionError,
    algebraic_constant,
    caccioppoli_report,
    calibrate_growth_delta,
    degiorgi_iterate,
    growth_lemma_check,
    holder_exponent_fit,
    sublevel_energy_check,
    sup_bound_check,
    truncate_level,
)
from fpxlab.operators import PairKernel, tail
from fpxlab.solve import exterior_data, minimize

from conftest import algebraic_inequality_check


@pytest.fixture(scope="module")
def tall_solution():
    """p = 2 solve with positive data tall enough for growth scenarios."""
    grid = build_grid(1, 0.0, 1.0, 4.0, 201)
    field = constant_field(2.0)
    cfg = types.SimpleNamespace(s=0.5, sigma=0.25, q=1.5)
    g = 12.0 + 2.0 * np.sin(2.0 * grid.nodes[:, 0])
    result = minimize(grid, field, cfg.s, g, 1e-9, 50_000)
    return grid, field, cfg, result


# -- truncations ---------------------------------------------------------------


def test_truncate_identities(rng):
    u = rng.normal(size=200)
    k = 0.3
    plus = truncate_level(u, k, "plus")
    minus = truncate_level(u, k, "minus")
    assert np.all(plus >= 0) and np.all(minus >= 0)
    assert np.array_equal(plus - minus, u - k)
    assert np.array_equal(plus + minus, np.abs(u - k))
    assert np.all(plus * minus == 0.0)


def test_truncate_at_constant():
    u = np.full(10, 1.5)
    assert np.all(truncate_level(u, 1.5, "plus") == 0.0)
    assert np.all(truncate_level(u, 1.5, "minus") == 0.0)


# -- algebraic inequality --------------------------------------------------------


def test_algebraic_constant_value():
    assert algebraic_constant(1.5, 3.0) == pytest.approx((3.0 / 1.5) * 6.0**2)


def test_algebraic_equal_arguments():
    lhs, rhs, holds = algebraic_inequality_check(1.0, 1.0, 0.3, 0.9, 2.0, 1.5, 3.0)
    assert lhs == 0.0 and rhs <= 0.0 and holds


def test_algebraic_unit_cutoffs(rng):
    a = rng.uniform(0, 10, 100)
    b = rng.uniform(0, 10, 100)
    p = rng.uniform(1.5, 3.0, 100)
    lhs, rhs, holds = algebraic_inequality_check(a, b, np.ones(100), np.ones(100), p, 1.5, 3.0)
    assert np.all(holds)
    d = np.abs(a - b) ** p
    assert lhs == pytest.approx(d, rel=1e-12)  # reduces to |a-b|^p >= |a-b|^p / 2


@pytest.mark.parametrize("bounds", [(1.5, 3.0), (1.1, 1.2), (2.0, 5.0)])
def test_algebraic_sweep(bounds, rng):
    p_lo, p_hi = bounds
    n = 20_000
    a = rng.uniform(0, 5, n)
    b = rng.uniform(0, 5, n)
    t1 = rng.uniform(0, 1, n)
    t2 = rng.uniform(0, 1, n)
    p = rng.uniform(p_lo, p_hi, n)
    _, _, holds = algebraic_inequality_check(a, b, t1, t2, p, p_lo, p_hi)
    assert np.all(holds)


def test_algebraic_rejects_bad_domain():
    with pytest.raises(ValueError):
        algebraic_inequality_check(-1.0, 0.0, 0.5, 0.5, 2.0, 1.5, 3.0)
    with pytest.raises(ValueError):
        algebraic_inequality_check(1.0, 0.0, 1.5, 0.5, 2.0, 1.5, 3.0)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.1, max_value=4.0),
)
@settings(max_examples=300, deadline=None)
def test_algebraic_property(a, b, t1, t2, p):
    _, _, holds = algebraic_inequality_check(a, b, t1, t2, p, 1.1, 4.0)
    assert holds


# -- level-set energy estimate ----------------------------------------------------


def test_caccioppoli_constant_below_level(line_grid):
    field = constant_field(2.0)
    u = np.full(line_grid.n_nodes, 1.0)
    rep = caccioppoli_report(u, field, 0.5, line_grid, 0.0, 0.25, 0.5, k=1.0)
    assert rep.lhs_modular == 0.0 and rep.lhs_cross == 0.0
    assert rep.rhs_local == 0.0 and rep.rhs_tail == 0.0
    assert rep.satisfied


def test_caccioppoli_solved_linear(radial_solution):
    cfg, grid, field, result = radial_solution
    rep = caccioppoli_report(result.u, field, cfg.s, grid, 0.0, 0.25, 0.5, k=0.0)
    assert rep.satisfied
    assert rep.c_empirical <= rep.c_explicit
    assert rep.weak_form_value == pytest.approx(0.0, abs=1e-6)


def test_caccioppoli_quartile_levels(tall_solution):
    grid, field, cfg, result = tall_solution
    for quart in (0.25, 0.5, 0.75):
        k = float(np.quantile(result.u[grid.interior], quart))
        rep = caccioppoli_report(result.u, field, cfg.s, grid, 0.0, 0.25, 0.5, k=k)
        assert rep.satisfied
        assert rep.c_empirical <= rep.c_explicit


def test_caccioppoli_levels_share_level_free_parts(tall_solution):
    # a sequence of levels gives the same reports, bit for bit, as one call per level
    grid, field, cfg, result = tall_solution
    levels = [float(np.quantile(result.u[grid.interior], t)) for t in (0.25, 0.5, 0.75)]
    reports = caccioppoli_report(result.u, field, cfg.s, grid, 0.0, 0.25, 0.5, k=levels)
    assert reports == [caccioppoli_report(result.u, field, cfg.s, grid, 0.0, 0.25, 0.5, k=k) for k in levels]


def test_caccioppoli_weak_form_uses_proof_test_function(radial_solution):
    # phi = (u - k)_+ eta^p_+ on interior nodes, eta the cut-off between B_((R+r)/2) and B_r
    cfg, grid, field, result = radial_solution
    r, R, k = 0.25, 0.5, 0.0
    kernel = PairKernel(grid, field, cfg.s)
    rep = caccioppoli_report(result.u, field, cfg.s, grid, 0.0, r, R, k)
    eta = np.clip(((R + r) / 2.0 - np.abs(grid.nodes[:, 0])) / ((R - r) / 2.0), 0.0, 1.0)
    phi = np.where(grid.interior, np.maximum(result.u - k, 0.0) * eta**rep.p_plus, 0.0)
    assert rep.weak_form_value == kernel.weak_residual(result.u, phi)


def test_caccioppoli_rejects_bad_geometry(line_grid):
    field = constant_field(2.0)
    u = np.zeros(line_grid.n_nodes)
    with pytest.raises(ValueError):
        caccioppoli_report(u, field, 0.5, line_grid, 0.0, 0.5, 0.25, 0.0)  # r > R


# -- iteration lemma ----------------------------------------------------------------


def test_iteration_single_beta_exact():
    run = degiorgi_iterate(DeGiorgiParams(C=1.0, b=2.0, betas=(1.0,), y0=0.5), 50)
    assert run.threshold_met and run.bound_holds
    assert run.max_excess <= 1e-12
    # the worst-case recursion saturates the decay bound exactly
    assert np.array_equal(run.ys, 2.0 ** -(1.0 + np.arange(51)))


def test_iteration_two_betas():
    run = degiorgi_iterate(DeGiorgiParams(C=1.0, b=2.0, betas=(1.0, 0.5), y0=1.0 / 16.0), 50)
    assert run.threshold_met and run.bound_holds
    assert np.all(run.ys <= 2.0 ** -(4.0 + 2.0 * np.arange(51)) + 1e-12)


def test_iteration_threshold_unmet():
    run = degiorgi_iterate(DeGiorgiParams(C=2.0, b=2.0, betas=(1.0,), y0=1.0), 30)
    assert not run.threshold_met
    assert not run.bound_holds


def test_iteration_random_parameters(rng):
    for _ in range(300):
        c = float(rng.uniform(1.0, 20.0))
        b = float(rng.uniform(1.01, 10.0))
        n_betas = int(rng.integers(1, 4))
        betas = tuple(sorted(rng.uniform(0.05, 2.0, n_betas), reverse=True))
        params = DeGiorgiParams(C=c, b=b, betas=betas, y0=0.0)
        y0 = float(params.threshold * rng.uniform(0.0, 1.0))
        run = degiorgi_iterate(DeGiorgiParams(C=c, b=b, betas=betas, y0=y0), 60)
        assert run.threshold_met
        assert run.bound_holds, (c, b, betas, y0, run.max_excess)


def test_iteration_validates_parameters():
    with pytest.raises(ValueError):
        DeGiorgiParams(C=0.5, b=2.0, betas=(1.0,), y0=0.1)
    with pytest.raises(ValueError):
        DeGiorgiParams(C=1.0, b=1.0, betas=(1.0,), y0=0.1)
    with pytest.raises(ValueError):
        DeGiorgiParams(C=1.0, b=2.0, betas=(0.5, 1.0), y0=0.1)  # increasing


# -- quantitative supremum bound ------------------------------------------------------


def test_sup_bound_constant(line_grid):
    field = constant_field(2.0)
    u = np.full(line_grid.n_nodes, 3.0)
    rep = sup_bound_check(u, field, 0.5, line_grid, 0.0, sigma=0.25)
    assert rep.applicable
    assert rep.lhs_sup == 3.0
    # any reference constant >= 1 bounds a nonnegative constant
    assert rep.lhs_sup <= 1.0 * rep.average_term + rep.tail_term + 1.0 + 1e-9
    assert rep.c_empirical <= 1.0


def test_sup_bound_solved_instance(tall_solution):
    grid, field, cfg, result = tall_solution
    rep = sup_bound_check(result.u, field, cfg.s, grid, 0.0, sigma=cfg.sigma)
    assert rep.applicable
    assert np.isfinite(rep.c_empirical)


def test_sup_bound_family_constant_transfers():
    # fit the constant on coarse solves, check it bounds the fine solves
    field = constant_field(2.0)
    reports = {}
    for n in (201, 401):
        grid = build_grid(1, 0.0, 1.0, 4.0, n)
        rows = []
        for seed in range(4):
            g = 5.0 * exterior_data("random:1.0", grid, seed) + 6.0
            result = minimize(grid, field, 0.5, g, 1e-8, 50_000)
            rows.append(sup_bound_check(result.u, field, 0.5, grid, 0.0, sigma=0.25))
        reports[n] = rows
    c_coarse = max(r.c_empirical for r in reports[201])
    c_fine = max(r.c_empirical for r in reports[401])
    if c_coarse > 0 and c_fine > 0:
        assert 0.5 <= c_coarse / c_fine <= 2.0
    c_ref = 2.0 * max(c_coarse, 1.0)
    for r in reports[401]:
        assert r.lhs_sup <= c_ref * r.average_term + r.tail_term + 1.0 + 1e-9


def test_sup_bound_inapplicable_reported():
    # radial field: the coincident-pair exponent 3 exceeds p_-^* at sigma=0.25
    grid = build_grid(1, 0.0, 1.0, 4.0, 201)
    rep = sup_bound_check(np.ones(grid.n_nodes), radial_field(), 0.5, grid, 0.0, sigma=0.05)
    assert not rep.applicable
    assert rep.reason


# -- growth lemma -------------------------------------------------------------------


def test_growth_trivial_conclusion(line_grid):
    field = constant_field(2.0)
    h_level = 6.0
    u = np.full(line_grid.n_nodes, 2.0 * h_level)
    scenario = GrowthScenario(x0=(0.0,), radius=0.5, H=h_level, delta=0.125,
                              gamma=0.5, sigma=0.25)
    rep = growth_lemma_check(u, field, 0.5, line_grid, scenario)
    assert rep.hypotheses_met, rep.failed
    assert rep.conclusion_holds


def test_growth_scale_hypothesis_unmet(line_grid):
    field = constant_field(2.0)
    u = np.full(line_grid.n_nodes, 0.2)
    scenario = GrowthScenario(x0=(0.0,), radius=0.5, H=0.1, delta=0.125,
                              gamma=0.5, sigma=0.25)
    rep = growth_lemma_check(u, field, 0.5, line_grid, scenario)
    assert not rep.hypotheses_met
    assert "scale" in rep.failed


def test_growth_calibrated_on_solved_instance(tall_solution):
    grid, field, cfg, result = tall_solution
    delta, rep = calibrate_growth_delta(result.u, field, cfg.s, grid, 0.0, 0.5, cfg.sigma)
    assert delta is not None
    assert rep.hypotheses_met and rep.conclusion_holds
    assert 0.0 < delta <= 0.125


def test_growth_scenario_validation():
    with pytest.raises(ValueError):
        GrowthScenario(x0=(0.0,), radius=0.5, H=1.0, delta=0.2, gamma=0.5,
                       sigma=0.25)  # delta > 1/8


def test_growth_check_rejects_sigma_not_below_s(line_grid):
    # the check validates sigma against the order it is called with
    scenario = GrowthScenario(x0=(0.0,), radius=0.5, H=6.0, delta=0.125, gamma=0.5, sigma=0.6)
    with pytest.raises(ValueError, match="sigma < s"):
        growth_lemma_check(np.full(line_grid.n_nodes, 12.0), constant_field(2.0), 0.5, line_grid, scenario)


def test_growth_variable_exponent_instance():
    # small balls keep the coincident-pair exponent subcritical at sigma=0.35
    grid = build_grid(1, 0.0, 1.0, 4.0, 401)
    field = radial_field()
    g = 6.0 + 2.0 * np.sin(2.0 * grid.nodes[:, 0])
    result = minimize(grid, field, 0.5, g, 1e-8, 50_000)
    assert np.all(result.u > 0)
    delta, rep = calibrate_growth_delta(result.u, field, 0.5, grid, 0.0, 0.1, 0.35)
    assert delta is not None, rep.failed
    assert rep.hypotheses_met and rep.conclusion_holds


@pytest.fixture(scope="module")
def radial_growth_solution():
    """The solved instance of test_growth_variable_exponent_instance."""
    grid = build_grid(1, 0.0, 1.0, 4.0, 401)
    field = radial_field()
    cfg = types.SimpleNamespace(s=0.5, sigma=0.35, q=1.5)
    g = 6.0 + 2.0 * np.sin(2.0 * grid.nodes[:, 0])
    result = minimize(grid, field, cfg.s, g, 1e-8, 50_000)
    return grid, field, cfg, result


def _ramp_instance(scale):
    """Constructed p = 2 data u = scale (0.1 + 1.9 min(|x| / 0.5, 1)) on B_0.5.

    At scale 10.1 the feasible deltas are [0.073, 0.104], strictly between
    1/16 and 1/8.  u is not a solve; ``result`` carries only u.
    """
    grid = build_grid(1, 0.0, 1.0, 4.0, 201)
    cfg = types.SimpleNamespace(s=0.5, sigma=0.25, q=1.5)
    u = scale * (0.1 + 1.9 * np.minimum(np.abs(grid.nodes[:, 0]) / 0.5, 1.0))
    return grid, constant_field(2.0), cfg, types.SimpleNamespace(u=u)


@pytest.fixture(scope="module")
def ramp_instance():
    return _ramp_instance(10.1)


@pytest.mark.parametrize("scale", [10.1, 9.9])  # at 9.9 the formula rounds past the conclusion
def test_growth_delta_is_closed_form(scale):
    grid, field, cfg, result = _ramp_instance(scale)
    delta, rep = calibrate_growth_delta(result.u, field, cfg.s, grid, 0.0, 0.5, cfg.sigma)
    quarter_min = float(np.min(result.u[ball_mask(grid, np.zeros(1), 0.125)]))
    formula = (quarter_min + 1e-12) / rep.scenario.H
    assert delta is not None and 1.0 / 16.0 < delta < 0.125
    assert abs(delta - formula) <= np.spacing(formula)
    assert rep.hypotheses_met and rep.conclusion_holds


@pytest.mark.parametrize("shift, failing, at_delta", [
    (0.0, "scale", (0.1 + 1e-12) / 0.962),  # H = 0.962: delta H = 0.1 < R^s at the top end
    (1.0, "range", 0.125),  # u(0) = -0.9: no positive delta, the report is at 1/8
])
def test_growth_calibration_none_when_infeasible(shift, failing, at_delta):
    grid, field, cfg, result = _ramp_instance(1.0)
    delta, rep = calibrate_growth_delta(result.u - shift, field, cfg.s, grid, 0.0, 0.5, cfg.sigma)
    assert delta is None and failing in rep.failed
    assert rep.scenario.delta == pytest.approx(at_delta, rel=1e-12)


@pytest.mark.parametrize("instance, radius", [("tall_solution", 0.5), ("radial_growth_solution", 0.1),
                                              ("ramp_instance", 0.5)])
def test_growth_calibration_agrees_with_full_check(instance, radius, request):
    grid, field, cfg, result = request.getfixturevalue(instance)
    delta, rep = calibrate_growth_delta(result.u, field, cfg.s, grid, 0.0, radius, cfg.sigma)
    assert delta is not None and rep.scenario.delta == delta
    full = growth_lemma_check(result.u, field, cfg.s, grid, rep.scenario)
    assert full.hypotheses == rep.hypotheses
    assert (full.hypotheses_met, full.conclusion_holds) == (rep.hypotheses_met, rep.conclusion_holds)
    if delta < 0.125:  # delta is the upper end of the feasible set
        above = dataclasses.replace(rep.scenario, delta=delta * (1 + 1e-9))
        over = growth_lemma_check(result.u, field, cfg.s, grid, above)
        assert not (over.hypotheses_met and over.conclusion_holds)


@given(
    data=st.one_of(
        st.tuples(st.just("plateau"), st.floats(8.0, 40.0)),  # the height
        st.tuples(st.just("dip"), st.floats(0.5, 2.5)),  # the value on B_(R/4) of a plateau of 40
        st.tuples(st.just("hollow"), st.floats(2.5, 19.5)),  # the value on B_(R/2) of a plateau of 40
        st.tuples(st.just("radial"), st.floats(0.75, 1.1)),  # the scale of a solved minimiser
    ),
    delta=st.floats(0.0, 0.125, exclude_min=True),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(data=("plateau", 24.0), delta=0.1, gamma=0.5)
@example(data=("dip", 2.0), delta=0.05, gamma=0.25)
@example(data=("radial", 1.0), delta=0.125, gamma=0.9)
@example(data=("hollow", 15.0), delta=0.125, gamma=1e-13)  # no node of B_(R/2) reaches H
@settings(max_examples=150, deadline=None)
def test_fixed_scenario_never_beats_calibration(line_grid, radial_growth_solution, data, delta, gamma):
    """Whenever the lemma holds at a fixed (delta, gamma), calibration finds a delta at least as large.

    The scale and tail hypotheses only get easier as delta grows, the
    conclusion caps delta at the calibrated top end, and the calibrated gamma
    is the measured mass fraction, so a fixed scenario at the same H shows
    nothing the calibration does not.
    """
    kind, value = data
    if kind == "radial":
        grid, field, cfg, result = radial_growth_solution
        u, s, sigma, radius = value * result.u, cfg.s, cfg.sigma, 0.1
    else:
        grid, field, s, sigma, radius = line_grid, constant_field(2.0), 0.5, 0.25, 0.5
        u = np.where(grid.interior, value if kind == "plateau" else 40.0, 0.0)
        if kind == "dip":  # the conclusion caps the calibrated delta at value / 20 < 1/8
            u[ball_mask(grid, np.zeros(1), radius / 4.0)] = value
        if kind == "hollow":  # no node of B_(R/2) reaches H = 20, so calibration fails on the mass fraction
            u[ball_mask(grid, np.zeros(1), radius / 2.0)] = value
    h_level = float(np.max(u[ball_mask(grid, np.zeros(1), radius)])) / 2.0
    scenario = GrowthScenario(x0=(0.0,), radius=radius, H=h_level, delta=delta, gamma=gamma, sigma=sigma)
    fixed = growth_lemma_check(u, field, s, grid, scenario)
    calibrated, _ = calibrate_growth_delta(u, field, s, grid, 0.0, radius, sigma)
    if fixed.hypotheses_met and fixed.conclusion_holds:
        assert calibrated is not None and calibrated >= delta


def test_reports_take_the_ball_extrema_given(radial_growth_solution):
    # diagnose computes the exponent extrema over B_R x B_R once and passes them on
    grid, field, cfg, result = radial_growth_solution
    u, radius = result.u, 0.5
    ball = grid.nodes[ball_mask(grid, np.zeros(1), radius)]
    extrema = regularity.extrema_over_product(field, ball, ball)
    level = float(np.quantile(u[grid.interior], 0.5))

    def reports(**given):
        return (caccioppoli_report(u, field, cfg.s, grid, 0.0, radius / 2.0, radius, [level], **given),
                calibrate_growth_delta(u, field, cfg.s, grid, 0.0, radius, cfg.sigma, **given),
                sublevel_energy_check(u, field, cfg.s, grid, 0.0, radius, level, cfg.sigma, cfg.q, **given),
                sup_bound_check(u, field, cfg.s, grid, 0.0, cfg.sigma, radius=radius, **given))

    computed = reports()
    assert computed[3].radius == radius  # the ladder stops at its first rung, B_R
    with mock.patch.object(regularity, "extrema_over_product", side_effect=AssertionError("recomputed")):
        assert repr(reports(extrema=extrema)) == repr(computed)


# -- sublevel energy ------------------------------------------------------------------


def test_sublevel_empty_set(line_grid):
    field = constant_field(2.0)
    u = np.full(line_grid.n_nodes, 5.0)
    rep = sublevel_energy_check(u, field, 0.5, line_grid, 0.0, 0.5, level=1.0,
                                sigma=0.25, q=1.5)
    assert rep.lhs == 0.0 and rep.sublevel_measure == 0.0


def test_sublevel_solved_median(tall_solution):
    grid, field, cfg, result = tall_solution
    level = float(np.quantile(result.u[grid.interior], 0.5))
    rep = sublevel_energy_check(result.u, field, cfg.s, grid, 0.0, 0.5, level,
                                sigma=cfg.sigma, q=cfg.q)
    assert rep.lhs > 0.0
    assert np.isfinite(rep.c_empirical) and rep.c_empirical > 0.0


def test_sublevel_constant_stable_under_refinement():
    field = constant_field(2.0)
    values = []
    for n in (201, 401):
        grid = build_grid(1, 0.0, 1.0, 4.0, n)
        g = 12.0 + 2.0 * np.sin(2.0 * grid.nodes[:, 0])
        result = minimize(grid, field, 0.5, g, 1e-8, 50_000)
        level = float(np.quantile(result.u[grid.interior], 0.5))
        rep = sublevel_energy_check(result.u, field, 0.5, grid, 0.0, 0.5, level,
                                    sigma=0.25, q=1.5)
        values.append(rep.c_empirical)
    assert values[0] > 0 and values[1] > 0
    assert 0.5 <= values[0] / values[1] <= 2.0


def test_sublevel_rejects_ball_outside_domain(line_grid):
    with pytest.raises(GridGeometryError):  # room at the center is 1.0
        sublevel_energy_check(np.ones(line_grid.n_nodes), constant_field(2.0), 0.5,
                              line_grid, 0.0, 1.5, 2.0, sigma=0.25, q=1.5)


def test_sublevel_rejects_bad_q(line_grid):
    with pytest.raises(ValueError):
        sublevel_energy_check(np.zeros(line_grid.n_nodes), constant_field(2.0), 0.5,
                              line_grid, 0.0, 0.5, 1.0, sigma=0.25, q=2.5)


# -- oscillation fit --------------------------------------------------------------------


def test_holder_fit_linear_function():
    grid = build_grid(1, 0.0, 1.0, 2.0, 2001)
    fit = holder_exponent_fit(grid.nodes[:, 0].copy(), grid, 0.0, 0.64)
    assert fit.defined
    assert fit.alpha == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(fit.oscillations) <= 0)


def test_holder_fit_sqrt_calibration():
    grid = build_grid(1, 0.0, 1.0, 2.0, 2001)
    u = np.sqrt(np.abs(grid.nodes[:, 0]))
    fit = holder_exponent_fit(u, grid, 0.0, 0.64)
    assert fit.defined
    assert fit.alpha == pytest.approx(0.5, abs=0.05)


def test_holder_fit_constant_undefined():
    grid = build_grid(1, 0.0, 1.0, 2.0, 2001)
    fit = holder_exponent_fit(np.ones(grid.n_nodes), grid, 0.0, 0.64)
    assert not fit.defined


def test_holder_fit_resolution_error(line_grid):
    with pytest.raises(ResolutionError):
        holder_exponent_fit(np.ones(line_grid.n_nodes), line_grid, 0.0, 0.2)


def test_holder_fit_solved_smooth_data():
    field = constant_field(2.0)
    alphas = []
    for n in (401, 801):
        grid = build_grid(1, 0.0, 1.0, 4.0, n)
        result = minimize(grid, field, 0.5, exterior_data("sine:1", grid), 5e-9, 50_000)
        fit = holder_exponent_fit(result.u, grid, 0.0, 0.64)
        assert fit.defined
        alphas.append(fit.alpha)
    assert alphas[0] > 0.2 and alphas[1] > 0.2
    assert abs(alphas[0] - alphas[1]) <= 0.05


# -- the ball rule -----------------------------------------------------------------


_BALL_CONSUMERS = {  # (u, field, grid, x0, R): one call taking the ball B_R(x0)
    "tail-sup-ball": lambda u, f, g, x0, R: tail(g, f, 0.5, u, x0, R / 2.0, sup_radius=R),
    "caccioppoli": lambda u, f, g, x0, R: caccioppoli_report(u, f, 0.5, g, x0, R / 2.0, R, 1.0),
    "sup-bound": lambda u, f, g, x0, R: sup_bound_check(u, f, 0.5, g, x0, 0.25, radius=R),
    "growth": lambda u, f, g, x0, R: growth_lemma_check(
        u, f, 0.5, g, GrowthScenario(x0=tuple(x0), radius=R, H=1.0, delta=0.125, gamma=0.25, sigma=0.25)),
    "growth-calibration": lambda u, f, g, x0, R: calibrate_growth_delta(u, f, 0.5, g, x0, R, 0.25),
    "sublevel": lambda u, f, g, x0, R: sublevel_energy_check(u, f, 0.5, g, x0, R, 1.0, sigma=0.25, q=1.5),
    "holder": lambda u, f, g, x0, R: holder_exponent_fit(u, g, x0, R),
}


@pytest.mark.parametrize("consumer", list(_BALL_CONSUMERS.values()), ids=list(_BALL_CONSUMERS))
def test_ball_consumers_reject_ball_reaching_the_boundary(line_grid, consumer):
    # B_R(x0) with R = room touches the boundary: its closure leaves the domain
    x0 = np.array([0.3])
    u = 1.0 + 0.5 * np.sin(3.0 * line_grid.nodes[:, 0])
    with pytest.raises(GridGeometryError):
        consumer(u, constant_field(2.0), line_grid, x0, line_grid.room(x0))
