import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlab import spaces
from fpxlab.exponents import constant_field, extrema_over_product, product_field, radial_field
from fpxlab.grid import SPHERE_MEASURE, build_grid
from fpxlab.spaces import (
    ModularDivergenceError,
    _region_mask,
    gagliardo_modular,
    lebesgue_modular,
    lebesgue_norm,
    luxemburg_norm,
    region_pair_terms,
    sobolev_seminorm,
)

from conftest import box_mask


@pytest.fixture(scope="module")
def unit_grid():
    """Grid whose domain nodes tile [0, 1) with h = 0.01."""
    return build_grid(1, 0.5, 0.5, 2.0, 401)


@pytest.fixture(scope="module")
def unit_region(unit_grid):
    return box_mask(unit_grid, 0.0, 1.0)


# -- Lebesgue modular ---------------------------------------------------------


def test_lebesgue_modular_unit(unit_grid, unit_region):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    mod = lebesgue_modular(np.ones(unit_grid.n_nodes), pbar, unit_grid, unit_region)
    assert mod.value == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_modular_zero(unit_grid, unit_region):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    assert lebesgue_modular(np.zeros(unit_grid.n_nodes), pbar, unit_grid, unit_region).value == 0.0


def test_lebesgue_modular_variable_exponent_closed_form(unit_grid, unit_region):
    # u = 2 with pbar(x) = 2 + x: integral of 2^(2+x) over [0, 1] is 4/ln 2;
    # the region cells tile [-h/2, 1 - h/2), whose exact integral carries the
    # factor 2^(-h/2)
    pbar = 2.0 + unit_grid.nodes[:, 0]
    mod = lebesgue_modular(np.full(unit_grid.n_nodes, 2.0), pbar, unit_grid, unit_region)
    exact = 4.0 / math.log(2.0)
    assert mod.value == pytest.approx(exact * 2.0 ** (-unit_grid.h / 2), rel=1e-5)
    assert mod.value == pytest.approx(exact, rel=1e-2)


# -- Luxemburg norms ----------------------------------------------------------


def test_luxemburg_zero_function(unit_grid, unit_region):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    res = lebesgue_norm(np.zeros(unit_grid.n_nodes), pbar, unit_grid, unit_region)
    assert res.value == 0.0 and res.iterations == 0


def test_luxemburg_unit_modular(unit_grid, unit_region):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    res = lebesgue_norm(np.ones(unit_grid.n_nodes), pbar, unit_grid, unit_region)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_luxemburg_constant_exponent_reduction(unit_grid, unit_region, rng):
    # for constant p the Luxemburg construction is the classical norm
    for p in (1.5, 2.0, 3.0):
        pbar = np.full(unit_grid.n_nodes, p)
        for _ in range(5):
            u = rng.normal(size=unit_grid.n_nodes)
            classical = (unit_grid.measure * np.sum(np.abs(u[unit_region]) ** p)) ** (1 / p)
            res = lebesgue_norm(u, pbar, unit_grid, unit_region)
            assert res.value == pytest.approx(classical, rel=1e-10)


def test_luxemburg_constant_data_variable_exponent(unit_grid, unit_region):
    # u = 2 on a unit-measure region: modular(u/2) = 1 for any exponent
    pbar = 2.0 + unit_grid.nodes[:, 0]
    res = lebesgue_norm(np.full(unit_grid.n_nodes, 2.0), pbar, unit_grid, unit_region)
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.bracket[1] - res.bracket[0] <= 1e-10 * max(1.0, res.value)


def test_luxemburg_variable_exponent_oracle(unit_grid, unit_region):
    # independent oracle: adaptive quadrature + root finding on the
    # continuum modular over the exact cell union [-h/2, 1 - h/2)
    quad = pytest.importorskip("scipy.integrate").quad
    brentq = pytest.importorskip("scipy.optimize").brentq
    h = unit_grid.h
    f = lambda lam: quad(lambda t: ((1 + t) / lam) ** (2 + t), -h / 2, 1 - h / 2)[0] - 1.0
    oracle = brentq(f, 1.0, 3.0, xtol=1e-13)
    pbar = 2.0 + unit_grid.nodes[:, 0]
    res = lebesgue_norm(1.0 + unit_grid.nodes[:, 0], pbar, unit_grid, unit_region)
    assert res.value == pytest.approx(oracle, rel=1e-5)


def test_luxemburg_divergence():
    with pytest.raises(ModularDivergenceError):
        luxemburg_norm(np.array([math.inf]), np.array([2.0]))
    with pytest.raises(ModularDivergenceError):  # a bracket narrower than float64 resolves
        luxemburg_norm(np.array([3.0]), np.array([2.0]), tol=1e-20)


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_luxemburg_one_term_is_stable_to_the_last_bit(p):
    """A one-ulp change of a one-term modular T moves its norm T^(1/p) by float64 noise only,
    whichever way rho rounds at the root."""
    for total in np.logspace(-6, 6, 400):
        norm = luxemburg_norm(np.array([total]), np.array([p])).value
        assert norm == pytest.approx(total ** (1.0 / p), rel=1e-10)
        for moved in (np.nextafter(total, 0.0), np.nextafter(total, np.inf)):
            assert luxemburg_norm(np.array([moved]), np.array([p])).value == pytest.approx(norm, rel=1e-14)


@given(st.floats(min_value=0.05, max_value=20.0), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_luxemburg_trichotomy_property(scale, seed):
    grid = build_grid(1, 0.5, 0.5, 2.0, 41)
    region = box_mask(grid, 0.0, 1.0)
    u = scale * np.abs(np.random.default_rng(seed).normal(size=grid.n_nodes)) + 1e-3
    pbar = 2.0 + grid.nodes[:, 0]
    norm = lebesgue_norm(u, pbar, grid, region).value
    mod = lebesgue_modular(u, pbar, grid, region).value
    p_lo, p_hi = 2.0, 3.0
    if norm > 1:
        assert mod > 1 - 1e-8
        assert norm**p_lo <= mod * (1 + 1e-8) and mod <= norm**p_hi * (1 + 1e-8)
    elif norm < 1:
        assert mod < 1 + 1e-8
        assert norm**p_hi <= mod * (1 + 1e-8) and mod <= norm**p_lo * (1 + 1e-8)


def _bisection_norm(modular, tol=1e-13):
    """Reference root: bracket by doubling or halving from 1, then bisect."""
    lo = hi = 1.0
    if modular(1.0) > 1.0:
        while modular(hi) > 1.0:
            lo, hi = hi, 2.0 * hi
    else:
        while modular(lo) <= 1.0:
            lo, hi = lo / 2.0, lo
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if modular(mid) <= 1.0 else (mid, hi)
    return hi


NORMS = {
    "lebesgue": lambda u, field, grid, region: lebesgue_norm(
        u, 2.0 + grid.nodes[:, 0] ** 2, grid, region),
    "seminorm": lambda u, field, grid, region: sobolev_seminorm(u, field, 0.5, grid, region),
}


@pytest.mark.parametrize("name", sorted(NORMS))
@pytest.mark.parametrize("field", [radial_field(), product_field()], ids=["radial", "product"])
def test_luxemburg_contract(name, field, unit_grid, unit_region, monkeypatch):
    """Each norm meets the bracket contract within 12 modular evaluations
    and agrees with plain bisection on seeded variable-exponent data."""
    calls = []
    root_finder = spaces.luxemburg_norm

    def counted(terms, exponents, tol=1e-10):
        result = root_finder(terms, exponents, tol)
        calls.append((terms, exponents, result, tol))
        return result

    monkeypatch.setattr(spaces, "luxemburg_norm", counted)
    rng = np.random.default_rng(20240817)
    for scale in (1e-4, 0.03, 0.5, 1.0, 3.0, 40.0, 1e4):
        u = scale * rng.normal(size=unit_grid.n_nodes)
        NORMS[name](u, field, unit_grid, unit_region)
    assert len(calls) == 7
    for terms, exponents, result, tol in calls:
        def modular(lam):
            return float(np.sum(terms * np.exp(exponents * -math.log(lam))))

        lo, hi = result.bracket
        assert result.value == hi
        assert modular(lo) > 1.0 >= modular(hi)
        assert hi - lo <= tol * max(1.0, hi)
        assert abs(modular(hi) - 1.0) <= tol
        assert result.value == pytest.approx(_bisection_norm(modular), rel=1e-9)
        assert result.iterations <= 12
        assert result.modular == modular(1.0)


# -- Gagliardo modular and seminorm -------------------------------------------


def test_gagliardo_constant_zero(unit_grid, unit_region):
    mod = gagliardo_modular(np.ones(unit_grid.n_nodes), constant_field(2.0), 0.25,
                            unit_grid, unit_region)
    assert mod.value == 0.0


def test_gagliardo_closed_form(unit_grid, unit_region):
    # u(x) = x, p = 2, s = 1/4 on the unit interval: double integral of
    # |x - y|^(1 - 2s) equals 2/((2 - 2s)(3 - 2s)) = 8/15
    mod = gagliardo_modular(unit_grid.nodes[:, 0].copy(), constant_field(2.0), 0.25,
                            unit_grid, unit_region)
    assert mod.value == pytest.approx(8.0 / 15.0, rel=1e-2)


def test_gagliardo_symmetric_in_regions(unit_grid, rng):
    u = rng.normal(size=unit_grid.n_nodes)
    a = box_mask(unit_grid, 0.0, 0.5)
    b = box_mask(unit_grid, 0.5, 1.0)
    f = radial_field()
    ab = gagliardo_modular(u, f, 0.5, unit_grid, a, b).value
    ba = gagliardo_modular(u, f, 0.5, unit_grid, b, a).value
    assert ab == pytest.approx(ba, rel=1e-14)


def test_seminorm_constant_zero(unit_grid, unit_region):
    res = sobolev_seminorm(np.ones(unit_grid.n_nodes), constant_field(2.0), 0.25,
                           unit_grid, unit_region)
    assert res.value == 0.0


def test_seminorm_constant_exponent_sqrt(unit_grid, unit_region):
    res = sobolev_seminorm(unit_grid.nodes[:, 0].copy(), constant_field(2.0), 0.25,
                           unit_grid, unit_region)
    assert res.value == pytest.approx(math.sqrt(8.0 / 15.0), rel=1e-2)


def test_seminorm_unit_value_has_unit_modular(unit_grid, unit_region, rng):
    f = radial_field()
    u = rng.normal(size=unit_grid.n_nodes)
    norm = sobolev_seminorm(u, f, 0.5, unit_grid, unit_region)
    mod = gagliardo_modular(u / norm.value, f, 0.5, unit_grid, unit_region)
    assert mod.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("field", [constant_field(2.5), radial_field(), product_field()],
                         ids=["constant", "radial", "product"])
@pytest.mark.parametrize("dim", [1, 2])
def test_grouped_terms_match_per_pair_sum(field, dim, rng, monkeypatch):
    # sum_k t_k lam^(-e_k) over every ordered pair of distinct region nodes, term by term,
    # against the modular the seminorm's root finder reads, one term per distinct exponent
    grid = build_grid(dim, (0.0,) * dim, (1.0,) * dim, 2.0, 41 if dim == 1 else 17)
    u = rng.normal(size=grid.n_nodes)
    nodes = grid.nodes[grid.interior]
    diff = nodes[:, None, :] - nodes[None, :, :]
    pairs = ~np.eye(len(nodes), dtype=bool)
    dist = np.sqrt(np.sum(diff**2, axis=-1))[pairs]
    e = np.broadcast_to(field.eval(nodes[:, None, :], nodes[None, :, :]), pairs.shape)[pairs]
    du = np.abs(np.subtract.outer(u[grid.interior], u[grid.interior]))[pairs]
    t = grid.measure**2 * du**e * dist ** -(grid.dim + 0.5 * e)
    terms, expos = region_pair_terms(u, field, 0.5, grid)
    assert np.array_equal(expos, np.unique(e))
    assert len(expos) < len(t) // 2 or field.kind == "product"
    monkeypatch.setattr(spaces, "luxemburg_norm", lambda terms, exponents, tol: (terms, exponents))
    grouped, powers = sobolev_seminorm(u, field, 0.5, grid)
    for lam in (0.5, 1.0, 2.0):
        assert np.sum(grouped * lam**-powers) == pytest.approx(np.sum(t * lam**-e), rel=1e-12)


def test_gagliardo_sandwich(unit_grid, unit_region, rng):
    # unit-ball sandwich for the seminorm against its modular
    f = radial_field()
    for _ in range(20):
        u = rng.normal(size=unit_grid.n_nodes) * rng.uniform(0.05, 10.0)
        norm = sobolev_seminorm(u, f, 0.5, unit_grid, unit_region).value
        mod = gagliardo_modular(u, f, 0.5, unit_grid, unit_region).value
        p_lo, p_hi = 1.5, 3.0
        if norm >= 1:
            assert norm**p_lo <= mod * (1 + 1e-8) and mod <= norm**p_hi * (1 + 1e-8)
        else:
            assert norm**p_hi <= mod * (1 + 1e-8) and mod <= norm**p_lo * (1 + 1e-8)


# -- product (Holder) inequality ----------------------------------------------


def _product_ratio(u, v, pbar, grid, region):
    """m sum |uv| over 2 ||u||_pbar ||v||_pbar' on the region, pbar' = pbar / (pbar - 1).

    The variable-exponent Holder inequality puts it at most 1.
    """
    with np.errstate(divide="ignore"):  # pbar may equal 1 off the region
        conjugate = pbar / (pbar - 1.0)
    lhs = grid.measure * np.sum(np.abs(u[region] * v[region]))
    norms = lebesgue_norm(u, pbar, grid, region).value * lebesgue_norm(v, conjugate, grid, region).value
    return lhs / (2.0 * norms)


def test_holder_product_unit_case(unit_grid, unit_region):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    ones = np.ones(unit_grid.n_nodes)
    ratio = _product_ratio(ones, ones, pbar, unit_grid, unit_region)
    assert ratio <= 1.0 + 1e-12
    assert ratio == pytest.approx(0.5, abs=1e-9)


def test_holder_product_cauchy_schwarz(unit_grid, unit_region, rng):
    pbar = np.full(unit_grid.n_nodes, 2.0)
    u = rng.normal(size=unit_grid.n_nodes)
    ratio = _product_ratio(u, u, pbar, unit_grid, unit_region)
    assert ratio <= 1.0 + 1e-12
    assert ratio == pytest.approx(0.5, abs=1e-9)  # equality case, halved by the factor 2


def test_holder_product_sweep(unit_grid, unit_region, rng):
    pbar = 2.0 + unit_grid.nodes[:, 0]
    for _ in range(100):
        u = rng.normal(size=unit_grid.n_nodes)
        v = rng.normal(size=unit_grid.n_nodes)
        ratio = _product_ratio(u, v, pbar, unit_grid, unit_region)
        assert ratio <= 1.0


# -- embedding bound ------------------------------------------------------------


@dataclass
class EmbeddingReport:
    lhs: float
    rhs: float
    passed: bool
    c_explicit: float
    c_empirical: float
    seminorm: float


def embedding_bound(u, field, s, sigma, q, grid, region_small, region=None,
                    tol: float = 1e-10) -> EmbeddingReport:
    """Lower-order double-sum bound by the variable-exponent seminorm.

    lhs = (sum over region_small x region of m^2 |du|^q / |dx|^(dim + sigma q))^(1/q)
    is bounded by C * max_i (|A| d^beta)^(e_i) * [u], where A = region_small,
    d = diam(region) <= 1, beta = (s - sigma) p_+ q / (p_+ - q), and the two
    exponents e_i are (p_+/- - q)/(p_+/- q).  C is assembled from the product
    Holder inequality (factor 2) and the kernel mass K =
    (p_+ - q) |S^(dim-1)| / ((s - sigma) p_+ q):

        C = 2^(1/q) * max(K^e1, K^e2).
    """
    if not 0.0 < sigma < s < 1.0:
        raise ValueError("need 0 < sigma < s < 1")
    mask_small = _region_mask(grid, region_small)
    mask = _region_mask(grid, grid.interior if region is None else region)
    if np.any(mask_small & ~mask):
        raise ValueError("region_small must be contained in region")
    pts = grid.nodes[mask]
    d = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))  # bounding-box diameter
    if d > 1.0 + 1e-12:
        raise ValueError("region diameter must not exceed 1")

    ext = extrema_over_product(field, pts, pts)
    p_minus, p_plus = ext.p_minus, ext.p_plus
    if not q < p_minus:
        raise ValueError("need q < p_- on the region")
    if q < 1.0:
        raise ValueError("need q >= 1")

    terms, _ = region_pair_terms(u, q, sigma, grid, mask_small, mask)
    lhs = float(np.sum(terms)) ** (1.0 / q)

    seminorm = sobolev_seminorm(u, field, s, grid, mask, tol).value
    a_measure = float(np.count_nonzero(mask_small)) * grid.measure
    beta = (s - sigma) * p_plus * q / (p_plus - q)
    e1 = (p_plus - q) / (p_plus * q)
    e2 = (p_minus - q) / (p_minus * q)
    base = a_measure * d**beta
    kmass = (p_plus - q) * SPHERE_MEASURE[grid.dim] / ((s - sigma) * p_plus * q)
    c_explicit = 2.0 ** (1.0 / q) * max(kmass**e1, kmass**e2)
    envelope = max(base**e1, base**e2)
    rhs = c_explicit * envelope * seminorm
    c_emp = lhs / (envelope * seminorm) if envelope * seminorm > 0 else 0.0
    return EmbeddingReport(
        lhs=float(lhs),
        rhs=float(rhs),
        passed=bool(lhs <= rhs * (1 + 1e-12)),
        c_explicit=float(c_explicit),
        c_empirical=float(c_emp),
        seminorm=float(seminorm),
    )


def test_embedding_constant_function(unit_grid, unit_region):
    small = box_mask(unit_grid, 0.0, 0.5)
    rep = embedding_bound(np.ones(unit_grid.n_nodes), constant_field(2.0), 0.5, 0.25,
                          1.5, unit_grid, small, unit_region)
    assert rep.lhs == 0.0 and rep.passed


def test_embedding_linear(unit_grid, unit_region):
    small = box_mask(unit_grid, 0.0, 0.5)
    rep = embedding_bound(unit_grid.nodes[:, 0].copy(), constant_field(2.0), 0.5, 0.25,
                          1.5, unit_grid, small, unit_region)
    assert rep.passed and rep.c_empirical <= rep.c_explicit


def test_embedding_sweep_radial(unit_grid, unit_region, rng):
    small = box_mask(unit_grid, 0.0, 0.5)
    f = radial_field()
    for _ in range(50):
        u = rng.normal(size=unit_grid.n_nodes)
        rep = embedding_bound(u, f, 0.5, 0.2, 1.2, unit_grid, small, unit_region)
        assert rep.passed


def test_embedding_rejects_large_q(unit_grid, unit_region):
    small = box_mask(unit_grid, 0.0, 0.5)
    with pytest.raises(ValueError):
        embedding_bound(np.ones(unit_grid.n_nodes), radial_field(), 0.5, 0.25, 1.8,
                        unit_grid, small, unit_region)  # q >= p_- on the region
