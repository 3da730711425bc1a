"""Blocked pair sweeps: the same numbers at every block size, in bounded memory."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fpxlab import exponents
from fpxlab.exponents import (
    check_exterior_comparison,
    check_interior_oscillation,
    check_log_holder,
    constant_field,
    pairwise_sum,
    product_field,
    radial_field,
)
from fpxlab.grid import ball_mask, build_grid
from fpxlab.operators import PairKernel, tail
from fpxlab.regularity import caccioppoli_report, sup_bound_check
from fpxlab.solve import SolveConfig, minimize
from fpxlab.spaces import region_pair_terms, sobolev_seminorm

from conftest import dense_kernel

FIELDS = [constant_field(2.5), radial_field(), product_field()]
GRIDS = {
    "line": build_grid(1, 0.0, 1.0, 2.0, 41),
    "plane": build_grid(2, (0.0, 0.0), (1.0, 1.0), 2.0, 17),
}
SIGNS = ("plus", "minus", "abs")


def smooth(grid):
    x = grid.nodes
    return np.sin(2.0 * x[:, 0]) + 0.3 * np.sum(x**2, axis=1) - 0.2


def sweeps(grid, field):
    """Every blocked sweep's output on one instance, as plain arrays and reports."""
    u = smooth(grid)
    kern = PairKernel(grid, field, 0.5)
    ball = ball_mask(grid, grid.center, 0.5)
    phi = np.where(grid.interior, np.cos(grid.nodes[:, -1]), 0.0)
    return {
        "kernel": (kern.i, kern.j, kern.p, kern.coeff),
        "energy": kern.energy(u),
        "weak": kern.weak_residual(u, phi),
        "gradient_pairing": [float(kern.gradient(u) @ v) for v in (phi, u * phi)],
        "terms": region_pair_terms(u, field, 0.5, grid),
        "terms_q": region_pair_terms(u, 1.5, 0.25, grid, ball),
        "terms_ab": region_pair_terms(u, field, 0.5, grid, ball, grid.interior),
        "seminorm": sobolev_seminorm(u, field, 0.5, grid),
        "tails": tail(grid, field, 0.5, u, grid.center, 0.5, SIGNS),
        "tail_each": [tail(grid, field, 0.5, u, grid.center, 0.5, sign) for sign in SIGNS],
    }


def same(a, b):
    """Exact equality of nested outputs; arrays must agree in dtype and every bit."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(same(getattr(a, k), getattr(b, k)) for k in a.__dataclass_fields__)
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("field", FIELDS, ids=["constant", "radial", "product"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_sweeps_match_at_every_block_size(grid_name, field, block):
    grid = GRIDS[grid_name]
    reference = sweeps(grid, field)
    with mock.patch.object(exponents, "_BLOCK_PAIRS", block):
        blocked = sweeps(grid, field)
    for name, value in reference.items():
        assert same(blocked[name], value), name
    # the sign sequence shares one sweep and gives each sign's own report
    assert same(reference["tails"], reference["tail_each"])
    # the blocked weak residual is the gradient's pairing, for one test function or a stack
    assert same([reference["weak"]], reference["gradient_pairing"][:1])


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_pairwise_sum_matches_numpy(block, rng):
    for n in (0, 1, 7, 8, 127, 128, 129, 1000, 4097):
        x = rng.normal(size=n) * np.exp(4.0 * rng.normal(size=n))
        with mock.patch.object(exponents, "_BLOCK_PAIRS", block):
            total = pairwise_sum(lambda a, b: x[a:b], 0, n)
        assert total == np.sum(x)


@pytest.mark.parametrize("block", [7, 64, 1 << 16])
@pytest.mark.parametrize("field", FIELDS, ids=["constant", "radial", "product"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_caccioppoli_ball_kernel_matches_full_kernel(grid_name, field, block):
    """The level-set estimate streams the pairs that touch B_R, and its sums are those of the full kernel.

    The modular, cross and flat sums match dense sums over the ordered
    pairs of the full admissible set (``conftest.dense_kernel``), and the
    weak value is the full kernel's pairing with the proof's test function,
    bit for bit, at every block size.
    """
    grid = GRIDS[grid_name]
    u = smooth(grid)
    x0, r, R, s = grid.center, 0.25, 0.5, 0.5
    levels = [float(np.quantile(u[grid.interior], t)) for t in (0.25, 0.5, 0.75)]
    with mock.patch.object(exponents, "_BLOCK_PAIRS", block):
        reports = caccioppoli_report(u, field, s, grid, x0, r, R, levels)
    full = PairKernel(grid, field, s)
    pmat, dist, admissible, coeff = dense_kernel(grid, field, s)
    inner, outer = ball_mask(grid, x0, r), ball_mask(grid, x0, R)
    d = np.subtract.outer(u, u)
    gradient = 2.0 * np.sum(coeff * np.sign(d) * np.abs(d) ** (pmat - 1.0), axis=1)
    flat = np.where(admissible, dist, 1.0) ** ((1.0 - s) * pmat - grid.dim)
    radius = np.sqrt(np.sum((grid.nodes - x0) ** 2, axis=1))
    cutoff = np.clip(((R + r) / 2.0 - radius) / ((R - r) / 2.0), 0.0, 1.0) ** reports[0].p_plus
    crossed = []
    for level, rep in zip(levels, reports):
        w_plus, w_minus = np.maximum(u - level, 0.0), np.maximum(level - u, 0.0)
        modular = np.sum(coeff * np.abs(np.subtract.outer(w_plus, w_plus)) ** pmat * np.outer(inner, inner))
        cross = np.sum(coeff * np.outer(w_plus * inner, outer) * w_minus ** (pmat - 1.0))
        wr = (w_plus / (R - r))[:, None] ** pmat
        local = grid.measure**2 * np.sum(np.where(admissible & np.outer(outer, outer), wr * flat, 0.0))
        phi = np.where(grid.interior, w_plus * cutoff, 0.0)
        crossed.append(cross > 0.0 and rep.weak_form_value != 0.0)
        assert rep.lhs_modular == pytest.approx(modular, rel=1e-12)
        assert rep.lhs_cross == pytest.approx(cross, rel=1e-12)
        assert rep.rhs_local == pytest.approx(local, rel=1e-12)
        assert rep.weak_form_value == pytest.approx(gradient @ phi, rel=1e-12, abs=1e-14 * np.abs(gradient) @ phi)
        assert rep.weak_form_value == full.weak_residual(u, phi)
    assert any(crossed)  # some level has cross pairs and a test function


def traced(call):
    """(result, traced peak above the start, traced memory still held after the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, held - start


def test_analysis_working_memory_is_block_sized():
    """Each analysis call holds what it keeps plus block-sized temporaries.

    The geometry is the benchmark's ``analysis-line`` case: 180,100 kernel
    pairs and 319,600 seminorm pairs, each several times the block size, so a
    whole-table computation shows as tens of megabytes above the limit.  No
    call of ``norms``, ``diagnose`` or ``check-exponent`` keeps a pair table:
    the level-set estimate streams its pairs, and the seminorm keeps one term
    per distinct exponent.
    """
    began = time.perf_counter()
    grid = build_grid(1, 0.0, 1.0, 1.5, 1201)
    field, s, x0, R = radial_field(), 0.5, np.zeros(1), 0.8
    u = smooth(grid)
    levels = [float(np.quantile(u[grid.interior], t)) for t in (0.25, 0.5, 0.75)]
    limit = 16 * exponents._BLOCK_PAIRS * 8

    kern, peak, held = traced(lambda: PairKernel(grid, field, s))
    assert held >= 32 * len(kern.i)
    assert peak - held <= limit
    calls = {
        "caccioppoli": lambda: caccioppoli_report(u, field, s, grid, x0, R / 2.0, R, levels),
        "tail": lambda: tail(grid, field, s, u, x0, R, SIGNS),
        "sup_bound": lambda: sup_bound_check(u, field, s, grid, x0, 0.25, radius=R),
        "interior_oscillation": lambda: check_interior_oscillation(field, grid),
        "exterior_comparison": lambda: check_exterior_comparison(field, grid),
        "log_holder": lambda: check_log_holder(field, grid),
        "energy": lambda: kern.energy(u),
        "gradient": lambda: kern.gradient(u),
    }
    for name, call in calls.items():
        _, peak, held = traced(call)
        assert peak <= limit, name
        assert held <= 64 * grid.n_nodes, name
    # the seminorm's root finder reads one term per distinct exponent, where a term and an
    # exponent per pair took 16 bytes a pair, 5.1 MB here
    n = int(np.count_nonzero(grid.interior))
    _, peak, held = traced(lambda: sobolev_seminorm(u, field, s, grid))
    assert peak <= min(limit, 16 * (n * (n - 1) // 2))
    assert held <= 64 * grid.n_nodes
    assert time.perf_counter() - began < 2.0


def test_solve_working_memory_is_one_kernel():
    """A solve holds one kernel, the dense interior matrix and its inverse, a few node vectors and block-sized temporaries.

    With blocks of 1,024 pairs the kernel spans many blocks, so a second
    kernel kept alive, or a pair-sized temporary in the energy, the gradient
    or the matrix assembly, shows as tens of bytes per pair above the limit.
    """
    cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=401, r_trunc=4.0,
                      field_kind="radial", exterior="sine:1")
    grid, block = cfg.build_grid(), 1024
    with mock.patch.object(exponents, "_BLOCK_PAIRS", block):
        n_pairs = len(PairKernel(grid, cfg.build_field(), cfg.s).i)
        _, peak, _ = traced(lambda: minimize(cfg, grid=grid))
    n_int = int(np.count_nonzero(grid.interior))
    assert n_pairs > 16 * block
    assert peak <= 32 * n_pairs + 16 * block * 8 + 64 * grid.n_nodes + 16 * n_int**2
