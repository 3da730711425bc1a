import types
from pathlib import Path

import numpy as np
import pytest

from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import _in_half_open_box, build_grid
from fpxlab.operators import PairKernel
from fpxlab.regularity import algebraic_constant
from fpxlab.solve import exterior_data, minimize


def dense_kernel(grid, field, s):
    """The kernel as dense N x N arrays over ordered pairs: the oracle of the pair list.

    Returns (pmat, dist, admissible, coeff); coeff is zero off the admissible set.
    """
    nodes = grid.nodes
    dist = np.sqrt(np.sum((nodes[:, None, :] - nodes[None, :, :]) ** 2, axis=-1))
    pmat = np.asarray(field.eval(nodes[:, None, :], nodes[None, :, :]))
    both_ext = grid.exterior[:, None] & grid.exterior[None, :]
    admissible = ~np.eye(grid.n_nodes, dtype=bool) & ~both_ext \
        & (dist <= grid.interaction_radius * (1 + 1e-12))
    with np.errstate(divide="ignore"):
        kernel = np.where(admissible, dist, 1.0) ** -(grid.dim + s * pmat)
    coeff = np.where(admissible, grid.measure**2 * kernel, 0.0)
    return pmat, dist, admissible, coeff


def box_mask(grid, lo, hi):
    """Boolean node mask of the half-open box [lo, hi), by the rule of the domain box."""
    return _in_half_open_box(grid.nodes, np.atleast_1d(lo), np.atleast_1d(hi), grid.h)


def write_exponent_table(path, grid):
    """Write the radial field on the node product of a 1-D grid as a CSV for the tabulated preset."""
    x = grid.nodes[:, 0]
    p = radial_field().eval(grid.nodes[:, None, :], grid.nodes[None, :, :])
    rows = (f"{a:.17g},{b:.17g},{value:.17g}" for a, row in zip(x, p) for b, value in zip(x, row))
    Path(path).write_text("x,y,p\n" + "\n".join(rows) + "\n")


def algebraic_inequality_check(a, b, tau1, tau2, p, p_minus, p_plus):
    """Check the discrete cutoff inequality on (arrays of) tuples.

    lhs = |a-b|^(p-2) (a-b) (a tau1^p_+ - b tau2^p_+) dominates
    rhs = 1/2 |a-b|^p max(tau1, tau2)^p_+ - C max(a, b)^p |tau1 - tau2|^p
    with the explicit C of ``algebraic_constant``.  Returns (lhs, rhs, holds)
    where ``holds`` allows 1e-9 absolute slack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("a, b must be nonnegative")
    if np.any((tau1 < 0) | (tau1 > 1) | (tau2 < 0) | (tau2 > 1)):
        raise ValueError("tau1, tau2 must lie in [0, 1]")
    if np.any((p < p_minus) | (p > p_plus)):
        raise ValueError("p must lie in [p_minus, p_plus]")
    c = algebraic_constant(p_minus, p_plus)
    d = a - b
    signed = np.sign(d) * np.abs(d) ** (p - 1.0)
    lhs = signed * (a * tau1**p_plus - b * tau2**p_plus)
    rhs = 0.5 * np.abs(d) ** p * np.maximum(tau1, tau2) ** p_plus \
        - c * np.maximum(a, b) ** p * np.abs(tau1 - tau2) ** p
    return lhs, rhs, lhs >= rhs - 1e-9


@pytest.fixture(scope="session")
def dense():
    return dense_kernel


@pytest.fixture(scope="session")
def line_grid():
    """1-D grid over [-4, 4] with domain (-1, 1), h = 0.04."""
    return build_grid(1, 0.0, 1.0, 4.0, 201)


@pytest.fixture(scope="session")
def fine_line_grid():
    """Criterion-scale 1-D grid, h = 0.02."""
    return build_grid(1, 0.0, 1.0, 4.0, 401)


@pytest.fixture(scope="session")
def radial_solution(fine_line_grid):
    """Solved linear-data instance with the radial field on the fine grid."""
    cfg = types.SimpleNamespace(s=0.5, sigma=0.25, q=1.5, grad_tol=1e-9)
    field = radial_field()
    g = exterior_data("linear", fine_line_grid)
    result = minimize(fine_line_grid, field, cfg.s, g, cfg.grad_tol, 50_000)
    return cfg, fine_line_grid, field, result


@pytest.fixture(scope="session")
def quadratic_kernel(line_grid):
    return PairKernel(line_grid, constant_field(2.0), 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
