import numpy as np
import pytest

from fpxlab.exponents import constant_field, radial_field
from fpxlab.grid import build_grid
from fpxlab.operators import PairKernel
from fpxlab.solve import SolveConfig, minimize


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
    cfg = SolveConfig(s=0.5, sigma=0.25, q=1.5, nodes_per_axis=401,
                      field_kind="radial", exterior="linear", grad_tol=1e-9)
    field = radial_field()
    result = minimize(cfg, grid=fine_line_grid, field=field)
    return cfg, fine_line_grid, field, result


@pytest.fixture(scope="session")
def quadratic_kernel(line_grid):
    return PairKernel(line_grid, constant_field(2.0), 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
