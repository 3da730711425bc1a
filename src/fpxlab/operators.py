"""Discrete nonlocal energy, operator, weak form, and tail integrals.

All pairwise sums share one precomputed :class:`PairKernel`, a list of the
admissible unordered node pairs: midpoint quadrature with uniform cell
measures, the diagonal excluded (symmetric exclusion realises the principal
value on a uniform lattice), pairs beyond the grid's interaction radius
dropped, and pairs with both nodes exterior dropped (they are constant with
respect to the interior unknowns).

With coefficients
    c_ij = m_i m_j / |x_i - x_j|^(dim + s p_ij),
the energy reads
    F(u) = 2 sum_{admissible unordered pairs} c_ij |u_i - u_j|^(p_ij) / p_ij,
its partial derivative is dF/du_k = 2 m_k L(u)_k with the nodal operator
    L(u)_k = sum_j m_j |u_k - u_j|^(p_kj - 2) (u_k - u_j) / |x_k - x_j|^(dim + s p_kj),
and the bilinear pairing E(u, phi) (defined with each unordered pair twice)
satisfies E(u, phi) = 2 sum_k m_k L(u)_k phi_k for interior-supported phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SPHERE_MEASURE, Grid, GridGeometryError, ball_mask

__all__ = ["PairKernel", "TailReport", "tail"]


def _signed_power(delta: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """|t|^(e-1) * sign(t), the derivative kernel of |t|^e / e, zero at t=0."""
    return np.sign(delta) * np.abs(delta) ** (expo - 1.0)


class PairKernel:
    """The admissible unordered pairs of one (grid, field, s) triple.

    Pair k joins interior node ``i[k]`` to node ``j[k]``, with exponent
    ``p[k]`` and coefficient ``coeff[k]``: 32 bytes per pair.
    """

    def __init__(self, grid: Grid, field, s: float):
        if not 0.0 < s < 1.0:
            raise ValueError("differentiability order s must lie in (0, 1)")
        self.grid = grid
        self.field = field
        self.s = float(s)

        # lattice offsets inside the interaction radius, added to the interior nodes
        shape = (grid.nodes_per_axis,) * grid.dim
        limit = grid.interaction_radius * (1 + 1e-12)
        steps = np.arange(-int(limit / grid.h) - 1, int(limit / grid.h) + 2)
        offsets = np.stack(np.meshgrid(*[steps] * grid.dim, indexing="ij"), axis=-1).reshape(-1, grid.dim)
        offsets = offsets[np.sum(offsets**2, axis=1) * grid.h**2 <= (limit * (1 + 1e-9)) ** 2]
        inner = np.flatnonzero(grid.interior)
        target = np.stack(np.unravel_index(inner, shape), axis=-1)[:, None, :] + offsets
        inside = np.all((target >= 0) & (target < grid.nodes_per_axis), axis=-1)
        i = np.broadcast_to(inner[:, None], inside.shape)[inside]
        j = np.ravel_multi_index(tuple(target[inside].T), shape)
        # a pair of interior nodes is kept once, from its lower index; i == j falls out too
        keep = grid.exterior[j] | (i < j)
        i, j = i[keep], j[keep]
        dist = np.sqrt(np.sum((grid.nodes[i] - grid.nodes[j]) ** 2, axis=-1))
        keep = dist <= limit
        self.i, self.j, dist = i[keep], j[keep], dist[keep]
        self.p = np.asarray(field.eval(grid.nodes[self.i], grid.nodes[self.j]), dtype=float)
        self.coeff = grid.measure**2 * dist ** -(grid.dim + self.s * self.p)

    # -- energy and its gradient ---------------------------------------

    def energy(self, u: np.ndarray) -> float:
        """F(u): nonnegative, zero exactly for constant u."""
        d = np.abs(u[self.i] - u[self.j])
        return 2.0 * float(np.sum(self.coeff * d**self.p / self.p))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """dF/du_k on every node (collar entries included)."""
        flux = 2.0 * self.coeff * _signed_power(u[self.i] - u[self.j], self.p)
        n = self.grid.n_nodes
        return np.bincount(self.i, flux, n) - np.bincount(self.j, flux, n)

    def operator(self, u: np.ndarray) -> np.ndarray:
        """Nodal operator values L(u)_k; meaningful on interior nodes."""
        return self.gradient(u) / (2.0 * self.grid.measure)

    def operator_at(self, u: np.ndarray, i: int) -> float:
        if not self.grid.interior[i]:
            raise ValueError("operator is evaluated at interior nodes")
        return float(self.operator(u)[i])

    def weak_residual(self, u: np.ndarray, phi: np.ndarray) -> float:
        """Bilinear pairing E(u, phi) = gradient(u) . phi for phi vanishing off the interior."""
        if np.any(np.abs(phi[self.grid.exterior]) > 0):
            raise ValueError("test function must vanish on non-interior nodes")
        return float(self.gradient(u) @ phi)

    def residual_norm(self, u: np.ndarray) -> float:
        """max over interior nodes of |m_k L(u)_k| (weighted nodal residual)."""
        g = self.gradient(u)
        return float(np.max(np.abs(g[self.grid.interior]))) / 2.0


@dataclass
class TailReport:
    value: float
    argmax_x: np.ndarray
    truncation_radius: float
    remainder_bound: float
    sign: str


def tail(grid: Grid, field, s: float, u: np.ndarray, x0, radius: float,
         sign="plus", sup_radius: float | None = None):
    """Truncated tail integral of u beyond the ball B_radius(x0).

    Computes sup over grid nodes x in B_sup(x0) (sup_radius defaults to
    ``radius``) of

        sum_{|y - x0| > radius} m_y(eff) u_pm(y)^(p(x,y) - 1) / |y - x0|^(dim + s p(x,y)),

    where cells straddling the sphere enter with the radial fraction of
    their measure lying outside, keeping the quadrature second order at the
    inner boundary.  The report carries the analytic bound on what the box
    truncation dropped, valid for data bounded by max |u| on the collar.
    ``sign`` is one of plus, minus and abs, giving one report, or a
    sequence of them, giving a list of reports that share the exponent and
    kernel table.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not radius < grid.room(x0):
        raise GridGeometryError("tail ball must be contained in the domain")
    signs = [sign] if isinstance(sign, str) else list(sign)
    if any(sg not in ("plus", "minus", "abs") for sg in signs):
        raise ValueError("sign must be plus, minus, or abs")

    sup_r = radius if sup_radius is None else float(sup_radius)
    xs, sums_of = _tail_sums(grid, field, s, x0, radius, sup_r)
    # dropped mass beyond the outermost kept cells, for collar-bounded data
    trunc_r = float(np.min(grid.r_trunc - np.abs(x0 - grid.center)) + grid.h / 2)
    surf = SPHERE_MEASURE[grid.dim]

    def report(sg: str) -> TailReport:
        uy = np.abs(u) if sg == "abs" else np.maximum(u if sg == "plus" else -u, 0.0)
        sums = sums_of(uy)
        k = int(np.argmax(sums))
        m = float(np.max(uy[grid.exterior])) if np.any(grid.exterior) else 0.0
        mpow = max(m ** (field.p_min - 1.0), m ** (field.p_max - 1.0))
        if trunc_r >= 1.0:
            remainder = mpow * surf * trunc_r ** (-s * field.p_min) / (s * field.p_min)
        else:  # split at r = 1 where the worst kernel exponent switches
            remainder = mpow * surf * (
                (trunc_r ** (-s * field.p_max) - 1.0) / (s * field.p_max)
                + 1.0 / (s * field.p_min)
            )
        return TailReport(
            value=float(sums[k]),
            argmax_x=xs[k].copy(),
            truncation_radius=trunc_r,
            remainder_bound=float(remainder),
            sign=sg,
        )

    return report(sign) if isinstance(sign, str) else [report(sg) for sg in signs]


def _tail_sums(grid: Grid, field, s: float, x0: np.ndarray, radius: float,
               sup_radius: float, reach: float = 1.0):
    """The nodes x of B_sup_radius(x0) and the map from data to their sums in :func:`tail`'s quadrature.

    The exponents and kernel powers do not depend on the data and are
    computed here once.  Every distance |y - x0| is divided by ``reach``;
    the recentred far kernel of the level-set estimate uses reach > 1.
    """
    dist0 = np.sqrt(np.sum((grid.nodes - x0) ** 2, axis=1))
    frac = np.clip((dist0 - radius) / grid.h + 0.5, 0.0, 1.0)
    weights = grid.measure * frac  # radial cell fraction outside the sphere
    ysel = weights > 0

    xsel = ball_mask(grid, x0, sup_radius)
    if not np.any(xsel):
        raise GridGeometryError("no grid nodes inside the supremum ball")

    xs = grid.nodes[xsel]
    ys = grid.nodes[ysel]
    pxy = np.asarray(field.eval(xs[:, None, :], ys[None, :, :]))
    expo = pxy - 1.0
    power = (dist0[ysel][None, :] / reach) ** (grid.dim + s * pxy)
    weights = weights[ysel]
    return xs, lambda uy: (uy[ysel][None, :] ** expo / power) @ weights
