"""Discrete nonlocal energy, its gradient, weak form, and tail integrals.

Every kernel sum runs over the admissible unordered node pairs of
:func:`pair_blocks`, which the solver keeps in a :class:`PairKernel` and the
level-set estimate streams: midpoint quadrature with uniform cell measures,
the diagonal excluded (symmetric exclusion realises the principal value on a
uniform lattice), pairs beyond the grid's interaction radius dropped, and
pairs with both nodes exterior dropped (they are constant with respect to
the interior unknowns).

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

from . import exponents
from .exponents import node_pairs, row_blocks
from .grid import SPHERE_MEASURE, Grid, GridGeometryError, ball_mask

__all__ = ["PairKernel", "TailReport", "add_fluxes", "pair_blocks", "tail", "weighted_residual"]

METRIC_FLOOR = 1e-3  # delta of the iterate metric, as a fraction of the range of u


def add_fluxes(out: np.ndarray, into: np.ndarray, u: np.ndarray, i, j, p, coeff) -> None:
    """Adds the fluxes 2 c |u_i - u_j|^(p - 2) (u_i - u_j) of a block of pairs to out at i and into at j, in pair order."""
    delta = u[i] - u[j]
    flux = 2.0 * coeff * (np.sign(delta) * np.abs(delta) ** (p - 1.0))  # zero where u_i = u_j
    np.add.at(out, i, flux)
    np.add.at(into, j, flux)


def weighted_residual(grid: Grid, g: np.ndarray) -> float:
    """max over interior nodes k of |g_k| / 2 = |m_k L(u)_k| for the gradient g = dF/du at u."""
    return float(np.max(np.abs(g[grid.interior]))) / 2.0


def pair_blocks(grid: Grid, field, s: float, touching=None):
    """The count pass of :func:`~fpxlab.exponents.node_pairs` and its (i, j, p, coeff) blocks of admissible pairs.

    Node ``i`` is interior, a pair of interior nodes comes once, from its
    lower index, and coeff = m^2 / |x_i - x_j|^(dim + s p).  ``touching`` (a
    node mask) keeps the pairs with an endpoint in it, in the same order, so
    every sum at one of its nodes is the full list's, bit for bit.
    """
    def keep(i, j):
        kept = grid.exterior[j] | (i < j)
        return kept if touching is None else kept & (touching[i] | touching[j])

    everywhere = np.ones(grid.n_nodes, dtype=bool)
    count, blocks = node_pairs(grid, grid.interior, everywhere, grid.interaction_radius * (1 + 1e-12), keep)

    def fill(block):
        i, j, dist = block
        p = field.eval(grid.nodes[i], grid.nodes[j])
        return i, j, p, grid.measure**2 * dist ** -(grid.dim + s * p)

    return count, map(fill, blocks)


class PairKernel:
    """The admissible unordered pairs of one (grid, field, s) triple.

    Pair k joins interior node ``i[k]`` to node ``j[k]``, with exponent
    ``p[k]`` and coefficient ``coeff[k]``: 32 bytes per pair, filled from
    :func:`pair_blocks`.  Pairs are listed row by row, ``i`` ascending.
    """

    def __init__(self, grid: Grid, field, s: float):
        if not 0.0 < s < 1.0:
            raise ValueError("differentiability order s must lie in (0, 1)")
        self.grid = grid
        count, blocks = pair_blocks(grid, field, float(s))
        n = count()  # the arrays are allocated once, at their final size
        self.i, self.j = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        self.p, self.coeff = np.empty(n), np.empty(n)
        stop = 0
        for i, j, p, coeff in blocks:
            start, stop = stop, stop + len(i)
            self.i[start:stop], self.j[start:stop], self.p[start:stop], self.coeff[start:stop] = i, j, p, coeff

    # -- energy and its gradient ---------------------------------------

    def energy(self, u: np.ndarray) -> float:
        """F(u): nonnegative, zero exactly for constant u."""
        def terms(a, b):
            d = np.abs(u[self.i[a:b]] - u[self.j[a:b]])
            return self.coeff[a:b] * d**self.p[a:b] / self.p[a:b]

        return 2.0 * exponents.pairwise_sum(terms, 0, len(self.i))

    def energy_change(self, u: np.ndarray, v: np.ndarray) -> float:
        """F(v) - F(u), resolved far below the float64 resolution of F.

        With a = u_i - u_j and e = (v - u)_i - (v - u)_j, a pair changes by
        c |a|^p expm1(p log1p(e / a)) / p where |e| < |a| / 2, whose rounding
        is relative to the change rather than to the pair's energy, and by
        c (|a + e|^p - |a|^p) / p elsewhere, where the two are comparable.
        """
        move = v - u

        def terms(a, b):
            i, j, p = self.i[a:b], self.j[a:b], self.p[a:b]
            base, shift = u[i] - u[j], move[i] - move[j]
            power = np.abs(base) ** p
            near = np.abs(shift) < 0.5 * np.abs(base)
            ratio = np.where(near, shift, 0.0) / np.where(near, base, 1.0)
            change = np.where(near, power * np.expm1(p * np.log1p(ratio)), np.abs(base + shift) ** p - power)
            return self.coeff[a:b] * change / p

        return 2.0 * exponents.pairwise_sum(terms, 0, len(self.i))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """dF/du_k on every node (collar entries included).

        The pair fluxes 2 c_ij |u_i - u_j|^(p_ij - 2) (u_i - u_j) are made
        block by block and added to their two nodes in pair order, so every
        temporary is block-sized and each node's sum runs in list order.
        """
        n = self.grid.n_nodes
        out, into = np.zeros(n), np.zeros(n)
        for part in row_blocks(len(self.i)):
            add_fluxes(out, into, u, self.i[part], self.j[part], self.p[part], self.coeff[part])
        return out - into

    def weak_residual(self, u: np.ndarray, phi: np.ndarray):
        """Bilinear pairing E(u, phi) = gradient(u) . phi for phi vanishing off the interior nodes."""
        phi = np.asarray(phi, dtype=float)
        if np.any(np.abs(phi[~self.grid.interior]) > 0):
            raise ValueError("test function must vanish off the interior nodes")
        return float(self.gradient(u) @ phi)

    def p2_hessian(self, u: np.ndarray | None = None) -> np.ndarray:
        """The interior matrix sum_k w_k (e_i - e_j)(e_i - e_j)^T: the p = 2 Hessian, or a metric at u.

        With no iterate w_k = 2 c_k, the Hessian of the energy at p = 2.  At
        an iterate u it is the Hessian of F at u with each pair's |u_i -
        u_j|^2 lifted by delta^2, w_k = 2 (p_k - 1) c_k (|u_i - u_j|^2 +
        delta^2)^((p_k - 2) / 2), delta a fraction ``METRIC_FLOOR`` of the
        range of u; a pair with p_k = 2 weighs 2 c_k at any u.  Rows and
        columns follow the interior nodes in index order; a pair with a
        collar endpoint adds to the diagonal only.  The pairs and their
        weights are swept in blocks, so every temporary is block-sized.
        """
        interior = self.grid.interior
        n = int(np.count_nonzero(interior))
        index = np.cumsum(interior) - 1  # position among the interior nodes
        if u is not None:
            lift = (METRIC_FLOOR * np.ptp(u)) ** 2
        matrix, diagonal = np.zeros((n, n)), np.zeros(n)
        for part in row_blocks(len(self.i)):
            i, j = self.i[part], self.j[part]
            w = 2.0 * self.coeff[part]
            if u is not None:
                p = self.p[part]
                w *= (p - 1.0) * ((u[i] - u[j]) ** 2 + lift) ** (0.5 * p - 1.0)
            a, inner = index[i], interior[j]
            a_in, b_in, w_in = a[inner], index[j[inner]], w[inner]
            diagonal += np.bincount(a, w, n) + np.bincount(b_in, w_in, n)
            # each interior pair is listed once, so every off-diagonal entry is written once
            matrix[a_in, b_in] = matrix[b_in, a_in] = -w_in
        matrix.flat[:: n + 1] = diagonal
        return matrix


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
    ``radius``; both balls must have their closure in the domain) of

        sum_{|y - x0| > radius} m_y(eff) u_pm(y)^(p(x,y) - 1) / |y - x0|^(dim + s p(x,y)),

    where cells straddling the sphere enter with the radial fraction of
    their measure lying outside, keeping the quadrature second order at the
    inner boundary.  The report carries the analytic bound on what the box
    truncation dropped, valid for data bounded by max |u| on the collar.
    ``sign`` is one of plus, minus and abs, giving one report, or a
    sequence of them, giving a list of reports whose sums share one sweep.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    signs = [sign] if isinstance(sign, str) else list(sign)
    if any(sg not in ("plus", "minus", "abs") for sg in signs):
        raise ValueError("sign must be plus, minus, or abs")

    sup_r = radius if sup_radius is None else float(sup_radius)
    data = [np.abs(u) if sg == "abs" else np.maximum(u if sg == "plus" else -u, 0.0) for sg in signs]
    xs, sums = _tail_sums(grid, field, s, x0, radius, sup_r, data)
    # dropped mass beyond the outermost kept cells, for collar-bounded data
    trunc_r = float(np.min(grid.r_trunc - np.abs(x0 - grid.center)) + grid.h / 2)
    surf = SPHERE_MEASURE[grid.dim]

    def report(sg: str, uy: np.ndarray, row: np.ndarray) -> TailReport:
        k = int(np.argmax(row))
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
            value=float(row[k]),
            argmax_x=xs[k].copy(),
            truncation_radius=trunc_r,
            remainder_bound=float(remainder),
            sign=sg,
        )

    reports = [report(*args) for args in zip(signs, data, sums)]
    return reports[0] if isinstance(sign, str) else reports


def _tail_sums(grid: Grid, field, s: float, x0: np.ndarray, radius: float,
               sup_radius: float, data, reach: float = 1.0):
    """The nodes x of B_sup_radius(x0) and the sums of :func:`tail`'s quadrature there.

    ``data`` is a sequence of nonnegative nodal vectors; the result holds
    one row of sums per vector.  The exponents and kernel powers do not
    depend on the data: they are computed once per block of x rows and
    shared by every vector.  Every distance |y - x0| is divided by
    ``reach``; the recentred far kernel of the level-set estimate uses
    reach > 1.
    """
    dist0 = np.sqrt(np.sum((grid.nodes - x0) ** 2, axis=1))
    frac = np.clip((dist0 - radius) / grid.h + 0.5, 0.0, 1.0)
    weights = grid.measure * frac  # radial cell fraction outside the sphere
    ysel = weights > 0

    ball_mask(grid, x0, max(radius, sup_radius))  # both balls need their closure in the domain
    xsel = ball_mask(grid, x0, sup_radius)
    if not np.any(xsel):
        raise GridGeometryError("no grid nodes inside the supremum ball")

    xs = grid.nodes[xsel]
    ys = grid.nodes[ysel]
    uys = [np.asarray(v)[ysel] for v in data]
    reached = dist0[ysel] / reach
    weights = weights[ysel]
    sums = np.empty((len(uys), len(xs)))
    for rows in row_blocks(len(xs), len(ys)):
        pxy = np.asarray(field.eval(xs[rows, None, :], ys[None, :, :]))
        expo = pxy - 1.0
        power = reached ** (grid.dim + s * pxy)
        for row, uy in zip(sums, uys):
            row[rows] = np.sum(uy ** expo / power * weights, axis=1)
    return xs, sums
