"""Modulars and Luxemburg norms of grid functions.

Grid functions live on :class:`~fpxlab.grid.Grid` nodes; a *region* is a
boolean node mask.  The Lebesgue modular sums m |u|^pbar over the region
with pbar(x) = p(x, x); the Gagliardo modular sums
m^2 |u_i - u_j|^p_ij / |x_i - x_j|^(dim + s p_ij) over region pairs with the
diagonal excluded, listed by :func:`~fpxlab.exponents.node_pairs` with no
radius.  Region sums are genuine integrals of the atomic measure
sum_i m_i delta_{x_i}, so the modular/norm relations (the unit-ball
trichotomy and the p_-/p_+ sandwiches) hold for them verbatim and are
asserted by the tests rather than re-derived.

Both modulars of u / lambda are sums sum_k c_k lambda^(-p_k): one term per
region node, or one per distinct pair exponent.  Luxemburg norms are the
roots of rho(u / lambda) = 1, found by Newton's method on log rho against
log lambda, a convex and decreasing log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, node_pairs
from .grid import Grid

__all__ = [
    "NormResult",
    "ModularDivergenceError",
    "lebesgue_modular",
    "luxemburg_norm",
    "region_pair_terms",
    "gagliardo_modular",
    "sobolev_seminorm",
    "lebesgue_norm",
]

class ModularDivergenceError(RuntimeError):
    """The modular is not finite at unit scaling, or its root escapes float64."""


@dataclass
class NormResult:
    """A Luxemburg norm: ``value`` is the upper end of ``bracket``, which
    holds the root, ``iterations`` counts the modular evaluations after the
    unit scaling (the Newton steps and the two bracket ends), and
    ``modular`` is rho(u), the sum of the terms."""

    value: float
    bracket: tuple
    iterations: int
    modular: float


def _region_mask(grid: Grid, region) -> np.ndarray:
    mask = grid.interior if region is None else np.asarray(region, dtype=bool)
    if mask.shape != (grid.n_nodes,):
        raise ValueError("region mask must cover every grid node")
    if not mask.any():
        raise ValueError("region is empty")
    return mask


def lebesgue_modular(u: np.ndarray, pbar: np.ndarray, grid: Grid, region=None) -> float:
    """sum over region of m |u|^pbar, pbar the diagonal exponent trace."""
    mask = _region_mask(grid, region)
    return float(grid.measure * np.sum(np.abs(u[mask]) ** np.asarray(pbar)[mask]))


def region_pair_terms(u: np.ndarray, expo, order: float, grid: Grid, region_a=None, region_b=None):
    """Terms m^2 |u_i - u_j|^e / |x_i - x_j|^(dim + order e) of a double region sum, summed per exponent.

    ``expo`` is an :class:`ExponentField`, giving e = p(x_i, x_j), or a
    constant exponent.  The pairs are those of
    :func:`~fpxlab.exponents.node_pairs` with rows region_a, partners
    region_b and no radius: every pair of distinct region nodes, however far
    apart.  With one region (``region_b`` omitted) each unordered pair is
    listed once, i < j, with its term doubled, since both the term and the
    field are symmetric.  Returns the sum T_e of the terms of each distinct
    exponent e, added in pair order whatever the block size, and the
    exponents e, ascending: the double sum of u / lam is sum_e T_e lam^(-e).
    """
    mask_a = _region_mask(grid, region_a)
    mask_b = mask_a if region_b is None else _region_mask(grid, region_b)
    weight = 2.0 if region_b is None else 1.0
    keep = (lambda i, j: i < j) if region_b is None else None  # one region: each unordered pair once
    _, blocks = node_pairs(grid, mask_a, mask_b, math.inf, keep)
    sums, expos = np.empty(0), np.empty(0)
    for i, j, dist in blocks:
        e = expo.eval(grid.nodes[i], grid.nodes[j]) if isinstance(expo, ExponentField) else np.full(len(i), float(expo))
        du = np.abs(u[i] - u[j])
        terms = weight * grid.measure**2 * du**e * dist ** -(grid.dim + order * e)
        merged = np.sort(np.concatenate([expos, e]))
        merged = merged[np.diff(merged, prepend=-np.inf) > 0]
        grown = np.zeros(len(merged))
        grown[np.searchsorted(merged, expos)] = sums
        np.add.at(grown, np.searchsorted(merged, e), terms)
        sums, expos = grown, merged
    return sums, expos


def gagliardo_modular(u: np.ndarray, field: ExponentField, s: float, grid: Grid,
                      region_a=None, region_b=None) -> float:
    """Double region sum of |u_i - u_j|^p_ij / |x_i - x_j|^(dim + s p_ij)."""
    terms, _ = region_pair_terms(u, field, s, grid, region_a, region_b)
    return float(np.sum(terms))


_MAX_EVALUATIONS = 100  # modular evaluations of a Luxemburg root search after the unit scaling


def luxemburg_norm(terms, exponents, tol: float = 1e-10) -> NormResult:
    """Smallest lambda with rho(lambda) = sum_k c_k lambda^(-p_k) <= 1, given the c_k >= 0 and the p_k.

    The result is the bracket end ``hi`` of a bracket (lo, hi) with rho(lo)
    > 1 >= rho(hi), hi - lo <= tol max(1, hi) and |rho(hi) - 1| <= tol.
    Newton's method solves f(t) = log rho(e^t) = 0 in t = log lambda.  f is
    a log-sum-exp of affine functions: convex, decreasing, with slope
    between -p_+ and -p_-.  So after the first step the iterates stay left
    of the root and converge quadratically, and a single exponent p gives
    the closed form rho(1)^(1/p) in one step.  Once a step is below
    tol / (16 p_+), rho is evaluated at t -/+ tol / (4 p_+), which brackets
    the root with |log rho| <= tol / 2 at either end.  A tol too small for
    float64 to bracket raises after ``_MAX_EVALUATIONS`` evaluations.
    """
    terms, exponents = np.asarray(terms, dtype=float), np.asarray(exponents, dtype=float)
    base = float(np.sum(terms))
    if base == 0.0:
        return NormResult(0.0, (0.0, 0.0), 0, 0.0)
    if not math.isfinite(base):
        raise ModularDivergenceError("modular not finite at unit scaling")
    live = terms > 0.0  # zero terms stay out of the logarithms
    c, p = terms[live], exponents[live]
    log_c = np.log(c)

    def rho(lam: float) -> float:  # summed as the modular at unit scaling is
        return float(np.sum(c * np.exp(p * -math.log(lam))))

    half = tol / (4.0 * max(1.0, float(np.max(p))))
    t, evaluations = 0.0, -1  # the first evaluation is the unit scaling
    while evaluations < _MAX_EVALUATIONS:
        evaluations += 1
        w = log_c - p * t  # f(t) = log sum exp(w)
        top = float(np.max(w))
        scaled = np.exp(w - top)
        total = float(np.sum(scaled))
        step = (top + math.log(total)) * total / float(np.sum(p * scaled))  # -f / f'
        t += step
        if abs(step) < half / 4.0:
            lo, hi = math.exp(t - half), math.exp(t + half)
            evaluations += 2
            if rho(lo) > 1.0 >= rho(hi):
                return NormResult(hi, (lo, hi), evaluations, base)
    raise ModularDivergenceError(f"no Luxemburg bracket of width {tol} within {_MAX_EVALUATIONS} evaluations")


def lebesgue_norm(u, pbar, grid, region=None, tol: float = 1e-10) -> NormResult:
    mask = _region_mask(grid, region)
    p = np.asarray(pbar)[mask]
    return luxemburg_norm(grid.measure * np.abs(u[mask]) ** p, p, tol)


def sobolev_seminorm(u, field, s, grid, region=None, tol: float = 1e-10) -> NormResult:
    return luxemburg_norm(*region_pair_terms(u, field, s, grid, region), tol)
