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

Luxemburg norms are roots of the decreasing map lambda -> modular(u / lambda)
minus 1, found by a bracketing root finder in log-log coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exponents import ExponentField, node_pairs
from .grid import Grid

__all__ = [
    "ModularResult",
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
    """The modular stayed above 1 for every sampled scaling."""


@dataclass
class ModularResult:
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("modular values are nonnegative")


@dataclass
class NormResult:
    """A Luxemburg norm: ``value`` is the bracket's upper end, ``iterations``
    counts the modular evaluations after the unit scaling, and ``modular``
    is rho(u), the modular at unit scaling."""

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


def lebesgue_modular(u: np.ndarray, pbar: np.ndarray, grid: Grid, region=None) -> ModularResult:
    """sum over region of m |u|^pbar, pbar the diagonal exponent trace."""
    mask = _region_mask(grid, region)
    value = grid.measure * np.sum(np.abs(u[mask]) ** np.asarray(pbar)[mask])
    return ModularResult(float(value))


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
                      region_a=None, region_b=None) -> ModularResult:
    """Double region sum of |u_i - u_j|^p_ij / |x_i - x_j|^(dim + s p_ij)."""
    terms, _ = region_pair_terms(u, field, s, grid, region_a, region_b)
    return ModularResult(float(np.sum(terms)))


class _Scaling(NamedTuple):
    """One evaluation of a Luxemburg root finder: rho = modular(lam), t = log lam, f = log rho."""

    t: float
    lam: float
    rho: float
    f: float


_MAX_EVALUATIONS = 200  # modular evaluations of a Luxemburg root search after the unit scaling


def luxemburg_norm(modular: Callable[[float], float], tol: float = 1e-10) -> NormResult:
    """Smallest lambda with modular(lambda) <= 1 for a decreasing modular map.

    ``modular`` evaluates rho(u / lambda).  The result is the bracket end
    ``hi`` of a bracket (lo, hi) with rho(lo) > 1 >= rho(hi), hi - lo <=
    tol max(1, hi) and |rho(hi) - 1| <= tol.  The root is found in t = log
    lambda, where f(t) = log rho(e^t) is a log-sum-exp of affine functions of
    t for the modulars of this module (sums of c_k lambda^(-p_k)): convex,
    decreasing, and linear for a constant exponent.  Secant steps bracket
    the root from t = 0 and Brent's method (inverse quadratic
    interpolation, secant and bisection steps) closes the bracket, so a
    norm takes a handful of evaluations where bisection takes dozens.
    At most ``_MAX_EVALUATIONS`` evaluations follow the first.
    """
    base = modular(1.0)
    if base == 0.0:
        return NormResult(0.0, (0.0, 0.0), 0, 0.0)
    if not np.isfinite(base):
        raise ModularDivergenceError("modular not finite at unit scaling")

    evaluations = 0

    def scaling(t: float) -> _Scaling:
        nonlocal evaluations
        evaluations += 1
        lam = math.exp(t) if t < 709.0 else math.inf
        rho = modular(lam)
        if np.isnan(rho) or (lam > 1.0 and rho == np.inf):
            raise ModularDivergenceError("modular diverges for every scaling")
        return _Scaling(t, lam, rho, math.log(rho) if rho > 0 else -np.inf)

    # bracketing: the first step solves f(0) - 2 t = 0, exact for exponent 2;
    # later steps take twice the secant step and never shrink
    pre = _Scaling(0.0, 1.0, base, math.log(base))
    step = pre.f / 2.0 if pre.f != 0.0 else -tol
    while True:
        cur = scaling(pre.t + step)
        if (cur.f > 0.0) != (pre.f > 0.0):
            break
        if evaluations >= _MAX_EVALUATIONS:
            if cur.f > 0.0:
                raise ModularDivergenceError("modular stayed above 1 during bracketing")
            return NormResult(float(cur.lam), (0.0, float(cur.lam)), evaluations, float(base))
        slope = (cur.f - pre.f) / (cur.t - pre.t)
        newton = -cur.f / slope if slope < 0.0 and np.isfinite(slope) else 0.0
        step = math.copysign(max(2.0 * abs(newton), abs(step)), step)
        pre = cur

    # Brent's method; blk is the bracket end across the root from cur, the best point
    blk = pre
    spre = scur = cur.t - pre.t
    while True:
        if abs(blk.f) < abs(cur.f):
            pre, cur, blk = cur, blk, cur
        lo, hi = (cur, blk) if cur.f > 0.0 else (blk, cur)
        if (hi.lam - lo.lam <= tol * max(1.0, hi.lam) and abs(hi.rho - 1.0) <= tol) \
                or evaluations >= _MAX_EVALUATIONS:
            return NormResult(float(hi.lam), (float(lo.lam), float(hi.lam)), evaluations, float(base))
        # a bracket of width 2 delta in t meets both conditions, since by
        # convexity 1 - rho(hi) <= |f(hi)| <= |chord slope| (t_hi - t_lo)
        chord = abs((blk.f - cur.f) / (blk.t - cur.t))
        delta = max(0.25 * tol / max(1.0, chord if np.isfinite(chord) else 1.0),
                    4.0 * np.finfo(float).eps * abs(cur.t))
        sbis = (blk.t - cur.t) / 2.0
        step = sbis
        if abs(spre) > delta and abs(cur.f) < abs(pre.f) and np.isfinite(pre.f) and np.isfinite(blk.f):
            if pre.t == blk.t:  # secant
                trial = -cur.f * (cur.t - pre.t) / (cur.f - pre.f)
            else:  # inverse quadratic interpolation
                dpre = (pre.f - cur.f) / (pre.t - cur.t)
                dblk = (blk.f - cur.f) / (blk.t - cur.t)
                trial = -cur.f * (blk.f * dblk - pre.f * dpre) / (dblk * dpre * (blk.f - pre.f))
            if 2.0 * abs(trial) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, step = scur, trial
            else:
                spre = sbis
        else:
            spre = sbis
        scur = step
        pre = cur
        cur = scaling(cur.t + (step if abs(step) > delta else math.copysign(delta, sbis)))
        if (cur.f > 0.0) != (pre.f > 0.0):
            blk = pre
            spre = scur = cur.t - pre.t


def lebesgue_norm(u, pbar, grid, region=None, tol: float = 1e-10) -> NormResult:
    return luxemburg_norm(lambda lam: lebesgue_modular(u / lam, pbar, grid, region).value, tol)


def sobolev_seminorm(u, field, s, grid, region=None, tol: float = 1e-10) -> NormResult:
    # the Gagliardo modular of u / lam is sum_p T_p lam^(-p), one term per distinct exponent; exp of
    # a product costs less than a power, and at lam = 1 the modular is exactly sum_p T_p
    terms, p = region_pair_terms(u, field, s, grid, region)
    return luxemburg_norm(lambda lam: float(np.sum(terms * np.exp(p * -math.log(lam)))), tol)
