"""Quantitative regularity diagnostics for discrete solutions.

Implements level truncations, the level-set energy (Caccioppoli-type)
estimate with an explicit constant traced through its proof chain, the
constant of the pointwise algebraic inequality that drives it, the
geometric iteration lemma with its exact smallness threshold and decay
bound, the quantitative supremum bound, growth-lemma hypothesis/conclusion
checking with a calibrated positivity constant, the sublevel-set energy
bound, and a dyadic oscillation fit that estimates a Holder exponent
empirically.

Constants come in two kinds and the reports keep them apart: constants the
theory makes explicit (the algebraic inequality constant, the assembled
level-set estimate constant) are asserted hard; constants the theory only
asserts to exist (supremum bound, sublevel bound, growth threshold) are
fitted and reported, with mesh-refinement stability as their only testable
property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, ProductExtrema, extrema_over_product
from .grid import Grid, GridGeometryError, ball_mask
from .operators import _tail_sums, add_fluxes, pair_blocks, tail
from .spaces import region_pair_terms

__all__ = [
    "truncate_level",
    "algebraic_constant",
    "CaccioppoliReport",
    "caccioppoli_report",
    "DeGiorgiParams",
    "DeGiorgiRun",
    "degiorgi_iterate",
    "SupBoundReport",
    "sup_bound_check",
    "GrowthScenario",
    "GrowthReport",
    "growth_lemma_check",
    "calibrate_growth_delta",
    "SublevelReport",
    "sublevel_energy_check",
    "HolderFit",
    "holder_exponent_fit",
    "ResolutionError",
]


class ResolutionError(ValueError):
    """The grid cannot resolve enough dyadic levels for an oscillation fit."""


# ---------------------------------------------------------------------------
# level truncations
# ---------------------------------------------------------------------------


def truncate_level(u: np.ndarray, k: float, sign: str = "plus") -> np.ndarray:
    """Nodal (u - k)_+ or (u - k)_-; both are nonnegative."""
    if sign == "plus":
        return np.maximum(u - k, 0.0)
    if sign == "minus":
        return np.maximum(k - u, 0.0)
    raise ValueError("sign must be plus or minus")


# ---------------------------------------------------------------------------
# pointwise algebraic inequality
# ---------------------------------------------------------------------------


def algebraic_constant(p_minus: float, p_plus: float) -> float:
    """Explicit constant (p_+ / p_-) (2 p_+)^(p_+ - 1) of the cutoff inequality."""
    if not 1.0 < p_minus <= p_plus:
        raise ValueError("need 1 < p_minus <= p_plus")
    return (p_plus / p_minus) * (2.0 * p_plus) ** (p_plus - 1.0)


# ---------------------------------------------------------------------------
# level-set energy estimate
# ---------------------------------------------------------------------------


@dataclass
class CaccioppoliReport:
    level: float
    r: float
    R: float
    lhs_modular: float
    lhs_cross: float
    rhs_local: float
    rhs_tail: float
    c_explicit: float
    c_empirical: float
    weak_form_value: float
    satisfied: bool
    p_minus: float
    p_plus: float


def caccioppoli_report(u: np.ndarray, field: ExponentField, s: float, grid: Grid,
                       x0, r: float, R: float, k, extrema: ProductExtrema | None = None):
    """Level-set energy estimate for w_+ = (u - k)_+ on B_r within B_R.

    ``k`` is one level, giving one report, or a sequence of levels, giving a
    list of reports from one sweep: the pair selections, the flat kernel,
    the far kernel, the ball exponents and the cut-off do not depend on the
    level.

    All pair sums run over the grid's admissible interaction set, which is
    exactly the set the discrete weak form controls; with the interaction
    radius covering 2R they coincide with the unrestricted region sums.  The
    far term sums every grid node outside B_R against the recentred kernel
    weight (2R/(R-r))^(dim + s p) / |y - x0|^(dim + s p), a superset of the
    admissible far pairs, so the bound direction is preserved.

    The sums stream the admissible pairs that touch B_R from
    :func:`~fpxlab.operators.pair_blocks`, block by block, and keep no pair
    table: every summed pair has its node ``i`` in B_R.  The weak-form
    gradient adds each block's fluxes to their nodes in pair order, so at
    every node of B_R it is the kernel's gradient bit for bit.  ``extrema``
    are the exponent extrema over B_R x B_R, computed when not given.

    ``c_explicit`` is assembled from the proof chain: the algebraic-
    inequality constant against the cutoff slope bound (Lipschitz constant
    <= 2/(R-r) <= 4/(R-r) budget), and the branch constants 1/2 and
    min(1, 2^(p_- - 2)).  For an exact discrete solution the estimate is
    guaranteed; ``weak_form_value`` records the residual pairing E(u, w_+ eta)
    so near-solutions are judged with their own slack, and ``satisfied``
    asserts lhs <= c_explicit * rhs + [E]_+ / c_branch.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not 0.0 < r < R:
        raise GridGeometryError("need 0 < r < R")
    inner = ball_mask(grid, x0, r)
    outer = ball_mask(grid, x0, R)

    ext = extrema_over_product(field, grid.nodes[outer], grid.nodes[outer]) if extrema is None else extrema
    p_minus, p_plus = ext.p_minus, ext.p_plus
    c_branch = min(0.5, 2.0 ** (p_minus - 2.0))
    c_explicit = max(2.0**p_plus * algebraic_constant(p_minus, p_plus), 2.0) / c_branch

    levels = [k] if np.ndim(k) == 0 else list(k)
    w_plus = np.array([truncate_level(u, level, "plus") for level in levels])
    w_minus = np.array([truncate_level(u, level, "minus") for level in levels])
    wr = w_plus / (R - r)

    # the pair sums of the estimate, one value per level
    def modular(a, b, p, coeff):
        return [np.sum(coeff * np.abs(wp[a] - wp[b]) ** p) for wp in w_plus]

    def cross(a, b, p, coeff):
        e = p - 1.0
        return [np.sum(coeff * wp[a] * wm[b] ** e) for wp, wm in zip(w_plus, w_minus)]

    def flat(a, b, p, coeff):
        dist = np.sqrt(np.sum((grid.nodes[a] - grid.nodes[b]) ** 2, axis=-1))
        kern = dist ** ((1.0 - s) * p - grid.dim)
        return [np.sum((wl[a] ** p + wl[b] ** p) * kern) for wl in wr]

    # (sum, terms, a in, b in, orientation): each unordered pair enters the
    # ordered-pair sums in both orientations; cross pairs (a, b) have a in B_r and b in B_R
    selections = ((0, modular, inner, inner, False), (1, cross, inner, outer, False),
                  (1, cross, inner, outer, True), (2, flat, outer, outer, False))
    sums = np.zeros((3, len(levels)))  # per level: modular, cross and flat (local) pair sums
    out, into = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)  # the weak form's gradient, as the kernel's
    _, blocks = pair_blocks(grid, field, s, touching=outer)
    for i, j, p, coeff in blocks:
        add_fluxes(out, into, u, i, j, p, coeff)
        for row, terms, first, second, swap in selections:
            a, b = (j, i) if swap else (i, j)
            sel = first[a] & second[b]
            sums[row] += terms(a[sel], b[sel], p[sel], coeff[sel])
        del i, j, p, coeff, a, b  # the block is freed before the next one is made

    # far factor: the tail of w_+ beyond B_R, sup over B_((R+r)/2)
    _, far_sums = _tail_sums(grid, field, s, x0, R, (R + r) / 2.0, w_plus, reach=2.0 * R / (R - r))
    # the proof's own test function is w_+ times this cut-off
    dist0 = np.sqrt(np.sum((grid.nodes - x0) ** 2, axis=1))
    cutoff = np.clip(((R + r) / 2.0 - dist0) / ((R - r) / 2.0), 0.0, 1.0) ** p_plus
    cutoff[~grid.interior] = 0.0
    gradient = out - into
    weak_values = [float(gradient @ phi) for phi in w_plus * cutoff]

    reports = []
    for n, level in enumerate(levels):
        lhs_modular, lhs_cross = 2.0 * float(sums[0, n]), float(sums[1, n])
        lhs = lhs_modular + lhs_cross
        local = float(grid.measure**2 * sums[2, n])
        far = float(np.max(far_sums[n])) * float(grid.measure * np.sum(w_plus[n][outer]))
        rhs = c_explicit * (local + far) + max(weak_values[n], 0.0) / c_branch
        reports.append(CaccioppoliReport(
            level=float(level), r=float(r), R=float(R),
            lhs_modular=lhs_modular, lhs_cross=lhs_cross,
            rhs_local=local, rhs_tail=far,
            c_explicit=float(c_explicit), c_empirical=float(lhs / (local + far) if local + far > 0 else 0.0),
            weak_form_value=float(weak_values[n]),
            satisfied=bool(lhs <= rhs + 1e-12 * (1.0 + rhs)),
            p_minus=float(p_minus), p_plus=float(p_plus),
        ))
    return reports[0] if np.ndim(k) == 0 else reports


# ---------------------------------------------------------------------------
# geometric iteration lemma
# ---------------------------------------------------------------------------


@dataclass
class DeGiorgiParams:
    C: float
    b: float
    betas: tuple
    y0: float

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("need C >= 1")
        if self.b <= 1.0:
            raise ValueError("need b > 1")
        betas = tuple(float(x) for x in self.betas)
        if not betas or any(x <= 0 for x in betas):
            raise ValueError("betas must be positive")
        if any(a < b for a, b in zip(betas, betas[1:])):
            raise ValueError("betas must be non-increasing")
        object.__setattr__(self, "betas", betas)
        if self.y0 < 0:
            raise ValueError("need Y0 >= 0")

    @property
    def threshold(self) -> float:
        """Largest starting value for which the decay bound is guaranteed."""
        b_last = self.betas[-1]
        b_first = self.betas[0]
        return min(
            self.C ** (-1.0 / b_last) * self.b ** (-1.0 / b_last**2),
            self.C ** (-1.0 / b_first),
        )

    def decay_bound(self, j) -> np.ndarray:
        b_last = self.betas[-1]
        j = np.asarray(j, dtype=float)
        return self.C ** (-1.0 / b_last) * self.b ** (-1.0 / b_last**2 - j / b_last)


@dataclass
class DeGiorgiRun:
    params: DeGiorgiParams
    ys: np.ndarray
    bounds: np.ndarray
    threshold: float
    threshold_met: bool
    bound_holds: bool
    max_excess: float


def degiorgi_iterate(params: DeGiorgiParams, j_max: int) -> DeGiorgiRun:
    """Simulate the worst-case recursion Y_{j+1} = C b^j max_i Y_j^(1+beta_i).

    When Y0 meets the smallness threshold, asserts the geometric decay bound
    Y_j <= C^(-1/beta_N) b^(-1/beta_N^2 - j/beta_N) for every simulated j.
    Simulation runs in extended precision so sixty-odd levels of decay stay
    representable.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    betas = np.array(params.betas, dtype=np.longdouble)
    ys = np.empty(j_max + 1, dtype=np.longdouble)
    ys[0] = np.longdouble(params.y0)
    c = np.longdouble(params.C)
    b = np.longdouble(params.b)
    with np.errstate(over="ignore"):  # runs above threshold may blow up
        for j in range(j_max):
            ys[j + 1] = c * b ** np.longdouble(j) * np.max(ys[j] ** (1.0 + betas))
    bounds = params.decay_bound(np.arange(j_max + 1))
    met = params.y0 <= params.threshold * (1 + 1e-15)
    with np.errstate(over="ignore"):  # diverging runs overflow float64 harmlessly
        ys64 = ys.astype(float)
    excess = float(np.max(ys64 - bounds))
    return DeGiorgiRun(
        params=params,
        ys=ys64,
        bounds=bounds,
        threshold=float(params.threshold),
        threshold_met=bool(met),
        bound_holds=bool(met and excess <= 1e-12),
        max_excess=excess,
    )


# ---------------------------------------------------------------------------
# quantitative supremum bound
# ---------------------------------------------------------------------------


@dataclass
class SupBoundReport:
    applicable: bool
    radius: float
    q: float
    p_minus: float
    p_plus: float
    lhs_sup: float
    average_term: float
    tail_term: float
    c_empirical: float
    reason: str = ""


def sup_bound_check(u: np.ndarray, field: ExponentField, s: float, grid: Grid, x0,
                    sigma: float, radius: float | None = None,
                    extrema: ProductExtrema | None = None) -> SupBoundReport:
    """Bound sup u over B_(R/2) by averages of u_+ plus tail and unit terms.

    The working radius shrinks from ``radius`` (default: most of the room
    available at x0) through a geometric ladder until the ball exponents
    satisfy p_+ < p_-^* = dim p_- / (dim - sigma p_-), taking the largest
    admissible sampled radius, with q placed mid-way inside its admissible
    window.  The bound's constant is existential, so the report only fits
    it: ``c_empirical`` is the smallest constant the instance supports.
    ``extrema`` are the exponent extrema over B_R x B_R for the given
    ``radius``, which the first rung then takes instead of computing them.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not 0.0 < sigma < s < 1.0:
        raise ValueError("need 0 < sigma < s < 1")
    r_start = 0.95 * grid.room(x0) if radius is None else float(radius)

    chosen = None
    for t in range(16):
        rt = r_start * 0.75**t
        if rt < 2 * grid.h:
            break
        sel = ball_mask(grid, x0, rt)
        if np.count_nonzero(sel) < 5:
            break
        if t == 0 and radius is not None and extrema is not None:
            ext = extrema
        else:
            ext = extrema_over_product(field, grid.nodes[sel], grid.nodes[sel])
        if sigma * ext.p_minus >= grid.dim:
            continue
        p_star = grid.dim * ext.p_minus / (grid.dim - sigma * ext.p_minus)
        q_low = max(ext.p_plus, grid.dim / (grid.dim - sigma))
        qt = 0.5 * (q_low + p_star)
        if ext.p_plus < p_star and q_low < qt < p_star:
            chosen = (rt, qt, ext.p_minus, ext.p_plus)
            break
    if chosen is None:
        return SupBoundReport(False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                              reason="no admissible radius/q on the grid")
    rt, qt, p_minus, p_plus = chosen

    half = ball_mask(grid, x0, rt / 2.0)
    outer = ball_mask(grid, x0, rt)
    lhs_sup = float(np.max(u[half]))
    u_plus = np.maximum(u, 0.0)
    avg = float(np.sum(u_plus[outer] ** p_plus) / np.count_nonzero(outer))
    average_term = max(avg ** (1.0 / p_plus),
                       avg ** ((qt - p_minus) / (p_minus * (qt - p_plus))))
    t_rep = tail(grid, field, s, u, x0, rt / 2.0, "plus", sup_radius=rt)
    tail_term = t_rep.value ** (1.0 / (p_plus - 1.0))
    numer = max(lhs_sup - tail_term - 1.0, 0.0)
    c_emp = numer / average_term if average_term > 0 else 0.0
    return SupBoundReport(
        applicable=True, radius=float(rt), q=float(qt),
        p_minus=float(p_minus), p_plus=float(p_plus),
        lhs_sup=lhs_sup, average_term=float(average_term), tail_term=float(tail_term),
        c_empirical=float(c_emp),
    )


# ---------------------------------------------------------------------------
# growth lemma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthScenario:
    x0: tuple
    radius: float
    H: float
    delta: float
    gamma: float
    sigma: float

    def __post_init__(self):
        if self.H <= 0:
            raise ValueError("need H > 0")
        if not 0.0 < self.delta <= 0.125:
            raise ValueError("need delta in (0, 1/8]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("need gamma in (0, 1)")
        if not 0.0 < self.radius < 1.0:
            raise ValueError("need radius in (0, 1)")


@dataclass
class GrowthReport:
    scenario: GrowthScenario
    hypotheses: dict
    hypotheses_met: bool
    conclusion_holds: bool
    failed: list
    p_minus: float
    p_plus: float


_GROWTH_TOL = 1e-12  # absolute slack of every growth-lemma comparison


def growth_lemma_check(u: np.ndarray, field: ExponentField, s: float, grid: Grid,
                       scenario: GrowthScenario, extrema: ProductExtrema | None = None) -> GrowthReport:
    """Verify growth-lemma hypotheses on the grid and test its conclusion.

    Hypotheses: 0 <= u <= 2H on B_R; u >= H on at least a gamma-fraction of
    B_(R/2) by measure; H^(p_+ - p_-) <= 2; p_+ < p_-^*; R^s <= delta H; and
    the far-field smallness bound on the negative part.  When all hold, the
    conclusion min u >= delta H over B_(R/4) is asserted; otherwise the
    failing hypotheses are reported and nothing is claimed.  The scenario's
    sigma must lie in (0, s) for the order ``s`` of the check.  ``extrema``
    are the exponent extrema over B_R x B_R, computed when not given.
    """
    if not 0.0 < scenario.sigma < s < 1.0:
        raise ValueError("need 0 < sigma < s < 1")
    x0 = np.atleast_1d(np.asarray(scenario.x0, dtype=float))
    R, H, delta = scenario.radius, scenario.H, scenario.delta

    b_full = ball_mask(grid, x0, R)
    b_half = ball_mask(grid, x0, R / 2.0)
    ext = extrema_over_product(field, grid.nodes[b_full], grid.nodes[b_full]) if extrema is None else extrema
    p_minus, p_plus = ext.p_minus, ext.p_plus

    checks = {}
    tol = _GROWTH_TOL
    umin, umax = float(np.min(u[b_full])), float(np.max(u[b_full]))
    checks["range"] = (umin >= -tol and umax <= 2.0 * H + tol, {"min": umin, "max": umax, "cap": 2.0 * H})
    frac = float(np.count_nonzero(u[b_half] >= H) / np.count_nonzero(b_half))
    # an exact ratio of node counts, so compared with no slack
    checks["mass_fraction"] = (frac >= scenario.gamma, {"fraction": frac, "gamma": scenario.gamma})
    spread = H ** (p_plus - p_minus)
    checks["exponent_spread"] = (spread <= 2.0 + tol, {"value": spread})
    if scenario.sigma * p_minus < grid.dim:
        p_star = grid.dim * p_minus / (grid.dim - scenario.sigma * p_minus)
        checks["subcritical"] = (p_plus < p_star, {"p_plus": p_plus, "p_star": p_star})
    else:
        checks["subcritical"] = (False, {"p_plus": p_plus, "p_star": math.inf})
    checks["scale"] = (R**s <= delta * H + tol, {"value": R**s, "bound": delta * H})
    t_value = tail(grid, field, s, u, x0, R, "minus", sup_radius=0.75 * R).value
    t_bound = R ** (-s * p_plus) * (delta * H) ** (p_plus - 1.0) \
        + R ** (-s * p_minus) * (delta * H) ** (p_minus - 1.0)
    checks["tail"] = (t_value <= t_bound + tol, {"value": t_value, "bound": t_bound})
    quarter_min = float(np.min(u[ball_mask(grid, x0, R / 4.0)]))

    return GrowthReport(
        scenario=scenario,
        hypotheses={k: {"ok": ok, **info} for k, (ok, info) in checks.items()},
        hypotheses_met=all(ok for ok, _ in checks.values()),
        conclusion_holds=bool(quarter_min >= delta * H - tol),
        failed=[k for k, (ok, _) in checks.items() if not ok],
        p_minus=float(p_minus),
        p_plus=float(p_plus),
    )


def calibrate_growth_delta(u: np.ndarray, field: ExponentField, s: float, grid: Grid,
                           x0, radius: float, sigma: float, extrema: ProductExtrema | None = None):
    """Find the largest positivity constant delta that the instance supports.

    H and gamma are measured from the data (H = sup u / 2 over the ball,
    gamma = the measured mass fraction at level H).  Only the scale and
    tail hypotheses and the conclusion depend on delta: both hypotheses
    bound delta from below, and the conclusion min_(B_R/4) u >= delta H - tol
    bounds it from above.  The feasible deltas in (0, 1/8] therefore form an
    interval whose top end, if any delta is feasible, is
    min(1/8, (min_(B_R/4) u + tol) / H), stepped down by an ulp where
    rounding breaks the conclusion.  One growth check at that value decides
    feasibility.  Returns delta (None when the check fails) and the growth
    report at delta, or at 1/8 when the formula gives no positive value.
    ``extrema`` are passed on to :func:`growth_lemma_check`.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    b_full = ball_mask(grid, x0, radius)
    b_half = ball_mask(grid, x0, radius / 2.0)
    h_level = float(np.max(u[b_full])) / 2.0
    if h_level <= 0:
        raise ValueError("calibration needs a positive supremum on the ball")
    frac = float(np.count_nonzero(u[b_half] >= h_level) / np.count_nonzero(b_half))
    gamma = min(max(frac, 1e-6), 1.0 - 1e-6)
    quarter_min = float(np.min(u[ball_mask(grid, x0, radius / 4.0)]))

    delta = min(0.125, (quarter_min + _GROWTH_TOL) / h_level)
    while delta > 0 and quarter_min < delta * h_level - _GROWTH_TOL:
        delta = float(np.nextafter(delta, 0.0))
    scenario = GrowthScenario(x0=tuple(x0), radius=radius, H=h_level,
                              delta=delta if delta > 0 else 0.125, gamma=gamma, sigma=sigma)
    report = growth_lemma_check(u, field, s, grid, scenario, extrema)
    feasible = report.hypotheses_met and report.conclusion_holds
    return (delta if feasible else None), report


# ---------------------------------------------------------------------------
# sublevel-set energy bound
# ---------------------------------------------------------------------------


@dataclass
class SublevelReport:
    level: float
    radius: float
    lhs: float
    envelope: float
    sublevel_measure: float
    c_empirical: float


def sublevel_energy_check(u: np.ndarray, field: ExponentField, s: float, grid: Grid,
                          x0, radius: float, level: float, sigma: float, q: float,
                          extrema: ProductExtrema | None = None) -> SublevelReport:
    """Constant-exponent seminorm of (u - level)_- against sublevel mass.

    lhs = [(u - level)_-]^q in the order-sigma, exponent-q Gagliardo sense
    over B_(R/2); the competing envelope is level^q R^(-sigma q) times the
    largest of |A|, |A|^(1 + q/p_- - q/p_+), |A|^(1 + q/p_+ - q/p_-) where
    A collects B_R nodes strictly below the level (ties count as not
    below).  The constant is existential, so the report only fits it:
    ``c_empirical`` = lhs / envelope.  ``extrema`` are the exponent extrema
    over B_R x B_R, computed when not given.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    b_full = ball_mask(grid, x0, radius)
    b_half = ball_mask(grid, x0, radius / 2.0)
    ext = extrema_over_product(field, grid.nodes[b_full], grid.nodes[b_full]) if extrema is None else extrema
    if not 1.0 <= q < ext.p_minus:
        raise ValueError("need 1 <= q < p_- on the ball")

    terms, _ = region_pair_terms(truncate_level(u, level, "minus"), q, sigma, grid, b_half)
    lhs = float(np.sum(terms))

    a_measure = float(np.count_nonzero(u[b_full] < level)) * grid.measure
    envelope = max(a_measure,
                   a_measure ** (1.0 + q / ext.p_minus - q / ext.p_plus),
                   a_measure ** (1.0 + q / ext.p_plus - q / ext.p_minus)) if a_measure > 0 else 0.0
    denom = level**q * radius ** (-sigma * q) * envelope
    c_emp = lhs / denom if denom > 0 else 0.0
    return SublevelReport(
        level=float(level), radius=float(radius), lhs=lhs, envelope=float(denom),
        sublevel_measure=a_measure, c_empirical=float(c_emp),
    )


# ---------------------------------------------------------------------------
# dyadic oscillation fit
# ---------------------------------------------------------------------------


@dataclass
class HolderFit:
    center: np.ndarray
    radius: float
    radii: np.ndarray
    oscillations: np.ndarray
    alpha: float
    residual: float
    defined: bool


def holder_exponent_fit(u: np.ndarray, grid: Grid, x0, radius: float) -> HolderFit:
    """Least-squares slope of log oscillation against log radius, ratio 4.

    Oscillations are max - min of u over the nested balls B_(4^-j R),
    j = 0, ..., 8.  At least three dyadic levels must stay above twice the
    node spacing; otherwise the fit would see mostly quadrature noise and a
    :class:`ResolutionError` is raised.  ``defined`` is false for data that
    is constant on the base ball.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    base = u[ball_mask(grid, x0, radius)]  # the domain rule comes before the resolution check
    radii = []
    for j in range(9):
        rj = radius * 4.0**-j
        if rj < 2.0 * grid.h:
            break
        radii.append(rj)
    if len(radii) < 3:
        raise ResolutionError(
            f"only {len(radii)} dyadic levels above 2h; refine the grid or enlarge the ball")
    radii = np.array(radii)
    balls = [base] + [u[ball_mask(grid, x0, rj)] for rj in radii[1:]]
    osc = np.array([float(np.max(ball) - np.min(ball)) for ball in balls])
    if osc[0] == 0.0:
        return HolderFit(x0, radius, radii, osc, math.nan, math.nan, False)
    keep = osc > 0
    if np.count_nonzero(keep) < 2:
        return HolderFit(x0, radius, radii, osc, math.nan, math.nan, False)
    logs_r = np.log(radii[keep])
    logs_o = np.log(osc[keep])
    slope, intercept = np.polyfit(logs_r, logs_o, 1)
    fit = slope * logs_r + intercept
    residual = float(np.sqrt(np.mean((fit - logs_o) ** 2)))
    return HolderFit(x0, radius, radii, osc, float(slope), residual, True)
