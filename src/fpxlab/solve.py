"""Energy minimisation over interior nodal values with fixed collar data.

The discrete energy is convex and continuously differentiable for exponent
bounds above 1 (the map t -> |t|^(p-2) t extends by 0 at t = 0), so
first-order descent with a backtracking line search converges from any
start.  The descent is preconditioned by one dense matrix on the interior
nodes, held as a Cholesky factor: the Hessian of the same kernel's energy at
p = 2 for the first step, then the Hessian at the current iterate (its
pair differences lifted by a small floor), rebuilt at iterations 1, 4, 16,
64, ...  For a constant p = 2 the energy is that quadratic, and the first
unit step solves it exactly.  Steps are proposed with alternating
Barzilai-Borwein scalars in the current metric, restarted at the unit step
after each rebuild, and halved until the energy does not rise and an Armijo
decrease is seen in it or certified by the gradient at the trial point (see
:func:`descend`); the recorded energy history is non-increasing.  No
smoothing of the gradient kernel is introduced, so constant data is solved
exactly in zero descent steps.

Convergence is declared on the weighted nodal residual
max_i |m_i L(u)_i| (see :func:`operators.weighted_residual`), which is stable
under mesh refinement, rather than on the raw gradient.

:func:`minimize` reads no configuration: it takes the grid, the field, the
order s, the nodal exterior data and its two stopping values as arguments,
as ``fpxlab solve`` has them from :func:`config.parse_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField
from .grid import Grid
from .operators import PairKernel, weighted_residual

__all__ = [
    "SolveResult",
    "NonConvergenceError",
    "MaxPrincipleReport",
    "minimize",
    "descend",
    "comparison_check",
    "exterior_data",
    "parse_exterior",
]


ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
STEP0 = 1.0  # first trial step
BACKTRACK = 0.5  # step reduction factor after a rejected trial
ROUNDING = 16 * np.finfo(float).eps  # relative float64 error of a computed energy (measured: under 2 eps)
REFRESH = 4  # the metric is rebuilt at the iterate at iterations 1, 4, 16, 64, ...
FACTOR_BLOCK = 128  # rows per diagonal block of the blocked triangular solves


class NonConvergenceError(RuntimeError):
    """Raised when the iteration budget runs out; carries the partial result."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class SolveResult:
    u: np.ndarray
    iterations: int
    final_residual: float
    energy_history: np.ndarray


def parse_exterior(spec: str) -> tuple:
    """Kind and number of an exterior data spec (see :func:`exterior_data`).

    The number is None for ``linear`` and ``sign``.  Raises ValueError for
    an unknown kind or a number that does not parse or is not finite.
    """
    kind, colon, arg = spec.partition(":")
    if kind in ("linear", "sign") and not colon:
        return kind, None
    if kind in ("constant", "sine", "random") and colon and math.isfinite(float(arg)):
        return kind, float(arg)
    raise ValueError(f"unknown exterior data spec {spec!r}")


def exterior_data(spec: str, grid: Grid, seed: int = 0) -> np.ndarray:
    """Nodal collar data from a textual spec.

    ``constant:<v>`` | ``linear`` (first coordinate) | ``sign`` |
    ``sine:<k>`` | ``random:<amp>`` (seeded trigonometric polynomial, sup
    bounded by amp).  Values are produced on every node; the solver only
    reads the collar entries.
    """
    kind, value = parse_exterior(spec)
    x = grid.nodes[:, 0]
    if kind == "constant":
        return np.full(grid.n_nodes, value)
    if kind == "linear":
        return x.copy()
    if kind == "sign":
        return np.sign(x)
    if kind == "sine":
        return np.sin(value * x)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, 4))
    waves = sum(
        coeffs[0, k] * np.sin((k + 1) * 0.7 * x) + coeffs[1, k] * np.cos((k + 1) * 0.7 * x)
        for k in range(4)
    )
    scale = np.max(np.abs(waves))
    return value * waves / scale if scale > 0 else np.zeros_like(waves)


class Cholesky:
    """A symmetric positive definite matrix A = L L^T, applied as A^-1 by blocked substitution.

    numpy has no triangular solve, so the diagonal blocks of L
    (``FACTOR_BLOCK`` rows) are inverted once, and each solve runs forward
    and back over the blocks with one product by an inverted block and one
    by the panel of L beside it.
    """

    def __init__(self, matrix: np.ndarray):
        self.lower = np.linalg.cholesky(matrix)
        n = len(matrix)
        self.parts = [slice(k, min(k + FACTOR_BLOCK, n)) for k in range(0, n, FACTOR_BLOCK)]
        self.inverses = [np.linalg.inv(self.lower[part, part]) for part in self.parts]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs: L y = rhs forward, then L^T x = y backward."""
        lower, y = self.lower, np.empty_like(rhs)
        for part, inverse in zip(self.parts, self.inverses):
            y[part] = inverse @ (rhs[part] - lower[part, : part.start] @ y[: part.start])
        x = np.empty_like(rhs)
        for part, inverse in zip(reversed(self.parts), reversed(self.inverses)):
            x[part] = (y[part] - x[part.stop :] @ lower[part.stop :, part]) @ inverse
        return x


def descend(kernel: PairKernel, u0: np.ndarray, grad_tol: float, max_iter: int):
    """Barzilai-Borwein descent on interior values in a metric rebuilt at the iterate.

    The metric A starts as the Hessian of the kernel's energy at p = 2
    (:meth:`PairKernel.p2_hessian`).  At iterations 1, 4, 16, 64, ...
    (``REFRESH``) the old factor is freed and A is rebuilt at the current
    iterate, ``p2_hessian(u)``: the Hessian of F at u with every pair
    difference lifted by a fraction of the range of u.  A is held as its
    :class:`Cholesky` factor.  A trial step u - t z along z = A^-1 g is
    accepted when its energy change dF = F(trial) - F(u) is not positive and
    either dF <= -ARMIJO t g . z or gradient(trial) . z >= ARMIJO g . z; F
    is convex, so the latter certifies the same decrease.
    Otherwise the step is halved.  dF is the difference of the two computed
    energies or, where that lies within their rounding (ROUNDING), the
    pair-by-pair :meth:`PairKernel.energy_change`, which resolves changes far
    below one ulp of F.  With a constant p = 2 the first unit step is the
    exact minimiser.  The first step and the first after each rebuild are
    t = 1; later steps alternate the two Barzilai-Borwein scalars of the
    A-metric, the long (du . A du) / (du . dg) with du . A du = t^2 g .
    z, and the short (du . dg) / (dg . A^-1 dg) with dg . A^-1 dg = g' . z' -
    2 g' . z + g . z, primes marking the new iterate.  The history starts at
    F(u0) and adds each accepted dF, so it rises only if a rising step is
    accepted.

    Returns (u, history, residual, iterations), u the best-residual iterate
    seen.  Stops when the residual meets grad_tol, when 60 backtracks find no
    acceptable step or an accepted step no longer moves u, or after max_iter
    iterations; minimize wraps this with the non-convergence contract.
    """
    free = kernel.grid.interior
    factor = Cholesky(kernel.p2_hessian())
    refresh = 1
    u = u0.copy()
    energy = kernel.energy(u)
    history = [energy]
    g = kernel.gradient(u)
    step = STEP0
    last = None  # du . dg, g . z and gradient(trial) . z of the last accepted step
    best_u, best_residual = u, math.inf

    for it in range(max_iter + 1):
        residual = weighted_residual(kernel.grid, g)
        if residual < best_residual:
            best_u, best_residual = u, residual
        if best_residual <= grad_tol or it == max_iter:
            break

        if it == refresh:
            factor = None  # freed before the new matrix is assembled
            factor = Cholesky(kernel.p2_hessian(u))
            refresh *= REFRESH
            step, last = STEP0, None
        z = factor.solve(g[free])
        gz = float(g[free] @ z)
        if last is not None and last[0] > 0:
            dudg, last_gz, slope = last
            dgdg = gz - 2.0 * slope + last_gz  # dg . A^-1 dg
            if it % 2:
                step = step * step * last_gz / dudg  # long: du . A du / du . dg
            elif dgdg > 0:
                step = dudg / dgdg  # short: du . dg / dg . A^-1 dg
            step = min(max(step, 1e-12), 1e12)
        for _ in range(60):
            trial = u.copy()
            trial[free] = u[free] - step * z
            trial_energy = kernel.energy(trial)
            change = trial_energy - energy
            if abs(change) <= ROUNDING * energy:
                change = kernel.energy_change(u, trial)
            if change <= 0.0:
                trial_g = kernel.gradient(trial)
                slope = float(trial_g[free] @ z)
                if change <= -ARMIJO * step * gz or slope >= ARMIJO * gz:
                    break
            step *= BACKTRACK
        else:
            break  # no certified descent step is left in float64
        if np.array_equal(trial, u):
            break  # the step is below the float64 resolution of u
        last = step * (gz - slope), gz, slope
        u, g, energy = trial, trial_g, trial_energy
        history.append(history[-1] + change)

    return best_u, np.asarray(history), best_residual, it


def minimize(grid: Grid, field: ExponentField, s: float, g: np.ndarray,
             grad_tol: float, max_iter: int) -> SolveResult:
    """Minimise the energy of order ``s`` on ``grid`` with exterior data ``g``.

    Collar values are pinned to ``g``; interior values start from the
    mean of the collar data and descend the energy on one
    :class:`PairKernel` (see :func:`descend`) until the weighted nodal
    residual drops below ``grad_tol``.  A constant p = 2 field is solved by
    the first step.  A descent that stops above ``grad_tol`` (``max_iter``
    spent or no acceptable step left) raises :class:`NonConvergenceError`
    carrying the partial result.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g[grid.exterior])):
        raise ValueError("exterior data must be finite on the collar")

    u0 = g.copy()
    u0[grid.interior] = np.mean(g[grid.exterior])
    kernel = PairKernel(grid, field, s)
    u, history, residual, iters = descend(kernel, u0, grad_tol, max_iter)
    result = SolveResult(u=u, iterations=iters, final_residual=residual, energy_history=history)
    if residual > grad_tol:
        raise NonConvergenceError(
            f"residual {residual:.3e} above tolerance {grad_tol:.3e} "
            f"after {iters} iterations", result,
        )
    return result


@dataclass
class MaxPrincipleReport:
    passed: bool
    lower: float
    upper: float
    worst_node: np.ndarray
    excess: float


def comparison_check(u: np.ndarray, grid: Grid, g: np.ndarray) -> MaxPrincipleReport:
    """Discrete maximum principle: interior values within the collar range, up to 1e-8."""
    lo = float(np.min(g[grid.exterior]))
    hi = float(np.max(g[grid.exterior]))
    inner = u[grid.interior]
    over = inner - hi
    under = lo - inner
    excess = np.maximum(over, under)
    k = int(np.argmax(excess))
    return MaxPrincipleReport(
        passed=bool(excess[k] <= 1e-8),
        lower=lo,
        upper=hi,
        worst_node=grid.nodes[grid.interior][k].copy(),
        excess=float(excess[k]),
    )
