"""Variable exponents p(x, y) and their admissibility diagnostics.

An exponent field is a symmetric function p on pairs of points with global
bounds 1 < p_min <= p(x, y) <= p_max < inf.  Three analytic presets and a
tabulated kind are provided:

``constant``
    p identically equal to a given value > 1.
``radial``
    p(x, y) = omega(|x - y|) where omega decreases from 3 (coincident
    points) to 2 at separation 1/e and then decays toward 3/2.  This field
    is log-Holder continuous in the pair variable and its exponent extrema
    over a ball compare favourably with extrema against the ball's
    complement (the exterior-comparison condition).
``product``
    p(x, y) = 3/2 + (|x|_c mu(|y|) + |y|_c mu(|x|)) / 2 with a double-log
    modulus mu and |.|_c = min(|.|, 1).  The modulus decays so slowly that
    log-Holder continuity fails near y = 0, yet the oscillation of p over
    any ball B inside the unit interval stays O(R), so the ball-oscillation
    quantity R^(p_- - p_+) remains bounded.
``tabulated``
    nearest-node lookup in a CSV table of (x, y, p) triples (1-D grids).

The condition checkers report structured :class:`ConditionReport` values and
never decide more than the sampled sets support: the ball-oscillation check
exposes the growth of its estimate under sample refinement instead of
claiming a true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

__all__ = [
    "ExponentField",
    "ConditionReport",
    "ProductExtrema",
    "OutOfDomainError",
    "constant_field",
    "radial_field",
    "product_field",
    "tabulated_field",
    "field_from_spec",
    "radial_profile",
    "slow_modulus",
    "extrema_over_product",
    "check_interior_oscillation",
    "check_exterior_comparison",
    "check_log_holder",
]

_E = math.e
_JUNCTION = 1.0 / math.e  # separation where the radial profile reaches 2


class OutOfDomainError(ValueError):
    """Evaluation outside the range covered by a tabulated field."""


def radial_profile(r):
    """Exponent profile omega(r) for the ``radial`` preset.

    omega(r) = 3 - min(-1/log r, 1) for r < 1/e and 3/2 + 1/(2 e r) beyond;
    both branches meet at omega(1/e) = 2 and omega(0+) = 3.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        inner = 3.0 - np.minimum(-1.0 / np.log(np.where(r > 0, r, 1e-300)), 1.0)
    outer = 1.5 + 1.0 / (2.0 * _E * np.where(r > 0, r, 1.0))
    out = np.where(r < _JUNCTION, inner, outer)
    out = np.where(r <= 0.0, 3.0, out)
    return out if out.ndim else float(out)


def slow_modulus(r):
    """Concave, bounded, increasing modulus with double-log decay at 0.

    mu(r) = 1 / log(e + log(1 + 1/r)); mu(0+) = 0, mu(inf) = 1.  Decay this
    slow makes mu(r) * log(1/r) -> inf, which is what defeats log-Holder
    continuity while keeping ball oscillations of the product preset tame.
    """
    r = np.asarray(r, dtype=float)
    safe = np.where(r > 0, r, 1.0)
    out = 1.0 / np.log(_E + np.log1p(1.0 / safe))
    out = np.where(r <= 0.0, 0.0, out)
    return out if out.ndim else float(out)


def _as_points(x) -> np.ndarray:
    """Coerce scalars / 1-D coordinates to an (..., dim) array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    return a


def _pair_square(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y|^2 over the last axis; the squared coordinates are added in order, as np.sum adds them."""
    squares = (x - y) ** 2
    total = squares[..., 0]
    for k in range(1, squares.shape[-1]):
        total = total + squares[..., k]
    return total


def _pair_norm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| over the last axis."""
    return np.sqrt(_pair_square(x, y))


@dataclass(frozen=True)
class ExponentField:
    """Symmetric variable exponent with global bounds.

    ``kind`` selects the preset; ``params`` holds its definition.  ``p_min``
    and ``p_max`` are the declared global bounds; every evaluation must fall
    inside [p_min, p_max] and eval(x, y) == eval(y, x) exactly.
    """

    kind: str
    p_min: float
    p_max: float
    params: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "radial", "product", "tabulated"):
            raise ValueError(f"unknown exponent field kind {self.kind!r}")
        if not (self.p_min > 1.0):
            raise ValueError("exponent lower bound must exceed 1")
        if not (self.p_max >= self.p_min):
            raise ValueError("exponent bounds out of order")

    # -- evaluation ----------------------------------------------------

    def eval(self, x, y):
        """Evaluate p at point pairs; x, y broadcast as (..., dim) arrays."""
        x = _as_points(x)
        y = _as_points(y)
        if self.kind == "constant":
            value = self.params["value"]
            out = np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), value)
        elif self.kind == "radial":
            out = np.asarray(radial_profile(_pair_norm(x, y)))
        elif self.kind == "product":
            out = self._eval_product(x, y)
        else:
            out = self._eval_tabulated(x, y)
        return out if out.ndim else float(out)

    def _eval_product(self, x, y):
        nx = np.sqrt(np.sum(x**2, axis=-1))
        ny = np.sqrt(np.sum(y**2, axis=-1))
        cx = np.minimum(nx, 1.0)
        cy = np.minimum(ny, 1.0)
        return 1.5 + 0.5 * (cx * slow_modulus(ny) + cy * slow_modulus(nx))

    def _eval_tabulated(self, x, y):
        if x.shape[-1] != 1 or y.shape[-1] != 1:
            raise ValueError("tabulated exponents are defined on 1-D points only")
        xs = self.params["xs"]
        table = self.params["table"]
        tol = self.params["tol"]
        xq = np.atleast_1d(x[..., 0])
        yq = np.atleast_1d(y[..., 0])
        shape = np.broadcast_shapes(xq.shape, yq.shape)
        xq = np.broadcast_to(xq, shape).ravel()
        yq = np.broadcast_to(yq, shape).ravel()
        ix = np.clip(np.searchsorted(xs, xq), 0, len(xs) - 1)
        iy = np.clip(np.searchsorted(xs, yq), 0, len(xs) - 1)
        # searchsorted returns the right neighbour; snap to the nearer node
        ix = np.where((ix > 0) & (np.abs(xs[np.maximum(ix - 1, 0)] - xq) <= np.abs(xs[ix] - xq)), ix - 1, ix)
        iy = np.where((iy > 0) & (np.abs(xs[np.maximum(iy - 1, 0)] - yq) <= np.abs(xs[iy] - yq)), iy - 1, iy)
        if np.any(np.abs(xs[ix] - xq) > tol) or np.any(np.abs(xs[iy] - yq) > tol):
            raise OutOfDomainError("tabulated exponent queried outside its node range")
        return table[ix, iy].reshape(shape)

    def diagonal(self, points):
        """Trace exponent pbar(x) = p(x, x) at the given points."""
        pts = _as_points(points)
        return self.eval(pts, pts)


def constant_field(value: float) -> ExponentField:
    return ExponentField("constant", p_min=value, p_max=value, params={"value": float(value)})


def radial_field() -> ExponentField:
    return ExponentField("radial", p_min=1.5, p_max=3.0)


def product_field() -> ExponentField:
    return ExponentField("product", p_min=1.5, p_max=2.5)


def tabulated_field(path=None, xs=None, table=None) -> ExponentField:
    """Build a 1-D tabulated field from a CSV of (x, y, p) rows or arrays.

    The table must cover the full product of its node set and be symmetric;
    lookups snap to the nearest node within half a node spacing.  A CSV cell
    that is not a number is reported with its line and column.
    """
    if path is not None:
        with open(path) as fh:
            rows = [(at, line.split(",")) for at, line in enumerate(fh, start=1) if line.strip()]
        if not rows or [name.strip() for name in rows[0][1]] != ["x", "y", "p"]:
            raise ValueError("tabulated field CSV must have header x,y,p")
        values = []
        for at, cells in rows[1:]:
            if len(cells) != 3:
                raise ValueError(f"tabulated field CSV line {at} must have 3 cells x,y,p")
            for name, cell in zip("xyp", cells):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(f"tabulated field CSV line {at}, column {name}: {cell.strip()!r} is not a number") from None
        xcol, ycol, pcol = np.array(values).reshape(-1, 3).T
        xs = np.unique(xcol)
        table = np.full((len(xs), len(xs)), np.nan)
        table[np.searchsorted(xs, xcol), np.searchsorted(xs, ycol)] = pcol
        if len(pcol) != table.size or np.any(np.isnan(table)):
            raise ValueError("tabulated field CSV must cover the full node product")
    else:
        xs = np.asarray(xs, dtype=float)
        table = np.asarray(table, dtype=float)
    if not np.array_equal(table, table.T):
        raise ValueError("tabulated exponent table must be symmetric")
    if table.min() <= 1.0:
        raise ValueError("tabulated exponents must exceed 1")
    spacing = np.min(np.diff(xs)) if len(xs) > 1 else 1.0
    return ExponentField(
        "tabulated",
        p_min=float(table.min()),
        p_max=float(table.max()),
        params={"xs": xs, "table": table, "tol": spacing / 2 + 1e-12},
    )


def field_from_spec(kind: str, **params) -> ExponentField:
    """Construct a field from configuration primitives."""
    if kind == "constant":
        return constant_field(params.get("value", 2.0))
    if kind == "radial":
        return radial_field()
    if kind == "product":
        return product_field()
    if kind == "tabulated":
        return tabulated_field(path=params["table"])
    raise ValueError(f"unknown exponent field kind {kind!r}")


# ---------------------------------------------------------------------------
# blocked pair sweeps
# ---------------------------------------------------------------------------


_BLOCK_PAIRS = 1 << 16  # pairs evaluated at once by every blocked pair sweep


def row_blocks(n_rows: int, row_pairs: int = 1) -> list:
    """Consecutive slices of ``n_rows`` rows of ``row_pairs`` pairs each.

    A slice holds ``_BLOCK_PAIRS`` pairs, or one row.  Every pair table of
    the package is swept in these blocks, so its temporaries stay
    block-sized whatever the grid.
    """
    rows = max(1, _BLOCK_PAIRS // max(row_pairs, 1))
    return [slice(start, start + rows) for start in range(0, n_rows, rows)]


def node_pairs(grid, rows, partners, radius: float, keep=None) -> tuple:
    """The node pairs (i, j) with i in ``rows``, j in ``partners``, 0 < |x_i - x_j| <= radius and ``keep(i, j)``.

    ``rows`` and ``partners`` are node masks; ``radius`` may be infinite.
    The candidates of a row node are the lattice offsets k with
    |k|^2 h^2 <= radius^2 into the partners' index box, so the count pass
    reads integer offsets and masks alone, and only the fill pass computes
    distances.  Both sweep the row blocks of :func:`row_blocks`; pairs come
    row by row, ``i`` ascending, and ``j`` ascending within a row.  Returns
    the count pass, a function giving the pair count, and the fill pass, an
    iterator of (i, j, distance) blocks.
    """
    shape = (grid.nodes_per_axis,) * grid.dim
    rows = np.flatnonzero(rows)
    at = np.unravel_index(rows, shape)  # lattice index of each row node, per axis
    box = [(a.min(), a.max()) for a in np.unravel_index(np.flatnonzero(partners), shape)]
    # per axis, the offsets from some row node into the partners' box, none longer than the radius
    reach = int(radius / grid.h) + 1 if math.isfinite(radius) else math.inf
    steps = [np.arange(max(lo - a.max(), -reach), min(hi - a.min(), reach) + 1) for a, (lo, hi) in zip(at, box)]
    offsets = np.stack(np.meshgrid(*steps, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    length2 = np.sum(offsets**2, axis=1)
    offsets = offsets[(length2 > 0) & (length2 * grid.h**2 <= radius**2)]
    jumps = offsets @ grid.nodes_per_axis ** np.arange(grid.dim - 1, -1, -1)  # in the node index
    coords = [np.ascontiguousarray(x) for x in grid.nodes.T]

    def candidates(block):
        """The in-box candidates (i, j) of the row nodes rows[block] and the mask of those kept."""
        nodes = rows[block, None]
        inside = np.ones((len(nodes), len(offsets)), dtype=bool)
        for axis, step, (lo, hi) in zip(at, offsets.T, box):
            target = axis[block, None] + step
            inside &= (target >= lo) & (target <= hi)
        i = np.broadcast_to(nodes, inside.shape)[inside]
        j = (nodes + jumps)[inside]
        return i, j, partners[j] if keep is None else partners[j] & keep(i, j)

    blocks = row_blocks(len(rows), len(offsets))

    def fill(block):
        i, j, kept = candidates(block)
        i, j = i[kept], j[kept]
        # the sum over axes equals np.sum over a last axis of length 1 or 2 bit for bit
        return i, j, np.sqrt(sum((x[i] - x[j]) ** 2 for x in coords))

    # the fill pass is lazy, and holds no block once it is handed out
    return (lambda: sum(int(np.count_nonzero(candidates(block)[2])) for block in blocks)), map(fill, blocks)


def pairwise_sum(values, start: int, stop: int) -> float:
    """``np.sum`` of entries start..stop, bit for bit, from block-sized pieces ``values(a, b)``.

    numpy sums a contiguous array pairwise: more than 128 entries are split
    at half their count, rounded down to a multiple of 8.  Following those
    splits down to block-sized pieces gives the same sum without the array.
    """
    count = stop - start
    if count <= max(_BLOCK_PAIRS, 128):
        return float(np.sum(values(start, stop)))
    half = count // 2 - (count // 2) % 8
    return pairwise_sum(values, start, start + half) + pairwise_sum(values, start + half, stop)


# ---------------------------------------------------------------------------
# extrema over products of point sets
# ---------------------------------------------------------------------------


@dataclass
class ProductExtrema:
    p_minus: float
    p_plus: float


def extrema_over_product(field: ExponentField, pts_a, pts_b) -> ProductExtrema:
    """Exponent extrema over the product of two point sets.

    Suprema/infima are taken over every pair; sets sharing points include
    zero-separation pairs, so diagonal-limit values are attained exactly.
    The field's shape decides where the extrema lie, and each is p at one
    pair:

    * ``constant``: its value.
    * ``radial``: omega is non-increasing in |x - y|, so p_+ is omega at the
      nearest pair and p_- at the farthest.  One sweep finds both squared
      separations, with no logarithm per pair.
    * ``product``: p is non-decreasing in |x| and in |y|, so p_- pairs each
      set's point of least norm and p_+ those of greatest norm.
    * ``tabulated``: p is evaluated on every pair.

    The pair sweeps run in the blocks of :func:`row_blocks`, so memory stays
    bounded whatever the set sizes; for a set against itself only the upper
    triangle (diagonal included) is swept, since p is symmetric.  The
    extrema equal those of the full product bit for bit.
    """
    a = np.atleast_2d(_as_points(pts_a))
    b = np.atleast_2d(_as_points(pts_b))
    if a.size == 0 or b.size == 0:
        raise ValueError("extrema_over_product requires nonempty point sets")
    if field.kind == "constant":
        value = float(field.params["value"])
        return ProductExtrema(p_minus=value, p_plus=value)
    if field.kind == "product":
        na = np.sum(a**2, axis=-1)  # as the field computes |x|, before the root
        nb = np.sum(b**2, axis=-1)
        x = a[[np.argmin(na), np.argmax(na)]]
        y = b[[np.argmin(nb), np.argmax(nb)]]
        p_minus, p_plus = field.eval(x, y)
        return ProductExtrema(p_minus=float(p_minus), p_plus=float(p_plus))
    pair = _pair_square if field.kind == "radial" else field.eval
    same = np.array_equal(a, b)
    lo, hi = math.inf, -math.inf
    for rows in row_blocks(len(a), len(b)):
        first = rows.start if same else 0  # columns before the block lie below the diagonal
        vals = pair(a[rows, None, :], b[None, first:, :])
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    if field.kind == "radial":  # the nearest pair has the largest exponent
        lo, hi = radial_profile(np.sqrt([hi, lo]))
    return ProductExtrema(p_minus=float(lo), p_plus=float(hi))


def _thin(pts: np.ndarray, cap: int) -> np.ndarray:
    if len(pts) <= cap:
        return pts
    stride = int(np.ceil(len(pts) / cap))
    return pts[::stride]


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Outcome of one exponent admissibility check.

    ``condition`` is one of ``interior_oscillation`` (boundedness of
    R^(p_- - p_+) over interior balls), ``exterior_comparison`` (ball
    exponent extrema dominate the extrema against the ball's complement), or
    ``log_holder`` (oscillation times log(1/scale) non-increasing as the
    scale shrinks).  ``witness`` locates the worst sampled ball or pair.
    """

    condition: str
    passed: bool
    witness: dict
    l_estimate: float | None = None
    rows: list = dc_field(default_factory=list)


def _ball_lattice(x0: np.ndarray, radius: float, spacing: float) -> np.ndarray:
    """Regular lattice covering the closed ball B_radius(x0)."""
    dim = len(x0)
    k = int(math.floor(radius / spacing + 1e-12))
    offsets = np.arange(-k, k + 1) * spacing
    grids = np.meshgrid(*([offsets] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1) + x0
    keep = _pair_norm(pts, x0[None, :]) <= radius + 1e-12
    return pts[keep]


def _default_balls(grid, radii, centers):
    if centers is None:
        centers = [grid.center.copy()]
        if grid.dim == 1:
            half = grid.halfwidths[0]
            centers += [grid.center + np.array([0.45 * half]), grid.center - np.array([0.3 * half])]
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    if radii is None:
        amin = float(np.min(grid.halfwidths))
        radii = [0.4 * amin, 0.2 * amin, 0.1 * amin]
    radii = [float(r) for r in radii]
    balls = []
    for c in centers:
        room = grid.room(c)
        for r in radii:
            if r < room:  # closure of the ball must stay inside the domain
                balls.append((c, r))
    if not balls:
        raise ValueError("no sampled ball fits inside the domain")
    return balls


def check_interior_oscillation(
    field: ExponentField,
    grid,
    radii: Sequence[float] | None = None,
    centers: Sequence | None = None,
) -> ConditionReport:
    """Boundedness check for R^(p_-(BxB) - p_+(BxB)) over interior balls.

    A finite sample cannot certify a supremum, so the estimate is recomputed
    on lattices refined twice; the check passes when the estimate at most
    doubled per refinement.  The coarsest lattice has spacing min(h, R/2),
    so even a ball narrower than the grid spacing is sampled beyond its
    center.
    """
    balls = _default_balls(grid, radii, centers)
    rows = []
    worst = (None, -np.inf)
    passed = True
    for center, radius in balls:
        estimates = []
        for level in range(3):
            pts = _ball_lattice(center, radius, min(grid.h, radius / 2) / 2**level)
            ext = extrema_over_product(field, pts, pts)
            estimates.append(radius ** (ext.p_minus - ext.p_plus))
            rows.append(
                {
                    "center": center.tolist(),
                    "radius": radius,
                    "level": level,
                    "p_minus": ext.p_minus,
                    "p_plus": ext.p_plus,
                    "l_estimate": estimates[-1],
                }
            )
        for lo, hi in zip(estimates, estimates[1:]):
            if not np.isfinite(hi) or hi > 2.0 * lo + 1e-12:
                passed = False
        if estimates[-1] > worst[1]:
            worst = ((center, radius, estimates), estimates[-1])
    center, radius, estimates = worst[0]
    return ConditionReport(
        condition="interior_oscillation",
        passed=passed,
        witness={"center": center.tolist(), "radius": radius, "estimates": estimates},
        l_estimate=float(worst[1]),
        rows=rows,
    )


def check_exterior_comparison(
    field: ExponentField,
    grid,
    radii: Sequence[float] | None = None,
    centers: Sequence | None = None,
) -> ConditionReport:
    """Check p_+/- (B x B^c) <= p_+/- (B x B) on sampled balls, up to 1e-9.

    The complement is represented by every grid node outside the ball (the
    collar carries the far field); the ball itself is sampled on the grid
    lattice so coincident pairs realise diagonal limits.
    """
    balls = _default_balls(grid, radii, centers)
    rows = []
    passed = True
    worst = (None, -np.inf)
    for center, radius in balls:
        inside = _ball_lattice(center, radius, grid.h)
        mask = _pair_norm(grid.nodes, center[None, :]) > radius + 1e-12
        outside = grid.nodes[mask]
        inner = extrema_over_product(field, inside, inside)
        cross = extrema_over_product(field, inside, outside)
        margin = max(cross.p_plus - inner.p_plus, cross.p_minus - inner.p_minus)
        ok = margin <= 1e-9
        passed &= ok
        rows.append(
            {
                "center": center.tolist(),
                "radius": radius,
                "p_plus_inner": inner.p_plus,
                "p_plus_cross": cross.p_plus,
                "p_minus_inner": inner.p_minus,
                "p_minus_cross": cross.p_minus,
                "margin": margin,
                "ok": ok,
            }
        )
        if margin > worst[1]:
            worst = (rows[-1], margin)
    return ConditionReport(
        condition="exterior_comparison",
        passed=bool(passed),
        witness=dict(worst[0]),
        rows=rows,
    )


def check_log_holder(
    field: ExponentField,
    grid,
    scales: Sequence[float] | None = None,
    cap: int = 160,
) -> ConditionReport:
    """Trend check for sup |p(z1) - p(z2)| * log(1/scale) over pair scales.

    Base pairs combine diagonal pairs (x = y at domain nodes) with generic
    node pairs; each is perturbed along a fixed direction set at the given
    pair-space distance.  Passing means the measured quantity does not
    increase as the scale shrinks (within a relative slack of 1e-6); a
    growing trend is the numerical signature of a log-Holder violation.
    """
    if scales is None:
        scales = (1e-1, 1e-2, 1e-3, 1e-4)
    scales = sorted({float(s) for s in scales}, reverse=True)
    if len(scales) < 2 or min(scales) <= 0 or max(scales) >= 1:
        raise ValueError("log-Holder check needs >= 2 distinct scales in (0, 1)")

    inside = grid.nodes[grid.interior]
    base = _thin(inside, cap)
    small = _thin(inside, 60)
    k = len(small)
    pairs = np.concatenate(
        [
            np.concatenate([base, base], axis=1),  # diagonal pairs reach r = 0
            np.concatenate(  # full cross product covers one-sided singularities
                [np.repeat(small, k, axis=0), np.tile(small, (k, 1))], axis=1
            ),
        ]
    )
    # fixed unit directions in the 2*dim pair space: the axes and the four diagonals
    eye = np.eye(2 * grid.dim)
    diagonals = [np.repeat([sx, sy], grid.dim) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    dirs = np.concatenate([eye, -eye, np.array(diagonals) / math.sqrt(2 * grid.dim)])
    lo = np.concatenate([grid.center - grid.halfwidths] * 2)
    hi = np.concatenate([grid.center + grid.halfwidths] * 2)

    dim = grid.dim
    p_base = field.eval(pairs[:, :dim], pairs[:, dim:])  # once; every direction and scale moves from it
    rows = []
    for scale in scales:
        # per direction, the largest change and the first base pair reaching it
        largest = []
        for d in dirs:
            shifted = pairs + scale * d
            kept = np.flatnonzero(np.all((shifted >= lo) & (shifted <= hi), axis=-1))
            if len(kept):
                delta = np.abs(field.eval(shifted[kept, :dim], shifted[kept, dim:]) - p_base[kept])
                at = int(np.argmax(delta))
                largest.append((float(delta[at]), int(kept[at])))
        # the largest change over every direction, at its first base pair
        delta, first = max(largest, key=lambda pair: (pair[0], -pair[1]))
        rows.append({"scale": scale, "measure": float(delta * math.log(1.0 / scale)),
                     "worst_pair": pairs[first].tolist(), "worst_delta": delta})
    measures = [r["measure"] for r in rows]
    passed = all(b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(measures, measures[1:]))
    worst = max(rows, key=lambda r: r["measure"])
    return ConditionReport(
        condition="log_holder",
        passed=bool(passed),
        witness=dict(worst),
        rows=rows,
    )
