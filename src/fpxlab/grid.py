"""Uniform tensor grids with an exterior collar for nonlocal problems.

The computational box is the cube of radius ``r_trunc`` around the domain
center; nodes form a symmetric vertex-centred lattice (odd count per axis,
so the center is a node) and every node carries the uniform cell measure
h^dim.  The domain box is represented half-open per axis, which makes the
summed interior measure reproduce |domain| exactly whenever the halfwidths
are integer multiples of the spacing; construction enforces that alignment.

Pairwise kernel sums interact only within ``interaction_radius`` =
r_trunc - circumradius(domain).  Every interior node therefore sees a
centrally symmetric neighbourhood of lattice nodes, which preserves odd
cancellation exactly: antisymmetric data on a symmetric grid yields
machine-zero residuals instead of an O(1) truncation residue at off-center
nodes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "GridGeometryError", "build_grid", "ball_mask",
           "read_grid_function", "write_grid_function", "SPHERE_MEASURE"]

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi}  # |S^(dim-1)|


class GridGeometryError(ValueError):
    """Grid construction or query violating the geometric preconditions."""


@dataclass(frozen=True)
class Grid:
    dim: int
    center: np.ndarray          # (dim,)
    halfwidths: np.ndarray      # (dim,) domain box half-widths
    r_trunc: float
    nodes_per_axis: int
    h: float
    nodes: np.ndarray           # (N, dim) lattice nodes in index order
    interior: np.ndarray        # (N,) bool, True on domain nodes
    measure: float              # uniform cell measure h**dim
    circumradius: float
    interaction_radius: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def exterior(self) -> np.ndarray:
        return ~self.interior

    def room(self, x0) -> float:
        """Max-norm distance from x0 to the domain boundary; B_r(x0) has its closure inside iff r < room."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return float(np.min(self.halfwidths - np.abs(x0 - self.center)))


def build_grid(dim: int, center, halfwidths, r_trunc: float, nodes_per_axis: int) -> Grid:
    """Construct a grid; see module docstring for layout conventions.

    Requirements: dim in {1, 2}; nodes_per_axis odd and >= 9; r_trunc
    strictly larger than the domain circumradius; and each halfwidth an
    integer multiple of h = 2 r_trunc / (nodes_per_axis - 1).  Each violation
    raises :class:`GridGeometryError`; the config parser builds the grid too.
    """
    if dim not in (1, 2):
        raise GridGeometryError(f"dim must be 1 or 2, got {dim}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    halfwidths = np.atleast_1d(np.asarray(halfwidths, dtype=float))
    if center.shape != (dim,) or halfwidths.shape != (dim,):
        raise GridGeometryError("center/halfwidths must have one entry per axis")
    if np.any(halfwidths <= 0):
        raise GridGeometryError("domain halfwidths must be positive")
    if nodes_per_axis < 9 or nodes_per_axis % 2 == 0:
        raise GridGeometryError("nodes_per_axis must be odd and at least 9")
    circum = float(np.sqrt(np.sum(halfwidths**2)))
    if not r_trunc > circum:
        raise GridGeometryError("truncation radius must exceed the domain circumradius")

    h = 2.0 * r_trunc / (nodes_per_axis - 1)
    ratios = halfwidths / h
    if np.any(np.abs(ratios - np.round(ratios)) > 1e-9):
        raise GridGeometryError("domain halfwidths must be integer multiples of the node spacing "
                                f"h={h:.17g} so the interior measure is exact")
    axes = [c - r_trunc + np.arange(nodes_per_axis) * h for c in center]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)

    interior = _in_half_open_box(nodes, center - halfwidths, center + halfwidths, h)  # the domain box

    return Grid(
        dim=dim,
        center=center,
        halfwidths=halfwidths,
        r_trunc=float(r_trunc),
        nodes_per_axis=int(nodes_per_axis),
        h=float(h),
        nodes=nodes,
        interior=interior,
        measure=float(h**dim),
        circumradius=circum,
        interaction_radius=float(r_trunc - circum),
    )


def ball_mask(grid: Grid, x0, radius: float) -> np.ndarray:
    """Boolean node mask of the closed ball B_radius(x0), whose closure must lie in the domain.

    The one check of that rule for every local estimate: GridGeometryError unless radius < ``grid.room(x0)``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    room = grid.room(x0)
    if not radius < room:
        raise GridGeometryError(f"ball of radius {radius:.17g} at {x0.tolist()} must have its closure "
                                f"inside the domain: radius < {room:.17g} is needed there")
    dist = np.sqrt(np.sum((grid.nodes - x0) ** 2, axis=1))
    return dist <= radius * (1 + 1e-12) + 1e-15


def _in_half_open_box(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray, h: float) -> np.ndarray:
    """Mask of the nodes in [lo, hi) per axis, faces shifted down by 1e-9 h: the lower face in, the upper out."""
    eps = 1e-9 * h
    return np.all((nodes >= lo - eps) & (nodes < hi - eps), axis=1)


def write_grid_function(path, grid: Grid, values: np.ndarray) -> None:
    """Write nodal values as CSV with header x[,y],u in node index order."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError("values must carry one entry per grid node")
    header = ["x", "u"] if grid.dim == 1 else ["x", "y", "u"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for node, u in zip(grid.nodes, values):
            writer.writerow([format(c, ".17g") for c in node] + [format(u, ".17g")])


def read_grid_function(path, grid: Grid) -> np.ndarray:
    """Read a nodal CSV written by :func:`write_grid_function`.

    Coordinates are validated against the grid's node order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file fails the header check
        expected = ["x", "u"] if grid.dim == 1 else ["x", "y", "u"]
        if [c.strip() for c in header] != expected:
            raise ValueError(f"expected CSV header {','.join(expected)}")
        rows = [[float(c) for c in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.shape != (grid.n_nodes, grid.dim + 1):
        raise ValueError("grid function CSV does not match the grid's node count")
    if not np.allclose(data[:, : grid.dim], grid.nodes, atol=1e-9 * grid.h, rtol=0):
        raise ValueError("grid function CSV coordinates do not match the grid")
    if not np.all(np.isfinite(data[:, -1])):
        raise ValueError("grid function values must be finite")
    return data[:, -1].copy()
