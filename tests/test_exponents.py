import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlab import exponents
from fpxlab.exponents import (
    OutOfDomainError,
    check_exterior_comparison,
    check_interior_oscillation,
    check_log_holder,
    constant_field,
    extrema_over_product,
    product_field,
    radial_field,
    radial_profile,
    slow_modulus,
    tabulated_field,
)
from fpxlab.grid import ball_mask, build_grid

ALL_FIELDS = [constant_field(2.0), radial_field(), product_field()]


@pytest.fixture(scope="module")
def coarse_plane_grid():
    """2-D grid with h = 0.2, twice the radius of the smallest default ball."""
    return build_grid(2, (0.0, 0.0), (1.0, 1.0), 4.0, 41)


def test_radial_profile_reference_values():
    # at separation e^-2 the inner branch gives 3 - min(1/2, 1)
    assert radial_profile(math.exp(-2)) == pytest.approx(2.5, abs=1e-14)
    assert radial_profile(1 / math.e) == pytest.approx(2.0, abs=1e-14)
    assert radial_profile(0.0) == 3.0


def test_radial_profile_monotone_with_junction():
    r = np.geomspace(1e-8, 50.0, 400)
    w = radial_profile(r)
    assert np.all(np.diff(w) <= 1e-12)
    assert w[0] == pytest.approx(3.0 - 1.0 / math.log(1e8), abs=1e-12)
    assert 3.0 > w[0] > w[-1] > 1.5


def test_slow_modulus_shape():
    r = np.geomspace(1e-10, 1e3, 200)
    mu = slow_modulus(r)
    assert np.all(np.diff(mu) > 0)
    assert np.all(mu <= 1.0) and np.all(mu >= 0.0)
    assert slow_modulus(0.0) == 0.0
    # decays slower than 1/log(1/r): the log-weighted value must blow up
    small = np.array([1e-2, 1e-4, 1e-8])
    weighted = slow_modulus(small) * np.log(1.0 / small)
    assert np.all(np.diff(weighted) > 0)


def test_constant_eval():
    f = constant_field(2.0)
    assert f.eval(0.3, -0.7) == 2.0


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.kind)
def test_symmetry_and_bounds_random_pairs(field, rng):
    x = rng.uniform(-3.5, 3.5, size=(10_000, 1))
    y = rng.uniform(-3.5, 3.5, size=(10_000, 1))
    pxy = field.eval(x, y)
    pyx = field.eval(y, x)
    assert np.all(pxy == pyx)
    assert np.all(pxy >= field.p_min)
    assert np.all(pxy <= field.p_max)


def test_rejects_exponent_bound_at_one():
    with pytest.raises(ValueError):
        constant_field(1.0)


# -- extrema over products -------------------------------------------------


def test_extrema_constant(line_grid):
    ext = extrema_over_product(constant_field(2.0), line_grid.nodes[:50], line_grid.nodes[50:120])
    assert ext.p_minus == 2.0 and ext.p_plus == 2.0


def test_extrema_radial_ball_and_complement(line_grid):
    field = radial_field()
    inside = ball_mask(line_grid, 0.0, 0.3)
    ball = line_grid.nodes[inside]
    comp = line_grid.nodes[~inside]
    same = extrema_over_product(field, ball, ball)
    # coincident pairs attain the diagonal limit exactly
    assert same.p_plus == pytest.approx(3.0, abs=1e-14)
    dnode = float(ball[:, 0].max() - ball[:, 0].min())  # largest node separation
    assert same.p_minus == pytest.approx(radial_profile(dnode), abs=1e-12)
    assert same.p_minus == pytest.approx(radial_profile(0.6), abs=0.05)  # up to resolution
    cross = extrema_over_product(field, ball, comp)
    # the supremum approaches the diagonal limit from adjacent pairs
    assert cross.p_plus == pytest.approx(radial_profile(line_grid.h), rel=1e-12)
    assert cross.p_plus < same.p_plus
    # the infimum is the profile at the largest reachable separation
    dmax = np.max(np.abs(comp[:, 0])) + 0.3
    assert cross.p_minus == pytest.approx(radial_profile(dmax), abs=1e-3)


def _tabulated_line_field():
    """A random symmetric table on 41 nodes over [-2, 2], for the kept pair sweep."""
    xs = np.linspace(-2.0, 2.0, 41)
    upper = np.triu(np.random.default_rng(7).uniform(1.2, 3.0, size=(41, 41)))
    return tabulated_field(xs=xs, table=upper + np.triu(upper, 1).T)


def _point_sets(shape, dim, sizes, same, rng):
    """Two point sets whose pairs probe where the shape rules could slip.

    ``lattice`` samples a default ball the way ``check-exponent`` does, on
    spacings min(h, R/2) / 2^level, against itself or against the h-lattice
    outside it; ``junction`` straddles the radial junction 1/e; ``tiny``
    keeps every separation and norm below 1e-3.
    """
    if shape == "lattice":
        h = 0.04 if dim == 1 else 0.2
        center = rng.uniform(-0.5, 0.5, size=dim)
        radius = float(rng.choice([0.4, 0.2, 0.1]))
        a = exponents._ball_lattice(center, radius, min(h, radius / 2) / 2 ** int(rng.integers(3)))
        if same:
            return a, a.copy()
        around = exponents._ball_lattice(np.zeros(dim), 1.5, h)
        return a, around[np.linalg.norm(around - center, axis=1) > radius + 1e-12]
    scale = {"uniform": 1.5, "junction": 1e-3, "tiny": 4e-4}[shape]
    a = rng.uniform(-scale, scale, size=(sizes[0], dim))
    if same:
        return a, a.copy()
    b = rng.uniform(-scale, scale, size=(sizes[1], dim))
    if shape == "junction":
        b[:, 0] += math.exp(-1.0)
    return a, b


@given(
    dim=st.sampled_from([1, 2]),
    field=st.sampled_from(ALL_FIELDS + [_tabulated_line_field()]),
    shape=st.sampled_from(["uniform", "lattice", "junction", "tiny"]),
    sizes=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    same=st.booleans(),
    block=st.sampled_from([1, 5, 64, 1 << 16]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_extrema_match_dense_product(dim, field, shape, sizes, same, block, seed):
    """The shape rules and the blocked sweep find the dense product's extrema bit for bit.

    The rules hold only if ``radial_profile`` and ``slow_modulus`` are
    monotone in float64, so the sets reach the lattices of the exponent
    checks, a few hundred points, both sides of the radial junction and
    separations below 1e-3.  ``block`` shrinks the pairs per block so that
    small sets are swept in several blocks.
    """
    if field.kind == "tabulated":
        dim = 1
    a, b = _point_sets(shape, dim, sizes, same, np.random.default_rng(seed))
    with mock.patch.object(exponents, "_BLOCK_PAIRS", block):
        ext = extrema_over_product(field, a, b)
    dense = np.asarray(field.eval(a[:, None, :], b[None, :, :]))
    assert ext.p_minus == dense.min()
    assert ext.p_plus == dense.max()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=["constant", "radial", "product"])
def test_extrema_over_exterior_nodes_match_dense_product(field):
    """A ball lattice against the 2-D grid nodes outside the ball, as the
    exterior comparison passes them: more than 2,000 points, every one used."""
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), 2.0, 49)
    center, radius = np.array([-0.3, 0.05]), 0.3
    inside = exponents._ball_lattice(center, radius, grid.h)
    outside = grid.nodes[np.linalg.norm(grid.nodes - center, axis=1) > radius + 1e-12]
    assert len(outside) > 2000
    ext = extrema_over_product(field, inside, outside)
    dense = np.asarray(field.eval(inside[:, None, :], outside[None, :, :]))
    assert ext.p_minus == dense.min()
    assert ext.p_plus == dense.max()


def test_extrema_empty_rejected():
    with pytest.raises(ValueError):
        extrema_over_product(constant_field(2.0), np.empty((0, 1)), np.zeros((3, 1)))


# -- ball-oscillation condition ---------------------------------------------


def test_interior_oscillation_constant(line_grid):
    rep = check_interior_oscillation(constant_field(2.0), line_grid)
    assert rep.passed
    assert rep.l_estimate == pytest.approx(1.0, abs=1e-14)
    assert all(row["l_estimate"] == pytest.approx(1.0, abs=1e-14) for row in rep.rows)


@pytest.mark.parametrize("grid_name", ["line_grid", "coarse_plane_grid"])
def test_interior_oscillation_radial(grid_name, request):
    rep = check_interior_oscillation(radial_field(), request.getfixturevalue(grid_name))
    assert rep.passed
    assert np.isfinite(rep.l_estimate)


@pytest.mark.parametrize("grid_name", ["line_grid", "coarse_plane_grid"])
def test_interior_oscillation_product(grid_name, request):
    rep = check_interior_oscillation(product_field(), request.getfixturevalue(grid_name))
    assert rep.passed


def test_interior_oscillation_rejects_escaping_ball(line_grid):
    with pytest.raises(ValueError):
        check_interior_oscillation(radial_field(), line_grid, radii=[2.0], centers=[(0.0,)])


# -- exterior comparison -----------------------------------------------------


def test_exterior_comparison_constant(line_grid):
    rep = check_exterior_comparison(constant_field(2.0), line_grid)
    assert rep.passed
    assert rep.witness["margin"] == pytest.approx(0.0, abs=1e-14)


def test_exterior_comparison_radial(line_grid):
    rep = check_exterior_comparison(radial_field(), line_grid)
    assert rep.passed


def _bump_table(nodes):
    """Symmetric bump active only when one point sits inside B_0.3 and the
    other beyond 0.6: designed to violate the exterior comparison."""
    x = nodes[:, 0]
    inner = np.clip(1.0 - (np.abs(x) / 0.3) ** 2, 0.0, None) ** 2
    outer = np.clip((np.abs(x) - 0.6) / 0.2, 0.0, 1.0) ** 2
    return 2.0 + 0.25 * (np.outer(inner, outer) + np.outer(outer, inner))


def test_exterior_comparison_bump_fails(tmp_path, line_grid):
    xs = line_grid.nodes[:, 0]
    table = _bump_table(line_grid.nodes)
    rows = ["x,y,p"]
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            rows.append(f"{xi:.17g},{xj:.17g},{table[i, j]:.17g}")
    path = tmp_path / "bump.csv"
    path.write_text("\n".join(rows) + "\n")
    field = tabulated_field(path)
    rep = check_exterior_comparison(field, line_grid, radii=[0.3], centers=[(0.0,)])
    assert not rep.passed
    assert rep.witness["p_plus_cross"] > rep.witness["p_plus_inner"]


def test_tabulated_out_of_domain(line_grid):
    xs = np.linspace(-1.0, 1.0, 11)
    table = np.full((11, 11), 2.0)
    field = tabulated_field(xs=xs, table=table)
    assert field.eval(0.05, -0.05) == 2.0
    with pytest.raises(OutOfDomainError):
        field.eval(3.0, 0.0)


def test_tabulated_rejects_2d_points():
    xs = np.linspace(-1.0, 1.0, 11)
    field = tabulated_field(xs=xs, table=np.full((11, 11), 2.0))
    with pytest.raises(ValueError, match="1-D"):
        field.eval(np.array([0.0, 0.0]), np.array([0.0, 0.5]))


def test_tabulated_rejects_asymmetric():
    xs = np.linspace(-1.0, 1.0, 5)
    table = np.full((5, 5), 2.0)
    table[0, 1] = 2.5
    with pytest.raises(ValueError):
        tabulated_field(xs=xs, table=table)


# -- log-Holder trend ---------------------------------------------------------


def test_log_holder_constant(line_grid):
    rep = check_log_holder(constant_field(2.0), line_grid)
    assert rep.passed
    assert all(row["measure"] == 0.0 for row in rep.rows)


def test_log_holder_radial_passes(line_grid):
    rep = check_log_holder(radial_field(), line_grid)
    assert rep.passed
    measures = [row["measure"] for row in rep.rows]
    assert measures == sorted(measures, reverse=True)


def test_log_holder_product_fails_at_smallest_scale(line_grid):
    rep = check_log_holder(product_field(), line_grid)
    assert not rep.passed
    measures = [row["measure"] for row in rep.rows]
    assert measures[-1] > measures[-2]  # still growing at the smallest scale


def test_log_holder_rejects_degenerate_scales(line_grid):
    with pytest.raises(ValueError):
        check_log_holder(radial_field(), line_grid, scales=[0.1])


class _SpyField:
    """Records the point pairs a check evaluates; the values come from ``field``."""

    def __init__(self, field):
        self.field, self.calls = field, []

    def eval(self, x, y):
        self.calls.append(np.concatenate([x, y], axis=-1))
        return self.field.eval(x, y)


@pytest.mark.parametrize("dim", [1, 2])
def test_log_holder_direction_set(dim):
    # the pair-space axes and the four diagonals (sx, .., sx, sy, .., sy) / sqrt(2 dim)
    if dim == 1:
        d = 1.0 / math.sqrt(2.0)
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1), (d, d), (d, -d), (-d, d), (-d, -d)]
    else:
        expected = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                    (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1),
                    (0.5, 0.5, 0.5, 0.5), (0.5, 0.5, -0.5, -0.5),
                    (-0.5, -0.5, 0.5, 0.5), (-0.5, -0.5, -0.5, -0.5)]
    grid = build_grid(dim, (0.0,) * dim, (1.0,) * dim, 3.0, 25)
    spy = _SpyField(radial_field())
    scales = (1e-2, 1e-3)
    check_log_holder(spy, grid, scales=scales, cap=20)
    # p is evaluated at the base pairs once, then once per scale and direction at the moved pairs
    base, moved = spy.calls[0], spy.calls[1:]
    assert len(moved) == len(scales) * len(expected)
    found, lengths = set(), set()
    for pairs in moved:
        # a sample of a call's moved pairs, each one scale from its base pair along the call's direction
        pairs = pairs[::16]
        gaps = pairs[:, None, :] - base[None, :, :]
        step = gaps[np.arange(len(pairs)), np.argmin(np.sum(gaps**2, axis=-1), axis=1)]
        length = np.linalg.norm(step, axis=1)
        lengths |= set(np.round(length, 9))
        found |= {tuple(row) for row in np.round(step / length[:, None], 6)}
    assert lengths == set(scales)
    assert found == {tuple(np.round(row, 6)) for row in np.array(expected, dtype=float)}


def test_log_holder_2d_smoke():
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), 3.0, 25)
    rep = check_log_holder(radial_field(), grid, scales=(1e-1, 1e-2), cap=20)
    assert rep.passed


@pytest.mark.parametrize("dim", [1, 2])
def test_pair_norm_matches_numpy_sum(dim, rng):
    # the summed coordinates give np.sum's bits, broadcast or not
    x, y = rng.normal(size=(300, 1, dim)), rng.normal(size=(1, 400, dim))
    for a, b in ((x, y), (x[:, 0], y[0, :300])):
        assert exponents._pair_norm(a, b).tobytes() == np.sqrt(np.sum((a - b) ** 2, axis=-1)).tobytes()
