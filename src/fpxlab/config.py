"""Sectioned key=value run configuration.

The format is flat text with ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment.  Parsing validates eagerly and aggregates
every problem into one :class:`ConfigError` so a bad file reports all its
defects at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .exponents import tabulated_field
from .grid import GridGeometryError, ball_mask, build_grid
from .solve import SolveConfig, parse_exterior

__all__ = ["RunConfig", "DiagnosticsSpec", "ConfigError", "parse_config", "parse_text"]


class ConfigError(ValueError):
    """Aggregated configuration problems; ``problems`` lists {field, message}."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{p['field']}: {p['message']}" for p in self.problems)
        super().__init__(f"invalid configuration: {lines}")


@dataclass
class DiagnosticsSpec:
    center: tuple = (0.0,)
    radius: float = 0.5


@dataclass
class RunConfig:
    solve: SolveConfig
    diagnostics: DiagnosticsSpec


_GRID_KEYS = {"dim", "center", "halfwidth", "r_trunc", "nodes_per_axis"}
_FIELD_KEYS = {"preset", "value", "table"}
_PROBLEM_KEYS = {"s", "sigma", "q", "exterior", "grad_tol", "max_iter", "seed"}
_DIAG_KEYS = {"center", "radius"}
_SECTIONS = {"grid": _GRID_KEYS, "field": _FIELD_KEYS, "problem": _PROBLEM_KEYS, "diagnostics": _DIAG_KEYS}


def _read_sections(text: str, problems: list) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                problems.append({"field": current, "message": f"unknown section (line {lineno})"})
                sections.setdefault(current, {})
                continue
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            problems.append({"field": f"line {lineno}", "message": f"expected key = value inside a section, got {raw!r}"})
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        known = _SECTIONS.get(current)
        if known is not None and key not in known:
            problems.append({"field": f"{current}.{key}", "message": "unknown key"})
            continue
        sections[current][key] = value
    return sections


def _get(sections, section, key, cast, default, problems, check=None, describe=""):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        value = default
    else:
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            problems.append({"field": f"{section}.{key}", "message": f"cannot parse {raw!r}"})
            return default
    if check is not None and value is not None and not check(value):
        problems.append({"field": f"{section}.{key}", "message": describe or "out of range"})
    return value


def _floats(raw) -> tuple:
    return tuple(float(part) for part in str(raw).split(","))


def _exterior(raw: str) -> str:
    parse_exterior(raw)  # raises ValueError unless exterior_data accepts the spec
    return raw


def parse_text(text: str, seed: int | None = None, base=None) -> RunConfig:
    """Parse and validate a configuration; ``seed``, when given, replaces ``problem.seed``.

    ``base``, when given, is the directory a relative ``field.table`` is read
    from, and the table there must exist and pass the field's own checks.
    """
    problems: list = []
    sections = _read_sections(text, problems)
    if seed is not None:
        sections.setdefault("problem", {})["seed"] = str(seed)

    dim = _get(sections, "grid", "dim", int, 1, problems, lambda v: v in (1, 2), "dim must be 1 or 2")
    center = _get(sections, "grid", "center", _floats, (0.0,) * dim, problems,
                  lambda v: len(v) == dim, "one entry per axis")
    halfwidth = _get(sections, "grid", "halfwidth", _floats, (1.0,) * dim, problems,
                     lambda v: len(v) == dim and all(x > 0 for x in v), "positive, one entry per axis")
    r_trunc = _get(sections, "grid", "r_trunc", float, 4.0, problems, lambda v: v > 0, "must be positive")
    nodes = _get(sections, "grid", "nodes_per_axis", int, 201, problems,
                 lambda v: v >= 9 and v % 2 == 1, "must be odd and >= 9")
    grid = None  # the configured grid, once the grid keys are valid
    if not problems and r_trunc <= math.sqrt(sum(x**2 for x in halfwidth)):
        problems.append({"field": "grid.r_trunc", "message": "must exceed the domain circumradius"})
    elif not problems:
        try:
            grid = build_grid(dim, center, halfwidth, r_trunc, nodes)
        except GridGeometryError as err:
            problems.append({"field": "grid.halfwidth", "message": str(err)})

    preset = _get(sections, "field", "preset", str, "constant", problems,
                  lambda v: v in ("constant", "radial", "product", "tabulated"), "unknown preset")
    value = _get(sections, "field", "value", float, 2.0, problems, lambda v: v > 1, "must exceed 1")
    table = _get(sections, "field", "table", str, None, problems)
    if preset == "tabulated" and table is None:
        problems.append({"field": "field.table", "message": "required for the tabulated preset"})
    elif preset == "tabulated" and base is not None:
        table = str(Path(base) / table)  # an absolute table stays as it is
        try:
            tabulated_field(path=table)  # the table as the run reads and checks it
        except (OSError, ValueError) as err:
            problems.append({"field": "field.table", "message": str(err)})
    if preset == "tabulated" and dim == 2:
        problems.append({"field": "field.preset", "message": "tabulated exponents are 1-D only"})

    s = _get(sections, "problem", "s", float, 0.5, problems, lambda v: 0 < v < 1, "must lie in (0, 1)")
    sigma = _get(sections, "problem", "sigma", float, 0.25, problems, lambda v: 0 < v, "must be positive")
    if sigma is not None and s is not None and not sigma < s:
        problems.append({"field": "problem.sigma", "message": "must be smaller than s"})
    q = _get(sections, "problem", "q", float, 1.25, problems, lambda v: v >= 1, "must be >= 1")
    exterior = _get(sections, "problem", "exterior", _exterior, "constant:0", problems)
    grad_tol = _get(sections, "problem", "grad_tol", float, 1e-8, problems, lambda v: v > 0, "must be positive")
    max_iter = _get(sections, "problem", "max_iter", int, 50_000, problems, lambda v: v >= 1, "must be >= 1")
    seed = _get(sections, "problem", "seed", int, 0, problems, lambda v: v >= 0, "must be nonnegative")

    known = len(problems)
    # the default ball sits at the centre of the grid, at most half as wide as the domain
    diag_center = _get(sections, "diagnostics", "center", _floats, center if grid is not None else (0.0,) * dim,
                       problems, lambda v: len(v) == dim, "one entry per axis")
    radius = _get(sections, "diagnostics", "radius", float,
                  min(0.5, min(halfwidth) / 2) if grid is not None else 0.5,
                  problems, lambda v: v > 0, "must be positive")
    if grid is not None and len(problems) == known:
        try:
            ball_mask(grid, diag_center, radius)  # the rule every report applies to its ball
        except GridGeometryError as err:
            key = "center" if grid.room(diag_center) <= 0 else "radius"
            problems.append({"field": f"diagnostics.{key}", "message": str(err)})

    if problems:
        raise ConfigError(problems)

    field_params = {}
    if preset == "constant":
        field_params["value"] = value
    if preset == "tabulated":
        field_params["table"] = table
    solve = SolveConfig(
        s=s, sigma=sigma, q=q, dim=dim, center=center, halfwidths=halfwidth,
        r_trunc=r_trunc, nodes_per_axis=nodes, field_kind=preset,
        field_params=field_params, exterior=exterior, grad_tol=grad_tol,
        max_iter=max_iter, seed=seed,
    )
    return RunConfig(solve=solve, diagnostics=DiagnosticsSpec(center=diag_center, radius=radius))


def parse_config(path, seed: int | None = None) -> RunConfig:
    """Parse a configuration file; a relative ``field.table`` is read next to it."""
    with open(path) as fh:
        return parse_text(fh.read(), seed, Path(path).parent)
