"""Output checks for fpxlab CLI operations.

Every command process is one operation.  An operation *fails* when its exit
code is not the one expected, or when an output check misses.  An operation
is *silently wrong* when it exited 0 or with the expected code but its
outputs fail a check, or when it exited 0 where a nonzero exit was expected
(``check-exponent`` on ``product`` claiming every condition passes): that is
a wrong answer the program did not report, and it makes the benchmark's
``correct`` flag false.

Expected outcomes:

* ``solve`` exits 0 with ``final_residual <= grad_tol``, a passing discrete
  maximum principle and a non-increasing energy history.  For constant
  p = 2 the solution is compared with an independent linear solve
  (:func:`p2_reference`), and ``solution.csv`` / ``energy_history.csv`` must
  be byte-identical to any earlier run of the same source, case and seed.
* ``norms`` exits 0 with finite values inside their brackets and the
  unit-ball property of the Luxemburg norm.
* ``diagnose`` exits 0 and the level-set estimate holds at every level.
* ``check-exponent`` passes all three conditions for ``constant`` and
  ``radial``; for ``product`` it exits nonzero with ``interior_oscillation``
  passing and ``log_holder`` failing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from cases import GRAD_TOL, S

DETERMINISM_FILES = ("solution.csv", "energy_history.csv")


def expected_exit(command: str, preset: str) -> int:
    return 1 if command == "check-exponent" and preset == "product" else 0


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def p2_reference(solution_csv: Path, case) -> tuple[float, float]:
    """Largest deviation from an independent p = 2 solve, and its tolerance.

    The interior system is assembled directly from the CSV's nodes with
    c_ij = m^2 / |x_i - x_j|^(n + 2s) over off-diagonal pairs that are not
    both exterior and lie within the interaction radius; the exterior values
    are the CSV's collar values.  The solver's weighted residual is the sup
    norm of A u - b, so its error is at most ||A^-1||_inf * grad_tol; the
    tolerance is twice that bound.
    """
    data = np.loadtxt(solution_csv, delimiter=",", skiprows=1, ndmin=2)
    dim = case.dim
    nodes, u = data[:, :dim], data[:, -1]
    h = 2.0 * case.r_trunc / (case.nodes - 1)
    eps = 1e-9 * h
    interior = np.all((nodes >= -1.0 - eps) & (nodes < 1.0 - eps), axis=1)  # domain [-1, 1)^n
    reach = case.r_trunc - math.sqrt(dim)
    dist = np.sqrt(np.sum((nodes[:, None, :] - nodes[None, :, :]) ** 2, axis=-1))
    exterior = ~interior
    pairs = (dist > 0) & ~(exterior[:, None] & exterior[None, :]) & (dist <= reach * (1 + 1e-12))
    coeff = np.where(pairs, h ** (2 * dim) / np.where(pairs, dist, 1.0) ** (dim + 2 * S), 0.0)
    rows = coeff[interior]
    matrix = np.diag(rows.sum(axis=1)) - rows[:, interior]
    rhs = rows[:, exterior] @ u[exterior]
    reference = np.linalg.solve(matrix, rhs)
    bound = float(np.max(np.sum(np.abs(np.linalg.inv(matrix)), axis=1)))
    return float(np.max(np.abs(u[interior] - reference))), 2.0 * bound * GRAD_TOL


def _solve_problems(out: Path, case) -> list:
    report = _load_json(out / "solve.json")
    problems = []
    if not report["final_residual"] <= GRAD_TOL:
        problems.append(f"final_residual {report['final_residual']:.3e} above grad_tol")
    if not report["max_principle"]["passed"]:
        problems.append("maximum principle failed")
    history = np.loadtxt(out / "energy_history.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    if np.any(np.diff(history) > 0):
        problems.append("energy history increases")
    if case.quadratic:
        error, tol = p2_reference(out / "solution.csv", case)
        if not error <= tol:
            problems.append(f"p=2 reference deviation {error:.3e} above {tol:.3e}")
    return problems


def _norms_problems(out: Path) -> list:
    report = _load_json(out / "norms.json")
    problems = []
    values = [report[k] for k in ("modular", "norm", "gagliardo_modular", "seminorm")]
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("non-finite or negative norm value")
    for key, bracket in (("norm", "bracket"), ("seminorm", "seminorm_bracket")):
        lo, hi = report[bracket]
        if not lo <= report[key] <= hi:
            problems.append(f"{key} outside its bracket")
    modular, norm = report["modular"], report["norm"]
    if (modular < 1.0 - 1e-9 and norm > 1.0 + 1e-9) or (modular > 1.0 + 1e-9 and norm < 1.0 - 1e-9):
        problems.append("Luxemburg unit-ball property violated")
    return problems


def _diagnose_problems(out: Path) -> list:
    report = _load_json(out / "diagnostics.json")
    bad = [rep["level"] for rep in report["caccioppoli"] if not rep["satisfied"]]
    return [f"level-set estimate violated at levels {bad}"] if bad else []


def _exponent_problems(out: Path, preset: str) -> list:
    report = _load_json(out / "exponent.json")
    passed = {name: rep["passed"] for name, rep in report.items()}
    if preset == "product":
        want = {"interior_oscillation": True, "log_holder": False}
    else:
        want = dict.fromkeys(("interior_oscillation", "exterior_comparison", "log_holder"), True)
    return [f"{name} passed={passed.get(name)}, expected {ok}"
            for name, ok in want.items() if passed.get(name) is not ok]


def output_problems(command: str, out: Path, case) -> list:
    """Problems found in the outputs one command wrote to ``out``."""
    try:
        if command == "solve":
            return _solve_problems(out, case)
        if command == "norms":
            return _norms_problems(out)
        if command == "diagnose":
            return _diagnose_problems(out)
        return _exponent_problems(out, case.preset)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def source_digest(src: Path) -> str:
    """Digest of the package sources: the version the determinism store keys on."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class DeterminismStore:
    """File hashes of earlier solves, persisted across runs in one checkout.

    Keys hold the source digest, case, data seed and file name, so a repeat
    with the same seed on the same sources must reproduce every byte.
    """

    def __init__(self, path: Path, version: str):
        self.path = path
        self.version = version
        try:
            self.hashes = _load_json(path)
        except (OSError, ValueError):
            self.hashes = {}

    def check(self, out: Path, case_name: str, data_seed: int) -> list:
        problems = []
        for name in DETERMINISM_FILES:
            path = out / name
            if not path.exists():
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            key = f"{self.version}|{case_name}|{data_seed}|{name}"
            if self.hashes.setdefault(key, digest) != digest:
                problems.append(f"{name} differs from an earlier run with the same seed")
        return problems

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.hashes, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
