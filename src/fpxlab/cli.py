"""Command-line front end: solve | norms | diagnose | iterate | check-exponent.

Every command but ``iterate`` reads its grid, field and problem from
``--config``.  ``diagnose`` takes no constants of its own: its levels are the
quartiles of u, its inner radius is half the ball's, and the growth lemma's
delta is calibrated and its gamma measured from the data.

Outputs are plain CSV (17 significant digits, byte-identical across runs of
the same configuration) and JSON reports.  Errors leave a machine-readable
{code, field, message} object on stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

# The only BLAS work, the descent's Cholesky factor, runs as fast on one thread
# up to about 600 interior nodes, while a second thread adds to the start-up of
# every command process.  A count the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import regularity as reg  # noqa: E402
from .config import ConfigError, parse_config  # noqa: E402
from .exponents import (  # noqa: E402
    check_exterior_comparison,
    check_interior_oscillation,
    check_log_holder,
    extrema_over_product,
)
from .grid import ball_mask, read_grid_function, write_grid_function  # noqa: E402
from .operators import tail  # noqa: E402
from .solve import NonConvergenceError, comparison_check, exterior_data, minimize  # noqa: E402
from .spaces import lebesgue_modular, lebesgue_norm, sobolev_seminorm  # noqa: E402

__all__ = ["main"]


def _reuse_freed_memory() -> None:
    """Let glibc keep freed heap memory for reuse in this process; elsewhere this does nothing.

    The descent allocates and frees numpy temporaries of one pair block,
    up to 512 KB each, at every energy and gradient call.  Under glibc's
    defaults they exceed the initial 128 KB mmap threshold, and the heap's
    top is handed back to the system above the trim threshold, so the
    memory is returned and faulted in again from call to call: the 401-node
    ``line-product`` solve made 493,000 page faults against 6,900 and took
    twice as long.  The values set are those glibc's own adaptive policy
    reaches after freeing a 32 MB mapping.
    """
    import ctypes  # only the solve needs it; the other commands keep their import cost

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _fail(code: str, field: str, message: str) -> int:
    json.dump({"code": code, "field": field, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(path: Path, payload) -> None:
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if dataclasses.is_dataclass(obj):
            return dataclasses.asdict(obj)
        raise TypeError(f"cannot serialise {type(obj)!r}")

    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=default) + "\n")


def _load_run(args):
    config = parse_config(args.config, args.seed)
    grid = config.solve.build_grid()
    field = config.solve.build_field()
    return config, grid, field


def _cmd_solve(args) -> int:
    _reuse_freed_memory()
    config, grid, field = _load_run(args)
    out = _out_dir(args)
    g = exterior_data(config.solve.exterior, grid, config.solve.seed)
    try:
        result = minimize(config.solve, grid=grid, field=field, g=g)
    except NonConvergenceError as err:
        write_grid_function(out / "solution.csv", grid, err.result.u)
        return _fail("non_convergence", "problem.max_iter", str(err))
    write_grid_function(out / "solution.csv", grid, result.u)
    history_path = out / "energy_history.csv"
    with open(history_path, "w") as fh:
        fh.write("step,energy\n")
        for i, e in enumerate(result.energy_history):
            fh.write(f"{i},{e:.17g}\n")
    principle = comparison_check(result.u, grid, g)
    _dump_json(out / "solve.json", {
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "energy_history_path": history_path.name,
        "max_principle": dataclasses.asdict(principle),
    })
    if not principle.passed:
        return _fail("max_principle", "solution", f"violated by {principle.excess:.3e}")
    return 0


def _cmd_norms(args) -> int:
    config, grid, field = _load_run(args)
    out = _out_dir(args)
    u = read_grid_function(args.input, grid)
    region = grid.interior
    pbar = np.asarray(field.diagonal(grid.nodes))
    norm = lebesgue_norm(u, pbar, grid, region)
    # the seminorm reports its modular at unit scaling, so the pair terms are built once
    semi = sobolev_seminorm(u, field, config.solve.s, grid, region)
    _dump_json(out / "norms.json", {
        "modular": lebesgue_modular(u, pbar, grid, region).value,
        "norm": norm.value,
        "bracket": list(norm.bracket),
        "iterations": norm.iterations,
        "gagliardo_modular": semi.modular,
        "seminorm": semi.value,
        "seminorm_bracket": list(semi.bracket),
        "seminorm_iterations": semi.iterations,
    })
    return 0


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, by numpy's own lerp, from the values sorted ascending;
    ``np.quantile`` itself imports ``numpy.ma``."""
    virtual = (len(ordered) - 1) * q
    lo = -1 if virtual >= len(ordered) - 1 else int(virtual)  # numpy's floor index, -1 for the last value
    a, b = ordered[lo], ordered[-1 if lo == -1 else lo + 1]
    t = virtual - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _cmd_diagnose(args) -> int:
    config, grid, field = _load_run(args)
    out = _out_dir(args)
    u = read_grid_function(args.input, grid)
    dg = config.diagnostics
    s = config.solve.s
    sigma = config.solve.sigma
    q = config.solve.q
    x0 = np.asarray(dg.center)
    radius = dg.radius

    ordered = np.sort(u[grid.interior])
    levels = [_quantile(ordered, t) for t in (0.25, 0.5, 0.75)]
    ball = grid.nodes[ball_mask(grid, x0, radius)]
    extrema = extrema_over_product(field, ball, ball)  # over B_R x B_R, shared by four reports
    caccioppoli = reg.caccioppoli_report(u, field, s, grid, x0, radius / 2.0, radius, levels, extrema=extrema)

    tails = {rep.sign: dataclasses.asdict(rep)
             for rep in tail(grid, field, s, u, x0, radius, ("plus", "minus", "abs"))}
    sup_rep = reg.sup_bound_check(u, field, s, grid, x0, sigma, radius=radius, extrema=extrema)

    shift = float(np.min(u))
    v = u - shift  # growth/sublevel diagnostics expect nonnegative data
    # delta is calibrated and gamma measured; delta is None unless the lemma holds there
    if np.max(v[ball_mask(grid, x0, radius)]) > 0:  # H = sup v / 2 on B_R must be positive
        delta, growth = reg.calibrate_growth_delta(v, field, s, grid, x0, radius, sigma, extrema=extrema)
    else:
        delta, growth = None, None

    sublevel = []
    median = _quantile(ordered - shift, 0.5)  # v sorted, since subtracting one value keeps the order
    if median > 0:
        sublevel.append(dataclasses.asdict(
            reg.sublevel_energy_check(v, field, s, grid, x0, radius, median, sigma, q, extrema=extrema)))

    try:
        holder = dataclasses.asdict(reg.holder_exponent_fit(u, grid, x0, radius))
    except reg.ResolutionError as err:
        holder = {"error": str(err)}

    hard_ok = all(rep.satisfied for rep in caccioppoli)
    _dump_json(out / "diagnostics.json", {
        "caccioppoli": [dataclasses.asdict(rep) for rep in caccioppoli],
        "tail": tails,
        "sup_bound": dataclasses.asdict(sup_rep),
        "growth": None if growth is None else dataclasses.asdict(growth),
        "growth_delta": delta,
        "sublevel": sublevel,
        "holder": holder,
    })
    if not hard_ok:
        return _fail("caccioppoli", "diagnostics", "level-set energy estimate violated")
    return 0


def _cmd_iterate(args) -> int:
    params = reg.DeGiorgiParams(
        C=args.C, b=args.b, betas=tuple(float(x) for x in args.betas.split(",")), y0=args.y0,
    )
    run = reg.degiorgi_iterate(params, args.jmax)
    lines = ["j,y,bound"]
    for j, (y, bound) in enumerate(zip(run.ys, run.bounds)):
        lines.append(f"{j},{y:.17g},{bound:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        (_out_dir(args) / "iteration.csv").write_text(text)
    else:
        sys.stdout.write(text)
    if run.threshold_met and not run.bound_holds:
        return _fail("iteration_bound", "y0", f"decay bound violated by {run.max_excess:.3e}")
    return 0


def _cmd_check_exponent(args) -> int:
    _, grid, field = _load_run(args)
    out = _out_dir(args)
    reports = {
        "interior_oscillation": check_interior_oscillation(field, grid),
        "exterior_comparison": check_exterior_comparison(field, grid),
        "log_holder": check_log_holder(field, grid),
    }
    _dump_json(out / "exponent.json", {k: dataclasses.asdict(v) for k, v in reports.items()})
    if not all(v.passed for v in reports.values()):
        failing = [k for k, v in reports.items() if not v.passed]
        return _fail("exponent_condition", ",".join(failing), "condition check failed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fpxlab", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed (problem.seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimise the energy for the configured data")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)

    p_norms = sub.add_parser("norms", help="modular and Luxemburg norm of a grid function")
    p_norms.add_argument("--config", required=True)
    p_norms.add_argument("--input", required=True)
    p_norms.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="regularity diagnostics of a solution")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--out", required=True)

    p_iter = sub.add_parser("iterate", help="simulate the geometric iteration recursion")
    p_iter.add_argument("--C", type=float, required=True)
    p_iter.add_argument("--b", type=float, required=True)
    p_iter.add_argument("--betas", required=True, help="comma list, non-increasing")
    p_iter.add_argument("--y0", type=float, required=True)
    p_iter.add_argument("--jmax", type=int, default=50)
    p_iter.add_argument("--out", default=None)

    p_check = sub.add_parser("check-exponent", help="exponent admissibility conditions")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "norms":
            return _cmd_norms(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "iterate":
            return _cmd_iterate(args)
        if args.command == "check-exponent":
            return _cmd_check_exponent(args)
    except ConfigError as err:
        json.dump({"code": "config", "problems": err.problems}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        return _fail(type(err).__name__, args.command, str(err))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
