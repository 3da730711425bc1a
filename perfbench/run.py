"""Benchmark of the fpxlab command line, one command process at a time.

    python3 perfbench/run.py --workload line --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is taken from ``src`` (it need
not be installed).  A run sets the workload up (config files, one warm
import and, for ``analysis``, the stored solutions), then times whole passes
over the workload's cases until ``--seconds`` have passed.  Passes come in
rounds of one pass per data seed, ``K*seed + k`` for k < K (K = 3 for
``line``, whose cases are all seeded, and 2 otherwise); every ``random:1``
exterior takes its pass's data seed through ``--seed``.  Each timing is the
median over the data seeds of each seed's median pass, which keeps one slow
instance (a product solve can take five times the typical iterations) from
setting the result.

With ``--trace 0`` it reports, per workload:

* ``setup_s``: median set-up time (set-up repeats up to five times while it
  has taken under 10 s, so the ``analysis`` set-up, which solves its inputs,
  runs once);
* ``run_s``: wall time of a pass over every case and command;
* ``solve_s``: summed ``fpxlab solve`` time of a pass; in ``analysis`` the
  solves run in set-up, and ``solve_s`` is their sum;
* ``analyze_s``: summed ``norms``, ``diagnose`` and ``check-exponent`` time;
* ``peak_rss_mb``: the largest child peak RSS of a pass, from ``os.wait4``;
* ``ok_ratio``: operations that met their expected outcome over those
  attempted, that is 1 - fail_ratio (fail_ratio itself is 0 on clean runs,
  which a relative bound cannot compare).

With ``--trace 1`` it runs passes in-process through ``fpxlab.cli.main``,
traced and untraced in turn, and reports the per-layer metrics of
:mod:`tracing` with the tracing overhead (traced minus untraced pass time).

Every command's outputs are checked (see :mod:`checks`).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are a readable report with the environment, sample counts and each failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from cases import ANALYSIS_COMMANDS, WORKLOADS, Case, Workload  # noqa: E402
from checks import DeterminismStore, expected_exit, output_problems, source_digest  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_BUDGET_S = 10.0
RUN_DEADLINE_S = 170.0  # a run ends within 180 s even when a command hangs
IMPORT_PROBE = "import time; t = time.perf_counter(); import fpxlab.cli; print(time.perf_counter() - t)"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "solve_s": "s", "analyze_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "1"}


class SetupError(RuntimeError):
    """The program cannot be started; the benchmark prints no result."""


@dataclass
class Op:
    """One command process and the verdict on it."""

    case: Case
    command: str
    data_seed: int
    exit_code: int
    seconds: float
    rss_mb: float
    output: str
    problems: list = field(default_factory=list)
    silent: bool = False  # a wrong answer the exit code did not report

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list, timeout: float = RUN_DEADLINE_S) -> tuple:
    """Run one child to completion: (exit code, seconds, peak RSS in MB, output).

    The child's stdout and stderr are merged into one pipe, read to the end,
    and the child is reaped with ``os.wait4`` for its resource usage.  A
    child still running after ``timeout`` seconds is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, output.decode(errors="replace")


def run_cli(argv: list, timeout: float) -> tuple:
    return run_process([sys.executable, "-m", "fpxlab.cli", *argv], timeout)


def import_seconds() -> float:
    """Time of a bare ``import fpxlab.cli`` in a fresh interpreter."""
    code, _, _, output = run_process([sys.executable, "-c", IMPORT_PROBE])
    if code != 0:
        raise SetupError(f"cannot import fpxlab.cli from {SRC}: {output.strip()[-400:]}")
    return float(output.split()[-1])


def in_process_runner(cli_module):
    """Runner calling ``cli_module.main`` in this process, looked up per call
    so that a wrapper the tracer installed is the one called.  An in-process
    call cannot be interrupted, so the timeout is not applied."""
    def run(argv: list, timeout: float) -> tuple:
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(captured):
            code = cli_module.main([str(a) for a in argv])
        return code, time.perf_counter() - start, 0.0, captured.getvalue()
    return run


class Bench:
    """One benchmark process: set-up, timed passes and output checks."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, store: DeterminismStore):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.store = store
        self.ops: list[Op] = []
        self.configs: dict = {}
        self.stored: dict = {}
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def execute(self, runner, case: Case, command: str, data_seed: int, out: Path) -> Op:
        config = self.configs[case.name]
        argv = ["--seed", str(data_seed), command, "--config", str(config)]
        if command in ("norms", "diagnose"):
            solution = self.stored.get(case.name, out / "solution.csv")
            argv += ["--input", str(solution)]
        if self.time_left() > 0:
            code, seconds, rss, output = runner(argv + ["--out", str(out)], self.time_left())
        else:
            code, seconds, rss, output = -1, 0.0, 0.0, "not started: run deadline passed"
        op = Op(case, command, data_seed, code, seconds, rss, output)
        self.ops.append(op)
        return op

    def judge(self, op: Op, out: Path) -> None:
        want = expected_exit(op.command, op.case.preset)
        # Exit 0 claims success, so its outputs are checked even where a
        # nonzero exit was expected; an unexpected nonzero exit is a failure
        # the program reported, and its outputs may be missing.
        found = output_problems(op.command, out, op.case) if op.exit_code in (0, want) else []
        if op.exit_code != want:
            reason = op.output.strip().splitlines()[-1][:200] if op.output.strip() else ""
            op.problems.append(f"exit {op.exit_code}, expected {want} {reason}".rstrip())
            if op.exit_code == 0:
                found.append(f"exit 0 claims success where exit {want} was expected")
        if op.command == "solve":
            key_seed = op.data_seed if op.case.seeded else None
            found += self.store.check(out, op.case.name, key_seed)
        op.problems += found
        op.silent = bool(found)

    def set_up(self) -> list:
        """Repeat the set-up while it is cheap; return the time of each one."""
        times = []
        while len(times) < SETUP_REPEATS and sum(times) < SETUP_BUDGET_S:
            start = time.perf_counter()
            base = self.run_dir / f"setup{len(times)}"
            base.mkdir()
            for case in self.workload.cases:
                path = base / f"{case.name}.cfg"
                path.write_text(case.config_text())
                self.configs[case.name] = path
            import_seconds()
            ops = []
            if self.workload.stored:
                for case in self.workload.cases:
                    out = base / case.name
                    ops.append((self.execute(run_cli, case, "solve", self.workload.seeds(self.seed)[0], out), out))
                    self.stored[case.name] = out / "solution.csv"
            times.append(time.perf_counter() - start)
            for op, out in ops:
                self.judge(op, out)
        return times

    def run_pass(self, runner, data_seed: int, tag: str) -> dict:
        """Time one pass over every case, then check its outputs."""
        base = self.run_dir / tag
        ops = []
        start = time.perf_counter()
        for case in self.workload.cases:
            out = base / case.name
            commands = ANALYSIS_COMMANDS if self.workload.stored else ("solve",) + ANALYSIS_COMMANDS
            for command in commands:
                ops.append((self.execute(runner, case, command, data_seed, out), out))
        wall = time.perf_counter() - start
        for op, out in ops:
            self.judge(op, out)
        shutil.rmtree(base, ignore_errors=True)
        done = [op for op, _ in ops]
        return {
            "data_seed": data_seed,
            "run_s": wall,
            "solve_s": sum(op.seconds for op in done if op.command == "solve"),
            "analyze_s": sum(op.seconds for op in done if op.command != "solve"),
            "peak_rss_mb": max(op.rss_mb for op in done),
        }


def median_over_seeds(passes: list, key: str) -> float:
    """Median over data seeds of each seed's median pass."""
    by_seed: dict = {}
    for p in passes:
        by_seed.setdefault(p["data_seed"], []).append(p[key])
    return statistics.median(statistics.median(v) for v in by_seed.values())


def describe(samples: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    text = f"median {statistics.median(samples):.6g}"
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (1 - q / 100) >= 10:
            return f"{text}, p{q:g} {np.percentile(samples, q):.6g}, n={len(samples)}"
    return f"{text}, n={len(samples)} (too few samples for a tail percentile)"


def measure(workload: Workload, seed: int, seconds: float, trace: bool, report: list) -> dict:
    WORK.mkdir(exist_ok=True)
    store = DeterminismStore(WORK / "hashes.json", source_digest(SRC / "fpxlab"))
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    bench = Bench(workload, seed, run_dir, store)
    data_seeds = workload.seeds(seed)
    try:
        setup_times = bench.set_up()
        start = time.perf_counter()
        if trace:
            metrics = trace_passes(bench, data_seeds[0], seconds, start, report)
        else:
            passes = []
            while not passes or (time.perf_counter() - start < seconds and bench.time_left() > 0):
                passes += [bench.run_pass(run_cli, ds, f"pass{len(passes)}") for ds in data_seeds]
            if workload.stored:  # the solves ran once, in set-up
                solve_s = sum(op.seconds for op in bench.ops if op.command == "solve")
            else:
                solve_s = median_over_seeds(passes, "solve_s")
            values = {
                "setup_s": statistics.median(setup_times),
                "run_s": median_over_seeds(passes, "run_s"),
                "solve_s": solve_s,
                "analyze_s": median_over_seeds(passes, "analyze_s"),
                "peak_rss_mb": median_over_seeds(passes, "peak_rss_mb"),
                "ok_ratio": sum(not op.failed for op in bench.ops) / len(bench.ops),
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            report.append(f"setup_s samples: {describe(setup_times)}")
            for key in ("run_s", "solve_s", "analyze_s", "peak_rss_mb"):
                if key == "solve_s" and workload.stored:
                    report.append(f"solve_s in set-up: {solve_s:.6g} s")
                else:
                    report.append(f"{key} per pass: {describe([p[key] for p in passes])}")
    finally:
        store.save()
        shutil.rmtree(run_dir, ignore_errors=True)

    for command in ("solve",) + ANALYSIS_COMMANDS:
        samples = [op.seconds for op in bench.ops if op.command == command]
        if samples:
            report.append(f"{command} seconds per call: {describe(samples)}")
    failed = [op for op in bench.ops if op.failed]
    report.append(f"fail_ratio = {len(failed)}/{len(bench.ops)} = {len(failed) / len(bench.ops):.4f}")
    for op in failed:
        kind = "WRONG OUTPUT" if op.silent else "failed"
        report.append(f"{kind}: {op.case.name} data_seed={op.data_seed} {op.command}: {'; '.join(op.problems)}")
    return {
        "correct": not any(op.silent for op in bench.ops),
        "attempted": len(bench.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def trace_passes(bench: Bench, data_seed: int, seconds: float, start: float, report: list) -> dict:
    """Traced passes, each followed by an untraced one; per-layer medians.

    All passes run ``fpxlab.cli.main`` in this process, after one untraced
    warm-up pass (the first pass in a process also pays for growing its
    heap), so traced minus untraced time is the cost of the spans alone.
    The subprocess passes of ``--trace 0`` additionally pay one interpreter
    start and import per command (``cli.import_s``).
    """
    from tracing import Tracer, layer_metrics

    sys.path.insert(0, str(SRC))
    import fpxlab.cli

    runner = in_process_runner(fpxlab.cli)
    warm_up = bench.run_pass(runner, data_seed, "warm-up")["run_s"]
    pair_counts: dict = {}
    samples: list = []
    while not samples or (time.perf_counter() - start < seconds and bench.time_left() > 0):
        tracer = Tracer()
        with tracer:
            traced = bench.run_pass(runner, data_seed, f"traced{len(samples)}")["run_s"]
        untraced = bench.run_pass(runner, data_seed, f"untraced{len(samples)}")["run_s"]
        layers = layer_metrics(tracer.spans, pair_counts)
        layers["trace.run_s"] = (traced, "s")
        layers["trace.overhead_s"] = (traced - untraced, "s")
        samples.append(layers)
    imports = [import_seconds() for _ in range(3)]
    report.append(f"in-process passes: warm-up {warm_up:.6g} s, traced/untraced pairs n={len(samples)}; "
                  f"cli.import_s {describe(imports)}")
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    workload = WORKLOADS[args.workload]
    report = [f"perfbench workload={args.workload} seed={args.seed} data_seeds={workload.seeds(args.seed)} "
              f"trace={args.trace} seconds={args.seconds:g} cpus={os.cpu_count()} "
              f"python={platform.python_version()} numpy={np.__version__}"]
    try:
        if not (SRC / "fpxlab" / "cli.py").is_file():
            raise SetupError(f"no fpxlab sources under {SRC}")
        result = measure(workload, args.seed, args.seconds, bool(args.trace), report)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for name, entry in result["metrics"].items():
        report.append(f"{name} = {entry['value']!r} {entry['unit']}")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
