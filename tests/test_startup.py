"""What a command process loads before its own work: no numpy for the bare package, one BLAS thread for the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports fpxlab.cli and reports the BLAS thread setting and the process's task count.
CLI_PROBE = """\
import json, os, sys
import fpxlab.cli
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps({"threads": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks}))
"""


# Runs one command and reports its exit status and whether numpy.ma was imported.
COMMAND_PROBE = """\
import sys
from fpxlab.cli import main
print(main(sys.argv[1:]), "numpy.ma" in sys.modules)
"""


def _run(code: str, *args: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env={**base, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_package_import_loads_no_numpy():
    assert _run("import sys, fpxlab; print('numpy' in sys.modules)") == "False"


def test_cli_starts_one_blas_thread():
    report = json.loads(_run(CLI_PROBE))
    assert report["threads"] == "1"
    if sys.platform == "linux":
        assert report["tasks"] == 1


def test_cli_keeps_the_thread_count_set():
    assert json.loads(_run(CLI_PROBE, OPENBLAS_NUM_THREADS="2"))["threads"] == "2"


def test_diagnose_does_not_import_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma, which costs every diagnose about 1 MB and 10 ms
    config = tmp_path / "run.cfg"
    config.write_text("[grid]\nnodes_per_axis = 201\n\n[field]\npreset = radial\n\n[problem]\nexterior = sine:1\n")
    args = ["--config", str(config), "--out", str(tmp_path)]
    assert _run(COMMAND_PROBE, "solve", *args) == "0 False"
    assert _run(COMMAND_PROBE, "diagnose", *args, "--input", str(tmp_path / "solution.csv")) == "0 False"
