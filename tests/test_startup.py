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


def _run(code: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": path, **env},
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
