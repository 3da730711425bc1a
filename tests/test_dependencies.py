"""numpy is the only third-party module the command line imports."""

import importlib.metadata
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """\
[grid]
dim = 1
halfwidth = 1
r_trunc = 2
nodes_per_axis = 41

[field]
preset = radial

[problem]
exterior = sine:1
"""

# Imports fpxlab.cli after a snapshot of sys.modules, so whatever the
# interpreter's site initialisation loads is in the snapshot, then runs the
# four commands and prints their exit codes and the newly imported top-level
# modules.
SCRIPT = textwrap.dedent("""\
    import json, sys
    before = {name.partition(".")[0] for name in sys.modules}
    from fpxlab.cli import main
    cfg, out = sys.argv[1], sys.argv[2]
    solution = out + "/solution.csv"
    codes = [main(["solve", "--config", cfg, "--out", out]),
             main(["norms", "--config", cfg, "--input", solution, "--out", out]),
             main(["diagnose", "--config", cfg, "--input", solution, "--out", out]),
             main(["check-exponent", "--config", cfg, "--out", out])]
    after = {name.partition(".")[0] for name in sys.modules}
    print(json.dumps({"codes": codes, "new": sorted(after - before)}))
""")


def test_commands_import_no_third_party_module_but_numpy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert "numpy" in report["new"]
    distributions = importlib.metadata.packages_distributions()
    # a module of no installed distribution, such as numpy's cython_runtime, is not a dependency
    foreign = [name for name in report["new"]
               if name not in sys.stdlib_module_names and name not in ("numpy", "fpxlab")
               and name in distributions]
    assert foreign == []
