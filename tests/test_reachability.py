"""Every public function of fpxlab is reached by a command.

The four data commands (solve, norms, diagnose, check-exponent) run in
process under ``sys.setprofile`` on small 1-D configs of each exponent
preset and on one 2-D radial config, and ``iterate`` runs once.  Every
public module-level function and public method defined in ``src/fpxlab``
must have been called: code that only tests reach belongs in the tests.
"""

import importlib
import inspect
import pkgutil
import sys

import fpxlab
from fpxlab.cli import main
from fpxlab.grid import build_grid

from conftest import write_exponent_table

# public names no command calls, each with the reason it stays
EXEMPT = {
    "spaces.gagliardo_modular": "perfbench/tracing.py looks it up by name in FUNCTIONS",
    "operators.PairKernel.weak_residual": "perfbench/tracing.py patches it by name in METHODS",
}

LINE = "[grid]\nr_trunc = 2\nnodes_per_axis = 41\n\n[problem]\nexterior = linear\n"
CONFIGS = {
    "constant": LINE + "\n[field]\npreset = constant\n",
    "radial": LINE + "\n[field]\npreset = radial\n",
    "product": LINE + "\n[field]\npreset = product\n",
    "tabulated": LINE + "\n[field]\npreset = tabulated\ntable = field.csv\n",
    "plane": "[grid]\ndim = 2\nr_trunc = 2\nnodes_per_axis = 17\n\n[field]\npreset = radial\n\n"
             "[problem]\nexterior = linear\n",
}


def _public_functions() -> dict:
    """Code object -> dotted name of every public function and method defined in the package."""
    found = {}
    for info in pkgutil.iter_modules(fpxlab.__path__):
        module = importlib.import_module(f"fpxlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[member.__code__] = f"{info.name}.{name}.{attr}"
    return found


def test_every_public_function_is_reached_by_a_command(tmp_path):
    write_exponent_table(tmp_path / "field.csv", build_grid(1, 0.0, 1.0, 2.0, 41))
    runs = [["iterate", "--C", "1", "--b", "2", "--betas", "1", "--y0", "0.5", "--jmax", "5",
             "--out", str(tmp_path / "iterate")]]
    for name, text in CONFIGS.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out = tmp_path / name
        solution = str(out / "solution.csv")
        args = ["--config", str(config), "--out", str(out)]
        runs += [["solve", *args], ["norms", *args, "--input", solution],
                 ["diagnose", *args, "--input", solution], ["check-exponent", *args]]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = {}
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes[" ".join(argv[:3])] = main(argv)
    finally:
        sys.setprofile(None)

    public = _public_functions()
    unreached = sorted(name for code, name in public.items() if code not in called and name not in EXEMPT)
    assert unreached == [], f"no command calls {unreached}: move them into the tests or delete them"
    stale = sorted(set(EXEMPT) - {name for code, name in public.items() if code not in called})
    assert stale == [], f"exempt but reached or gone: {stale}"
    # the product field is not log-Holder continuous, and check-exponent says so
    failed = {run: code for run, code in codes.items() if code != 0}
    assert failed == {f"check-exponent --config {tmp_path / 'product.cfg'}": 1}
