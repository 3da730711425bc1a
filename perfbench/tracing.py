"""Per-layer tracing of fpxlab, installed from outside the package.

:class:`Tracer` wraps the public functions and methods of each fpxlab
module and records one span per call: name, start, end and the span that
was open when it started.  ``cli``, ``solve`` and ``regularity`` import
names such as ``minimize``, ``tail`` and ``gagliardo_modular`` directly, so a
wrapper is bound in every loaded ``fpxlab`` module that held the original;
``PairKernel`` and ``ExponentField`` methods are patched on the class.
Everything is restored when the tracer's ``with`` block ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# module -> public functions, and (module, class) -> methods, that get spans
FUNCTIONS = {
    "config": ("parse_config",),
    "grid": ("build_grid", "read_grid_function", "write_grid_function"),
    "exponents": ("extrema_over_product", "check_interior_oscillation",
                  "check_exterior_comparison", "check_log_holder"),
    "operators": ("tail",),
    "solve": ("minimize", "descend"),
    "spaces": ("lebesgue_norm", "gagliardo_modular", "sobolev_seminorm"),
    "regularity": ("caccioppoli_report", "sup_bound_check", "growth_lemma_check",
                   "calibrate_growth_delta", "sublevel_energy_check", "holder_exponent_fit"),
    "cli": ("main",),
}
METHODS = {
    ("operators", "PairKernel"): ("__init__", "energy", "gradient", "weak_residual"),
    ("exponents", "ExponentField"): ("eval",),
}
CLI_COMMANDS = ("solve", "norms", "diagnose", "check-exponent")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_info(span, args, kwargs, result):
    kernel, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
    span.info["bytes"] = sum(v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray))
    span.info["grid"] = grid


def _eval_info(span, args, kwargs, result):
    span.info["points"] = int(np.size(result))


def _descend_info(span, args, kwargs, result):
    _, history, _, iterations = result
    span.info["iterations"] = int(iterations)
    span.info["accepted"] = len(history) - 1


def _io_info(span, args, kwargs, result):
    span.info["bytes"] = os.path.getsize(args[0])


def _cli_info(span, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv", [])
    span.info["command"] = next((a for a in argv if a in CLI_COMMANDS), "other")


INFO_HOOKS = {
    "operators.PairKernel.__init__": _kernel_info,
    "exponents.ExponentField.eval": _eval_info,
    "solve.descend": _descend_info,
    "grid.read_grid_function": _io_info,
    "grid.write_grid_function": _io_info,
    "cli.main": _cli_info,
}


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers, exit restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = {name: importlib.import_module(f"fpxlab.{name}") for name in FUNCTIONS}
        loaded = [m for key, m in sys.modules.items() if key == "fpxlab" or key.startswith("fpxlab.")]
        for mod_name, names in FUNCTIONS.items():
            for attr in names:
                original = getattr(modules[mod_name], attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for attr in names:
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{mod_name}.{cls_name}.{attr}", original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


def admissible_pairs(grid) -> int:
    """Unordered node pairs the energy sums over, counted from the grid geometry.

    A pair is admissible when its nodes differ, at least one is interior and
    their distance is within the interaction radius.
    """
    nodes, exterior = grid.nodes, ~grid.interior
    limit = grid.interaction_radius * (1 + 1e-12)
    total = 0
    for start in range(0, len(nodes), 256):
        block = slice(start, start + 256)
        dist = np.sqrt(np.sum((nodes[block, None, :] - nodes[None, :, :]) ** 2, axis=-1))
        ok = (dist > 0) & (dist <= limit) & ~(exterior[block, None] & exterior[None, :])
        total += int(np.count_nonzero(ok))
    return total // 2


class SpanStats:
    """Sums over recorded spans, by name and by layer."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                self.child_time[span.parent] += span.duration

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        """Time in calls of ``name``, counting a call nested in another call of it once."""
        total = 0.0
        for span in self.named(name):
            parent = span.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                total += span.duration
        return total

    def self_time(self, layer: str) -> float:
        """Time in a layer's spans not covered by any child span."""
        return sum(s.duration - self.child_time[i] for i, s in enumerate(self.spans) if s.layer == layer)

    def info_sum(self, name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.named(name))


def layer_metrics(spans: list[Span], pair_counts: dict) -> dict:
    """Per-layer metrics of one traced pass.  ``pair_counts`` caches
    :func:`admissible_pairs` by grid geometry across passes."""
    st = SpanStats(spans)
    pairs = 0
    for span in st.named("operators.PairKernel.__init__"):
        grid = span.info.pop("grid")
        key = (grid.dim, grid.nodes_per_axis, grid.r_trunc, tuple(grid.center), tuple(grid.halfwidths))
        if key not in pair_counts:
            pair_counts[key] = admissible_pairs(grid)
        pairs += pair_counts[key]
    kernel_bytes = st.info_sum("operators.PairKernel.__init__", "bytes")
    descend_spans = {i for i, s in enumerate(spans) if s.name == "solve.descend"}
    trials = sum(1 for s in st.named("operators.PairKernel.energy") if s.parent in descend_spans)
    trials -= len(descend_spans)  # each descend evaluates its start point once
    accepted = st.info_sum("solve.descend", "accepted")
    cli = {cmd: sum(s.duration for s in st.named("cli.main") if s.info.get("command") == cmd)
           for cmd in CLI_COMMANDS}
    return {
        "operators.energy_calls": (st.count("operators.PairKernel.energy"), "count"),
        "operators.energy_s": (st.total("operators.PairKernel.energy"), "s"),
        "operators.gradient_calls": (st.count("operators.PairKernel.gradient"), "count"),
        "operators.gradient_s": (st.total("operators.PairKernel.gradient"), "s"),
        "operators.kernel_builds": (st.count("operators.PairKernel.__init__"), "count"),
        "operators.kernel_build_s": (st.total("operators.PairKernel.__init__"), "s"),
        "operators.kernel_bytes": (kernel_bytes, "B"),
        "operators.admissible_pairs": (pairs, "count"),
        "operators.bytes_per_pair": (kernel_bytes / pairs if pairs else 0.0, "B"),
        "operators.weak_residual_s": (st.total("operators.PairKernel.weak_residual"), "s"),
        "operators.tail_calls": (st.count("operators.tail"), "count"),
        "operators.tail_s": (st.total("operators.tail"), "s"),
        "solve.minimize_s": (st.total("solve.minimize"), "s"),
        "solve.self_s": (st.self_time("solve"), "s"),
        "solve.descend_calls": (st.count("solve.descend"), "count"),
        "solve.iterations": (st.info_sum("solve.descend", "iterations"), "count"),
        "solve.accepted_ratio": (accepted / trials if trials > 0 else 0.0, "1"),
        "spaces.gagliardo_calls": (st.count("spaces.gagliardo_modular"), "count"),
        "spaces.gagliardo_s": (st.total("spaces.gagliardo_modular"), "s"),
        "spaces.seminorm_s": (st.total("spaces.sobolev_seminorm"), "s"),
        "spaces.lebesgue_norm_s": (st.total("spaces.lebesgue_norm"), "s"),
        "regularity.caccioppoli_s": (st.total("regularity.caccioppoli_report"), "s"),
        "regularity.growth_calibrate_s": (st.total("regularity.calibrate_growth_delta"), "s"),
        "regularity.growth_checks": (st.count("regularity.growth_lemma_check"), "count"),
        "regularity.sup_bound_s": (st.total("regularity.sup_bound_check"), "s"),
        "regularity.sublevel_s": (st.total("regularity.sublevel_energy_check"), "s"),
        "regularity.holder_s": (st.total("regularity.holder_exponent_fit"), "s"),
        "exponents.eval_calls": (st.count("exponents.ExponentField.eval"), "count"),
        "exponents.eval_points": (st.info_sum("exponents.ExponentField.eval", "points"), "count"),
        "exponents.eval_s": (st.total("exponents.ExponentField.eval"), "s"),
        "exponents.extrema_s": (st.total("exponents.extrema_over_product"), "s"),
        "exponents.check_s": (sum(st.total(f"exponents.{n}") for n in FUNCTIONS["exponents"]
                                  if n.startswith("check_")), "s"),
        "grid.build_s": (st.total("grid.build_grid"), "s"),
        "grid.io_s": (st.total("grid.read_grid_function") + st.total("grid.write_grid_function"), "s"),
        "grid.io_bytes": (st.info_sum("grid.read_grid_function", "bytes")
                          + st.info_sum("grid.write_grid_function", "bytes"), "B"),
        "config.parse_s": (st.total("config.parse_config"), "s"),
        "cli.solve_s": (cli["solve"], "s"),
        "cli.norms_s": (cli["norms"], "s"),
        "cli.diagnose_s": (cli["diagnose"], "s"),
        "cli.check_exponent_s": (cli["check-exponent"], "s"),
        "cli.self_s": (st.self_time("cli"), "s"),
    }
