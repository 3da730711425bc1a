"""Workloads of the fpxlab benchmark: named sets of CLI cases.

A case is one configuration file.  In the ``line`` and ``plane`` workloads
every timed pass runs ``solve`` and then ``norms``, ``diagnose`` and
``check-exponent`` on the fresh solution.  In ``analysis`` the solutions are
produced once during set-up and every pass runs only the three analysis
commands on them.

Why these workloads:

* ``line`` (1-D, r_trunc 4) is bound by descent iterations: each solve makes
  hundreds of cheap dense-kernel calls plus a 100-step p = 2 presolve, while
  kernel builds and diagnostics take a small share.  Solver changes show here.
* ``plane`` (2-D, 41 nodes per axis, r_trunc 4) takes few iterations, but
  each energy or gradient call sweeps all 2.8 M dense pairs, of which about
  3.5% are admissible, and the kernel is built three times per case.  Kernel
  representation and memory changes show here.
* ``analysis`` runs no descent: its time goes to the Gagliardo double sums,
  the seminorm bisection, the growth calibration and the tail, with the
  kernel built once and used a few times.  Work moved into the kernel build
  or into grid IO shows here as a cost.

Larger cases are left out: on a 2-core, 8 GB machine a 2-D solve at 61
nodes per axis took about a minute and 1.3 GB with the dense kernel, too much
for a run that repeats its cases.
"""

from __future__ import annotations

from dataclasses import dataclass

ANALYSIS_COMMANDS = ("norms", "diagnose", "check-exponent")
GRAD_TOL = 1e-8  # every solve reaches this weighted residual
S = 0.5  # fractional order of every case


@dataclass(frozen=True)
class Case:
    name: str
    dim: int
    nodes: int
    r_trunc: float
    preset: str
    exterior: str
    radius: float = 0.5

    @property
    def seeded(self) -> bool:
        """Whether the exterior data depends on the data seed."""
        return self.exterior.startswith("random:")

    @property
    def quadratic(self) -> bool:
        """Constant p = 2: the minimiser solves a linear system."""
        return self.preset == "constant"

    def config_text(self) -> str:
        axis = ",".join(["0"] * self.dim)
        half = ",".join(["1"] * self.dim)
        value = "value = 2\n" if self.preset == "constant" else ""
        return (
            f"[grid]\ndim = {self.dim}\ncenter = {axis}\nhalfwidth = {half}\n"
            f"r_trunc = {self.r_trunc!r}\nnodes_per_axis = {self.nodes}\n\n"
            f"[field]\npreset = {self.preset}\n{value}\n"
            f"[problem]\ns = {S!r}\nexterior = {self.exterior}\ngrad_tol = {GRAD_TOL!r}\n\n"
            f"[diagnostics]\ncenter = {axis}\nradius = {self.radius!r}\n"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    stored: bool = False  # solutions come from set-up, passes only analyse
    data_seeds: int = 2  # passes per round, each on its own data seed

    def seeds(self, seed: int) -> list:
        """The data seeds of one run: ``data_seeds * seed + k``."""
        return [self.data_seeds * seed + k for k in range(self.data_seeds)]


WORKLOADS = {
    "line": Workload("line", (
        Case("line-constant", 1, 801, 4.0, "constant", "random:1"),
        Case("line-radial", 1, 801, 4.0, "radial", "random:1"),
        Case("line-product", 1, 401, 4.0, "product", "random:1"),
    ), data_seeds=3),  # every case is seeded and iteration counts vary widely with the data
    "plane": Workload("plane", (
        Case("plane-radial", 2, 41, 4.0, "radial", "sine:1"),
        Case("plane-constant", 2, 41, 4.0, "constant", "random:1"),
    )),
    "analysis": Workload("analysis", (
        Case("analysis-plane", 2, 41, 2.0, "radial", "sine:1", radius=0.8),
        Case("analysis-line", 1, 1201, 1.5, "radial", "sine:1", radius=0.8),
    ), stored=True),
}
