"""fpxlab: desk-scale laboratory for nonlocal energies with variable exponents.

The package root imports nothing, so ``python -m fpxlab.cli`` sets the BLAS
thread count before numpy loads; import the modules themselves, such as
``fpxlab.exponents`` or ``fpxlab.solve``.
"""

__version__ = "0.1.0"
