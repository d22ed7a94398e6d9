"""Biquaternion numerics for residual Lorentz symmetry of noncommutative
electrodynamics: constitutive relations, stabilizer groups, duality scans.

Each public name lives in its submodule (``from nced import lorentz``). The
submodules import numpy, so ``import nced`` alone loads none of them: it
leaves numpy's BLAS threading to the caller, and the CLI can choose it before
numpy loads.
"""

__version__ = "0.6.0"

# the one kernel implementation: batch-first numpy. No module here reads it; it
# stays for perfbench's environment probe and tests/test_batch.py.
BACKEND = "numpy"
