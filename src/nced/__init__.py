"""Biquaternion numerics for residual Lorentz symmetry of noncommutative
electrodynamics: constitutive relations, stabilizer groups, duality scans.

The public names below load their submodule on first use. The submodules
import numpy, so ``import nced`` alone loads none of them: it leaves numpy's
BLAS threading to the caller, and the CLI can choose it before numpy loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the one kernel implementation: batch-first numpy
BACKEND = "numpy"

# submodule -> the public names it defines, re-exported here
_EXPORTS = {
    "algebra": ("conj_complex", "conj_components", "conj_quat", "mul", "norm", "quat",
                "scalar_part", "sym_scalar", "vector_part"),
    "constitutive": ("ExcitationState", "FieldState", "forward", "inverse"),
    "duality": ("GRState", "dual_rotate", "duality_scan"),
    "errors": ("DegenerateError", "InconsistentInputError", "InputFormatError",
               "KindMismatchError", "NcedError", "NotAntisymmetricError", "NotUnitError",
               "ZeroKError"),
    "lorentz": ("act_four_vector", "act_vector", "boost", "compose", "factorize",
                "lorentz_matrix4", "make_element", "rotation", "so3c_matrix"),
    "noncomm": ("KInvariants", "ThetaVectors", "classify", "invariants", "k_from_vectors"),
    "smallgroup": ("SmallGroupDescriptor", "canonical_form", "describe", "element",
                   "stabilizes"),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["BACKEND", *_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per name
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
