"""Biquaternion numerics for residual Lorentz symmetry of noncommutative
electrodynamics: constitutive relations, stabilizer groups, duality scans."""

from .algebra import (
    conj_complex,
    conj_components,
    conj_quat,
    mul,
    norm,
    quat,
    scalar_part,
    sym_scalar,
    vector_part,
)
from .constitutive import ExcitationState, FieldState, forward, inverse
from .duality import GRState, dual_rotate, duality_scan
from .errors import (
    DegenerateError,
    InconsistentInputError,
    InputFormatError,
    KindMismatchError,
    NcedError,
    NotAntisymmetricError,
    NotUnitError,
    ZeroKError,
)
from .lorentz import (
    act_four_vector,
    act_vector,
    boost,
    compose,
    factorize,
    lorentz_matrix4,
    make_element,
    rotation,
    so3c_matrix,
)
from .noncomm import KInvariants, ThetaVectors, classify, invariants, k_from_vectors
from .smallgroup import SmallGroupDescriptor, canonical_form, describe, element, stabilizes

__version__ = "0.1.0"

# the one kernel implementation: batch-first numpy
BACKEND = "numpy"
