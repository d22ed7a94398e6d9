"""Exception types raised by the public API."""


class NcedError(Exception):
    """Base class for all package errors."""


class ZeroKError(NcedError):
    """Noncommutativity vector is zero: the stabilizer is the full group."""


class KindMismatchError(NcedError):
    """Group parameter does not match the descriptor kind."""


class InconsistentInputError(NcedError):
    """Field state does not satisfy the constitutive relations."""


class InputFormatError(NcedError):
    """Analysis input file is malformed."""


class NotAntisymmetricError(InputFormatError):
    """Noncommutativity matrix is not antisymmetric."""
