"""Central numeric tolerances used across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # unit biquaternions: defect above which construction fails / below which
    # the element is accepted without renormalization
    unit_reject: float = 1e-9
    unit_clean: float = 1e-12
    # classification of a noncommutativity vector (relative)
    classify: float = 1e-9
    # pre-rotation consistency required before a duality scan
    duality_consistency: float = 1e-10


DEFAULT = Tolerances()
