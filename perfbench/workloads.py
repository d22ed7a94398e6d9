"""Workload definitions and the seeded input generator.

Every workload is a fixed cycle of classification kinds. Input ``i`` of a run
has kind ``kinds[i % len(kinds)]``, so a run made of whole cycles always has
the same mix; the seed only chooses the numbers. The mix itself is a guess:
there is no traffic data for this tool.

The generator writes the noncommutativity object the way a user would: as the
``epsilon``/``theta`` vector pair or as the 4x4 ``theta_matrix``, picked at
random per input. It does not import ``nced``, so the inputs do not depend on
the code under test.
"""

import math
import random
from dataclasses import dataclass
from typing import Optional

import yaml

NONISOTROPIC = "nonisotropic"
ISOTROPIC = "isotropic"
ZERO = "zero"


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    trials: Optional[int]      # None: leave the program's default
    scan_n: Optional[int]      # None: leave the program's default
    csv: bool

    def flags(self):
        out = []
        if self.trials is not None:
            out += ["--trials", str(self.trials)]
        if self.scan_n is not None:
            out += ["--scan-n", str(self.scan_n)]
        return out


# Why each workload exists is in BENCHMARK.json and README.md: cli-default is
# dominated by import and YAML, cli-trials by the trial loops of the small
# group and covariance checks, cli-scan by the duality scan and its writers.
# Zero inputs skip the trial loops, so cli-trials leaves them out.
WORKLOADS = {
    w.name: w for w in (
        Workload("cli-default", (NONISOTROPIC, ISOTROPIC, ZERO), None, None, False),
        Workload("cli-trials", (NONISOTROPIC, ISOTROPIC), 2000, 360, False),
        Workload("cli-scan", (NONISOTROPIC, ISOTROPIC, ZERO), 10, 10000, True),
    )
}


@dataclass(frozen=True)
class Input:
    index: int
    kind: str
    form: str            # "vector" or "matrix"
    epsilon: tuple
    theta: tuple
    seed: int            # the --seed passed to nced analyze

    def yaml_text(self):
        if self.form == "vector":
            doc = {"epsilon": list(self.epsilon), "theta": list(self.theta)}
        else:
            doc = {"theta_matrix": theta_matrix(self.epsilon, self.theta)}
        return yaml.safe_dump(doc, default_flow_style=None, sort_keys=False)


def theta_matrix(eps, th):
    """The antisymmetric 4x4 matrix whose electric and magnetic parts are
    ``eps`` and ``th`` (the layout ``nced.noncomm.tensor_from_vectors`` reads)."""
    t = [[0.0] * 4 for _ in range(4)]
    for m in range(3):
        t[m + 1][0] = eps[m]
        t[0][m + 1] = -eps[m]
    t[2][3], t[3][2] = -th[0], th[0]
    t[3][1], t[1][3] = -th[1], th[1]
    t[1][2], t[2][1] = -th[2], th[2]
    return t


def condition(eps, th):
    """|K.K| / |K|**2 of K = epsilon + i theta: 1 far from the isotropic
    cone, 0 on it."""
    ee, tt = sum(x * x for x in eps), sum(x * x for x in th)
    et = sum(a * b for a, b in zip(eps, th))
    return math.hypot(tt - ee, 2.0 * et) / (ee + tt)


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return [x / n for x in v]


# The program's fixed invariance bound (1e-11 * scale**2) rejects physically
# valid inputs as they grow or near the isotropic cone, the open defect of
# roadmap item 3. A timing benchmark must run only inputs on which no report
# fails, so the generator stays where the worst of 2000 trials is at most
# about a tenth of the bound:
# - isotropic inputs stop at |theta| = |epsilon| = 2, not 10. The residual
#   grows about as the cube of the magnitude: the worst trial reached 0.1 of
#   the bound at magnitude 2.3, 0.7 at 4.9 and 1.8 at 6.5;
# - nonisotropic inputs keep |K.K| >= 0.2 |K|**2, which 3% of draws miss.
#   Nearer the cone the residual rises about as the inverse square of that
#   ratio: the worst trial reached 0.12 of the bound at 0.2, 0.39 at 0.1 and
#   2 at 0.022.
# A report's cost does not depend on either: the same code runs the same trials.
ISOTROPIC_MAX = 2.0
MIN_CONDITION = 0.2


def _magnitude(rng, top=10.0):
    return 10.0 ** rng.uniform(-1.0, math.log10(top))     # log-uniform in [0.1, top]


def _vectors(kind, rng):
    """Vectors of one input."""
    if kind == ZERO:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    if kind == NONISOTROPIC:
        while True:
            eps = [_magnitude(rng) * x for x in _unit(rng)]
            th = [_magnitude(rng) * x for x in _unit(rng)]
            if condition(eps, th) >= MIN_CONDITION:
                return tuple(eps), tuple(th)
    # isotropic: theta and epsilon orthogonal with equal length, so K.K = 0
    # up to rounding (relative 1e-16, far inside the 1e-9 classification band)
    u = _unit(rng)
    while True:
        w = _unit(rng)
        d = sum(a * b for a, b in zip(u, w))
        v = [b - d * a for a, b in zip(u, w)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 0.1:
            break
    m = _magnitude(rng, ISOTROPIC_MAX)
    return tuple(m * x / n for x in v), tuple(m * x for x in u)


def generate(workload, seed):
    """Endless, deterministic stream of inputs for one workload and seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    index = 0
    while True:
        kind = workload.kinds[index % len(workload.kinds)]
        form = rng.choice(("vector", "matrix"))
        eps, th = _vectors(kind, rng)
        yield Input(index, kind, form, eps, th, rng.randrange(2 ** 31))
        index += 1
