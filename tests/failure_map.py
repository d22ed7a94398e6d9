"""The failure map: which physically valid inputs make ``nced analyze`` fail,
and by which rows of its ``checks``.

    PYTHONPATH=src python tests/failure_map.py

prints a Markdown table with one line per family and size: how many of 20
inputs fail, and in how many of them each failing row failed, most frequent
first. Each input is analyzed in process at the default flags,
``cli.analyze(tv, "x", 360, 100, 0)``. The inputs come from one
``numpy.random.default_rng(2026)``, line after line in table order, in random
directions:

- isotropic: theta ⟂ epsilon, |theta| = |epsilon| = m;
- nonisotropic: every component ~ m·N(0, 1);
- near-isotropic: |epsilon| = 1, theta ⟂ epsilon, theta² − epsilon² = r.
  At r = 1e-9, |K·K|/|K|² = r/(2 + r) lies below ``noncomm.CLASSIFY_TOL``,
  so the input is classified isotropic although K is not null. That row
  comes last, so that the rows before it keep their draws.

Every input is physically valid, so every failure is a defect of nced.
"""

from collections import Counter

import numpy as np

from nced import noncomm as nc
from nced.cli import analyze

ROWS = ([("isotropic", m) for m in (0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1e4, 1e8, 1e12)]
        + [("nonisotropic", m) for m in (3e-9, 1e-4, 1.0, 1e4, 1e10, 1e15)]
        + [("near-isotropic", r) for r in (0.1, 1e-2, 1e-4, 1e-8)]
        + [("near-isotropic", 1e-9)])


def _unit(v):
    return v / np.sqrt(np.sum(v * v))


def draw(family, size, rng):
    """One input of ``family`` at ``size`` (m, or r near the cone), as
    noncommutativity vectors."""
    if family == "nonisotropic":
        return nc.ThetaVectors(size * rng.normal(size=3), size * rng.normal(size=3))
    p = _unit(rng.normal(size=3))
    q = rng.normal(size=3)
    q = _unit(q - np.sum(q * p) * p)
    if family == "isotropic":
        return nc.ThetaVectors(size * p, size * q)
    return nc.ThetaVectors(p, np.sqrt(1.0 + size) * q)


def failures(tv):
    """The names of the rows of ``checks`` that fail for ``tv``."""
    report = analyze(tv, "x", 360, 100, 0)
    return [name for name, ok in report["checks"].items() if not ok]


def failure_map(rows=ROWS, n=20):
    """``[(family, size, inputs that fail, Counter of failing rows)]``, one
    entry per row of ``rows``, from ``n`` inputs each."""
    rng = np.random.default_rng(2026)
    out = []
    for family, size in rows:
        found = [failures(draw(family, size, rng)) for _ in range(n)]
        out.append((family, size, sum(map(bool, found)),
                    Counter(name for names in found for name in names)))
    return out


def table(fmap, n):
    """``fmap`` as a Markdown table; ``n`` inputs per row."""
    lines = ["| family | size | inputs that fail | failing rows |", "|---|---|---|---|"]
    for family, size, failed, rows in fmap:
        label = "r" if family == "near-isotropic" else "m"
        names = ", ".join(f"{name} {count}" for name, count in rows.most_common())
        lines.append(f"| {family} | {label} = {size:g} | {failed}/{n} | {names or '-'} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(failure_map(), 20))
