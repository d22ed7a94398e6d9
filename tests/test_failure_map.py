"""``failure_map`` draws each family as its docstring states, and tabulates
the inputs that fail and their failing rows; the whole map is pinned."""

from collections import Counter

import numpy as np

from nced import noncomm as nc
from failure_map import ROWS as MAP_ROWS, draw, failure_map, table

# one input per family, at a size where every row passes, with the
# classification and the (|epsilon|², |theta|²) it is drawn to have
ROWS = [("isotropic", 1.0), ("nonisotropic", 1.0), ("near-isotropic", 0.5)]
KINDS = (nc.ISOTROPIC, nc.NONISOTROPIC, nc.NONISOTROPIC)
SQUARES = {"isotropic": (1.0, 1.0), "near-isotropic": (1.0, 1.5)}


def test_one_input_per_family_has_its_shape_and_passes():
    rng = np.random.default_rng(2026)
    for (family, size), kind in zip(ROWS, KINDS):
        tv = draw(family, size, rng)
        assert nc.classify(nc.k_from_vectors(tv)) == kind
        if family in SQUARES:
            assert abs(np.sum(tv.epsilon * tv.theta)) <= 1e-15
            squares = [np.sum(tv.epsilon ** 2), np.sum(tv.theta ** 2)]
            assert np.allclose(squares, SQUARES[family], rtol=1e-15, atol=0)
    assert failure_map(ROWS, n=1) == [(family, size, 0, Counter()) for family, size in ROWS]


def test_table_counts_inputs_and_rows():
    fmap = [("isotropic", 100.0, 20, Counter(invariance=20, stabilizer=11)),
            ("near-isotropic", 1e-8, 0, Counter())]
    assert table(fmap, 20).splitlines() == [
        "| family | size | inputs that fail | failing rows |",
        "|---|---|---|---|",
        "| isotropic | m = 100 | 20/20 | invariance 20, stabilizer 11 |",
        "| near-isotropic | r = 1e-08 | 0/20 | - |",
    ]


# the rows where every input fails, each on canonical_form alone: the
# ill-conditioned corner, where the canonical element grows as sqrt|K| (the
# isotropic m = 1e8 and 1e12) or K is not null but is classified isotropic
# (the near-isotropic r = 1e-9)
CANONICAL_CORNER = {("isotropic", 1e8), ("isotropic", 1e12), ("near-isotropic", 1e-9)}


def test_map_fails_only_the_canonical_corner():
    assert failure_map() == [
        (family, size, 20, Counter(canonical_form=20)) if (family, size) in CANONICAL_CORNER
        else (family, size, 0, Counter()) for family, size in MAP_ROWS]
