"""Key-by-key difference of two reports, for tests and for the evidence of a
versioned change: which values moved, and by how much.

    python tests/report_diff.py OLD.yaml NEW.yaml

prints one line per changed key path, with its absolute and relative
difference, and then the changed paths with their list indices dropped.
"""

import math
import sys

import numpy as np


def report_diff(old, new, path=""):
    """``{key path: (abs diff, rel diff)}`` for every value that differs
    between the reports ``old`` and ``new``, such as ``duality.table[3][1]``.

    Mappings and lists are walked; an array is walked as its list. Two
    numbers give ``|new - old|`` and that over ``|old|`` (inf when old is 0,
    NaN when either is NaN); any other change, a missing key or a list of
    another length gives ``(None, None)``. Equal NaNs do not differ.
    """
    old, new = _plain(old), _plain(new)
    if isinstance(old, dict) and isinstance(new, dict):
        out = {}
        for key in [*old, *(key for key in new if key not in old)]:
            sub = f"{path}.{key}" if path else str(key)
            if key in old and key in new:
                out.update(report_diff(old[key], new[key], sub))
            else:
                out[sub] = (None, None)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        out = {}
        for i, (a, b) in enumerate(zip(old, new)):
            out.update(report_diff(a, b, f"{path}[{i}]"))
        return out
    if _number(old) and _number(new):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return {}
        delta = abs(new - old)
        return {path: (delta, delta / abs(old) if old else math.inf)}
    return {} if type(old) is type(new) and old == new else {path: (None, None)}


def changed_keys(diff):
    """The key paths of ``diff`` with their list indices dropped, in order."""
    return list(dict.fromkeys(path.split("[")[0] for path in diff))


def _plain(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


if __name__ == "__main__":
    import yaml

    old_path, new_path = sys.argv[1:]
    with open(old_path) as a, open(new_path) as b:
        diff = report_diff(yaml.safe_load(a), yaml.safe_load(b))
    for key, (delta, rel) in diff.items():
        print(f"{key}\t{delta}\t{rel}")
    print("changed keys:", ", ".join(changed_keys(diff)) or "none")
