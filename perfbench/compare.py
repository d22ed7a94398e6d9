"""Compare two files of run records written by ``run.py --out``.

For every workload and metric present in both files it prints each side's
median and quartiles over its runs, the ratio of the medians (new / old) and
a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell a change from noise;
* ``regressed`` / ``improved``: the median moved by more than the bound;
* ``within bound``: otherwise.

Per-layer metrics have no bound; their verdict is ``-``. The end-to-end
times are scaled by the host's slowdown in each run (see run.py); their
unscaled values follow as ``unscaled.<metric>`` rows, judged against the
same bound, so that a change the scaling alone makes can be seen.
"""

import json
import statistics


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" not in rec or "metrics" not in rec:
                continue
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
            for name, value in rec.get("raw", {}).items():
                if value == rec["metrics"][name]["value"]:      # not scaled
                    continue
                runs.setdefault((rec["workload"], "unscaled." + name), []).append(value)
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(old, new, bound, better):
    if bound is None:
        return "-"
    if old[3] > bound or new[3] > bound:
        return "unresolved"
    change = (new[0] - old[0]) / abs(old[0])
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within bound"


def main(old_path, new_path, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load(old_path), load(new_path)
    keys = [k for k in old if k in new]
    if not keys:
        print("no workload and metric in common")
        return 1
    print(f"{'workload':<12} {'metric':<44} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/old':>8}  verdict")
    order = {name: i for i, name in enumerate(metrics)}

    def key(k):
        base = k[1].removeprefix("unscaled.")
        return k[0], order.get(base, len(order)), k[1] != base

    for workload, name in sorted(keys, key=key):
        m = metrics.get(name.removeprefix("unscaled."), {})
        o, n = summary(old[workload, name]), summary(new[workload, name])
        ratio = f"{n[0] / o[0]:.4f}" if o[0] else "n/a"
        side = "{:.6g} [{:.6g}, {:.6g}] n={}"
        print(f"{workload:<12} {name:<44} "
              f"{side.format(*o[:3], len(old[workload, name])):>34} "
              f"{side.format(*n[:3], len(new[workload, name])):>34} {ratio:>8}  "
              f"{verdict(o, n, m.get('bound'), m.get('better', 'lower'))}")
    return 0
