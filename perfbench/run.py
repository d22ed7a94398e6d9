"""Benchmark of ``nced analyze``, end to end and per layer.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare old.jsonl new.jsonl

A run drives ``nced analyze`` the way a user does: one fresh
``python -m nced analyze`` process per report, one at a time (a closed loop
with one client), for whole cycles of the workload's input kinds until
``--seconds`` have passed. Inputs come from ``--seed`` (see workloads.py).
Every report is verified after the timed loop (verify.py), and one input is
run again to check that its report is byte-identical apart from
``generated_at``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates each untraced report with a traced one on the same
input (traced_analyze.py, tracer.py) and prints the per-layer metrics; the
traced report must be byte-identical to its untraced twin. The last line of
stdout is one JSON object; ``--out FILE`` also appends the run, with its
environment and failing inputs, to FILE for ``--compare``.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 60.0
PROBES = 10
IMPORTTIME_PROBES = 3
# The host these runs share changes speed by tens of percent over minutes,
# and not evenly: process start-up and imports can speed up while interpreted
# computation does not. So an untraced run also times a fixed program that
# does not use nced, in two parts: start-up (interpreter, numpy and yaml
# imports, exit) and computation (small-array arithmetic and a YAML dump,
# timed inside the program). The host's slowdown in a run is the mean of the
# two parts' medians over their reference times, STARTUP_REF_S and
# COMPUTE_REF_S, and every wall time metric is divided by it: one factor per
# run, which nothing in nced can move, so moving work inside nced (say, from
# import to the analysis) moves a scaled figure exactly as it moves the wall
# time. CPU time is scaled the same way by the two parts' CPU times, because
# on this kind of host wall and CPU time drift apart: between two sets of runs
# the setup probe's CPU time once rose by 9% while its wall time fell by 25%.
# The unscaled values are printed and kept with --out.
CALIBRATION = """
from time import perf_counter, process_time
import numpy as np, yaml
t0, c0 = perf_counter(), process_time()
q = np.arange(1, 5) * (0.5 + 0.25j)
s = 0.0
for _ in range(3000):
    p = np.empty(4, np.complex128)
    p[0] = q[0] * q[0] - (q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    p[1:] = 2.0 * q[0] * q[1:]
    s += float(np.max(np.abs(p)))
yaml.safe_dump([[float(i), s] for i in range(1000)])
print(perf_counter() - t0, process_time() - c0)
"""
STARTUP_REF_S = 0.3
COMPUTE_REF_S = 0.1
LAYERS = ("cli", "noncomm", "smallgroup", "constitutive", "lorentz", "algebra", "duality")
# per-layer metric suffix -> field of a tracer span [calls, total_s, self_s, work]
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "points": 3, "bytes": 3}
BYTE_SPANS = {"cli.report": "cli.report_write", "cli.csv": "cli.csv_write"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int


@dataclass
class Report:
    inp: workloads.Input
    child: Child
    report: Path
    csv: Path
    log: Path
    spans: dict = field(default_factory=dict)


def spawn(argv, cwd, env, log_path):
    """Run one child to completion; wall time from spawn to exit, plus its
    CPU time and peak RSS from wait4."""
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def probe_environment(work, env, seed):
    code = ("import json, numpy, yaml, nced; print(json.dumps({"
            "'numpy': numpy.__version__, 'pyyaml': yaml.__version__, "
            "'libyaml': bool(getattr(yaml, '__with_libyaml__', False)), "
            "'nced_backend': nced.BACKEND, 'nced_file': nced.__file__}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=work, env=env,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import nced from {ROOT / 'src'}:\n{out.stderr}")
    info = json.loads(out.stdout)
    nced_file = Path(info.pop("nced_file")).resolve()
    if not nced_file.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"nced was imported from {nced_file}, not from {ROOT / 'src'}")
    return {"python": platform.python_version(), **info,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "seed": seed}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(text):
    """Split ``python -X importtime -c 'import nced.cli'`` into seconds spent
    importing numpy, yaml, nced's own modules and everything else nced pulls in."""
    numpy_us = yaml_us = nced_self_us = total_us = 0
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        ours = name == "nced" or name.startswith("nced.")
        if name == "numpy":
            numpy_us = cum_us
        elif name == "yaml":
            yaml_us = cum_us
        elif ours:
            nced_self_us += self_us
            if indent == 0:
                total_us += cum_us
    other_us = total_us - numpy_us - yaml_us - nced_self_us
    return {"import.numpy_s": numpy_us * 1e-6, "import.yaml_s": yaml_us * 1e-6,
            "import.nced_s": nced_self_us * 1e-6, "import.other_s": other_us * 1e-6,
            "import.total_s": total_us * 1e-6}


def measure_imports(work, env, probes):
    argv = [sys.executable, "-X", "importtime", "-c", "import nced.cli"]
    samples = []
    for _ in range(probes):
        log = work / "importtime.log"
        if spawn(argv, work, env, log).code != 0:
            raise RuntimeError(log.read_text())
        samples.append(parse_importtime(log.read_text()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Runner:
    def __init__(self, workload, seed, work, env):
        self.workload, self.seed, self.work, self.env = workload, seed, work, env

    def analyze(self, inp, tag, traced):
        w = self.work
        name = f"{inp.index}{tag}"
        rep, csv, log, spans = (w / f"report_{name}.yaml", w / f"scan_{name}.csv",
                                w / f"out_{name}.txt", w / f"spans_{name}.json")
        args = ["analyze", "--input", f"input_{inp.index}.yaml", "--report", rep.name,
                *self.workload.flags(), "--seed", str(inp.seed)]
        if self.workload.csv:
            args += ["--csv", csv.name]
        if traced:
            argv = [sys.executable, str(HERE / "traced_analyze.py"), spans.name, *args]
        else:
            argv = [sys.executable, "-m", "nced", *args]
        child = spawn(argv, w, self.env, log)
        result = Report(inp, child, rep, csv, log)
        if traced and spans.exists():
            result.spans = json.loads(spans.read_text())
        return result

    def probe(self, code):
        """One ``python -c code`` process, which must succeed; and its output."""
        log = self.work / "probe.log"
        child = spawn([sys.executable, "-c", code], self.work, self.env, log)
        if child.code != 0:
            raise RuntimeError(log.read_text())
        return child, log.read_text()

    def loop(self, seconds, trace, probes):
        """Whole cycles of the workload's kinds until ``seconds`` of reports
        have run. Between the cycles run ``probes`` setup probes (a fresh
        ``import nced.cli``, the cold start that every report pays) and, when
        untraced, as many calibration probes. They are spread so that they see
        the same machine as the reports, and their time is not counted. The
        environment probe's import comes first and leaves the bytecode cache
        as every later invocation finds it."""
        inputs = workloads.generate(self.workload, self.seed)
        plain, traced, setup, calibration = [], [], [], []
        elapsed = 0.0
        while not plain or elapsed < seconds:
            t0 = perf_counter()
            for _ in self.workload.kinds:
                inp = next(inputs)
                (self.work / f"input_{inp.index}.yaml").write_text(inp.yaml_text())
                plain.append(self.analyze(inp, "", False))
                if trace:
                    traced.append(self.analyze(inp, "t", True))
            elapsed += perf_counter() - t0
            while len(setup) < probes * min(1.0, elapsed / max(seconds, 1e-9)):
                setup.append(self.probe("import nced.cli")[0])
                if not trace:
                    child, out = self.probe(CALIBRATION)
                    wall, cpu = map(float, out.split())
                    calibration.append((child.wall_s - wall, wall, child.cpu_s - cpu, cpu))
        return plain, traced, elapsed, setup, calibration

    def verify(self, plain, traced):
        """Failing inputs and problems; a traced report and the rerun of the
        first input must match their untraced report byte for byte, apart
        from the timestamp."""
        failures, problems = [], []
        for r in plain:
            failed_checks, bad = verify.check(
                r.child.code, r.report, r.csv if self.workload.csv else None,
                r.log.read_text(errors="replace"), r.inp.kind, self.workload.scan_n)
            problems += [f"input {r.inp.index}: {p}" for p in bad]
            if r.child.code != 0 or bad:
                failures.append({"seed": self.seed, "index": r.inp.index, "kind": r.inp.kind,
                                 "form": r.inp.form, "exit": r.child.code,
                                 "failed_checks": failed_checks, "problems": bad})
        rerun = self.analyze(plain[0].inp, "r", False)
        for twin, r in [(t, plain[t.inp.index]) for t in traced] + [(rerun, plain[0])]:
            what = "traced run" if twin is not rerun else "rerun"
            if twin.child.code != r.child.code or not _same_outputs(twin, r, self.workload.csv):
                problems.append(f"input {r.inp.index}: {what} differs from the first run")
        return failures, problems


def _same_outputs(a, b, csv):
    def read(p):
        return p.read_bytes() if p.exists() else b""
    same = verify.without_timestamp(read(a.report)) == verify.without_timestamp(read(b.report))
    return same and (not csv or read(a.csv) == read(b.csv))


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def end_to_end(plain, elapsed, setup, calibration, failed):
    """(metrics scaled to the reference speed, unscaled metrics, details)."""
    walls = [r.child.wall_s for r in plain]
    value, pct, beyond = tail(walls)
    setup_s = statistics.median(c.wall_s for c in setup)
    raw = {
        "setup_s": setup_s,
        "report_s_p50": statistics.median(walls),
        "report_s_tail": value,
        "reports_per_s": len(plain) / elapsed,
        "cpu_s_per_report": statistics.median(r.child.cpu_s for r in plain),
        "peak_rss_mb": statistics.median(r.child.rss_mib for r in plain),
        "success_rate": 1.0 - failed / len(plain),
    }
    # start-up and computation, wall and CPU time
    start, compute, start_cpu, compute_cpu = (statistics.median(c[i] for c in calibration)
                                              for i in range(4))
    slowdown = (start / STARTUP_REF_S + compute / COMPUTE_REF_S) / 2.0
    cpu_slowdown = (start_cpu / STARTUP_REF_S + compute_cpu / COMPUTE_REF_S) / 2.0
    metrics = {name: value / slowdown for name, value in raw.items()}
    metrics["reports_per_s"] = raw["reports_per_s"] * slowdown
    metrics["cpu_s_per_report"] = raw["cpu_s_per_report"] / cpu_slowdown
    for name in ("peak_rss_mb", "success_rate"):     # not times
        metrics[name] = raw[name]
    info = {"report_s_tail": {"percentile": pct, "samples": len(walls), "beyond": beyond},
            "calibration": {"startup_s": start, "compute_s": compute,
                            "startup_cpu_s": start_cpu, "compute_cpu_s": compute_cpu,
                            "slowdown": slowdown, "cpu_slowdown": cpu_slowdown,
                            "startup_ref_s": STARTUP_REF_S, "compute_ref_s": COMPUTE_REF_S,
                            "samples": len(calibration)},
            "probes": {"setup": [[c.wall_s, c.cpu_s] for c in setup],
                       "calibration": calibration}}
    return metrics, raw, info


def per_layer(names, plain, traced, setup_s, imports, failed):
    """Per-report means of the traced spans, the import split and the
    accounting of the untraced and the traced median: setup + layer self
    times + gap. The traced gap is free of the wrappers' own cost, which
    the layer self times carry."""
    n = len(traced)
    known = {"cli.report_write", "cli.csv_write"}.union(*(r.spans for r in traced))

    def mean(span, i):
        return sum(r.spans.get(span, (0, 0.0, 0.0, 0))[i] for r in traced) / n

    metrics = dict(imports)
    for name in names:
        if name.split(".")[0] in ("import", "layer", "trace") or "." not in name:
            continue
        span, suffix = name.rsplit(".", 1)
        span = BYTE_SPANS.get(span, span)
        if span not in known or suffix not in SPAN_FIELDS:
            raise ValueError(f"per-layer metric {name} names no traced span")
        metrics[name] = mean(span, SPAN_FIELDS[suffix])
    layer_self = 0.0
    for layer in LAYERS:
        value = sum(mean(s, 2) for s in known if s.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = value
        layer_self += value
    untraced = statistics.median(r.child.wall_s for r in plain)
    traced_p50 = statistics.median(r.child.wall_s for r in traced)
    metrics.update({
        "error_rate": failed / len(plain),
        "trace.reports": n,
        "trace.setup_s": setup_s,
        "trace.untraced_report_s_p50": untraced,
        "trace.report_s_p50": traced_p50,
        "trace.overhead_ratio": traced_p50 / untraced,
        "trace.gap_s": untraced - setup_s - layer_self,
        "trace.traced_gap_s": traced_p50 - setup_s - layer_self,
    })
    return metrics


def run(workload, seed, seconds, trace, probes=PROBES, importtime_probes=IMPORTTIME_PROBES):
    """One benchmark run; returns the result record (see ``--out``)."""
    spec = json.loads(SPEC.read_text())
    work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        environment = probe_environment(work, env, seed)
        imports = measure_imports(work, env, importtime_probes) if trace else {}
        runner = Runner(workload, seed, work, env)
        plain, traced, elapsed, setup, calibration = runner.loop(seconds, trace, probes)
        failures, problems = runner.verify(plain, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(failures)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment, "elapsed_s": elapsed,
        "kinds": {k: sum(r.inp.kind == k for r in plain) for k in workload.kinds},
        "reports": [{"index": r.inp.index, "kind": r.inp.kind, "exit": r.child.code,
                     "wall_s": r.child.wall_s, "cpu_s": r.child.cpu_s,
                     "rss_mib": r.child.rss_mib} for r in plain],
        "failures": failures, "problems": problems,
    }
    if trace:
        listed = spec["per_layer"]
        setup_s = statistics.median(c.wall_s for c in setup)
        values = per_layer([m["name"] for m in listed], plain, traced, setup_s, imports, failed)
    else:
        listed = spec["end_to_end"]
        values, record["raw"], record["info"] = end_to_end(plain, elapsed, setup, calibration,
                                                           failed)
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in listed}
    record["result"] = {"correct": not problems, "attempted": len(plain), "failed": failed,
                        "metrics": record["metrics"]}
    return record


def print_record(rec):
    env = " ".join(f"{k}={v}" for k, v in rec["env"].items())
    print(f"perfbench {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']}")
    print(f"env: {env}")
    kinds = ", ".join(f"{k} {n}" for k, n in rec["kinds"].items())
    res = rec["result"]
    print(f"reports: {res['attempted']} ({kinds}) in {rec['elapsed_s']:.3f} s; "
          f"failed {res['failed']}; problems {len(rec['problems'])}")
    for f in rec["failures"]:
        print(f"failed input: seed={f['seed']} index={f['index']} kind={f['kind']} "
              f"form={f['form']} exit={f['exit']} failed_checks={','.join(f['failed_checks'])}")
    for p in rec["problems"]:
        print(f"problem: {p}")
    if "info" in rec:
        t, c = rec["info"]["report_s_tail"], rec["info"]["calibration"]
        print(f"report_s_tail: p{t['percentile']:.1f} of {t['samples']} samples "
              f"({t['beyond']} beyond)")
        print(f"calibration: start-up {c['startup_s']!r} s, computation {c['compute_s']!r} s "
              f"(medians of {c['samples']}); reference {c['startup_ref_s']} s and "
              f"{c['compute_ref_s']} s; slowdown {c['slowdown']!r}")
        print(f"calibration CPU: start-up {c['startup_cpu_s']!r} s, computation "
              f"{c['compute_cpu_s']!r} s; slowdown {c['cpu_slowdown']!r}")
        for name, value in rec["raw"].items():
            print(f"unscaled {name} = {value!r}")
    for name, m in rec["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(res))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record (JSON line) to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, spec=json.loads(SPEC.read_text()))
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "nced" / "cli.py").is_file():
        print(f"error: no nced sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rec = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    print_record(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
