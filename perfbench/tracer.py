"""Span tracing of nced's layers, installed from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
(``noncomm``, ``smallgroup``, ``constitutive``, ``lorentz``, ``algebra``,
``duality``) and the section helpers of ``nced.cli`` with timing wrappers.
A function is patched under every name that an ``nced`` module binds it to,
so ``nced.smallgroup.h_from_f`` is traced as well as
``nced.constitutive.h_from_f``. The report and CSV writes are timed by an
``open`` placed in ``nced.cli``'s namespace, which is where the writer looks
the name up. Everything is put back when the block exits.

Spans are aggregated in memory per name: call count, total time and self time
(total minus the time of the traced spans nested inside). A trial loop makes
tens of thousands of spans per report, too many to keep one by one.
"""

import builtins
import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("noncomm", "smallgroup", "constitutive", "lorentz", "algebra", "duality")

# nced.cli helpers and the span each one opens
CLI_SPANS = {
    "main": "cli.main",
    "run_analysis": "cli.run_analysis",
    "load_input": "cli.load_input",
    "_small_group_section": "cli.small_group",
    "_covariance_check": "cli.covariance",
    "_canonical_section": "cli.canonical",
    "_factorization_section": "cli.factorization",
    "_duality_section": "cli.duality",
}


def _scan_points(args, kwargs):
    return kwargs["n"] if "n" in kwargs else args[2]


# spans that also count a work size, not just calls
WORK_COUNTERS = {"duality.duality_scan": _scan_points}

_MISSING = object()


class Tracer:
    def __init__(self):
        # span name -> [calls, total_s, self_s, work]
        self.stats = {}
        self._stack = []
        self._patches = []

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def begin(self):
        self._stack.append(0.0)
        return perf_counter()

    def end(self, name, t0, work=0):
        dt = perf_counter() - t0
        stack = self._stack
        child = stack.pop()
        s = self._stat(name)
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        s[3] += work
        if stack:
            stack[-1] += dt

    def wrap(self, name, fn):
        # The body of ``end`` is inlined: calling begin/end from here raised
        # the tracing overhead on cli-trials (tens of thousands of calls per
        # report) from about 1.1x to 1.23x.
        stack = self._stack
        s = self._stat(name)
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                s[0] += 1
                s[1] += dt
                s[2] += dt - child
                if counter is not None:
                    s[3] += counter(args, kwargs)
                if stack:
                    stack[-1] += dt

        return traced

    def _open(self, write_spans):
        """An ``open`` that turns a write to a known path into a span lasting
        until the file is closed; its work count is the bytes written."""
        tracer = self

        def traced_open(file, mode="r", *args, **kwargs):
            name = write_spans.get(os.fspath(file)) if "w" in mode else None
            if name is None:
                return builtins.open(file, mode, *args, **kwargs)
            t0 = tracer.begin()
            try:
                fh = builtins.open(file, mode, *args, **kwargs)
            except BaseException:
                tracer.end(name, t0)
                raise
            return _SpanFile(tracer, name, t0, fh)

        return traced_open

    def _targets(self):
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"nced.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{layer}.{attr}", obj))
        cli = sys.modules["nced.cli"]
        targets += [(span, getattr(cli, attr)) for attr, span in CLI_SPANS.items()]
        return targets

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, vars(mod).get(attr, _MISSING)))
        setattr(mod, attr, value)

    @contextmanager
    def installed(self, write_spans=None):
        """Trace nced inside the block. ``write_spans`` maps an output path
        to the span name its write gets (such as ``cli.report_write``)."""
        import nced.cli  # noqa: F401  (every layer module is loaded with it)

        by_id = {id(fn): (fn, self.wrap(name, fn)) for name, fn in self._targets()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nced" or n.startswith("nced.")]
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    hit = by_id.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, hit[1])
            self._patch(sys.modules["nced.cli"], "open", self._open(write_spans or {}))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._patches:
            mod, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(mod, attr)
            else:
                setattr(mod, attr, old)


class _SpanFile:
    """A file whose close ends a span and records the bytes written."""

    def __init__(self, tracer, name, t0, fh):
        self._tracer, self._name, self._t0, self._fh = tracer, name, t0, fh
        self.write = fh.write
        self._open = True

    def close(self):
        if self._open:
            self._open = False
            try:
                self._fh.close()
            finally:
                self._tracer.end(self._name, self._t0, os.path.getsize(self._fh.name))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)
