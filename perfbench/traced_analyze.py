"""Run one ``nced analyze`` with its layers traced, in this process.

    python perfbench/traced_analyze.py SPANS.json analyze --input ... --report ...

takes the arguments of ``nced`` after the span file, exits with nced's exit
code and writes ``{span: [calls, total_s, self_s, work]}`` to SPANS.json.
"""

import json
import sys

from tracer import Tracer


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    write_spans = {_flag(argv, "--report"): "cli.report_write"}
    if "--csv" in argv:
        write_spans[_flag(argv, "--csv")] = "cli.csv_write"
    import nced.cli

    tracer = Tracer()
    with tracer.installed(write_spans):
        code = nced.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
