"""Checks on one ``nced analyze`` result: exit code, report, CSV and stdout.

``check`` returns the report's failed checks and a list of problems. A problem
means the output is wrong or inconsistent (a crash, a report that does not
parse, an exit code that disagrees with ``status``, a table of the wrong
length, a CSV that does not match the table, a wrong classification). Exit 1
with a consistent report is not a problem: it is the program's verdict that a
physics check failed, and it is counted as a failed report elsewhere.
"""

import re

import yaml

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_GENERATED_AT = re.compile(rb"^generated_at: .*$", re.MULTILINE)


def without_timestamp(data):
    """Report bytes with the ``generated_at`` line blanked."""
    return _GENERATED_AT.sub(b"generated_at:", data)


def check(code, report_path, csv_path, stdout_text, kind, scan_n):
    """(failed check names, problems) for one finished report."""
    if code not in (0, 1):
        return [], [f"exit code {code}: {stdout_text.strip()[-300:]}"]
    try:
        with open(report_path) as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        return [], [f"report unreadable: {exc}"]
    try:
        return _check_doc(doc, code, csv_path, stdout_text, kind, scan_n)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [], [f"report malformed: {exc!r}"]


def _check_doc(doc, code, csv_path, stdout_text, kind, scan_n):
    problems = []
    checks = doc["checks"]
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    status = "pass" if code == 0 else "fail"
    if doc["status"] != status or bool(failed) != (code == 1):
        problems.append(f"exit {code} disagrees with status {doc['status']} "
                        f"and failed checks {failed}")
    if doc["classification"] != kind:
        problems.append(f"classified {doc['classification']}, input is {kind}")
    if not stdout_text.startswith(f"{doc['status']}: {doc['classification']};"):
        problems.append(f"stdout does not match the report: {stdout_text[:200]!r}")
    table = doc["duality"]["table"]
    want = doc["config"]["scan_n"] if scan_n is None else scan_n
    if not (len(table) == want == doc["duality"]["scan_n"] == doc["config"]["scan_n"]):
        problems.append(f"table has {len(table)} rows, scan_n is {want}")
    if csv_path is not None:
        problems += _check_csv(csv_path, table)
    return failed, problems


def _check_csv(path, table):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"CSV unreadable: {exc}"]
    if not lines or lines[0] != "chi,residual":
        return ["CSV header is not chi,residual"]
    rows = lines[1:]
    if len(rows) != len(table):
        return [f"CSV has {len(rows)} rows, table has {len(table)}"]
    for i, (row, (chi, r)) in enumerate(zip(rows, table)):
        if row != f"{chi:.12g},{r:.12g}":
            return [f"CSV row {i} {row!r} does not match table ({chi!r}, {r!r})"]
    return []
