"""The mutation harness: which tests catch a deliberate defect in ``src/``
when the tests that compare golden bytes are left out.

    python tests/mutants.py [NAME ...]

runs, for each mutant (or each one named), the tier-1 suite on a temporary
copy of the checkout whose ``src/`` holds that one edit, and prints a
Markdown table: the mutant, the claim it breaks, how many tests fail and in
which test files. A mutant that no test fails is marked ``SURVIVED``; then,
or when a suite run ends in an error of pytest's own, the exit status is 1.
Each mutant costs one suite run, about 40 s on 2 vCPUs.

A mutant is (name, file under ``src/nced``, exact old text, new text, the
claim the edit breaks). Its old text occurs exactly once in its file, which
``tests/test_mutants.py`` checks in tier-1, so the list cannot rot unseen.

The byte pins are left out, since a versioned change rewrites them:
``tests/test_golden.py``, the golden-file tests of
``tests/test_report_diff.py`` and the pinned map of
``tests/test_failure_map.py``. A defect that only they caught would pass
once they are rewritten. ``tests/test_mutants.py`` is left out too: on a
mutant's copy its old text is gone, so it would fail every mutant.

The method is that of DeMillo, Lipton & Sayward, "Hints on test data
selection" (IEEE Computer, 1978); it needs only the standard library.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nced"
# what a suite run reads: pyproject.toml holds pytest's options and puts the
# copy's src/ first on sys.path, and perfbench's self-test reads BENCHMARK.json
COPIED = ["src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json"]
LEFT_OUT = ["tests/test_golden.py", "tests/test_report_diff.py", "tests/test_failure_map.py",
            "tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    claim: str


def _bound(name, old, new):
    return Mutant(f"bound-{name}", "checks.py", old, new,
                  f"the {name} row fails above its bound, not 1000x above it")


MUTANTS = [
    # the group action and the constitutive map
    Mutant("act-unconjugated", "lorentz.py", "n = alg.conj_components(L)", "n = L",
           "act_vector sandwiches by the componentwise conjugate of L"),
    Mutant("correction-unconjugated", "constitutive.py",
           "s_xk = cdot(x, k).conjugate()[..., None]", "s_xk = cdot(x, k)[..., None]",
           "the constitutive correction takes the conjugated dot (f.K)*"),
    Mutant("phi-is-k", "noncomm.py", "return np.conj(np.asarray(k, np.complex128))",
           "return np.asarray(k, np.complex128)",
           "the small group is generated by phi = conj(K) = theta + i epsilon"),
    Mutant("exp-negated", "lorentz.py", "w = np.asarray(w, np.complex128)",
           "w = -np.asarray(w, np.complex128)",
           "exp(w, n) rotates by +2w about n"),
    Mutant("factorize-boost-scale", "lorentz.py", "bst = b / np.sqrt(2.0 * b[0].real)",
           "bst = b / np.sqrt(b[0].real)",
           "the polar boost is (q + 1) / sqrt(2 b0), a unit element"),
    # the duality
    Mutant("dual-rotate-r-forward", "duality.py", "_cmul(ph.conj(), s.R)", "_cmul(ph, s.R)",
           "a dual rotation turns R by e^{-i chi}"),
    Mutant("residual-fmin", "duality.py", "return np.minimum(d1, d2)[()]",
           "return np.fmin(d1, d2)[()]",
           "a NaN orientation defect makes the duality residual NaN"),
    Mutant("state-off-pair", "duality.py", "return GRState(2.0 * f - R, R)",
           "return GRState(2.0 * f - R, R * (1 + 1e-9))",
           "the analyzer's duality state satisfies the constitutive pair, and a state off it "
           "fails duality_zeros"),
    # the canonical form
    Mutant("canonical-flip-inverted", "smallgroup.py",
           "flip = cabs(cdot(c_flip, c_flip)) > cabs(cdot(c, c))",
           "flip = cabs(cdot(c_flip, c_flip)) < cabs(cdot(c, c))",
           "the half-turn axis is the one of larger abs(c.c)"),
    Mutant("canonical-z-boost-sign", "smallgroup.py", "(0.0, 0.0, 0.5j * (r - 1.0 / r))",
           "(0.0, 0.0, -0.5j * (r - 1.0 / r))",
           "the isotropic z-boost takes 2^e (1, i, 0) to (1, i, 0)"),
    # the classification
    Mutant("classify-tol", "noncomm.py", "CLASSIFY_TOL = 1e-9", "CLASSIFY_TOL = 1e-6",
           "K is isotropic only when abs(K.K) <= 1e-9 abs(K)^2"),
    # the report rows
    Mutant("covariance-without-boosts", "cli.py", "bst = lorentz.exp(1.3j, np.eye(3))",
           "bst = lorentz.exp(1.3, np.eye(3))",
           "the covariance design holds boosts, which reject a Hermitian dot"),
    Mutant("quarter-turns-builtin-max", "checks.py",
           'zeros = np.max(dual["quarter_turn_residuals"])',
           'zeros = max(dual["quarter_turn_residuals"])',
           "a NaN quarter-turn residual fails duality_zeros"),
    Mutant("nonmember-small-angle", "checks.py", "lorentz.exp(0.5, np.eye(3))",
           "lorentz.exp(0.005, np.eye(3))",
           "the non-member rotations turn by 1 about each lab axis"),
    Mutant("offgrid-narrowed", "checks.py", "far = dist >= np.pi / 36",
           "far = dist >= np.pi / 360",
           "the off-grid minimum keeps pi/36 away from every quarter turn"),
    Mutant("stabilizer-first-trial", "cli.py", "np.max(sg.stabilizes(e1, k))",
           "np.max(sg.stabilizes(e1[:1], k))",
           "the stabilizer row covers every trial"),
    Mutant("abelian-self", "cli.py", "cabs(e12 - mul(e2, e1))", "cabs(e12 - mul(e1, e2))",
           "the abelian row compares L(p1)L(p2) with L(p2)L(p1)"),
    Mutant("invariance-first-trial", "cli.py", "sg.verify_constitutive_invariance(k, L, E, B)",
           "sg.verify_constitutive_invariance(k, L[:1], E[:1], B[:1])",
           "the invariance row covers every trial"),
    # the pass bounds, each loosened 1000x
    _bound("duality_zeros-commutative", "bool(zeros <= 1e-13)", "bool(zeros <= 1e-10)"),
    _bound("duality_zeros", "zeros <= 1e-11 * np.maximum(1.0, peak)",
           "zeros <= 1e-8 * np.maximum(1.0, peak)"),
    _bound("duality_discrete", '>= 1e-6 * peak', '>= 1e-9 * peak'),
    _bound("stabilizer", 'small["max_stabilizer_residual"] <= 1e-11 * scale',
           'small["max_stabilizer_residual"] <= 1e-8 * scale'),
    _bound("group_law", 'small["group_law_defect"] <= 1e-11 * scale',
           'small["group_law_defect"] <= 1e-8 * scale'),
    _bound("abelian", 'small["abelian_defect"] <= 1e-11 * scale',
           'small["abelian_defect"] <= 1e-8 * scale'),
    _bound("invariance", 'small["max_invariance_residual"] <= 1e-11 * scale ** 2',
           'small["max_invariance_residual"] <= 1e-8 * scale ** 2'),
    _bound("distinguishes_nonmembers", ">= 1e-4 * min(k_max, 1e4)",
           ">= 1e-7 * min(k_max, 1e4)"),
    _bound("full_covariance", 'report["covariant_transport_residual"] <= 1e-11 * scale ** 2',
           'report["covariant_transport_residual"] <= 1e-8 * scale ** 2'),
    _bound("canonical_form-reduction", 'canonical["reduction_residual"] <= 1e-10 * scale',
           'canonical["reduction_residual"] <= 1e-7 * scale'),
    _bound("canonical_form-drift", 'canonical["k_square_drift"] <= 1e-11 * scale ** 2',
           'canonical["k_square_drift"] <= 1e-8 * scale ** 2'),
    _bound("factorization", '["recomposition_defect"] <= 1e-11 * scale',
           '["recomposition_defect"] <= 1e-8 * scale'),
    # the trial draws and the writers
    Mutant("draws-transposed", "cli.py", "float, size).reshape(-1, width)",
           "float, size).reshape(width, -1).T",
           "trial row i holds random() calls i*width to i*width + width - 1"),
    Mutant("write-names-report", "cli.py", 'InputFormatError(f"cannot write {what}: {exc}")',
           'InputFormatError(f"cannot write report: {exc}")',
           "a failed write names the file it was writing"),
    Mutant("report-without-tail", "cli.py", "rows, [tail]))", "rows))",
           "the report holds every key after the scan table"),
]


def apply(mutant, src):
    """Edit the copy of ``src/nced`` at ``src`` by ``mutant``."""
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(mutant):
    """(pytest's exit status, the ids of the tests that fail or error) with
    ``mutant`` applied, the byte pins left out."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name, ignore=skip)
            else:
                shutil.copy(ROOT / name, tmp / name)
        apply(mutant, tmp / "src" / "nced")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *(f"--ignore={p}" for p in LEFT_OUT)],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
            capture_output=True, text=True)
    return proc.returncode, re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    print("| mutant | file | claim broken | tests failed | killed by |")
    print("|---|---|---|---|---|")
    survived = 0
    for mutant in chosen:
        status, failed = failed_tests(mutant)
        files = Counter(test.split("::")[0].rpartition("/")[2] for test in failed)
        if status not in (0, 1):
            killers = f"pytest exit status {status}"
        else:
            killers = ", ".join(f"{f} {n}" for f, n in files.most_common()) or "SURVIVED"
        survived += status != 1 or not failed
        print(f"| {mutant.name} | {mutant.file} | {mutant.claim} | {len(failed)} | {killers} |",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
