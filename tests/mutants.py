"""Mutation gate: every text replacement in ``MUTANTS`` must make tier-1 fail.

``python tests/mutants.py``, with no options, copies the checkout without
``.git`` and caches to a temporary directory and runs pytest there (where
``pyproject.toml`` puts the copy's ``src`` ahead of any ``PYTHONPATH``):
unmutated, which must pass, then once per mutant up to the first failure. A
mutant's run is stopped, with every process it started, after four times the
unmutated run's wall time. It prints each mutant's outcome and seconds:
killed (by the first failing test), error, timed out or SURVIVED, and exits
with 1 if one survives or its text does not occur once in its file.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (what the mutant breaks, file in src/dskernel, exact text, its replacement)
MUTANTS = [
    ("Theorem-3 constant's d", "density.py",
     "s ** (dim / (2.0 * (s - 1.0)))", "s ** (1.0 / (2.0 * (s - 1.0)))"),
    ("Theorem-3 constant's limit", "density.py", "(np.pi * np.e * epsilon)", "(np.pi * epsilon)"),
    ("the 1/2 in noise_magnitude", "inference.py", "log_d + 0.5 * np.log(", "log_d + np.log("),
    ("noise estimate times eps/2", "inference.py", "nhat = epsilon * (", "nhat = epsilon / 2 * ("),
    ("distance bias", "inference.py", "np.log(s) / (2.0 * (s", "np.log(s) / (4.0 * (s"),
    ("debias halving", "inference.py", "dim, qhat.s) / 2.0", "dim, qhat.s)"),
    ("robust Markov exponent", "laplacian.py", "(alpha - 0.5) * np.log(", "alpha * np.log("),
    ("traditional Markov exponent", "laplacian.py", "-alpha * log_deg", "-0.5 * alpha * log_deg"),
    ("Laplacian's 4/eps", "laplacian.py", "return 4.0 / epsilon *", "return 2.0 / epsilon *"),
    ("undamped map", "scaling.py", "g = 0.5 * (log_d + log_t - lse)", "g = log_t - lse"),
    ("D^(-1/2) start", "scaling.py", "log_d = 0.5 * (log_t - row_lse(np.zeros(n)))",
     "log_d = np.zeros(n)"),
    ("Anderson depth", "scaling.py", "ANDERSON_DEPTH = 5", "ANDERSON_DEPTH = 1"),
    ("residual max -> mean", "scaling.py", "lse - log_t)).max()", "lse - log_t)).mean()"),
    ("absorption threshold", "kernel.py", "ABSORB_THRESHOLD = 30.0", "ABSORB_THRESHOLD = 300.0"),
    ("flush edge", "kernel.py", "keep = block >= _LOG_TINY", "keep = block > _LOG_TINY"),
    ("centering", "kernel.py", "points = points - points.mean(axis=0)", "points = points"),
    ("median rule's /16", "harness.py", "np.median(off)) / 16.0", "np.median(off)) / 8.0"),
    ("standard KDE denominator", "kernel.py", "/ (affinity.n - 1)", "/ affinity.n"),
    ("DS-KDE denominator", "density.py", "-np.log(scaled.n - 1)", "-np.log(scaled.n)"),
    ("worst class max -> min", "laplacian.py", "max(per_class)", "min(per_class)"),
    ("kNN overlap maximum -> minimum", "inference.py", "np.maximum(np.arange(k_max)",
     "np.minimum(np.arange(k_max)"),
    ("Poisson 1/c", "counts.py", "y, 1.0 / counts.totals", "y, 1.0 / np.sqrt(counts.totals)"),
    ("test function's Laplacian", "geometry.py", "4.0 * np.sin(2.0", "2.0 * np.sin(2.0"),
    ("outlier fraction", "geometry.py", "size=(n, m))\n        eta[rng.uniform(size=n) < 0.9]",
     "size=(n, m))\n        eta[rng.uniform(size=n) < 0.5]"),
    ("outlier_scaled_gaussian law", "geometry.py", "np.sqrt(sigma / m)", "sigma / np.sqrt(m)"),
    ("zero-row rejection", "counts.py", "keep = totals > 0", "keep = totals >= 0"),
    ("entry row bound", "counts.py", "(i >= shape[0])", "(i > shape[0])"),
    ("entry column bound", "counts.py", "(j >= shape[1])", "(j > shape[1])"),
]
ROOT = Path(__file__).resolve().parents[1]
# without the tier-1 test that each text occurs once, which every mutant fails
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
          "--deselect", "tests/test_operator.py::test_every_mutant_of_the_gate_applies_once"]


def run_suite(checkout, timeout=None):
    """(pytest's exit code, or None if stopped at ``timeout``; its output; seconds)."""
    start = time.perf_counter()
    # without bytecode files: a mutant that keeps the file's length, written
    # within the mtime's resolution, would otherwise run its parent's bytecode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(PYTEST, cwd=checkout, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out, time.perf_counter() - start
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    finally:
        if proc.returncode is None:  # timed out or interrupted: stop its whole session
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def outcome(code, out):
    if code is None:
        return "timed out"
    if code == 0:
        return "SURVIVED"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)
    return f"killed by {first.group(1)}" if code == 1 and first else f"error (pytest exit {code})"


def main():
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        code, out, seconds = run_suite(checkout)
        if code != 0:
            print(out + f"the unmutated suite fails (pytest exit {code})")
            return 1
        timeout = 4 * seconds
        print(f"unmutated suite passed in {seconds:.1f} s; "
              f"each mutant is stopped after {timeout:.0f} s", flush=True)
        for name, file, old, new in MUTANTS:
            path = checkout / "src" / "dskernel" / file
            text = path.read_text()
            if text.count(old) != 1:
                failed.append(name)
                print(f"{name}: text occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            code, out, seconds = run_suite(checkout, timeout)
            path.write_text(text)
            if code == 0:
                failed.append(name)
            print(f"{name}: {outcome(code, out)} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants fail the suite")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
