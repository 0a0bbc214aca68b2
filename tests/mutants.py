"""Mutation gate: every text replacement in ``MUTANTS`` must make tier-1 fail.

``python tests/mutants.py``, with no options, copies the checkout without
``.git`` and caches to a temporary directory and runs pytest there (where
``pyproject.toml`` puts the copy's ``src`` ahead of any ``PYTHONPATH``).
Unmutated, the suite and the recorded killers together must pass. Each
mutant then runs its recorded killer alone; if that passes, or there is
none, the whole suite runs up to its first failure, and a recorded killer
that passed while the suite failed is printed as rot. A run is stopped, with
every process it started, after four times the unmutated suite's wall time.
It prints each mutant's outcome and seconds: killed (by the first failing
test), error, timed out or SURVIVED, and exits with 1 if one survives or its
text does not occur once in its file.
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

# (what the mutant breaks, file in src/dskernel, exact text, its replacement,
# the node id of the test that killed it first under -x, None if none does)
MUTANTS = [
    ("Theorem-3 constant's d", "density.py",
     "s ** (dim / (2.0 * (s - 1.0)))", "s ** (1.0 / (2.0 * (s - 1.0)))",
     "tests/test_density.py::test_normalization_constant_values_and_limit"),
    ("Theorem-3 constant's limit", "density.py", "(np.pi * np.e * epsilon)", "(np.pi * epsilon)",
     "tests/test_density.py::test_normalization_constant_values_and_limit"),
    ("the 1/2 in noise_magnitude", "inference.py", "log_d + 0.5 * np.log(", "log_d + np.log(",
     "tests/test_acceptance.py::test_criterion_05_distance_correction_bias"),
    ("noise estimate times eps/2", "inference.py", "nhat = epsilon * (", "nhat = epsilon / 2 * (",
     "tests/test_acceptance.py::test_criterion_05_distance_correction_bias"),
    ("distance bias", "inference.py", "np.log(s) / (2.0 * (s", "np.log(s) / (4.0 * (s",
     "tests/test_golden.py::test_golden_notes"),
    ("debias halving", "inference.py", "dim, qhat.s) / 2.0", "dim, qhat.s)",
     "tests/test_cli.py::test_denoise_debias_subtracts_half_the_distance_bias"),
    ("robust Markov exponent", "laplacian.py", "(alpha - 0.5) * np.log(", "alpha * np.log(",
     "tests/test_acceptance.py::test_criterion_07_laplacian_ordering"),
    ("robust family compensated by the kernel degrees", "laplacian.py",
     "np.log(raw_density(qhat))", "log_degrees(scaled.operator)",
     "tests/test_acceptance.py::test_criterion_07_laplacian_ordering"),
    ("traditional Markov exponent", "laplacian.py", "-alpha * log_deg", "-0.5 * alpha * log_deg",
     "tests/test_acceptance.py::test_criterion_07_laplacian_ordering"),
    ("Laplacian's 4/eps", "laplacian.py", "return 4.0 / epsilon *", "return 2.0 / epsilon *",
     "tests/test_laplacian.py::test_graph_laplacian_approximates_laplace_beltrami"),
    ("undamped map", "scaling.py", "g = 0.5 * (log_d + log_t - lse)", "g = log_t - lse", None),
    ("D^(-1/2) start", "scaling.py", "log_d = 0.5 * (log_t - row_lse(np.zeros(n)))",
     "log_d = np.zeros(n)",
     "tests/test_scaling.py::"
     "test_circles_the_damped_fixed_point_stalled_on_converge_within_budget[4-0.1-200]"),
    ("Anderson depth", "scaling.py", "ANDERSON_DEPTH = 5", "ANDERSON_DEPTH = 1",
     "tests/test_density.py::test_population_scaling_grid_refinement_is_stable"),
    ("residual max -> mean", "scaling.py", "lse - log_t)).max()", "lse - log_t)).mean()",
     "tests/test_acceptance.py::test_criterion_01_scaling_correctness"),
    ("absorption threshold", "kernel.py", "ABSORB_THRESHOLD = 30.0", "ABSORB_THRESHOLD = 300.0",
     "tests/test_operator.py::test_small_eps_weights_drift_past_the_threshold_and_reabsorb"),
    ("flush edge", "kernel.py", "np.less(block, _LOG_TINY", "np.less_equal(block, _LOG_TINY",
     "tests/test_operator.py::test_absorb_flushes_exactly_the_entries_below_tiny"),
    ("two-pass flush to 0, not -inf", "kernel.py", "np.copyto(block, -np.inf,",
     "np.copyto(block, 0.0,", "tests/test_acceptance.py::test_criterion_01_scaling_correctness"),
    ("dense flush's last mask", "kernel.py",
     "np.exp(block, out=block)\n                block *= keep\n", "np.exp(block, out=block)\n",
     "tests/test_acceptance.py::test_criterion_01_scaling_correctness"),
    ("outer sum's L without its ones", "kernel.py", "np.column_stack([x, ones])",
     "np.column_stack([x, 0.0 * ones])",
     "tests/test_acceptance.py::test_criterion_01_scaling_correctness"),
    ("centering", "kernel.py", "points = points - points.mean(axis=0)", "points = points",
     "tests/test_kernel.py::test_pairwise_sq_dists_accurate_on_offset_data"),
    ("median rule's /16", "harness.py", "np.median(off)) / 16.0", "np.median(off)) / 8.0",
     "tests/test_golden.py::test_golden_file[fig8.csv]"),
    ("standard KDE denominator", "kernel.py", "/ (affinity.n - 1)", "/ affinity.n",
     "tests/test_kernel.py::test_degrees_match_direct_sum"),
    ("standard KDE's (pi eps)^(d/2)", "harness.py", "(np.pi * eps) ** (dim / 2.0)",
     "(np.pi * eps) ** (dim / 4.0)",
     "tests/test_acceptance.py::test_criterion_02_ds_kde_clean_accuracy"),
    ("DS-KDE denominator", "density.py", "-np.log(scaled.n - 1)", "-np.log(scaled.n)",
     "tests/test_acceptance.py::test_criterion_10_exact_invariants"),
    ("worst class max -> min", "laplacian.py", "max(per_class)", "min(per_class)",
     "tests/test_acceptance.py::test_criterion_09_poisson_surrogate"),
    ("kNN overlap maximum -> minimum", "inference.py", "np.maximum(np.arange(k_max)",
     "np.minimum(np.arange(k_max)", "tests/test_acceptance.py::test_criterion_06_knn_recovery"),
    ("Poisson 1/c", "counts.py", "y, 1.0 / counts.totals", "y, 1.0 / np.sqrt(counts.totals)",
     "tests/test_cli.py::test_scrna_writes_real_totals_in_full"),
    ("test function's Laplacian", "geometry.py", "4.0 * np.sin(2.0", "2.0 * np.sin(2.0",
     "tests/test_geometry.py::test_test_function_laplacian_matches_second_difference"),
    ("outlier fraction", "geometry.py", "size=(n, m))\n        eta[rng.uniform(size=n) < 0.9]",
     "size=(n, m))\n        eta[rng.uniform(size=n) < 0.5]",
     "tests/test_geometry.py::test_outlier_gaussian_zero_fraction"),
    ("outlier_scaled_gaussian law", "geometry.py", "np.sqrt(sigma / m)", "sigma / np.sqrt(m)",
     "tests/test_cli.py::test_bench_figure_tables[fig4-flags1-header1-1000]"),
    ("zero-row rejection", "counts.py", "keep = totals > 0", "keep = totals >= 0",
     "tests/test_cli.py::test_scrna_warns_about_rejected_rows"),
    ("entry row bound", "counts.py", "(i >= shape[0])", "(i > shape[0])",
     "tests/test_counts.py::test_parse_errors_carry_line_numbers"),
    ("entry column bound", "counts.py", "(j >= shape[1])", "(j > shape[1])",
     "tests/test_counts.py::test_parse_errors_carry_line_numbers"),
]
ROOT = Path(__file__).resolve().parents[1]
# without the tier-1 test that each text occurs once, which every mutant fails
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
          "--deselect", "tests/test_operator.py::test_every_mutant_of_the_gate_applies_once"]


def run_suite(checkout, timeout=None, tests=()):
    """(pytest's exit code, or None if stopped at ``timeout``; its output;
    seconds) of the node ids ``tests``, or of the whole suite."""
    start = time.perf_counter()
    # without bytecode files: a mutant that keeps the file's length, written
    # within the mtime's resolution, would otherwise run its parent's bytecode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(PYTEST + list(tests), cwd=checkout, env=env, stdout=subprocess.PIPE,
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
        killers = sorted({killer for *_, killer in MUTANTS if killer})
        code, out, _ = run_suite(checkout, tests=killers)
        if code != 0:
            print(out + f"the recorded killers fail unmutated (pytest exit {code})")
            return 1
        print(f"unmutated suite passed in {seconds:.1f} s; "
              f"each run is stopped after {timeout:.0f} s", flush=True)
        for name, file, old, new, killer in MUTANTS:
            path = checkout / "src" / "dskernel" / file
            text = path.read_text()
            if text.count(old) != 1:
                failed.append(name)
                print(f"{name}: text occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            code, out, seconds = run_suite(checkout, timeout, [killer]) if killer else (0, "", 0)
            rot = ""
            if code == 0:  # the killer passes, or there is none: the whole suite decides
                code, out, more = run_suite(checkout, timeout)
                seconds += more
                rot = "rot, its recorded killer passes; " if killer and code != 0 else ""
            path.write_text(text)
            if code == 0:
                failed.append(name)
            print(f"{name}: {rot}{outcome(code, out)} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants fail the suite")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
