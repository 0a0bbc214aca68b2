"""The benchmark's workloads: inputs generated from a seed, the timed call
through the public API or the CLI, and the checks on its outputs.

Each workload cycles through ``datasets`` independent inputs spawned from the
run's seed, and times ``repeats`` calls on each input it prepares. Accuracy
against the ground truth is averaged over the datasets, and the timed calls
spread over them, so that one unlucky draw does not decide a run. A workload
with ``prepare_ahead`` has all its inputs generated, and written, before the
first timed call. Everything here reaches ``dskernel`` through attribute
lookups on the package or its modules, so the traced run's wrappers see every
call.
"""

import csv
import os

import numpy as np
import scipy.io

import dskernel as dk
from dskernel import cli, harness

# The sampling density of every circle dataset in the package's experiments.
PAPER_SIGMA_SQ = 0.16 * np.pi**2


def _dataset_seed(seed, k):
    """Seed of the run's k-th dataset; a fresh object, because spawning advances it."""
    return np.random.SeedSequence(seed, spawn_key=(k,))


def _pearson_gap(estimate, truth):
    return float(1.0 - np.corrcoef(estimate, truth)[0, 1])


def _scaling_failures(solution, scaled, tol):
    failures = []
    if not solution.converged or not solution.residual <= tol:
        failures.append(f"solve: converged={solution.converged} "
                        f"residual={solution.residual:.3e} tol={tol:g}")
    w = scaled.w
    if not np.array_equal(w, w.T):
        failures.append("W is not exactly symmetric")
    row_gap = float(np.abs(w.sum(axis=1) - 1.0).max())
    if not row_gap <= tol:
        failures.append(f"W row sums off by {row_gap:.3e} > tol {tol:g}")
    return failures


def _nonfinite(**arrays):
    return [f"{name} has non-finite entries" for name, a in arrays.items()
            if not np.all(np.isfinite(a))]


def _write_synced(path, write):
    """Write a file through ``write(fh)`` and wait until it is on disk, so that
    no writeback runs during a later timed read."""
    with open(path, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())


class _ApiWorkload:
    """A workload whose call returns the scaling solution itself."""

    tol = 1e-9
    repeats = 1  # inputs are cheap to regenerate; more datasets steady the accuracy
    prepare_ahead = False  # an n x n input per dataset is too big to keep them all

    @staticmethod
    def fingerprint(inp, out):
        return out["solution"].log_d

    @staticmethod
    def iterations(out):
        return out["solution"].iterations


class CircleDenoise(_ApiWorkload):
    """Noisy circle through the ``dskernel denoise`` API sequence plus the
    robust and traditional Laplacians at alpha = 1."""

    name = "circle_denoise"
    # the accuracy the run reports as estimate_err, and ceilings on gross
    # errors that count a call as failed
    estimate = "noise_err"
    ceilings = {"density_err": 0.5, "noise_err": 0.1}

    def __init__(self, seed, workdir, tiny=False):
        self.n = self.m = 200 if tiny else 2000
        self.epsilon = 0.1
        self.s = 2.0
        self.alpha = 1.0
        self.datasets = 2 if tiny else 16
        self.seed = seed

    def prepare(self, k):
        s_sample, s_embed, s_noise = _dataset_seed(self.seed, k).spawn(3)
        sample = dk.sample_circle(self.n, PAPER_SIGMA_SQ, seed=s_sample)
        sample = dk.embed_orthogonal(sample, self.m, seed=s_embed)
        noise = dk.apply_noise(sample, "varying_ball", seed=s_noise)
        f, lap_f = dk.test_function_and_laplacian(sample.angles)
        return {"points": noise.noisy_points, "f": f, "lap_f": lap_f,
                "true_density": sample.density_values,
                "true_noise_sq": noise.true_noise_sq}

    def call(self, inp):
        eps, s = self.epsilon, self.s
        affinity = dk.gaussian_kernel(dk.pairwise_sq_dists(inp["points"]), eps)
        solution = dk.sinkhorn_symmetric(affinity, tol=self.tol)
        scaled = dk.assemble_W(affinity, solution)
        qhat = dk.ds_kde(scaled, s, dim=1)
        nhat = dk.noise_magnitude(solution, qhat, eps)
        table = dk.signal_magnitude_and_distances(
            inp["points"], nhat, eps, s, 1, scaled=scaled, qhat=qhat)
        robust_err = dk.operator_error(dk.robust_markov(scaled, qhat, self.alpha),
                                       inp["f"], inp["lap_f"], eps)
        trad_err = dk.operator_error(dk.traditional_markov(affinity, self.alpha),
                                     inp["f"], inp["lap_f"], eps)
        return {"solution": solution, "scaled": scaled, "qhat": qhat, "table": table,
                "robust_err": robust_err, "trad_err": trad_err}

    def check(self, inp, out):
        table = out["table"]
        failures = _scaling_failures(out["solution"], out["scaled"], self.tol)
        failures += _nonfinite(
            log_d=out["solution"].log_d, qhat=out["qhat"].normalized,
            noise_sq_hat=table.noise_sq_hat, signal_sq_hat=table.signal_sq_hat,
            corrected_dists=table.corrected_dists,
            operator_errors=np.array([out["robust_err"], out["trad_err"]]))
        return failures

    def accuracy(self, inp, out):
        return {
            "density_err": float(np.abs(out["qhat"].normalized - inp["true_density"]).max()),
            "noise_err": _pearson_gap(out["table"].noise_sq_hat, inp["true_noise_sq"]),
        }


class CircleSmallEps(_ApiWorkload):
    """Clean circle at a bandwidth where the solver runs its log-sum-exp path.

    The angles follow a wrapped normal with variance pi^2, not the paper's
    0.16 pi^2: at that density the sparse side of the circle leaves gaps
    several bandwidths wide, and the iteration count swings between about 75
    and 420 from one seed to the next. With variance pi^2 every dataset takes
    27-39 iterations, still on the log-sum-exp path (max dist^2 / eps = 800).
    """

    name = "circle_small_eps"
    estimate = "density_err"
    ceilings = {"density_err": 0.5}
    sigma_sq = np.pi**2

    def __init__(self, seed, workdir, tiny=False):
        self.n = self.m = 300 if tiny else 800
        self.epsilon = 0.036 if tiny else 5e-3
        self.s = 2.0
        self.datasets = 2 if tiny else 16
        self.seed = seed

    def prepare(self, k):
        s_sample, s_embed = _dataset_seed(self.seed, k).spawn(2)
        sample = dk.sample_circle(self.n, self.sigma_sq, seed=s_sample)
        sample = dk.embed_orthogonal(sample, self.m, seed=s_embed)
        return {"points": sample.clean_points, "true_density": sample.density_values}

    def call(self, inp):
        affinity = dk.gaussian_kernel(dk.pairwise_sq_dists(inp["points"]), self.epsilon)
        solution = dk.sinkhorn_symmetric(affinity, tol=self.tol)
        scaled = dk.assemble_W(affinity, solution)
        qhat = dk.ds_kde(scaled, self.s, dim=1)
        nhat = dk.noise_magnitude(solution, qhat, self.epsilon)
        return {"solution": solution, "scaled": scaled, "qhat": qhat, "nhat": nhat}

    def check(self, inp, out):
        failures = _scaling_failures(out["solution"], out["scaled"], self.tol)
        failures += _nonfinite(log_d=out["solution"].log_d,
                               qhat=out["qhat"].normalized, noise_sq_hat=out["nhat"])
        return failures

    def accuracy(self, inp, out):
        err = np.abs(out["qhat"].normalized - inp["true_density"]).max()
        return {"density_err": float(err)}


class CountsCli:
    """Synthetic Poisson counts through ``dskernel scrna`` run in-process."""

    name = "counts_cli"
    estimate = "noise_err"
    ceilings = {"noise_err": 0.1}
    depth_ranges = ((400.0, 800.0), (2000.0, 4000.0))
    transition_rows = 6  # three alphas times two families
    # every dataset is written once before timing starts, then read by two calls
    repeats = 2
    prepare_ahead = True

    def __init__(self, seed, workdir, tiny=False):
        self.n, self.m = (100, 500) if tiny else (600, 5000)
        self.datasets = 2 if tiny else 6
        self.seed = seed
        self.workdir = workdir
        self.paths = {key: os.path.join(workdir, name) for key, name in (
            ("out", "noise.csv"), ("transitions", "transitions.csv"))}

    def prepare(self, k):
        cm = dk.synth_poisson_counts(self.n, self.m, seed=_dataset_seed(self.seed, k),
                                     cluster_depth_ranges=self.depth_ranges)
        y, inv_count = dk.normalize_counts(cm)
        epsilon = harness.median_sq_dist_epsilon(y)
        counts = os.path.join(self.workdir, f"counts-{k}.mtx")
        labels = os.path.join(self.workdir, f"labels-{k}.csv")
        _write_synced(counts, lambda fh: scipy.io.mmwrite(fh, cm.entries))
        _write_synced(labels, lambda fh: np.savetxt(fh, cm.labels, fmt="%d"))
        return {"epsilon": epsilon, "inv_count": inv_count,
                "counts": counts, "labels": labels}

    def call(self, inp):
        # a stale output file must not pass the checks
        for key in ("out", "transitions"):
            if os.path.exists(self.paths[key]):
                os.remove(self.paths[key])
        status = cli.main([
            "scrna", "--input", inp["counts"], "--labels", inp["labels"],
            "--epsilon", repr(inp["epsilon"]), "--out", self.paths["out"],
            "--transitions-out", self.paths["transitions"]])
        return {"status": status}

    def _read(self, key, column):
        with open(self.paths[key], newline="") as fh:
            return np.array([float(row[column]) for row in csv.DictReader(fh)])

    def check(self, inp, out):
        if out["status"] != 0:
            return [f"cli returned {out['status']}"]
        nhat = self._read("out", "noise_sq_hat")
        out["nhat"] = nhat
        failures = []
        if len(nhat) != self.n:
            failures.append(f"cli wrote {len(nhat)} rows, expected {self.n}")
        errors = self._read("transitions", "worst_class_error")
        if len(errors) != self.transition_rows:
            failures.append(f"cli wrote {len(errors)} transition rows, "
                            f"expected {self.transition_rows}")
        if not np.all((errors >= 0.0) & (errors <= 1.0 + 1e-12)):
            failures.append("transition errors outside [0, 1]")
        return failures + _nonfinite(noise_sq_hat=nhat, transition_errors=errors)

    def accuracy(self, inp, out):
        return {"noise_err": _pearson_gap(out["nhat"], inp["inv_count"])}

    @staticmethod
    def fingerprint(inp, out):
        # noise_sq_hat / eps is log d_i plus a function of the density estimate,
        # the closest the CLI's output comes to log_d
        return out["nhat"] / inp["epsilon"]

    @staticmethod
    def iterations(out):
        return None


WORKLOADS = {cls.name: cls for cls in (CircleDenoise, CircleSmallEps, CountsCli)}
