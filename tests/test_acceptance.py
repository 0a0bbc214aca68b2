"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints a one-line summary with the measured values
(visible with ``-s`` or on failure).

The heavy simulated pipelines are shared through module-scoped fixtures.
``circles_2000`` visits each n=m=2000 circle of criteria 2, 3, 4 and 7 once:
for every noise model and seeds 0-9 it draws the circle, computes its
distance matrix once and solves every epsilon those criteria need, keeping
only the error scalars and, at eps=0.1, the per-point gaps between d and its
population form. Criteria 2 and 3 read its seed means at eps=0.1, criteria 4
and 11 its seeds 0-4 as the n=2000 point, and criterion 7 its per-eps means
of the Laplacian errors. ``circles_500_1000`` holds the same eps=0.1 errors
of the n=m=500 and 1000 circles, seeds 0-4, for criteria 4 and 11.
"""

from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from dskernel import counts, density, geometry, harness, inference, kernel, laplacian, scaling
from oracles import (dense_traditional, log_w_of, newton_symmetric_scaling,
                     pairwise_corrected_dists)

EPSILON = 0.1
S = 2.0
DIM = 1
NOISE_MODELS = ("none", "varying_ball", "outlier_gaussian")
LAPLACIAN_NOISE = ("none", "varying_ball")
LAPLACIAN_SWEEP = (0.025, 0.05, 0.1)


def _report(criterion, ok, detail):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def population():
    """The population scaling of the paper's density at eps=0.1."""
    return density.solve_population_scaling_1d(
        lambda t: geometry.wrapped_normal_density(t, geometry.CIRCLE_SIGMA_SQ), EPSILON)


def _population_errors(pipe, population):
    """sqrt(n) (pi eps)^(1/4) d_i e^(-eta_i/eps) / rho_eps(theta_i) - 1 per point:
    d with the noise factor e^(eta_i/eps) taken out against its population
    form, rho_eps interpolated periodically from the population grid."""
    rho = np.interp(pipe.sample.angles, population.grid, population.rho, period=2.0 * np.pi)
    d_clean = np.exp(pipe.solution.log_d - pipe.noise.true_noise_sq / EPSILON)
    return np.sqrt(pipe.scaled.n) * (np.pi * EPSILON) ** 0.25 * d_clean / rho - 1.0


@pytest.fixture(scope="module")
def circles_2000(population):
    """Error scalars of the n=m=2000 circles, seeds 0-9, per noise model.

    Each circle is drawn once and gets one distance matrix, shared by its
    solves: eps=0.1 gives the density errors at s=2 and the population
    errors per point, and the Laplacian sweep gives the robust and
    traditional operator errors at alpha=1 (not for outlier noise). Lists
    run over seeds in ascending order.
    """
    out = {}
    for noise in NOISE_MODELS:
        sweep = LAPLACIAN_SWEEP if noise in LAPLACIAN_NOISE else (EPSILON,)
        errs = defaultdict(list)
        for seed in range(10):
            sample, noisy = harness.circle_dataset(2000, 2000, noise, seed)
            d = kernel.pairwise_sq_dists(noisy.noisy_points)
            for eps in sweep:
                pipe = harness._solve(d, eps, *scaling.POINTS_SOLVE, sample, noisy)
                if eps == EPSILON:
                    density_errs = harness._density_errors(pipe, [S], DIM)
                    errs["kde"].append(density_errs["kde"])
                    errs["dskde"].append(density_errs["dskde_s2"])
                    errs["population"].append(_population_errors(pipe, population))
                if noise in LAPLACIAN_NOISE:
                    lap_errs = harness._laplacian_errors(pipe, S, 1.0)
                    for family in ("robust", "traditional"):
                        errs[(eps, family)].append(lap_errs[family])
                del pipe  # one log K and one absorbed matrix alive at a time
            del d
        out[noise] = dict(errs)
    return out


@pytest.fixture(scope="module")
def circles_500_1000(population):
    """The eps=0.1 DS-KDE error at s=2 and the population errors per point of
    the n=m=500 and 1000 circles, seeds 0-4 in ascending order, by (noise
    model, n)."""
    out = {}
    for noise in NOISE_MODELS:
        for n in (500, 1000):
            errs = defaultdict(list)
            for seed in range(5):
                pipe = harness.circle_pipeline(n, n, EPSILON, noise, seed=seed)
                errs["dskde"].append(harness._density_errors(pipe, [S], DIM)["dskde_s2"])
                errs["population"].append(_population_errors(pipe, population))
            out[noise, n] = dict(errs)
    return out


@pytest.fixture(scope="module")
def varying_noise_1000():
    """Full inference pipeline on the varying-noise circle at n=m=1000; its
    noisy distance matrix is the one the solve read, as in fig6."""
    sample, noise = harness.circle_dataset(1000, 1000, "varying_ball", 0)
    noisy = kernel.pairwise_sq_dists(noise.noisy_points)
    pipe = harness._solve(noisy, EPSILON, *scaling.POINTS_SOLVE, sample, noise)
    qhat = density.ds_kde(pipe.scaled, S)
    nhat = inference.noise_magnitude(pipe.solution, qhat, EPSILON)
    table = inference.signal_magnitude_and_distances(
        pipe.noise.noisy_points, nhat, EPSILON, S, DIM,
        scaled=pipe.scaled, qhat=qhat)
    clean = kernel.pairwise_sq_dists(pipe.sample.clean_points)
    return pipe, table, clean, noisy


# ---------------------------------------------------------------- criteria

def test_criterion_01_scaling_correctness():
    # simulation profile: row/column sums within 1e-9 of one
    pipe = harness.circle_pipeline(300, 300, EPSILON, "none", seed=1)
    row_dev = np.abs(pipe.scaled.w.sum(axis=1) - 1.0).max()
    col_dev = np.abs(pipe.scaled.w.sum(axis=0) - 1.0).max()
    # counts profile: residual within 1e-6
    res = harness.count_pipeline(counts.synth_poisson_counts(200, 1000, seed=1))
    counts_res = res["solution"].residual
    # two distinct initializations agree on log_d to 1e-6
    aff = pipe.scaled.operator
    alt = scaling.sinkhorn_symmetric(
        aff, tol=1e-11,
        log_d0=np.random.default_rng(0).normal(scale=2.0, size=300))
    ref = scaling.sinkhorn_symmetric(aff, tol=1e-11)
    init_gap = np.abs(alt.log_d - ref.log_d).max()
    # damped-Newton oracle on n <= 6
    pts = np.random.default_rng(3).normal(size=(6, 2))
    small = kernel.gaussian_kernel(kernel.pairwise_sq_dists(pts), 1.0)
    small_sol = scaling.sinkhorn_symmetric(small, tol=1e-13, max_iter=200_000)
    oracle_gap = np.abs(
        small_sol.log_d - newton_symmetric_scaling(np.exp(small.log_entries))).max()
    ok = (row_dev <= 1e-9 and col_dev <= 1e-9 and counts_res <= 1e-6
          and init_gap <= 1e-6 and oracle_gap <= 1e-8)
    _report("criterion-01 scaling-correctness", ok,
            f"row_dev={row_dev:.1e} col_dev={col_dev:.1e} counts_res={counts_res:.1e} "
            f"init_gap={init_gap:.1e} newton_gap={oracle_gap:.1e}")


def test_criterion_02_ds_kde_clean_accuracy(circles_2000):
    # the clean standard KDE, the baseline figures 1, 3 and 5 print, in the same band
    err = np.mean(circles_2000["none"]["dskde"])
    kde = np.mean(circles_2000["none"]["kde"])
    ok = 0.01 <= err <= 0.04 and 0.01 <= kde <= 0.04
    _report("criterion-02 ds-kde-clean-accuracy", ok,
            f"mean max error={err:.4f}, kde={kde:.4f}, band [0.01, 0.04]")


def test_criterion_03_ds_kde_noise_robustness(circles_2000):
    clean = np.mean(circles_2000["none"]["dskde"])
    checks = []
    for noise in ("varying_ball", "outlier_gaussian"):
        ds = np.mean(circles_2000[noise]["dskde"])
        kde = np.mean(circles_2000[noise]["kde"])
        checks.append((noise, ds, kde, ds <= 2.0 * clean and kde >= 0.08))
    ok = all(c[-1] for c in checks)
    detail = "; ".join(f"{n}: dskde={d:.4f} (clean {clean:.4f}), kde={k:.3f}"
                       for n, d, k, _ in checks)
    _report("criterion-03 ds-kde-noise-robustness", ok, detail)


def test_criterion_04_convergence_rate(circles_500_1000, circles_2000):
    ns = np.array([500.0, 1000.0, 2000.0])
    slopes = {}
    for noise in NOISE_MODELS:
        means = [np.mean(circles_500_1000[noise, n]["dskde"]) for n in (500, 1000)]
        means.append(np.mean(circles_2000[noise]["dskde"][:5]))  # n=2000, seeds 0-4
        slopes[noise] = np.polyfit(np.log(ns), np.log(means), 1)[0]
    ok = all(-0.7 <= v <= -0.3 for v in slopes.values())
    _report("criterion-04 convergence-rate", ok,
            ", ".join(f"{k}: slope={v:.3f}" for k, v in slopes.items())
            + "; band [-0.7, -0.3]")


def test_criterion_05_distance_correction_bias(varying_noise_1000):
    pipe, table, clean, _ = varying_noise_1000
    off = ~np.eye(1000, dtype=bool)
    bias = (table.corrected_dists[off] - clean[off]).mean()
    ok = abs(bias - (-0.035)) <= 0.010
    _report("criterion-05 distance-correction-bias", ok,
            f"mean bias={bias:.4f}, target -0.035 +/- 0.010")


def test_criterion_06_knn_recovery(varying_noise_1000):
    pipe, table, clean, noisy = varying_noise_1000
    k = 50
    acc_corrected = inference.knn_recovery_accuracy(table.corrected_dists, clean, k)[-1]
    acc_noisy = inference.knn_recovery_accuracy(noisy, clean, k)[-1]
    # Oracle: the same correction with the true noise magnitudes. The raw
    # noisy accuracy is a property of the data generator alone, so the
    # estimate is judged by the share of the oracle's kNN gain it recovers.
    t = pipe.noise.true_noise_sq
    oracle = noisy - t[:, None] - t[None, :]
    acc_oracle = inference.knn_recovery_accuracy(oracle, clean, k)[-1]
    gain = acc_oracle - acc_noisy
    share = (acc_corrected - acc_noisy) / gain if gain > 0 else float("nan")
    ok = (acc_corrected > 0.75 and acc_noisy < acc_oracle
          and acc_corrected - acc_noisy >= 0.9 * gain)
    _report("criterion-06 knn-recovery", ok,
            f"corrected={acc_corrected:.4f} (>0.75), noisy={acc_noisy:.4f}, "
            f"oracle={acc_oracle:.4f} (noisy < oracle), "
            f"share of oracle gain={share:.3f} (>=0.9)")


def test_criterion_07_laplacian_ordering(circles_2000):
    sweep = LAPLACIAN_SWEEP
    errors = {(eps, noise): (np.mean(circles_2000[noise][(eps, "robust")]),
                             np.mean(circles_2000[noise][(eps, "traditional")]))
              for noise in LAPLACIAN_NOISE for eps in sweep}
    clean_ok = all(
        abs(errors[(eps, "none")][0] - errors[(eps, "none")][1])
        / max(errors[(eps, "none")]) <= 0.10
        for eps in sweep)
    noisy_ok = all(
        errors[(eps, "varying_ball")][0] < errors[(eps, "varying_ball")][1]
        for eps in sweep[:2])
    detail = "; ".join(
        f"eps={eps} {noise}: robust={errors[(eps, noise)][0]:.3f} "
        f"trad={errors[(eps, noise)][1]:.3f}"
        for eps in sweep for noise in ("none", "varying_ball"))
    _report("criterion-07 laplacian-ordering", clean_ok and noisy_ok, detail)


def test_criterion_08_population_scaling_trend():
    errs = []
    for eps in (0.05, 0.025, 0.0125):
        ps = density.solve_population_scaling_1d(
            lambda t: geometry.wrapped_normal_density(t, geometry.CIRCLE_SIGMA_SQ), eps)
        q = geometry.wrapped_normal_density(ps.grid, geometry.CIRCLE_SIGMA_SQ)
        errs.append(np.abs(ps.rho - q**-0.5).max())
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    _report("criterion-08 population-scaling-trend", ok,
            f"errors={[f'{e:.4f}' for e in errs]}, halving ratios="
            f"{[f'{r:.3f}' for r in ratios]}, band [1.5, 2.5]")


def test_criterion_09_poisson_surrogate():
    res = harness.count_pipeline(counts.synth_poisson_counts(
        600, 5000, seed=0, cluster_depth_ranges=harness.FIG8_DEPTH_RANGES))
    pearson = stats.pearsonr(res["noise_sq_hat"], res["predicted_noise"])[0]
    eps0 = res["scaled"].epsilon
    # one distance matrix for the three solves; only the alpha = 0 rows count
    d = kernel.pairwise_sq_dists(counts.normalize_counts(res["counts"])[0])
    worst = {}
    for eps in (eps0 / 2.0, eps0, 2.0 * eps0):
        scaled = harness._solve(d, eps, *harness.COUNTS_SOLVE).scaled
        for row in harness.transition_errors(scaled, density.ds_kde(scaled, 2.0),
                                             res["counts"].labels):
            if row["alpha"] == 0.0:
                worst[(row["epsilon"], row["family"])] = row["worst_class_error"]
    ordering_ok = all(worst[(eps, "robust")] <= worst[(eps, "traditional")]
                      for eps in (eps0 / 2.0, eps0, 2.0 * eps0))
    ok = pearson >= 0.9 and ordering_ok
    _report("criterion-09 poisson-surrogate", ok,
            f"pearson={pearson:.4f} (>=0.9); worst-class robust vs traditional: "
            + "; ".join(f"eps={eps:.2e}: {worst[(eps, 'robust')]:.3f} vs "
                        f"{worst[(eps, 'traditional')]:.3f}"
                        for eps in (eps0 / 2.0, eps0, 2.0 * eps0)))


def test_criterion_10_exact_invariants():
    pipe = harness.circle_pipeline(300, 150, EPSILON, "varying_ball", seed=4,
                                   tol=1e-12)
    qhat = density.ds_kde(pipe.scaled, S)
    checks = {}

    # constant-function annihilation for every alpha and both families
    const = np.ones(300)
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0):
        for fam in (laplacian.robust_markov(pipe.scaled, qhat, alpha),
                    laplacian.traditional_markov(pipe.scaled.operator, alpha)):
            worst = max(worst, np.abs(
                laplacian.apply_laplacian(fam, const, EPSILON)).max())
    checks["annihilation"] = worst < 1e-9

    # signal + noise identity, and the distances read off log K agree with
    # the pairwise formula
    nhat = inference.noise_magnitude(pipe.solution, qhat, EPSILON)
    table = inference.signal_magnitude_and_distances(
        pipe.noise.noisy_points, nhat, EPSILON, S, DIM, scaled=pipe.scaled, qhat=qhat)
    sq = (pipe.noise.noisy_points**2).sum(axis=1)
    checks["signal-noise-identity"] = np.abs(
        table.signal_sq_hat + table.noise_sq_hat - sq).max() < 1e-12
    checks["distance-forms-agree"] = np.abs(
        table.corrected_dists - pairwise_corrected_dists(pipe.noise.noisy_points, nhat)
    ).max() < 1e-8

    # alpha = 0.5 returns W itself: its product is W's, bit for bit
    identity = np.eye(300)
    checks["alpha-half-identity"] = np.array_equal(
        laplacian.robust_markov(pipe.scaled, qhat, 0.5).apply(identity),
        pipe.scaled.matvec(identity))

    # uniform W, the scaling of a constant kernel, estimates a unit density
    flat = kernel.AffinityMatrix(log_entries=np.zeros((40, 40)), epsilon=EPSILON)
    uniform = scaling.assemble_W(flat, scaling.sinkhorn_symmetric(flat, tol=1e-12))
    checks["uniform-w-unit-density"] = np.abs(
        density.ds_kde(uniform, S).raw - 1.0).max() < 1e-12

    # global kernel rescaling leaves W unchanged
    shifted = kernel.AffinityMatrix(log_entries=pipe.scaled.operator.log_entries + 2.0,
                                    epsilon=EPSILON)
    w_shifted = scaling.assemble_W(shifted,
                                   scaling.sinkhorn_symmetric(shifted, tol=1e-12))
    checks["kernel-scale-invariance"] = np.abs(
        w_shifted.w - pipe.scaled.w).max() < 1e-12

    # fixed seeds reproduce the pipeline bit for bit
    again = harness.circle_pipeline(300, 150, EPSILON, "varying_ball", seed=4,
                                    tol=1e-12)
    checks["determinism"] = (
        np.array_equal(again.solution.log_d, pipe.solution.log_d)
        and np.array_equal(again.noise.noisy_points, pipe.noise.noisy_points))

    ok = all(checks.values())
    _report("criterion-10 exact-invariants", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_11_population_concentration(circles_500_1000, circles_2000):
    # d_i e^(-eta_i/eps) approaches n^(-1/2) (pi eps)^(-1/4) rho_eps(theta_i):
    # per n, the median relative gap (mean over seeds 0-4 and the noise
    # models), its log-log slope, and the largest median gap between a noisy
    # circle's errors and the clean one's of the same seed
    ns = (500, 1000, 2000)
    errors = {(noise, n): (circles_500_1000[noise, n] if n < 2000 else circles_2000[noise])
              ["population"][:5] for noise in NOISE_MODELS for n in ns}
    medians = [np.mean([np.median(np.abs(e)) for noise in NOISE_MODELS
                        for e in errors[noise, n]]) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    gaps = [max(np.median(np.abs(e - clean)) for noise in NOISE_MODELS[1:]
                for e, clean in zip(errors[noise, n], errors["none", n])) for n in ns]
    ok = medians[-1] <= 0.03 and -0.8 <= slope <= -0.25 and max(gaps) <= 0.025
    _report("criterion-11 population-concentration", ok,
            f"median errors={[f'{m:.4f}' for m in medians]} (n=2000 <= 0.03), "
            f"slope={slope:.3f} (band [-0.8, -0.25]), noisy-vs-clean gaps="
            f"{[f'{g:.4f}' for g in gaps]} (<= 0.025)")


def _dense_w_and_row_stochastic(sample, noise):
    """The dense W of the circle's eps=0.1 solve at tol 1e-12, and its
    row-stochastic D^-1 K."""
    pipe = harness._solve(kernel.pairwise_sq_dists(noise.noisy_points), EPSILON, 1e-12,
                          scaling.POINTS_SOLVE.max_iter, sample, noise)
    return (np.exp(log_w_of(pipe.scaled)),
            dense_traditional(pipe.scaled.operator.log_entries, 0.0))


def test_criterion_12_w_concentrates_in_ambient_dimension():
    # n=500 circles in m dimensions, seeds 0-2: the largest row l1 gap
    # max_i sum_j |W~_ij - W_ij| between a noisy circle's W and its clean
    # twin's (the same clean points) falls as m^(-1/2), while the
    # row-stochastic D^-1 K keeps a larger gap at every m and seed
    ms = (250, 1000, 4000)
    noises = ("varying_ball", "outlier_gaussian")
    gaps = {}
    for m in ms:
        for seed in range(3):
            clean = _dense_w_and_row_stochastic(*harness.circle_dataset(500, m, "none", seed))
            for noise in noises:
                noisy = _dense_w_and_row_stochastic(*harness.circle_dataset(500, m, noise, seed))
                gaps[noise, m, seed] = [np.abs(a - b).sum(axis=1).max()
                                        for a, b in zip(noisy, clean)]
    slopes = {noise: np.polyfit(np.log(ms), np.log(
        [np.mean([gaps[noise, m, seed][0] for seed in range(3)]) for m in ms]), 1)[0]
        for noise in noises}
    worst_ds = max(gaps[noise, ms[-1], seed][0] for noise in noises for seed in range(3))
    margin = min(rs - ds for ds, rs in gaps.values())
    ok = max(slopes.values()) <= -0.40 and worst_ds <= 0.15 and margin > 0.0
    _report("criterion-12 ambient-concentration", ok,
            f"DS slopes={[f'{v:.3f}' for v in slopes.values()]} (<= -0.40), "
            f"DS gap at m=4000 <= {worst_ds:.4f} (<= 0.15), "
            f"row-stochastic minus DS gap >= {margin:.4f} (> 0)")
