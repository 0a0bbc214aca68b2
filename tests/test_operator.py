"""The kernel operator against the dense log-domain formulas it replaces.

Every step after the solve reduces rows of W = diag(d) K diag(d) through the
operator the solve leaves absorbed. Each reference, from oracles.py, is the
dense formula: log W as an n x n array, n x n log-sum-exps, and the Markov
matrices built entry by entry.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from dskernel import density, geometry, harness, kernel, laplacian
from dskernel.errors import ParameterError
from mutants import MUTANTS
from oracles import (dense_ds_kde, dense_leave, dense_robust, dense_traditional, log_w_of,
                     small_counts_experiment)

ALPHAS = (0.0, 0.25, 0.5, 0.8, 1.0)
RTOL = 1e-12


def assert_rel(got, expected, rtol=RTOL):
    """Max abs deviation within rtol of the largest expected magnitude."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@pytest.fixture(scope="module")
def noisy_circle():
    pipe = harness.circle_pipeline(400, 200, 0.05, "varying_ball", seed=7)
    f, _ = geometry.test_function_and_laplacian(pipe.sample.angles)
    labels = (pipe.sample.angles > np.pi).astype(int)
    return pipe, f, labels


@pytest.fixture(scope="module")
def small_eps_counts():
    # at a hundredth of the median squared distance log d spans about 60, so
    # the degree and Markov weights lie more than ABSORB_THRESHOLD from it
    base = small_counts_experiment()
    eps = harness.median_sq_dist_epsilon(base["normalized"]) * 16.0 / 100.0
    return small_counts_experiment(epsilon=eps, tol=1e-9, max_iter=20_000)


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0, density.S_LIMIT])
def test_ds_kde_matches_dense_log_domain(noisy_circle, s):
    scaled = noisy_circle[0].scaled
    expected = dense_ds_kde(log_w_of(scaled), s)
    np.testing.assert_allclose(density.ds_kde(scaled, s).raw, expected, rtol=RTOL)


@pytest.mark.parametrize("s,shift", [(0.01, 0.0), (0.5, 0.0), (2.0, 25.0), (40.0, 25.0)])
def test_power_lse_matches_logsumexp_where_b_drops_entries(s, shift):
    # each row peaks at 0 once; every other entry sits at -750, below the
    # range of exp, so the absorbed matrix holds them as exact zeros. At
    # s = 0.01 they add e^-7.5 each to the powered row sum, and at s = 40 a
    # drift of 25 from the absorption point overflows g^s: both must take
    # the log-domain pass. s = 0.5 and 2 take the pass over B.
    n = 50
    log_a = np.full((n, n), -750.0)
    log_a[np.arange(n), (np.arange(n) + 1) % n] = 0.0
    np.fill_diagonal(log_a, -np.inf)
    operator = kernel.KernelOperator(log_a)
    operator.absorb(np.zeros(n))
    u = shift + np.random.default_rng(0).uniform(-1.0, 1.0, size=n)
    np.testing.assert_allclose(operator.power_lse(u, s),
                               logsumexp(s * (log_a + u), axis=1), rtol=RTOL)
    assert operator.absorptions == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(1.0, 1e3), s=st.sampled_from([0.01, 40.0]),
       integral=st.booleans(), block_entries=st.integers(1, 2000))
def test_power_lse_is_scipy_logsumexp_bit_for_bit(n, seed, spread, s, integral,
                                                 block_entries):
    # both exponents take the log-domain pass for every n; integer entries
    # and weights tie at the row max, and a fifth of the slots beyond the
    # diagonal hold -inf, so a row can be -inf throughout
    rng = np.random.default_rng(seed)
    log_a = rng.uniform(-spread, 0.0, size=(n, n))
    u = rng.uniform(-spread, spread, size=n)
    if integral:
        log_a, u = np.round(log_a), np.round(u)
    log_a[rng.random((n, n)) < 0.2] = -np.inf
    np.fill_diagonal(log_a, -np.inf)
    operator = kernel.KernelOperator(log_a)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", block_entries):
        got = operator.power_lse(u, s)
    expected = logsumexp(s * (log_a + u), axis=1)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert operator.absorptions == 0


def test_absorbing_a_zero_row_names_the_first_one():
    # two rows per block, so the zero rows 5 and 7 lie past the first block
    log_a = np.zeros((9, 9))
    log_a[[5, 7]] = -np.inf
    np.fill_diagonal(log_a, -np.inf)
    operator = kernel.KernelOperator(log_a)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 18):
        with pytest.raises(ParameterError, match="^row 5 of the matrix is zero$"):
            operator.absorb(np.zeros(9))


TINY = np.finfo(float).tiny
LOG_TINY = np.log(TINY)


def test_the_flush_edge_exponentiates_to_a_normal_double():
    # absorb masks only the exponents below log(tiny): one at the edge must
    # not land below tiny after exp
    assert np.exp(kernel._LOG_TINY) >= TINY


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.0, 50.0), block_entries=st.integers(1, 2000),
       fill=st.sampled_from([None, -1000.0, -1.0]))
@example(n=40, seed=0, spread=0.0, block_entries=100, fill=None)
# the two extremes of the mask: fill=-1000 flushes every off-peak entry, and
# fill=-1 flushes none (only the diagonal's -inf is a zero of B)
@example(n=40, seed=0, spread=0.0, block_entries=100, fill=-1000.0)
@example(n=40, seed=0, spread=0.0, block_entries=100, fill=-1.0)
def test_absorb_flushes_exactly_the_entries_below_tiny(n, seed, spread, block_entries, fill):
    # entries across [-1000, 0] and at the flush edge, or all at ``fill``;
    # each row peaks at 0, so at u = 0 the edge values are the exponents of
    # B themselves
    rng = np.random.default_rng(seed)
    if fill is None:
        log_a = rng.uniform(-1000.0, 0.0, size=(n, n))
        edge = rng.random((n, n)) < 0.3
        log_a[edge] = rng.choice([LOG_TINY, np.nextafter(LOG_TINY, -np.inf),
                                  np.nextafter(LOG_TINY, np.inf)], size=edge.sum())
    else:
        log_a = np.full((n, n), fill)
    log_a[np.arange(n), (np.arange(n) + 1) % n] = 0.0
    np.fill_diagonal(log_a, -np.inf)
    u = rng.uniform(-spread, spread, size=n)
    operator = kernel.KernelOperator(log_a)
    # small blocks take the row-block loop through several passes
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", block_entries):
        operator.absorb(u)
    m = (log_a + u).max(axis=1)
    expected = np.exp(log_a + u - m[:, None])
    expected[expected < TINY] = 0.0
    assert np.array_equal(operator._m.view(np.int64), m.view(np.int64))
    assert np.array_equal(operator._mat.view(np.int64), expected.view(np.int64))
    assert not np.any((operator._mat > 0.0) & (operator._mat < TINY))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_markov_families_match_dense_log_domain(noisy_circle, alpha):
    pipe, f, labels = noisy_circle
    eps, affinity = pipe.scaled.epsilon, pipe.scaled.operator
    qhat = density.ds_kde(pipe.scaled, 2.0)
    cases = [(laplacian.robust_markov(pipe.scaled, qhat, alpha),
              dense_robust(log_w_of(pipe.scaled), qhat.raw, alpha)),
             (laplacian.traditional_markov(affinity, alpha),
              dense_traditional(affinity.log_entries, alpha))]
    for fam, markov in cases:
        assert_rel(laplacian.apply_laplacian(fam, f, eps), 4.0 / eps * (f - markov @ f))
        np.testing.assert_allclose(laplacian.transition_error(fam, labels),
                                   dense_leave(markov, labels), rtol=RTOL)
        # M times the identity is the same matrix
        assert_rel(fam.apply(np.eye(fam.n)), markov)


def test_small_eps_weights_drift_past_the_threshold_and_reabsorb(small_eps_counts):
    res = small_eps_counts
    scaled, labels = res["scaled"], res["counts"].labels
    operator = scaled.operator
    assert np.ptp(scaled.log_d) > kernel.ABSORB_THRESHOLD
    np.testing.assert_allclose(res["qhat"].raw, dense_ds_kde(log_w_of(scaled), 2.0), rtol=RTOL)
    f = np.cos(np.arange(scaled.n))
    for alpha in ALPHAS:
        before = operator.absorptions
        trad = laplacian.traditional_markov(operator, alpha)
        markov = dense_traditional(operator.log_entries, alpha)
        assert_rel(trad.apply(f), markov @ f)
        np.testing.assert_allclose(laplacian.transition_error(trad, labels),
                                   dense_leave(markov, labels), rtol=RTOL)
        robust = laplacian.robust_markov(scaled, res["qhat"], alpha)
        markov = dense_robust(log_w_of(scaled), res["qhat"].raw, alpha)
        assert_rel(robust.apply(f), markov @ f)
        np.testing.assert_allclose(laplacian.transition_error(robust, labels),
                                   dense_leave(markov, labels), rtol=RTOL)
        # degrees at u = 0 and weights near log d lie more than the
        # threshold apart, so each round trip re-absorbs
        assert operator.absorptions > before


def test_only_the_kernel_module_reads_the_dense_log_matrix():
    # a sparse or truncated kernel can replace the dense log K only while
    # every other module reaches it through the operator's methods; likewise
    # no pipeline step reads the dense W that scaling.py builds, and only
    # counts.py reads a CountMatrix's entries, so their storage is its own
    package = Path(__file__).resolve().parents[1] / "src" / "dskernel"

    def readers(attrs, owner):
        return sorted(
            f"{path.name}:{node.lineno}"
            for path in package.glob("*.py") if path.name != owner
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in attrs)

    assert readers({"log_entries"}, "kernel.py") == []
    assert readers({"w"}, "scaling.py") == []
    assert readers({"entries"}, "counts.py") == []


def test_every_public_harness_name_has_a_reader_outside_the_tests():
    # API that only tests call is test code: each public name harness.py
    # defines is read by cli.py, by another definition in harness.py, or by
    # the benchmark
    root = Path(__file__).resolve().parents[1]

    def reads(tree):
        return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}

    def defines(stmt):
        targets = getattr(stmt, "targets", [])
        return [stmt.name] if hasattr(stmt, "name") else [t.id for t in targets if hasattr(t, "id")]

    readers = [root / "src" / "dskernel" / "cli.py",
               *(path for path in (root / "perfbench").glob("*.py")
                 if not path.name.startswith("test_"))]
    outside = set().union(*(reads(ast.parse(path.read_text())) for path in readers))
    body = ast.parse((root / "src" / "dskernel" / "harness.py").read_text()).body
    unread = [name for stmt in body for name in defines(stmt)
              if not name.startswith("_") and name not in outside.union(
                  *(reads(other) for other in body if other is not stmt))]
    assert unread == []


def test_only_the_scaling_module_raises_convergence_errors():
    # "did the solve converge" is one decision with one message, made in
    # scaling.py; every other module only catches the error
    package = Path(__file__).resolve().parents[1] / "src" / "dskernel"
    builders = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py") if path.name != "scaling.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "ConvergenceError" in {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)})
    assert builders == []


def test_every_mutant_of_the_gate_applies_once():
    # tests/mutants.py replaces each text in its file: a refactor that moves
    # one fails here at once, not only when the gate runs
    package = Path(__file__).resolve().parents[1] / "src" / "dskernel"
    for name, file, old, new in MUTANTS:
        assert (package / file).read_text().count(old) == 1 and new != old, name
