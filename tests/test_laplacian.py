from dataclasses import replace

import numpy as np
import pytest

from dskernel import density, geometry, kernel, laplacian
from dskernel.errors import ParameterError
from oracles import clean_circle


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_constant_functions_are_annihilated(alpha):
    pipe = clean_circle(300, 0.1, tol=1e-12)
    qhat = density.ds_kde(pipe.scaled, 2.0)
    const = np.full(pipe.scaled.n, 3.1)
    for fam in (laplacian.robust_markov(pipe.scaled, qhat, alpha),
                laplacian.traditional_markov(pipe.scaled.operator, alpha)):
        out = laplacian.apply_laplacian(fam, const, 0.1)
        assert np.abs(out).max() < 1e-9


def test_alpha_half_returns_w_bit_identically():
    scaled = clean_circle(150, 0.1, tol=1e-12).scaled
    fam = laplacian.robust_markov(scaled, density.ds_kde(scaled, 2.0), 0.5)
    for x in (np.eye(fam.n), np.cos(np.arange(fam.n))):
        assert np.array_equal(fam.apply(x), scaled.matvec(x))


def test_robust_markov_is_row_stochastic():
    scaled = clean_circle(150, 0.1, tol=1e-12).scaled
    qhat = density.ds_kde(scaled, 2.0)
    for alpha in (0.0, 0.3, 1.0):
        fam = laplacian.robust_markov(scaled, qhat, alpha)
        markov = fam.apply(np.eye(fam.n))
        np.testing.assert_allclose(markov.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.diag(markov) == 0.0)
        assert fam.source_tag == "robust"


def test_alpha_out_of_range_raises():
    scaled = clean_circle(60, 0.1, tol=1e-12).scaled
    qhat = density.ds_kde(scaled, 2.0)
    with pytest.raises(ParameterError):
        laplacian.robust_markov(scaled, qhat, 1.5)
    with pytest.raises(ParameterError):
        laplacian.robust_markov(scaled, replace(qhat, raw=np.zeros(60)), 0.0)


def test_operator_error_zero_against_own_output():
    pipe = clean_circle(120, 0.1, tol=1e-12)
    fam = laplacian.robust_markov(pipe.scaled, density.ds_kde(pipe.scaled, 2.0), 1.0)
    f, _ = geometry.test_function_and_laplacian(pipe.sample.angles)
    out = laplacian.apply_laplacian(fam, f, 0.1)
    assert laplacian.operator_error(fam, f, out, 0.1) == 0.0
    with pytest.raises(ParameterError):
        laplacian.operator_error(fam, f, out[:-1], 0.1)


def test_graph_laplacian_approximates_laplace_beltrami():
    pipe = clean_circle(1500, 0.1, seed=2, tol=1e-12)
    f, lap_f = geometry.test_function_and_laplacian(pipe.sample.angles)
    fam = laplacian.robust_markov(pipe.scaled, density.ds_kde(pipe.scaled, 2.0), 1.0)
    err = laplacian.operator_error(fam, f, lap_f, 0.1)
    # max |lap_f| is about 0.96, so this only passes with the right sign
    assert err < 0.5


def test_transition_error_block_oracle():
    # two blocks of 2; each row leaks a known probability to the other block
    markov = np.array([
        [0.0, 0.8, 0.1, 0.1],
        [0.8, 0.0, 0.2, 0.0],
        [0.05, 0.05, 0.0, 0.9],
        [0.3, 0.3, 0.4, 0.0],
    ])
    with np.errstate(divide="ignore"):
        log_markov = np.log(markov)
    # its rows sum to 1, so the alpha = 0 walk of it as a kernel is itself
    aff = kernel.AffinityMatrix(log_entries=log_markov, epsilon=1.0)
    fam = laplacian.traditional_markov(aff, 0.0)
    labels = np.array(["a", "a", "b", "b"])
    mean_err, worst = laplacian.transition_error(fam, labels)
    leave = np.array([0.2, 0.2, 0.1, 0.6])
    assert abs(mean_err - leave.mean()) < 1e-15
    assert abs(worst - 0.35) < 1e-15
    with pytest.raises(ParameterError):
        laplacian.transition_error(fam, labels[:3])
