import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mfsmooth import ConfigurationError, VarParams
from mfsmooth.simulate import (
    COEF_SCALE,
    SPECTRAL_BOUND,
    _radius_bound,
    benchmark_pattern,
    make_instance,
    missing_both_count,
    random_stable_params,
)


def eig_radius(coeff_row):
    n, npp = coeff_row.shape
    F = np.zeros((npp, npp))
    F[:n] = coeff_row
    F[n:, : npp - n] = np.eye(npp - n)
    return np.abs(np.linalg.eigvals(F)).max()


def eigvals_stable_params(n_m, n_q, p, rng):
    """The rule by the eigenvalues alone: rescale lag-wise when the
    companion spectral radius is not below the bound."""
    n = n_m + n_q
    lag_coeffs = rng.normal(scale=COEF_SCALE / math.sqrt(n * p), size=(p, n, n))
    intercept = rng.normal(scale=0.1, size=n)
    B = rng.normal(scale=0.2 / math.sqrt(n), size=(n, n))
    chol = np.linalg.cholesky(B @ B.T + 0.5 * np.eye(n))
    params = VarParams(n_m, n_q, p, intercept, lag_coeffs, chol)
    radius = eig_radius(params.coeff_row)
    if radius >= SPECTRAL_BOUND:
        scale = SPECTRAL_BOUND / radius * 0.98
        lag_coeffs = lag_coeffs * scale ** np.arange(1, p + 1)[:, None, None]
        params = VarParams(n_m, n_q, p, intercept, lag_coeffs, chol)
    return params


class TestRadiusBound:
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (6, 4), (20, 6), (40, 12)])
    @pytest.mark.parametrize("target", [None, 0.5, 0.94, 0.95, 0.951, 1.2])
    def test_never_below_eigenvalue_radius(self, n, p, target):
        rng = np.random.default_rng(n * 100 + p)
        lag = rng.normal(scale=COEF_SCALE / math.sqrt(n * p), size=(p, n, n))
        if target is not None:
            # scaling lag i by c^i scales every companion eigenvalue by c
            c = target / eig_radius(np.concatenate(list(lag), axis=1))
            lag = lag * c ** np.arange(1, p + 1)[:, None, None]
        coeff_row = np.concatenate(list(lag), axis=1)
        radius = eig_radius(coeff_row)
        bound = _radius_bound(coeff_row)
        assert bound >= radius
        if target is not None and target >= SPECTRAL_BOUND:
            assert bound >= SPECTRAL_BOUND

    def test_oscillating_roots_just_above_the_bound(self):
        # an AR(2) with complex roots 0.952 e^(+-i theta): the top row of F^k
        # alone dips below 0.952^k near the zeros of its oscillation
        for theta in np.linspace(0.05, 3.1, 60):
            coeff_row = np.array([[2 * 0.952 * np.cos(theta), -(0.952**2)]])
            assert _radius_bound(coeff_row) >= eig_radius(coeff_row)

    def test_stable_params_as_by_eigenvalues(self):
        # bit for bit, and the generator left where the eigenvalue rule
        # leaves it; (1, 1, 1) with seed 235 takes the rescale
        for n_m, n_q, p, seed in ((1, 1, 1, 235), (3, 1, 3, 11), (18, 2, 6, 1), (4, 2, 3, 3), (9, 1, 4, 2)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_stable_params(n_m, n_q, p, got_rng)
            want = eigvals_stable_params(n_m, n_q, p, want_rng)
            for name in ("intercept", "lag_coeffs", "chol_cov"):
                assert_array_equal(getattr(got, name), getattr(want, name))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        rescaled = random_stable_params(1, 1, 1, np.random.default_rng(235))
        assert eig_radius(rescaled.coeff_row) < SPECTRAL_BOUND


@pytest.mark.parametrize("t_b", [40, -1, -3])
def test_t_balanced_outside_the_sample_rejected(t_b):
    with pytest.raises(ConfigurationError, match=f"t_balanced = {t_b} is outside 0..T, T = 30"):
        make_instance(4, 1, 3, 30, t_b, np.random.default_rng(0))


@pytest.mark.parametrize("recipe, k_both", [("bracket", 3), ("fraction", 5)])
def test_missingness_recipes_at_n_200(recipe, k_both):
    """At n = 200 the bracket recipe leaves 3 monthly variables missing over
    the whole edge, the fraction recipe ceil(0.025 * 200) = 5."""
    assert missing_both_count(200, recipe) == k_both
    mask = benchmark_pattern(198, 2, 30, 27, recipe)
    edge = mask[27:, :198]
    assert np.flatnonzero(~edge.any(axis=0)).tolist() == list(range(198 - k_both, 198))
    assert mask[:27, :198].all()
    assert edge[:, : math.ceil(0.3 * 200)].all()
