import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mfsmooth import InitializationError, SingularInnovationError, VarParams
from mfsmooth.kalman import (
    FilterState,
    filter_step,
    init_state,
    run_filter,
    run_smoother,
    smooth_step,
    stationary_companion_cov,
)
from mfsmooth.systems import PeriodSystem, SystemMatrices
from test_model import random_params


def make_period(Z, c, G, T, d, H, y, t=0):
    n_obs, dim = Z.shape
    mats = SystemMatrices(
        Z=Z, C=np.zeros((n_obs, 0)), G=G, T=T, D=np.zeros((dim, 0)), H=H,
        c0=c, d0=d,
    )
    return PeriodSystem(mats, c, d, y, t)


class TestFilterStep:
    def test_scalar_worked_example(self):
        # Z=T=H=G=1, a=0, P=1, y=2: M=2, F=4, gain 0.5, filtered mean 1
        per = make_period(
            Z=np.array([[1.0]]), c=np.zeros(1), G=np.array([[1.0]]),
            T=np.array([[1.0]]), d=np.zeros(1), H=np.array([[1.0]]),
            y=np.array([2.0]),
        )
        state, rec = filter_step(FilterState(np.zeros(1), np.ones((1, 1))), per)
        assert_allclose(rec.M, [[2.0]])
        assert_allclose(rec.v / rec.Finv_v, [4.0])
        assert_allclose(state.a, [1.0])
        # from P0 = 0 the period's own prediction gives a = 0, P = 1 again;
        # then one step through the same transition
        res = run_filter([per], FilterState(np.zeros(1), np.zeros((1, 1))),
                         final_transition=(per.mats.T, per.d, per.mats.HHt))
        assert_allclose(res.records[0].K, [[0.5]])
        assert_allclose(res.final_pred.a, [1.0])
        # terminal smoothing leaves the filtered mean unchanged
        a_sm, _ = smooth_step(res.records[0], np.zeros(1))
        assert_allclose(a_sm, [1.0])

    def test_empty_observation_period(self):
        per = make_period(
            Z=np.zeros((0, 2)), c=np.zeros(0), G=np.zeros((0, 2)),
            T=np.eye(2), d=np.zeros(2), H=np.eye(2), y=np.zeros(0),
        )
        a0 = np.array([1.0, -1.0])
        state, rec = filter_step(FilterState(a0, np.eye(2)), per)
        assert_allclose(state.a, a0)
        assert_allclose(state.P, np.eye(2))
        assert rec.v.shape == (0,)

    def test_singular_innovation_raises_with_period(self):
        per = make_period(
            Z=np.array([[1.0], [1.0]]), c=np.zeros(2), G=np.zeros((2, 1)),
            T=np.eye(1), d=np.zeros(1), H=np.eye(1), y=np.zeros(2), t=7,
        )
        with pytest.raises(SingularInnovationError) as err:
            filter_step(FilterState(np.zeros(1), np.eye(1)), per)
        assert err.value.t == 7

    def test_covariances_stay_symmetric(self):
        rng = np.random.default_rng(0)
        dim, n_obs = 4, 2
        periods = []
        for t in range(30):
            A = rng.normal(size=(dim, dim)) * 0.3
            H = rng.normal(size=(dim, dim))
            G = rng.normal(size=(n_obs, dim)) * 0.5
            Z = rng.normal(size=(n_obs, dim))
            periods.append(make_period(Z, np.zeros(n_obs), G, A, np.zeros(dim), H,
                                       rng.normal(size=n_obs), t))
        res = run_filter(periods, FilterState(np.zeros(dim), np.eye(dim)))
        for rec in res.records:
            assert np.max(np.abs(rec.P_filt - rec.P_filt.T)) == 0.0
            assert np.max(np.abs(rec.P_pred - rec.P_pred.T)) == 0.0


class TestAgainstTextbookFilter:
    def test_matches_uncorrelated_oracle(self):
        rng = np.random.default_rng(42)
        for case in range(10):
            dim = int(rng.integers(2, 5))
            n_obs = int(rng.integers(1, dim + 1))
            T = 12
            Zs, As, Hs, ys, periods = [], [], [], [], []
            for t in range(T):
                Z = rng.normal(size=(n_obs, dim))
                A = rng.normal(size=(dim, dim)) * 0.4
                B = rng.normal(size=(dim, dim))
                y = rng.normal(size=n_obs)
                Zs.append(Z); As.append(A); Hs.append(B); ys.append(y)
                periods.append(make_period(
                    Z, np.zeros(n_obs),
                    np.hstack([np.eye(n_obs), np.zeros((n_obs, dim))]),
                    A, np.zeros(dim),
                    np.hstack([np.zeros((dim, n_obs)), B]), y, t))
            a0 = rng.normal(size=dim)
            P0 = np.eye(dim)
            res = run_filter(periods, FilterState(a0, P0))
            states, _ = run_smoother(res.records)
            # with disjoint shock loadings G e and H e are independent and
            # the observation noise covariance is the identity
            Qs = [B @ B.T for B in Hs]
            means = textbook_with_noise(Zs, As, Qs, ys, a0, P0)
            for a, b in zip(states, means):
                assert_allclose(a, b, atol=1e-9)


def textbook_with_noise(Zs, As, Qs, ys, a0, P0):
    T = len(ys)
    a_pred, P_pred, a_filt, P_filt = [], [], [], []
    a, P = a0, P0
    for t in range(T):
        a = As[t] @ a
        P = As[t] @ P @ As[t].T + Qs[t]
        S = Zs[t] @ P @ Zs[t].T + np.eye(Zs[t].shape[0])
        K = P @ Zs[t].T @ np.linalg.inv(S)
        a_pred.append(a.copy()); P_pred.append(P.copy())
        a = a + K @ (ys[t] - Zs[t] @ a)
        P = P - K @ Zs[t] @ P
        a_filt.append(a.copy()); P_filt.append(P.copy())
    means = [None] * T
    means[-1] = a_filt[-1]
    for t in range(T - 2, -1, -1):
        J = P_filt[t] @ As[t + 1].T @ np.linalg.inv(P_pred[t + 1])
        means[t] = a_filt[t] + J @ (means[t + 1] - a_pred[t + 1])
    return means


class TestInitState:
    def test_scalar_ar1_stationary_variance(self):
        params = VarParams(0, 1, 1, np.zeros(1), np.array([[[0.5]]]), np.eye(1))
        P = stationary_companion_cov(params)
        assert_allclose(P[0, 0], 4.0 / 3.0)

    def test_zero_coefficients_give_noise_variance(self):
        W = np.array([[1.5]])
        params = VarParams(0, 1, 1, np.zeros(1), np.zeros((1, 1, 1)), W)
        P = stationary_companion_cov(params)
        assert_allclose(P[0, 0], 2.25)

    def test_lyapunov_residual(self):
        params = random_params(2, 2, 2, seed=4)
        P = stationary_companion_cov(params)
        F = params.companion_transition()
        resid = P - (F @ P @ F.T + params.companion_noise_cov(0))
        assert np.max(np.abs(resid)) < 1e-10

    def test_explosive_rejected(self):
        params = VarParams(0, 1, 1, np.zeros(1), np.array([[[1.01]]]), np.eye(1))
        with pytest.raises(InitializationError):
            init_state(params, "stationary")

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.999])
    def test_ar1_closed_form(self, rho):
        params = VarParams(0, 1, 1, np.zeros(1), np.array([[[rho]]]), np.eye(1))
        P = stationary_companion_cov(params)
        # both lag groups of the stacked state share the variance 1/(1-rho^2)
        var = 1.0 / (1.0 - rho**2)
        assert_allclose(P, [[var, rho * var], [rho * var, var]], rtol=1e-12)

    def test_matches_scipy_on_random_stable_var(self):
        params = random_params(4, 2, 3, seed=7, scale=0.9)
        P = stationary_companion_cov(params)
        F = params.companion_transition()
        ref = scipy.linalg.solve_discrete_lyapunov(F, params.companion_noise_cov(0))
        assert np.max(np.abs(P - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rho", [1.0, 1.01])
    def test_non_stable_rejected_naming_radius(self, rho):
        params = VarParams(0, 1, 1, np.zeros(1), np.array([[[rho]]]), np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InitializationError, match=f"spectral radius {rho:.12g}\\)"):
                stationary_companion_cov(params)

    def test_second_call_returns_cached_array(self):
        params = random_params(2, 1, 2, seed=4)
        assert stationary_companion_cov(params) is stationary_companion_cov(params)

    def test_diffuse_proxy(self):
        params = random_params(2, 1, 2, seed=4)
        st = init_state(params, "diffuse-proxy", kappa=500.0)
        assert_allclose(st.a, np.zeros(3))
        assert_allclose(st.P, 500.0 * np.eye(3))

    def test_unknown_mode(self):
        params = random_params(2, 1, 2, seed=4)
        with pytest.raises(InitializationError):
            init_state(params, "exact")


class TestInnovationWhiteness:
    def test_standardized_innovations_mean_near_zero(self):
        rng = np.random.default_rng(3)
        dim, T = 2, 5000
        A = np.array([[0.6, 0.1], [0.0, 0.5]])
        periods = []
        x = np.zeros(dim)
        for t in range(T):
            x = A @ x + rng.normal(size=dim)
            y = x + 0.0
            periods.append(make_period(
                np.eye(dim), np.zeros(dim), np.zeros((dim, dim)),
                A, np.zeros(dim), np.eye(dim), y, t))
        res = run_filter(periods, FilterState(np.zeros(dim), np.eye(dim)))
        # standardize each innovation by its predicted covariance
        std = []
        for r in res.records:
            F = r.Z @ r.M + np.zeros((dim, dim))
            C = np.linalg.cholesky((F + F.T) / 2.0)
            std.append(np.linalg.solve(C, r.v))
        std = np.concatenate(std)
        assert abs(std.mean()) < 4.0 / np.sqrt(T * dim)
