"""Structural tests for the per-period system, read off the companion
transition (``build_system_matrices``), and a draw's blocks.

The golden layouts cover the three regimes of the 4-variable, p=3 example
(balanced period, one newly missing monthly variable, two missing monthly
variables) and are written out entry by entry with a random coefficient
matrix and Cholesky factor, so any indexing slip shows up exactly.  Loop
builders, one lag and one variable at a time, specify every index set's
matrices besides (``TestAgainstLoopBuilders``).
"""

import copy

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    MixedFreqData,
    VarParams,
    build_aggregation,
    intra_quarterly_average,
    systems,
)
from mfsmooth import baseline, kalman, run_adaptive, systems
from mfsmooth.baseline import plan_for
from mfsmooth.kalman import filter_periods, smooth_periods
from mfsmooth.model import AggregationScheme, ObservationPattern, skip_sampling
from mfsmooth.simulate import benchmark_pattern, make_instance
from mfsmooth.systems import (
    AdaptiveIndex,
    adaptive_loadings,
    companion_observation,
    build_periods,
    build_system_matrices,
    PeriodNoise,
    PeriodSystem,
)
from test_model import random_params


def index_for_period(pattern, n_m, n_q, t):
    """The index sets of period t; period 0 follows a fully observed one."""
    all_m = np.arange(n_m)
    empty = np.empty(0, dtype=int)
    o_prev, u_prev = (all_m, empty) if t == 0 else (pattern.observed(t - 1), pattern.unobserved(t - 1))
    return AdaptiveIndex(pattern.unobserved(t), pattern.observed(t), u_prev, o_prev, n_m, n_q)


def lag_stacks(values, p, n_m):
    """Every period's monthly lag stack as one view: [i, v, lag - 1] is
    monthly variable v at period T-1-i-lag, pre-sample lags zero.

    The monthly data are kept in reversed time: row i holds period T-1-i and
    the p rows after the sample are the zero pre-sample.  Period t's lags
    t-1..t-p are then the contiguous rows T-t..T-t+p-1, and one strided view
    of p-row windows is every stack at once, variable-major like the
    exogenous columns.
    """
    T = values.shape[0]
    rev = np.zeros((T + p, n_m))
    rev[:T] = values[::-1, :n_m]
    step = rev.itemsize
    return np.lib.stride_tricks.as_strided(rev[1:], (T, n_m, p), (n_m * step, step, n_m * step), writeable=False)


def projected(system, resid):
    """The balanced periods' (t_b, n) residuals as ``BalancedSystem.rhs``
    takes them: projected by ``system.proj`` under a constant chol_cov."""
    return resid if system.proj is None else resid @ system.proj.T


def period_noise(G, H, Z):
    """Noise products of a stack of periods sharing the observation loading
    ``Z``: G is (k, n_obs, n) and H (k, dim, n), one batched product each."""
    GHt = G @ H.transpose(0, 2, 1)
    F_const = G @ G.transpose(0, 2, 1) + GHt @ Z.T
    return [PeriodNoise(*parts) for parts in zip(GHt, H @ H.transpose(0, 2, 1), F_const)]


def constants(mats, ts, stacks):
    """c and d of the periods ``ts`` sharing ``mats``: one gather of their
    lag stacks, one product with C, and one with D's coefficient rows for
    the head of d, whose lag identities, D's ones below the head, copy their
    columns of the stacks."""
    X = stacks[(len(stacks) - 1 - ts)[:, None], mats.idx.o_prev].reshape(len(ts), -1)
    s = mats.idx.head_size
    d = np.zeros((len(ts), mats.D.shape[0]))
    d[:, :s] = X @ mats.D[:s].T + mats.d0[:s]
    rows, cols = np.nonzero(mats.D[s:])
    d[:, s + rows] = X[:, cols]
    return X @ mats.C.T + mats.c0, d


def per_period(params, agg, data, stop=None):
    """Periods 0..stop-1 as one ``PeriodSystem`` each, every one built
    alone: its structural matrices and noise products, and y - c and d from
    ``constants`` on a group of one.  The reduced formulation period by
    period, the reference for a draw's balanced block and edge system."""
    pattern = data.pattern
    stacks = lag_stacks(data.values, params.p, params.n_m)
    records = []
    for t in range(data.T if stop is None else stop):
        idx = index_for_period(pattern, params.n_m, params.n_q, t)
        mats = build_system_matrices(params, agg, idx, pattern.quarterly_rows(t))
        noise = period_noise(*loadings_stack(params, idx, mats.q_rows, t), mats.Z)[0]
        c, d = constants(mats, np.array([t]), stacks)
        y = data.values[t, np.concatenate([idx.o_t, data.n_m + mats.q_rows])]
        records.append(PeriodSystem(mats, noise, t, y - c[0], d[0]))
    return records


def direct_resid(params, values, t):
    """Period t's VAR residual at zero latent values, lag by lag: the
    missing monthly values and every quarterly value count as zero."""
    known = np.where(np.isnan(values), 0.0, values)
    known[:, params.n_m :] = 0.0
    r = known[t] - params.intercept
    for lag in range(1, min(params.p, t) + 1):
        r -= params.lag_coeffs[lag - 1] @ known[t - lag]
    return r


def edge_residuals(edge, values):
    """The edge periods' (T - t_b, n) VAR residuals at zero latent values
    that ``EdgeSystem.rhs`` forms from the data ``values``, as it hands them
    to the shocks' window product (``EdgeSystem.perturbation``)."""
    formed = []
    spy = copy.copy(edge)
    spy.perturbation = lambda resid: formed.append(resid) or np.zeros(edge.n_z + edge.n_a)
    spy.rhs(values)
    (resid,) = formed
    return resid


def loadings_stack(params, idx, q_rows, t):
    """G and H of period t as stacks of one (``adaptive_loadings``)."""
    return adaptive_loadings(params.chol(t)[None], idx, q_rows, params.p)


@pytest.fixture
def setup():
    params = random_params(3, 1, 3, seed=12)
    agg = build_aggregation(intra_quarterly_average(), 1, 3)
    return params, agg


# U_t and U_{t-1} empty: every monthly variable observed at t and t-1
BALANCED = AdaptiveIndex([], [0, 1, 2], [], [0, 1, 2], 3, 1)


def example_mats(setup, idx, q_rows=()):
    """The example's ``SystemMatrices`` at ``idx`` with quarterly rows ``q_rows``."""
    params, agg = setup
    return build_system_matrices(params, agg, idx, np.array(q_rows, dtype=int))


def loadings(params, idx, q_rows, t):
    """G and H of one period (``adaptive_loadings`` of a stack of one)."""
    G, H = loadings_stack(params, idx, q_rows, t)
    return G[0], H[0]


def Pi(params, lag, i, j):
    """Element (i, j), 1-based, of the lag-``lag`` coefficient matrix."""
    return params.lag_coeffs[lag - 1][i - 1, j - 1]


class TestBalancedRegime:
    def test_Z(self, setup):
        params, _ = setup
        idx = BALANCED
        Z = example_mats(setup, idx, [0]).Z
        expected = np.zeros((4, 4))
        for i in (1, 2, 3):
            for lag in (1, 2, 3):
                expected[i - 1, lag] = Pi(params, lag, i, 4)
        expected[3, :3] = 1.0 / 3.0
        assert_array_equal(Z, expected)

    def test_Z_quarterly_unobserved_drops_last_row(self, setup):
        idx = BALANCED
        Z = example_mats(setup, idx).Z
        full = example_mats(setup, idx, [0]).Z
        assert_array_equal(Z, full[:3])

    def test_C(self, setup):
        params, _ = setup
        idx = BALANCED
        C = example_mats(setup, idx, [0]).C
        expected = np.zeros((4, 9))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for lag in (1, 2, 3):
                    expected[i - 1, (j - 1) * 3 + lag - 1] = Pi(params, lag, i, j)
        assert_array_equal(C, expected)

    def test_T(self, setup):
        params, _ = setup
        idx = BALANCED
        T = example_mats(setup, idx).T
        expected = np.zeros((4, 4))
        for lag in (1, 2, 3):
            expected[0, lag - 1] = Pi(params, lag, 4, 4)
        expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
        assert_array_equal(T, expected)

    def test_D(self, setup):
        params, _ = setup
        idx = BALANCED
        D = example_mats(setup, idx).D
        expected = np.zeros((4, 9))
        for j in (1, 2, 3):
            for lag in (1, 2, 3):
                expected[0, (j - 1) * 3 + lag - 1] = Pi(params, lag, 4, j)
        assert_array_equal(D, expected)

    def test_G_and_H(self, setup):
        params, agg = setup
        idx = BALANCED
        W = params.chol(0)
        G, H = loadings(params, idx, np.array([0]), 0)
        expected_G = np.zeros((4, 4))
        expected_G[:3] = W[:3]
        assert_array_equal(G, expected_G)
        expected_H = np.zeros((4, 4))
        expected_H[0] = W[3]
        assert_array_equal(H, expected_H)


class TestOneMissingRegime:
    """U_t = {3} (1-based), U_{t-1} empty; state stacks (x_3, x_q) x 4 lags."""

    @pytest.fixture
    def idx(self):
        return AdaptiveIndex(np.array([2]), np.array([0, 1]), np.array([], dtype=int),
                             np.array([0, 1, 2]), 3, 1)

    def test_T(self, setup, idx):
        params, _ = setup
        T = example_mats(setup, idx).T
        expected = np.zeros((8, 4))
        for lag in (1, 2, 3):
            expected[0, lag - 1] = Pi(params, lag, 3, 4)
            expected[1, lag - 1] = Pi(params, lag, 4, 4)
        expected[3, 0] = expected[5, 1] = expected[7, 2] = 1.0
        assert_array_equal(T, expected)

    def test_D(self, setup, idx):
        params, _ = setup
        D = example_mats(setup, idx).D
        expected = np.zeros((8, 9))
        for j in (1, 2, 3):
            for lag in (1, 2, 3):
                expected[0, (j - 1) * 3 + lag - 1] = Pi(params, lag, 3, j)
                expected[1, (j - 1) * 3 + lag - 1] = Pi(params, lag, 4, j)
        # lag identities of variable 3, observed at t-1 but latent now
        expected[2, 6] = expected[4, 7] = expected[6, 8] = 1.0
        assert_array_equal(D, expected)

    def test_Z(self, setup, idx):
        params, _ = setup
        Z = example_mats(setup, idx).Z
        # newly-latent columns (variable 3 in every lag group) are all zero
        assert_array_equal(Z[:, [0, 2, 4, 6]], np.zeros((2, 4)))
        condensed = Z[:, [1, 3, 5, 7]]
        expected = np.zeros((2, 4))
        for i in (1, 2):
            for lag in (1, 2, 3):
                expected[i - 1, lag] = Pi(params, lag, i, 4)
        assert_array_equal(condensed, expected)

    def test_G_and_H(self, setup, idx):
        params, _ = setup
        W = params.chol(0)
        G, H = loadings(params, idx, np.array([], dtype=int), 0)
        assert_array_equal(G, W[:2])
        expected = np.zeros((8, 4))
        expected[0] = W[2]
        expected[1] = W[3]
        assert_array_equal(H, expected)


class TestTwoMissingRegime:
    """U_t = {2, 3}, U_{t-1} = {3}; state stacks (x_2, x_3, x_q) x 4 lags."""

    @pytest.fixture
    def idx(self):
        return AdaptiveIndex(np.array([1, 2]), np.array([0]), np.array([2]),
                             np.array([0, 1]), 3, 1)

    def test_T(self, setup, idx):
        params, _ = setup
        T = example_mats(setup, idx).T
        expected = np.zeros((12, 8))
        for row, i in enumerate((2, 3, 4)):
            for lag in (1, 2, 3):
                expected[row, (lag - 1) * 2] = Pi(params, lag, i, 3)
                expected[row, (lag - 1) * 2 + 1] = Pi(params, lag, i, 4)
        # lag identities: x_3 and x_q shift one group down, x_2 has no source
        expected[4, 0] = expected[5, 1] = 1.0
        expected[7, 2] = expected[8, 3] = 1.0
        expected[10, 4] = expected[11, 5] = 1.0
        assert_array_equal(T, expected)

    def test_D(self, setup, idx):
        params, _ = setup
        D = example_mats(setup, idx).D
        expected = np.zeros((12, 6))
        for row, i in enumerate((2, 3, 4)):
            for j in (1, 2):
                for lag in (1, 2, 3):
                    expected[row, (j - 1) * 3 + lag - 1] = Pi(params, lag, i, j)
        # variable 2 was observed at t-1: its lags come from the data
        expected[3, 3] = expected[6, 4] = expected[9, 5] = 1.0
        assert_array_equal(D, expected)

    def test_Z(self, setup, idx):
        params, _ = setup
        Z = example_mats(setup, idx).Z
        assert Z.shape == (1, 12)
        # variable 2 is newly latent: those columns are zero in every group
        assert_array_equal(Z[:, [0, 3, 6, 9]], np.zeros((1, 4)))
        condensed = Z[:, [1, 2, 4, 5, 7, 8, 10, 11]]
        expected = np.zeros((1, 8))
        for lag in (1, 2, 3):
            expected[0, lag * 2] = Pi(params, lag, 1, 3)
            expected[0, lag * 2 + 1] = Pi(params, lag, 1, 4)
        assert_array_equal(condensed, expected)

    def test_C(self, setup, idx):
        params, _ = setup
        C = example_mats(setup, idx).C
        expected = np.zeros((1, 6))
        for j in (1, 2):
            for lag in (1, 2, 3):
                expected[0, (j - 1) * 3 + lag - 1] = Pi(params, lag, 1, j)
        assert_array_equal(C, expected)

    def test_G_and_H(self, setup, idx):
        params, _ = setup
        W = params.chol(0)
        G, H = loadings(params, idx, np.array([], dtype=int), 0)
        assert_array_equal(G, W[:1])
        expected = np.zeros((12, 4))
        expected[:3] = W[1:]
        assert_array_equal(H, expected)


class TestCompactAndCompanion:
    def test_companion_observation_rows(self, setup):
        params, agg = setup
        obs = np.ones((4, 3), dtype=bool)
        obs[3, 1:] = False
        pattern = ObservationPattern(obs, np.ones((4, 1), dtype=bool))
        assert params.companion_transition().shape == (16, 16)
        Z = companion_observation(params, agg, pattern.observed(3), pattern.quarterly_rows(3))
        assert Z.shape == (2, 16)
        expected = np.zeros((2, 16))
        expected[0, 0] = 1.0
        for lag in range(3):
            expected[1, lag * 4 + 3] = 1.0 / 3.0
        assert_array_equal(Z, expected)

    def test_zero_coefficients(self, setup):
        _, agg = setup
        params = random_params(3, 1, 3, seed=12)
        zeroed = type(params)(3, 1, 3, params.intercept, np.zeros((3, 4, 4)), params.chol(0))
        idx = BALANCED
        Z = build_system_matrices(zeroed, agg, idx, np.array([], dtype=int)).Z
        assert_array_equal(Z, np.zeros((3, 4)))


class TestExogVector:
    """The exogenous constants ``build_periods`` forms from the lagged
    observed monthly data: variable-major, lags t-1..t-p inside each
    variable block, pre-sample lags zero."""

    @pytest.fixture
    def built(self, setup):
        params, agg = setup
        values = np.random.default_rng(3).normal(size=(8, 4))
        values[[0, 1, 3, 4, 6, 7], 3] = np.nan   # quarterly at t = 2, 5
        values[4:, 2] = np.nan                   # variable 2 latent from t = 4
        values[7, 1] = np.nan
        data = MixedFreqData.from_values(values, 3, 1)
        return params, values, per_period(params, agg, data)

    @staticmethod
    def direct(params, values, t, rows, o_prev):
        """intercept + sum over in-sample lags of Pi_lag[rows, o_prev] y_{t-lag}."""
        out = params.intercept[rows].copy()
        for lag in range(1, min(params.p, t) + 1):
            out += params.lag_coeffs[lag - 1][np.ix_(rows, o_prev)] @ values[t - lag, o_prev]
        return out

    def test_variable_major_lag_order(self, built):
        params, values, periods = built
        for per in periods[params.p :]:
            idx = per.mats.idx
            n_o, s = len(idx.o_t), idx.head_size
            y = values[per.t, idx.o_t]
            assert_allclose(per.ymc[:n_o], y - self.direct(params, values, per.t, idx.o_t, idx.o_prev), rtol=1e-13)
            assert_allclose(per.d[:s], self.direct(params, values, per.t, idx.head_vars(), idx.o_prev), rtol=1e-13)
        # variable 2 turns latent at t = 4: the lower state rows take its
        # observed lags t-1..t-p straight from the data
        per = periods[4]
        assert_array_equal(per.d[[2, 4, 6]], values[[3, 2, 1], 2])

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_every_period_matches_direct_construction(self, setup, time_varying):
        """y, c and d of every period, the one-period edge groups included,
        from the exogenous vector assembled entry by entry; a draw's
        balanced block and edge periods take them as they are."""
        params, agg = setup
        rng = np.random.default_rng(8)
        values = rng.normal(size=(12, 4))
        values[[0, 1, 3, 4, 6, 7, 9, 10], 3] = np.nan
        values[7:, 2] = np.nan
        values[9:, 0] = np.nan
        values[11, 1] = np.nan
        if time_varying:
            scale = np.exp(0.3 * rng.standard_normal((12, 4)))
            params = VarParams(3, 1, 3, params.intercept, params.lag_coeffs,
                               scale[:, :, None] * params.chol_cov)
        data = MixedFreqData.from_values(values, 3, 1)
        periods = per_period(params, agg, data)
        p = params.p
        assert [per.t for per in periods] == list(range(12))
        for per in periods:
            idx = per.mats.idx
            ex = np.zeros(p * len(idx.o_prev))
            for pos, v in enumerate(idx.o_prev):
                for lag in range(1, min(p, per.t) + 1):
                    ex[pos * p + lag - 1] = values[per.t - lag, v]
            y = np.concatenate([values[per.t, idx.o_t], values[per.t, 3 + per.mats.q_rows]])
            assert_allclose(per.ymc, y - (per.mats.c0 + per.mats.C @ ex), rtol=1e-13, atol=1e-15)
            assert_allclose(per.d, per.mats.d0 + per.mats.D @ ex, rtol=1e-13, atol=1e-15)
        # a draw's periods: the balanced block's right-hand side is formed
        # from the residuals y_m - c_m and -d_q of the periods before t_b = 7
        # and the aggregates, the quarterly values at t = 2, 5; the edge
        # system's from the VAR residuals at zero latent values of t = 7..11
        # (t = 8, 10, 11 have o_prev != all) and the values at t = 8, 11
        t_b = data.pattern.t_balanced
        assert all(len(periods[t].mats.idx.o_prev) < 3 for t in (8, 10, 11))
        plan = plan_for(params, agg.scheme, data)
        edge = plan.edge(data.pattern)
        (built,) = build_periods(plan.system, plan.balanced(data))
        resid = np.array([np.concatenate([per.ymc[:3], -per.d[:1]]) for per in periods[:t_b]])
        want = plan.system.rhs(projected(plan.system, resid), values[[2, 5], 3])
        assert (built.mats, built.t) == (plan.system, 0)
        assert np.abs(built.rhs - want).max() <= 1e-13 * np.abs(want).max()
        ref = [direct_resid(params, values, t) for t in range(t_b, 12)]
        assert_allclose(edge_residuals(edge, values), ref, rtol=1e-13, atol=1e-15)
        assert_array_equal(plan.edge_data(data), edge.rhs(values))
        assert_array_equal(edge.rhs(values)[edge.n_z :], values[[8, 11], 3])

    def test_presample_lags_are_zero(self, built):
        params, values, periods = built
        all_m = np.arange(3)
        head = np.arange(4)
        assert_array_equal(periods[0].ymc[:3], values[0, :3] - params.intercept[:3])
        assert_array_equal(periods[0].d[:1], params.intercept[3:])
        for per in periods[1 : params.p]:
            assert_allclose(per.ymc[:3], values[per.t, :3] - self.direct(params, values, per.t, all_m, all_m), rtol=1e-13)
            assert_allclose(per.d[:1], self.direct(params, values, per.t, head[3:], all_m), rtol=1e-13)


class TestBalancedDataPart:
    """The balanced right-hand side's data part (``Plan.balanced``), formed
    from the monthly series by one product and p shifted adds, against the
    lag-stack route: every period's stack gathered, the full (t_b, n)
    residuals, each period's term B' Sigma_t^-1 r_t from its whitened
    factors, and the first p periods' through J_t."""

    @staticmethod
    def reference(plan, data):
        params, system = plan.params, plan.system
        n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
        T, t_b, k = data.T, data.pattern.t_balanced, (p + 1) * n_q
        stacks = lag_stacks(data.values, p, n_m)
        X = stacks[T - 1 - np.arange(t_b)].reshape(t_b, -1)
        coeffs = params.lag_coeffs[:, :, :n_m].transpose(1, 2, 0).reshape(n, n_m * p)    # variable-major
        resid = -(X @ coeffs.T + params.intercept)
        resid[:, :n_m] += data.values[:t_b, :n_m]
        B = np.zeros((n, k))
        B[n_m:, :n_q] = np.eye(n_q)
        B[:, n_q:] = -np.concatenate([A[:, n_m:] for A in params.lag_coeffs], axis=1)
        L0 = kalman.initial_factor(plan.init.P)[0]
        C = np.empty((t_b, k))
        for t in range(t_b):
            W = params.chol(t)
            G = scipy.linalg.solve_triangular(W, B, lower=True).T
            C[t] = G @ scipy.linalg.solve_triangular(W, resid[t], lower=True)
            if t < p:
                J = np.eye(k)
                j = (t + 1) * n_q
                J[j:, j:] = L0[: k - j, : k - j]
                C[t] = J.T @ C[t]
        b = system._b - np.bincount(system._win.ravel(), C.ravel(), system.size)
        ts, qs = np.nonzero(data.pattern.quarterly_observed[:t_b])
        b[system._agg] += data.values[ts, n_m + qs]
        return resid, b

    @pytest.mark.parametrize("shape", [
        (119, 1, 12, 60, 58),
        (18, 2, 6, 40, 37),
        (4, 3, 3, 20, 18),      # p = p_q under the average
        (5, 2, 4, 30, 5),       # t_b = p + 1
        (5, 2, 4, 30, 30),      # t_b = T
        (4, 0, 3, 30, 28),      # no quarterly variable
    ])
    @pytest.mark.parametrize("scheme", ["average", "skip"])
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("init_mode", ["stationary", "diffuse-proxy"])
    def test_matches_the_lag_stack_route(self, shape, scheme, time_varying, init_mode):
        agg = intra_quarterly_average() if scheme == "average" else skip_sampling()
        inst = make_instance(*shape, np.random.default_rng(shape[0] + shape[4]), scheme=agg)
        params, data = inst.params, inst.data
        if time_varying:
            scale = np.exp(0.3 * np.random.default_rng(1).standard_normal((data.T, params.n)))
            params = VarParams(params.n_m, params.n_q, params.p, params.intercept, params.lag_coeffs,
                               scale[:, :, None] * params.chol_cov)
        plan = plan_for(params, agg, data, init_mode)
        assert (plan.system.proj is None) == time_varying
        resid, want = self.reference(plan, data)
        for got, ref in ((systems.balanced_constants(params, data), resid), (plan.balanced(data), want)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=0.0)


class TestEdgeConstants:
    @pytest.mark.parametrize("n_m,n_q,p,T,t_b", [(5, 2, 4, 40, 36), (119, 1, 12, 60, 58)])
    def test_match_the_dense_products(self, n_m, n_q, p, T, t_b):
        """The reference's c and d (``constants``) against the dense products
        with each edge period's C and D, and the edge system's residuals at
        zero latent values against the VAR residual formed lag by lag."""
        inst = make_instance(n_m, n_q, p, T, t_b, np.random.default_rng(2))
        data = inst.data
        plan = plan_for(inst.params, inst.scheme, data)
        stacks = lag_stacks(data.values, p, n_m)
        edge = 0
        for t, got in zip(range(t_b, T), edge_residuals(plan.edge(data.pattern), data.values)):
            idx = index_for_period(data.pattern, n_m, n_q, t)
            mats = build_system_matrices(inst.params, plan.agg, idx, data.pattern.quarterly_rows(t))
            X = stacks[T - 1 - t, idx.o_prev].reshape(-1)
            c_ref, d_ref = X @ mats.C.T + mats.c0, X @ mats.D.T + mats.d0
            c, d = constants(mats, np.array([t]), stacks)
            for value, ref in ((c[0], c_ref), (d[0], d_ref)):
                assert np.abs(value - ref).max() <= 1e-14 * np.abs(ref).max()
            ref = direct_resid(inst.params, data.values, t)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            edge += int(np.isin(idx.u_t, idx.o_prev).any())
        assert edge > 0


class TestSkeletonSharing:
    """The ragged edge is one system per plan (``kalman.EdgeSystem``),
    whatever its pattern keys: no per-period structural matrices or noise
    products; under a time-varying ``chol_cov`` each period is whitened by
    its own factor."""

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_one_build_per_pattern_key(self, monkeypatch, time_varying):
        # monthly variable 0 is missing from t = 290 on: an edge of ten
        # periods with three keys, the first edge period and then the
        # periods with and without a quarterly value
        rng = np.random.default_rng(5)
        mask = benchmark_pattern(18, 2, 300, 300)
        mask[290:, 0] = False
        inst = make_instance(18, 2, 6, 300, 290, rng, mask=mask)
        params = inst.params
        if time_varying:
            scale = np.exp(0.3 * rng.standard_normal((300, params.n)))
            params = VarParams(18, 2, 6, params.intercept, params.lag_coeffs,
                               scale[:, :, None] * params.chol_cov)
        calls, built = [], []
        build, edge_system = systems.build_system_matrices, kalman.EdgeSystem
        monkeypatch.setattr(systems, "build_system_matrices", lambda *args: calls.append(args) or build(*args))
        monkeypatch.setattr(baseline, "EdgeSystem", lambda *args: built.append(edge_system(*args)) or built[-1])
        x_hat = run_adaptive(params, inst.scheme, inst.data).x_hat
        assert calls == [] and len(built) == 1
        assert_array_equal(built[0].cells, [np.repeat(np.arange(290, 300), 3), [0, 18, 19] * 10])
        ref = reference_smooth(params, plan_for(params, inst.scheme, inst.data), inst.data)
        assert np.abs(x_hat - ref).max() <= 1e-12 * np.abs(ref).max()


def reference_smooth(params, plan, data):
    """The reduced filter and smoother run period by period through the
    ragged edge (``per_period``) from the plan's initial state: the smoothed
    latent values written into a (T, n) array as ``baseline.smooth`` writes
    them, beside the observed monthly values."""
    records = per_period(params, plan.agg, data)
    states, _ = smooth_periods(filter_periods(records, plan.init))
    x = np.where(np.isnan(data.values), 0.0, data.values)
    x[:, data.n_m :] = 0.0
    for per, state in zip(records, states):
        idx = per.mats.idx
        x[per.t, idx.head_vars()] = state[: idx.head_size]
    return x


# Reference builders: the per-lag, per-variable loops that specify each
# period's system, which ``build_system_matrices`` reads off the companion
# transition and must match exactly.


def ref_selection(idx):
    s, sp = idx.head_size, idx.prev_head_size
    J = np.zeros((s, sp))
    pos = {v: i for i, v in enumerate(idx.head_vars())}
    for j, v in enumerate(idx.prev_head_vars()):
        J[pos[v], j] = 1.0
    return J


def ref_exog_col(pos, lag, p):
    return pos * p + (lag - 1)


def ref_T(params, idx):
    p = params.p
    s, sp = idx.head_size, idx.prev_head_size
    T = np.zeros(((p + 1) * s, (p + 1) * sp))
    rows = idx.head_vars()
    cols = idx.prev_head_vars()
    for lag in range(1, p + 1):
        T[:s, (lag - 1) * sp : lag * sp] = params.lag_coeffs[lag - 1][np.ix_(rows, cols)]
    J = ref_selection(idx)
    for lag in range(1, p + 1):
        T[lag * s : (lag + 1) * s, (lag - 1) * sp : lag * sp] = J
    return T


def ref_D(params, idx):
    p = params.p
    s = idx.head_size
    D = np.zeros(((p + 1) * s, p * len(idx.o_prev)))
    rows = idx.head_vars()
    for lag in range(1, p + 1):
        cols = np.array([ref_exog_col(i, lag, p) for i in range(len(idx.o_prev))], dtype=int)
        if cols.size:
            D[:s, cols] = params.lag_coeffs[lag - 1][np.ix_(rows, idx.o_prev)]
    newly = set(idx.u_t) & set(idx.o_prev)
    head_pos = {v: i for i, v in enumerate(rows)}
    o_prev_pos = {v: i for i, v in enumerate(idx.o_prev)}
    for v in sorted(newly):
        for lag in range(1, p + 1):
            D[lag * s + head_pos[v], ref_exog_col(o_prev_pos[v], lag, p)] = 1.0
    return D


def ref_Z(params, agg, idx, q_rows):
    p = params.p
    s = idx.head_size
    Z = np.zeros((len(idx.o_t) + len(q_rows), (p + 1) * s))
    latent = idx.prev_head_vars()
    head_pos = {v: i for i, v in enumerate(idx.head_vars())}
    latent_pos = np.array([head_pos[v] for v in latent], dtype=int)
    for lag in range(1, p + 1):
        if latent_pos.size and len(idx.o_t):
            Z[: len(idx.o_t), lag * s + latent_pos] = params.lag_coeffs[lag - 1][np.ix_(idx.o_t, latent)]
    for r, j in enumerate(q_rows):
        for lag in range(agg.p_q):
            Z[len(idx.o_t) + r, lag * s + len(idx.u_t) + j] = agg.scheme.weights[lag]
    return Z


def ref_C(params, idx, q_rows):
    p = params.p
    C = np.zeros((len(idx.o_t) + len(q_rows), p * len(idx.o_prev)))
    for lag in range(1, p + 1):
        cols = np.array([ref_exog_col(i, lag, p) for i in range(len(idx.o_prev))], dtype=int)
        if cols.size and len(idx.o_t):
            C[: len(idx.o_t), cols] = params.lag_coeffs[lag - 1][np.ix_(idx.o_t, idx.o_prev)]
    return C


def ref_companion_observation(params, agg, o_t, q_rows):
    Z = np.zeros((len(o_t) + len(q_rows), params.n * (params.p + 1)))
    for r, v in enumerate(o_t):
        Z[r, v] = 1.0
    for r, j in enumerate(q_rows):
        for lag in range(agg.p_q):
            Z[len(o_t) + r, lag * params.n + params.n_m + j] = agg.scheme.weights[lag]
    return Z


def ref_lam_qq(scheme, n_q):
    lam_qq = np.zeros((n_q, n_q * scheme.p_q))
    for lag, w in enumerate(scheme.weights):
        lam_qq[:, lag * n_q : (lag + 1) * n_q] = w * np.eye(n_q)
    return lam_qq


SCHEMES = {
    "average": lambda w: intra_quarterly_average(),
    "skip": lambda w: skip_sampling(),
    "custom": lambda w: AggregationScheme(np.array(w)),
}


def check_against_reference(n_m, n_q, p, latent, was_latent, q_obs, kind, weights=(0.6, -0.4), seed=0):
    """Every system matrix of one index set equals the loop builders' exactly.

    ``latent`` flags U_t; U_{t-1} is the variables flagged in both
    ``latent`` and ``was_latent``, so the edge is monotone."""
    params = random_params(n_m, n_q, p, seed=seed)
    scheme = SCHEMES[kind](weights)
    agg = build_aggregation(scheme, n_q, p)
    latent = np.asarray(latent, dtype=bool)
    u_t = np.flatnonzero(latent)
    u_prev = np.flatnonzero(latent & np.asarray(was_latent, dtype=bool))
    o_t = np.flatnonzero(~latent)
    o_prev = np.setdiff1d(np.arange(n_m), u_prev)
    q_rows = np.flatnonzero(q_obs)
    idx = AdaptiveIndex(u_t, o_t, u_prev, o_prev, n_m, n_q)
    mats = build_system_matrices(params, agg, idx, q_rows)
    assert_array_equal(mats.Z, ref_Z(params, agg, idx, q_rows))
    assert_array_equal(mats.C, ref_C(params, idx, q_rows))
    assert_array_equal(mats.T, ref_T(params, idx))
    assert_array_equal(mats.D, ref_D(params, idx))
    assert_array_equal(
        companion_observation(params, agg, o_t, q_rows), ref_companion_observation(params, agg, o_t, q_rows)
    )
    assert_array_equal(agg.lam_qq, ref_lam_qq(scheme, n_q))


class TestAgainstLoopBuilders:
    """``build_system_matrices``, read off the companion transition, against
    the loop builders, and its gather against the transition itself."""

    @pytest.mark.parametrize(
        "n_m, n_q, p, latent, was_latent, q_obs, kind",
        [
            (4, 2, 3, [0, 1, 1, 0], [0, 0, 0, 0], [1, 1], "average"),        # n_q = 2
            (3, 1, 2, [1, 0, 1], [1, 0, 0], [1], "skip"),                     # skip sampling
            (4, 2, 2, [0, 1, 0, 1], [0, 1, 0, 0], [0, 1], "custom"),          # p_q = 2
            (3, 1, 3, [1, 1, 1], [0, 1, 0], [1], "average"),                  # empty o_t
            (3, 2, 4, [1, 1, 1], [1, 1, 1], [1, 0], "custom"),                # empty o_prev
            (5, 1, 3, [1, 0, 1, 1, 0], [0, 0, 1, 0, 0], [0], "average"),      # nonempty u_prev
            (6, 1, 4, [1, 1, 0, 1, 1, 1], [0, 0, 0, 1, 0, 0], [1], "skip"),   # four newly latent
        ],
    )
    def test_edge_cases(self, n_m, n_q, p, latent, was_latent, q_obs, kind):
        check_against_reference(n_m, n_q, p, latent, was_latent, q_obs, kind)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_drawn_index_sets(self, data):
        n_m = data.draw(st.integers(1, 6))
        n_q = data.draw(st.integers(1, 2))
        p = data.draw(st.integers(1, 5))
        flags = st.lists(st.booleans(), min_size=n_m, max_size=n_m)
        p_q = {"average": 3, "skip": 1, "custom": 2}
        kind = data.draw(st.sampled_from([k for k in SCHEMES if p_q[k] <= p]))
        weight = st.floats(-2.0, 2.0, allow_nan=False)
        check_against_reference(
            n_m, n_q, p, data.draw(flags), data.draw(flags),
            data.draw(st.lists(st.booleans(), min_size=n_q, max_size=n_q)), kind,
            weights=(data.draw(weight), data.draw(weight)), seed=data.draw(st.integers(0, 1000)),
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_companion_block_is_the_transitions(self, data):
        """``systems._companion_block`` against ``companion_transition()`` at
        ``np.ix_(rows, cols)``, bitwise: ascending rows over all n(p+1), the
        shift's rows among them, and any columns, the last lag group's too."""
        n_m, n_q, p = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2)), data.draw(st.integers(1, 4))
        if n_m + n_q == 0:
            n_m = 1
        params = random_params(n_m, n_q, p, seed=data.draw(st.integers(0, 1000)))
        dim = params.n * (p + 1)
        rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
        cols = np.array(data.draw(st.lists(st.integers(0, dim - 1), max_size=2 * dim)), dtype=int)
        got = systems._companion_block(params, rows, cols)
        want = params.companion_transition()[np.ix_(rows, cols)]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_unsorted_index_set_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            AdaptiveIndex(np.array([2, 1]), np.array([0]), np.array([], dtype=int), np.arange(3), 3, 1)
