import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    VarParams,
    build_aggregation,
    intra_quarterly_average,
    oracle_joint,
    run_adaptive,
    run_baseline,
    run_blocked,
    skip_sampling,
)
from mfsmooth.baseline import compact_to_companion, companion_to_compact
from mfsmooth.blocked import OpCounter, blocked_F, blocked_K, blocked_M, blocked_predict, blocked_smooth_r
from mfsmooth.kalman import init_state, quarterly_state_index, run_filter
from mfsmooth.model import AggregationScheme
from mfsmooth.simulate import make_instance
from mfsmooth.systems import build_periods
from test_model import random_params

BACKENDS = {"baseline": run_baseline, "blocked": run_blocked, "adaptive": run_adaptive}


def small_instance(seed, n_m=3, n_q=1, p=3, T=18, t_b=16, **kw):
    rng = np.random.default_rng(seed)
    return make_instance(n_m, n_q, p, T, t_b, rng, **kw)


class TestCrossBackend:
    @pytest.mark.parametrize("seed,n_m,n_q,p,T,t_b", [
        (0, 3, 1, 3, 18, 16),
        (1, 5, 1, 3, 24, 22),
        (2, 5, 3, 4, 24, 21),
        (3, 8, 1, 6, 30, 27),
        (4, 4, 2, 3, 21, 19),
    ])
    def test_smoothed_means_agree(self, seed, n_m, n_q, p, T, t_b):
        inst = small_instance(seed, n_m, n_q, p, T, t_b)
        base = run_baseline(inst.params, inst.scheme, inst.data)
        for name, run in BACKENDS.items():
            out = run(inst.params, inst.scheme, inst.data)
            assert_allclose(out.x_hat, base.x_hat, rtol=1e-8, atol=1e-10, err_msg=name)

    def test_matches_joint_oracle(self):
        inst = small_instance(6, 3, 1, 3, 20, 17)
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        for name, run in BACKENDS.items():
            out = run(inst.params, inst.scheme, inst.data)
            assert_allclose(out.x_hat, oj.mean, rtol=1e-8, atol=1e-8, err_msg=name)

    def test_diffuse_proxy_agreement(self):
        inst = small_instance(8)
        base = run_baseline(inst.params, inst.scheme, inst.data, init_mode="diffuse-proxy")
        for run in (run_blocked, run_adaptive):
            out = run(inst.params, inst.scheme, inst.data, init_mode="diffuse-proxy")
            assert_allclose(out.x_hat, base.x_hat, rtol=1e-7, atol=1e-7)

    def test_step_counters(self):
        inst = small_instance(0)
        base = run_baseline(inst.params, inst.scheme, inst.data)
        assert (base.stats.compact_steps, base.stats.companion_steps) == (16, 2)
        adap = run_adaptive(inst.params, inst.scheme, inst.data)
        assert (adap.stats.compact_steps, adap.stats.adaptive_steps) == (16, 2)

    def test_short_balanced_sample_rejected(self):
        inst = small_instance(0)
        values = inst.data.values[-4:].copy()
        from mfsmooth import MixedFreqData

        data = MixedFreqData.from_values(values, 3, 1)
        with pytest.raises(ConfigurationError):
            run_baseline(inst.params, inst.scheme, data)


def reduced_filter_to_boundary(inst):
    """Reduced filter over the balanced sample, closed onto the stacked state."""
    params, data = inst.params, inst.data
    t_b = data.pattern.t_balanced
    agg = build_aggregation(inst.scheme, params.n_m, params.n_q, params.p)
    periods = build_periods(params, agg, data, stop=t_b)
    return run_filter(periods, init_state(params),
                      final_transition=compact_to_companion(params, data, t_b))


class TestTransitions:
    def test_lift_monthly_rows_zero_variance(self):
        inst = small_instance(5)
        params = inst.params
        res = reduced_filter_to_boundary(inst)
        last, lifted = res.records[-1], res.final_pred
        qi = quarterly_state_index(params)
        monthly = np.setdiff1d(np.arange(params.n * (params.p + 1)), qi)
        # known monthly values enter with zero variance; the quarterly block
        # is the reduced filtered state at t_b-1
        assert_array_equal(lifted.P[monthly, :], 0.0)
        assert_array_equal(lifted.P[:, monthly], 0.0)
        assert_allclose(lifted.P[np.ix_(qi, qi)], last.P_filt, rtol=1e-15, atol=0)
        assert_allclose(lifted.a[qi], last.a_filt, rtol=1e-15, atol=0)

    def test_lift_interleaves_known_monthly_values(self):
        inst = small_instance(5)
        params, data = inst.params, inst.data
        n, n_m, p = params.n, params.n_m, params.p
        t_b = data.pattern.t_balanced
        E, a_known, HHt = compact_to_companion(params, data, t_b)
        qi = quarterly_state_index(params)
        assert_array_equal(E[qi], np.eye(len(qi)))
        assert_array_equal(np.delete(E, qi, axis=0), 0.0)
        assert HHt == 0.0
        # lag group `lag` holds the monthly data at t_b-1-lag
        for lag in range(p + 1):
            assert_array_equal(a_known[lag * n : lag * n + n_m], data.values[t_b - 1 - lag, :n_m])
        assert_array_equal(a_known[qi], 0.0)
        res = reduced_filter_to_boundary(inst)
        assert_array_equal(np.delete(res.final_pred.a, qi), np.delete(a_known, qi))

    def test_back_transition_zero_when_smoothing_changes_nothing(self):
        params = random_params(2, 1, 3, seed=0)
        r = companion_to_compact(np.zeros(params.n * (params.p + 1)), params)
        assert_array_equal(r, 0.0)

    def test_back_transition_scalar(self):
        # n = 1, p = 1: F1 = [[a, 0], [1, 0]], so F1' r = [a r_0 + r_1, 0]
        params = random_params(0, 1, 1, seed=0)
        a = params.lag_coeffs[0, 0, 0]
        r = companion_to_compact(np.array([1.0, 2.0]), params)
        assert_allclose(r, [a + 2.0, 0.0])

    def test_singular_boundary_matches_joint_oracle(self):
        # skip-sampled quarterly observed in the last balanced period makes
        # parts of the reduced boundary covariance deterministic
        rng = np.random.default_rng(9)
        T, t_b = 14, 12
        mask = np.ones((T, 4), dtype=bool)
        mask[t_b:, 2] = False
        mask[:, 3] = (np.arange(1, T + 1) % 3) == 0
        inst = make_instance(3, 1, 3, T, t_b, rng, scheme=skip_sampling(), mask=mask)
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (run_baseline, run_blocked):
                out = run(inst.params, inst.scheme, inst.data)
                assert_allclose(out.x_hat, oj.mean, rtol=1e-8, atol=1e-8, err_msg=run.__name__)


def random_pred_cov(rng, dim):
    B = rng.normal(size=(dim, dim + 2))
    return B @ B.T / dim


class TestBlockedOps:
    @pytest.mark.parametrize("n,n_q,p", [(4, 1, 3), (10, 1, 4), (10, 3, 3), (20, 3, 4)])
    def test_dense_equivalence(self, n, n_q, p):
        rng = np.random.default_rng(n * 100 + n_q * 10 + p)
        n_m = n - n_q
        params = random_params(n_m, n_q, p, seed=n + p)
        agg = build_aggregation(intra_quarterly_average(), n_m, n_q, p)
        dim = n * (p + 1)
        qcols = agg.quarterly_state_cols(n, n_m)
        F1 = params.companion_transition()
        for trial in range(5):
            P = random_pred_cov(rng, dim)
            o_t = np.sort(rng.choice(n_m, size=rng.integers(1, n_m + 1), replace=False))
            q_rows = np.sort(rng.choice(n_q, size=rng.integers(0, n_q + 1), replace=False))
            lamqq_obs = agg.lam_qq[q_rows]
            # dense observation loading
            Z = np.zeros((len(o_t) + len(q_rows), dim))
            for r, v in enumerate(o_t):
                Z[r, v] = 1.0
            Z[len(o_t):, :] = 0.0
            for r, j in enumerate(q_rows):
                for lag in range(agg.p_q):
                    Z[len(o_t) + r, lag * n + n_m + j] = agg.weights[lag]

            F = blocked_F(P, o_t, qcols, lamqq_obs)
            assert_allclose(F, Z @ P @ Z.T, rtol=1e-12, atol=1e-12)

            M = blocked_M(P, o_t, qcols, lamqq_obs)
            assert_allclose(M, P @ Z.T, rtol=1e-12, atol=1e-12)

            Finv = np.linalg.inv((F + F.T) / 2.0)
            MFinv = M @ Finv
            K, L = blocked_K(MFinv, params.coeff_row, F1, o_t, qcols, lamqq_obs)
            assert_allclose(K, F1 @ MFinv, rtol=1e-10, atol=1e-10)
            assert_allclose(L, F1 - K @ Z, rtol=1e-10, atol=1e-10)

            a_filt = rng.normal(size=dim)
            pf = random_pred_cov(rng, n * p)
            a_next, P_next = blocked_predict(a_filt, pf, params.coeff_row, params.sigma(0))
            Pf_full = np.zeros((dim, dim))
            Pf_full[: n * p, : n * p] = pf
            assert_allclose(P_next, F1 @ Pf_full @ F1.T + params.companion_noise_cov(0),
                            rtol=1e-12, atol=1e-12)
            assert_allclose(a_next, F1 @ a_filt, rtol=1e-12, atol=1e-12)

            r = rng.normal(size=dim)
            v = rng.normal(size=len(o_t) + len(q_rows))
            r_prev = blocked_smooth_r(L, r, v, o_t, qcols, lamqq_obs)
            assert_allclose(r_prev, L.T @ r + Z.T @ v, rtol=1e-12, atol=1e-12)

            assert_allclose(companion_to_compact(r, params), F1.T @ r, rtol=1e-12, atol=1e-12)

    def test_zero_coefficients(self):
        params = random_params(3, 1, 3, seed=2)
        zero_row = np.zeros_like(params.coeff_row)
        rng = np.random.default_rng(0)
        P = random_pred_cov(rng, 16)
        agg = build_aggregation(intra_quarterly_average(), 3, 1, 3)
        qcols = agg.quarterly_state_cols(4, 3)
        M = blocked_M(P, np.arange(3), qcols, agg.lam_qq)
        F = blocked_F(P, np.arange(3), qcols, agg.lam_qq)
        MFinv = M @ np.linalg.inv(F)
        F1 = params.companion_transition()
        K, _ = blocked_K(MFinv, zero_row, F1, np.arange(3), qcols, agg.lam_qq)
        assert_allclose(K[:4], 0.0)
        a_next, P_next = blocked_predict(np.ones(16), np.eye(12), zero_row, params.sigma(0))
        assert_allclose(P_next[:4, :4], params.sigma(0))
        assert_allclose(P_next[:4, 4:], 0.0)
        assert_allclose(P_next[4:, 4:], np.eye(12))

    def test_predict_mult_count_below_dense(self):
        counter = OpCounter()
        params = random_params(3, 1, 3, seed=2)
        blocked_predict(np.zeros(16), np.eye(12), params.coeff_row, params.sigma(0), counter)
        n, p = 4, 3
        assert 0 < counter.mults < (n * (p + 1)) ** 3


@st.composite
def ragged_cases(draw):
    """Shapes and settings of a small instance with a monotone ragged edge."""
    n_m = draw(st.integers(1, 3))
    n_q = draw(st.integers(1, 2))
    weights = draw(st.one_of(
        st.just(None),                                    # intra-quarterly average
        st.just((1.0,)),                                  # skip sampling
        st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3).map(tuple),
    ))
    p = draw(st.integers(3 if weights is None else len(weights), 4))
    t_b = draw(st.integers(p + 1, p + 5))
    T = t_b + draw(st.integers(1, 3))
    # each monthly series stays observed up to its own cut; one leaves at t_b
    cuts = draw(st.lists(st.integers(t_b, T), min_size=n_m, max_size=n_m))
    cuts[draw(st.integers(0, n_m - 1))] = t_b
    # offset t_b % 3 puts a quarter-end at t_b - 1
    offset = draw(st.integers(0, 2))
    time_varying = draw(st.booleans())
    init_mode = draw(st.sampled_from(["stationary", "diffuse-proxy"]))
    seed = draw(st.integers(0, 2**16))
    return n_m, n_q, p, weights, t_b, T, tuple(cuts), offset, time_varying, init_mode, seed


class TestJointOracleProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=ragged_cases())
    @example(case=(2, 1, 3, (1.0,), 6, 8, (6, 8), 0, True, "stationary", 1))
    @example(case=(3, 1, 3, None, 5, 7, (5, 6, 7), 2, False, "diffuse-proxy", 2))
    def test_backends_match_joint_oracle(self, case):
        n_m, n_q, p, weights, t_b, T, cuts, offset, time_varying, init_mode, seed = case
        if weights is None:
            scheme = intra_quarterly_average()
        else:
            scheme = AggregationScheme("custom", np.array(weights), len(weights))
        mask = np.ones((T, n_m + n_q), dtype=bool)
        for j, cut in enumerate(cuts):
            mask[cut:, j] = False
        mask[:, n_m:] = ((np.arange(1, T + 1) - offset) % 3 == 0)[:, None]
        rng = np.random.default_rng(seed)
        inst = make_instance(n_m, n_q, p, T, t_b, rng, scheme=scheme, mask=mask)
        params = inst.params
        if time_varying:
            n = params.n
            scale = np.exp(rng.normal(scale=0.3, size=(T, n)))
            stack = np.tril(rng.normal(scale=0.2, size=(T, n, n)), -1)
            stack += scale[:, :, None] * np.eye(n)
            params = VarParams(n_m, n_q, p, params.intercept, params.lag_coeffs, stack)
        assert inst.data.pattern.t_balanced == t_b
        oj = oracle_joint(params, scheme, inst.data, init_mode=init_mode)
        for name, run in BACKENDS.items():
            out = run(params, scheme, inst.data, init_mode=init_mode)
            assert_allclose(out.x_hat, oj.mean, rtol=1e-8, atol=1e-8, err_msg=name)
