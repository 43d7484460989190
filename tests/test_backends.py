import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    VarParams,
    build_aggregation,
    draw_latent,
    draw_many,
    gen_pseudo,
    intra_quarterly_average,
    oracle_joint,
    oracle_smooth,
    run_adaptive,
    run_baseline,
    run_blocked,
    skip_sampling,
)
from mfsmooth.baseline import adaptive_edge, compact_to_companion, companion_to_compact, dense_edge, plan_for
from mfsmooth.blocked import (
    Downdate,
    blocked_downdate,
    blocked_edge,
    blocked_F,
    blocked_K,
    blocked_last,
    blocked_M,
    blocked_predict,
    blocked_smooth_r,
    predict_mean,
)
from mfsmooth.kalman import (
    FilterState,
    filter_periods,
    quarterly_state_index,
    run_filter,
    run_smoother,
    smooth_periods,
)
from mfsmooth.model import AggregationScheme
from mfsmooth.simsmooth import _rng_for, simulate_path
from mfsmooth.simulate import make_instance
from mfsmooth.systems import build_periods
from test_model import random_params
from test_systems import per_period

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
        blk = run_blocked(inst.params, inst.scheme, inst.data)
        assert (blk.stats.compact_steps, blk.stats.companion_steps) == (16, 2)
        adap = run_adaptive(inst.params, inst.scheme, inst.data)
        assert (adap.stats.compact_steps, adap.stats.adaptive_steps) == (16, 2)
        balanced = small_instance(1, T=18, t_b=18)
        assert balanced.data.pattern.balanced
        for name, run in BACKENDS.items():
            stats = run(balanced.params, balanced.scheme, balanced.data).stats
            assert (stats.compact_steps, stats.companion_steps, stats.adaptive_steps) == (18, 0, 0), name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_short_balanced_sample_rejected(self, name):
        inst = small_instance(0)
        values = inst.data.values[-4:].copy()
        from mfsmooth import MixedFreqData

        data = MixedFreqData.from_values(values, 3, 1)
        with pytest.raises(ConfigurationError):
            BACKENDS[name](inst.params, inst.scheme, data)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_time_varying_cov_length(self, name):
        """A stack of factors shorter or longer than the data is a usage
        error naming both lengths, from the backend, a draw and a stack of
        draws; exactly T factors draw."""
        inst = make_instance(4, 1, 3, 40, 38, np.random.default_rng(0))
        params, scheme, data = time_varying_stacks(inst)
        for k in (39, 41):
            want = f"{k} factors, the data 40 periods"
            with pytest.raises(ConfigurationError, match=want):
                draw_latent(params[k], scheme, data, name, seed=0)
            with pytest.raises(ConfigurationError, match=want):
                draw_many(params[k], scheme, data, name, 2)
            with pytest.raises(ConfigurationError, match=want):
                BACKENDS[name](params[k], scheme, data)
        assert np.isfinite(draw_latent(params[40], scheme, data, name, seed=0).x).all()

    def test_worst_cond_covers_the_edge(self):
        """``RunStats.worst_cond`` takes the edge's condition: a tiny shock
        variance in the last two periods raises it tenfold and more, both in
        the edge steps' factors of F, which the blocked and reference
        backends report alike, and in the adaptive edge system's 1/rcond; a
        balanced sample has none."""
        inst = make_instance(17, 3, 4, 60, 57, np.random.default_rng(0))
        p = inst.params
        W = np.repeat(p.chol_cov, 60, axis=0)
        plain = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, W.copy())
        W[58:, 0, 0] *= 1e-3
        tv = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, W)
        for params in (plain, tv):
            conds = {name: run(params, inst.scheme, inst.data).stats.worst_cond for name, run in BACKENDS.items()}
            assert_allclose(conds["blocked"], conds["baseline"], rtol=1e-8)
        assert conds["baseline"] > 10 * run_baseline(plain, inst.scheme, inst.data).stats.worst_cond > 10
        assert conds["adaptive"] > 10 * run_adaptive(plain, inst.scheme, inst.data).stats.worst_cond > 10
        balanced = small_instance(1, T=18, t_b=18)
        for name, run in BACKENDS.items():
            assert run(balanced.params, balanced.scheme, balanced.data).stats.worst_cond == 0.0, name


def test_layer_trace_finds_smooth_bindings(monkeypatch):
    """The benchmark's layer trace wraps ``baseline.smooth``'s calls in every
    backend: one reduced filter, smoother and system build per draw.  Every
    binding its count table names resolves.  Outside the edge steps the
    draws build no per-period structural matrices and factorize no F, and
    the table names neither LU routine, so both counts read 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from layertrace import COUNTED, Tracer

    import mfsmooth

    for mod, name, _ in COUNTED:
        assert callable(getattr(getattr(mfsmooth, mod), name, None)), f"{mod}.{name}"
    inst = small_instance(0)
    tracer = Tracer(mfsmooth)
    with tracer.root("iter"):
        for name in BACKENDS:
            mfsmooth.draw_latent(inst.params, inst.scheme, inst.data, backend=name, seed=1)
    _, totals = tracer.layer_totals(0)
    for layer in ("systems.build_periods", "kalman.run_filter_self", "edge.baseline", "edge.blocked"):
        assert layer in totals, layer
    spans = Counter(s[0] for s in tracer.spans)
    for layer in ("systems.build_periods", "kalman.run_filter_self", "kalman.run_smoother"):
        assert spans[layer] == len(BACKENDS), layer
    # edge spans inside the backend's own span: the boundary hand-off and edge step
    assert spans["edge.baseline"] > 1 and spans["edge.blocked"] > 1
    assert mfsmooth.baseline.run_filter is mfsmooth.kalman.run_filter
    counts = tracer.roots[0][2]
    assert counts["systems.system_builds"] == 0 and counts["kalman.factorizations"] == 0


def test_monthly_rows_volatility_change_matches_joint_oracle():
    """A time-varying ``chol_cov`` that changes only the monthly rows (G,
    not H) of one balanced period: every backend still has the joint
    oracle's mean."""
    inst = small_instance(1, 2, 1, 3, 40, 38)
    params, data = inst.params, inst.data
    stack = np.repeat(params.chol_cov, data.T, axis=0)
    stack[30, : params.n_m] *= 3.0
    tv = VarParams(params.n_m, params.n_q, params.p, params.intercept, params.lag_coeffs, stack)
    oj = oracle_joint(tv, inst.scheme, data)
    for name, run in BACKENDS.items():
        out = run(tv, inst.scheme, data)
        assert_allclose(out.x_hat, oj.mean, rtol=1e-8, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("t_b", [27, 30])
@pytest.mark.parametrize("split", [(3, 2), (2, 3), (5, 0), (4, 2)])
def test_parameters_must_fit_the_data(t_b, split):
    """Parameters whose monthly/quarterly split differs from the data's are
    rejected by every backend, a draw and both oracles, on a ragged and on
    a balanced sample, before any solve."""
    inst = small_instance(1, 4, 1, 3, 30, t_b)
    base = inst.params if sum(split) == 5 else random_params(*split, 3, seed=1)
    params = VarParams(*split, 3, base.intercept, base.lag_coeffs, base.chol_cov)
    want = f"parameters for n_m={split[0]}, n_q={split[1]} on data with n_m=4, n_q=1"
    calls = [*BACKENDS.values(), draw_latent, oracle_smooth, oracle_joint]
    for call in calls:
        with pytest.raises(ConfigurationError, match=want):
            call(params, inst.scheme, inst.data)


def time_varying_stacks(inst):
    """``inst``'s parameters with stacks of 39, 40 and 41 time-varying
    factors (the data has 40 periods), its scheme and its data."""
    p = inst.params
    W = np.exp(0.3 * np.random.default_rng(1).standard_normal((41, p.n)))[:, :, None] * p.chol_cov
    params = {k: VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, W[:k]) for k in (39, 40, 41)}
    return params, inst.scheme, inst.data


@pytest.mark.parametrize("k", [39, 41])
def test_time_varying_cov_fits_the_data_at_every_entry_point(k):
    """The plan, a perturbation and both oracles reject a stack of factors
    shorter or longer than the data, as the backends and draws do
    (``TestCrossBackend::test_time_varying_cov_length``)."""
    inst = make_instance(4, 1, 3, 40, 38, np.random.default_rng(0))
    params, scheme, data = time_varying_stacks(inst)
    calls = [plan_for, oracle_smooth, oracle_joint, lambda *args: gen_pseudo(*args, np.random.default_rng(0))]
    for call in calls:
        with pytest.raises(ConfigurationError, match=f"{k} factors, the data 40 periods"):
            call(params[k], scheme, data)


def reduced_filter_to_boundary(inst):
    """The balanced block's solve's last state, the filtered state at t_b-1."""
    params, data = inst.params, inst.data
    plan = plan_for(params, inst.scheme, data)
    u = run_filter(build_periods(plan.system, plan.balanced(data)))
    return FilterState(plan.system.last(u), plan.system.P_filt)


class TestTransitions:
    def test_lift_monthly_rows_zero_variance(self):
        inst = small_instance(5)
        params = inst.params
        res = reduced_filter_to_boundary(inst)
        lifted = compact_to_companion(params, inst.data, res)
        qi = quarterly_state_index(params)
        monthly = np.setdiff1d(np.arange(params.n * (params.p + 1)), qi)
        # known monthly values enter with zero variance; the quarterly block
        # is the reduced filtered state at t_b-1
        assert_array_equal(lifted.P[monthly, :], 0.0)
        assert_array_equal(lifted.P[:, monthly], 0.0)
        assert_array_equal(lifted.P[np.ix_(qi, qi)], res.P)
        assert_array_equal(lifted.a[qi], res.a)

    def test_lift_interleaves_known_monthly_values(self):
        inst = small_instance(5)
        params, data = inst.params, inst.data
        n, n_m, p = params.n, params.n_m, params.p
        t_b = data.pattern.t_balanced
        res = reduced_filter_to_boundary(inst)
        a = compact_to_companion(params, data, res).a
        qi = quarterly_state_index(params)
        assert a.shape == (n * (p + 1),)
        # lag group `lag` holds the monthly data at t_b-1-lag, then the
        # reduced state's quarterly entries of that lag
        for lag in range(p + 1):
            assert_array_equal(a[lag * n : lag * n + n_m], data.values[t_b - 1 - lag, :n_m])
        assert_array_equal(a[qi], res.a)

    @pytest.mark.parametrize("seed,scheme", [(5, intra_quarterly_average()), (7, skip_sampling())])
    def test_boundary_restart_matches_lift_closed_step(self, seed, scheme):
        """The balanced path is lifted by the quarterly positions of the
        edge's adjoint.  The reference is the per-period reduced run with its
        last step closed by the 0/1 placement E of the reduced state in the
        stacked one, K = E M F^-1, L = E - K Z, meeting the stacked adjoint,
        and the per-period smoother restarted from that adjoint."""
        inst = small_instance(seed, scheme=scheme)
        params, data = inst.params, inst.data
        agg = build_aggregation(scheme, params.n_q, params.p)
        t_b, n_q = data.pattern.t_balanced, params.n_q
        res = reduced_filter_to_boundary(inst)
        plan = plan_for(params, scheme, data)
        _, r_q, _ = dense_edge(plan, data, res)
        qi = quarterly_state_index(params)
        r = np.zeros(params.n * (params.p + 1))
        r[qi] = r_q
        E = np.zeros((len(r), len(qi)))
        E[qi, np.arange(len(qi))] = 1.0
        records = per_period(params, agg, data, t_b)
        ref = filter_periods(records, plan.init)
        e = ref[-1]
        K = E @ e.MFinv
        ltr = (E - K @ e.Z).T @ r
        ref_last = e.a_filt + e.P_pred @ ltr - e.HGt @ (K.T @ r)
        ref_path = [s[:n_q] for s in smooth_periods(ref, r[qi])[0]]
        periods = build_periods(plan.system, plan.balanced(data))
        states = run_smoother(periods, run_filter(periods), r_q)
        for got, want in ((states[-n_q:], ref_last[:n_q]), (states, ref_path)):
            got, want = np.ravel(got), np.ravel(want)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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


def from_blocks(head, lag):
    """The dense predicted covariance from its head rows P[:n] and its lag
    block P[n:, n:]."""
    n = head.shape[0]
    return np.vstack([head, np.hstack([head[:, n:].T, lag])])


def dense_observation(agg, n, dim, o_t, q_rows):
    """Z as a dense matrix over the stacked state."""
    Z = np.zeros((len(o_t) + len(q_rows), dim))
    Z[np.arange(len(o_t)), o_t] = 1.0
    Z[len(o_t):, agg.quarterly_state_cols(n, n - agg.n_q)] = agg.lam_qq[q_rows]
    return Z


class TestBlockedOps:
    @pytest.mark.parametrize("n,n_q,p", [(4, 1, 3), (10, 1, 4), (10, 3, 3), (20, 3, 4)])
    def test_dense_equivalence(self, n, n_q, p):
        rng = np.random.default_rng(n * 100 + n_q * 10 + p)
        n_m = n - n_q
        params = random_params(n_m, n_q, p, seed=n + p)
        agg = build_aggregation(intra_quarterly_average(), n_q, p)
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
                    Z[len(o_t) + r, lag * n + n_m + j] = agg.scheme.weights[lag]

            # M's first np rows, the only ones the edge reads
            M = blocked_M(P[:n], P[n:, n:], o_t, qcols, lamqq_obs)
            assert_allclose(M, (P @ Z.T)[: n * p], rtol=1e-12, atol=1e-12)

            F = blocked_F(M, o_t, qcols, lamqq_obs)
            assert_allclose(F, Z @ P @ Z.T, rtol=1e-12, atol=1e-12)

            MFinv = M @ np.linalg.inv((F + F.T) / 2.0)
            C = np.linalg.cholesky((F + F.T) / 2.0)
            U = np.linalg.solve(C, M[: n * p].T)

            a_filt = rng.normal(size=dim)
            pf = random_pred_cov(rng, n * p)
            a_next = predict_mean(a_filt, params.coeff_row)
            head = blocked_predict(pf, params.coeff_row, params.sigma(0))
            P_next = from_blocks(head, pf)
            Pf_full = np.zeros((dim, dim))
            Pf_full[: n * p, : n * p] = pf
            assert_allclose(P_next, F1 @ Pf_full @ F1.T + params.companion_noise_cov(0),
                            rtol=1e-12, atol=1e-12)
            assert_allclose(a_next, F1 @ a_filt, rtol=1e-12, atol=1e-12)

            r = rng.normal(size=dim)
            g = rng.normal(size=dim)
            v = rng.normal(size=len(o_t) + len(q_rows))
            assert_allclose(blocked_smooth_r(g, v, o_t, qcols, lamqq_obs), g + Z.T @ v,
                            rtol=1e-12, atol=1e-12)

            g = companion_to_compact(r, params)
            assert_allclose(g, F1.T @ r, rtol=1e-12, atol=1e-12)
            # the gain's adjoint product K'r, against the dense gain K = F1 M F^-1,
            # which reads only M's first np rows: F1's last n columns are zero
            K = F1[:, : n * p] @ MFinv
            KTr = blocked_K(C, U, g)
            assert_allclose(KTr, K.T @ r, rtol=1e-10, atol=1e-10)
            # the backward pass's L'r without the dense L = F1 - K Z
            Ltr = blocked_smooth_r(g, -KTr, o_t, qcols, lamqq_obs)
            assert_allclose(Ltr, (F1 - K @ Z).T @ r, rtol=1e-10, atol=1e-10)

    def test_zero_coefficients(self):
        params = random_params(3, 1, 3, seed=2)
        zero_row = np.zeros_like(params.coeff_row)
        rng = np.random.default_rng(0)
        P = random_pred_cov(rng, 16)
        agg = build_aggregation(intra_quarterly_average(), 1, 3)
        qcols = agg.quarterly_state_cols(4, 3)
        M = blocked_M(P[:4], P[4:, 4:], np.arange(3), qcols, agg.lam_qq)
        F = blocked_F(M, np.arange(3), qcols, agg.lam_qq)
        MFinv = M @ np.linalg.inv(F)
        C = np.linalg.cholesky(F)
        # the dense transition under zero coefficients: its shift rows only
        F1 = np.zeros((16, 16))
        F1[4:, :12] = np.eye(12)
        r = rng.normal(size=16)
        KTr = blocked_K(C, np.linalg.solve(C, M[:12].T), F1.T @ r)
        assert_allclose(KTr, (F1[:, :12] @ MFinv).T @ r, rtol=1e-10, atol=1e-10)
        head = blocked_predict(np.eye(12), zero_row, params.sigma(0))
        P_next = from_blocks(head, np.eye(12))
        assert_allclose(P_next[:4, :4], params.sigma(0))
        assert_allclose(P_next[:4, 4:], 0.0)
        assert_allclose(P_next[4:, 4:], np.eye(12))

    def test_warm_draw_forms_no_dense_transition(self, monkeypatch):
        # the edge step reuses the companion structure: no dense F1, so no
        # dense L = F1 - K Z either
        inst = small_instance(5)
        draw_latent(inst.params, inst.scheme, inst.data, "blocked", seed=1)
        calls = Counter()
        dense = VarParams.companion_transition

        def counted(self, *args, **kw):
            calls["companion_transition"] += 1
            return dense(self, *args, **kw)

        monkeypatch.setattr(VarParams, "companion_transition", counted)
        draw_latent(inst.params, inst.scheme, inst.data, "blocked", seed=2)
        assert calls["companion_transition"] == 0

    @pytest.mark.parametrize("seed,scheme", [(5, intra_quarterly_average()), (7, skip_sampling())])
    def test_switch_head_matches_dense_prediction(self, seed, scheme):
        """The switch period is predicted from the compact boundary's block
        at the quarterly lags: its head rows are those of F1 P0 F1' + Q, for
        P0 the boundary placed in the dense stacked covariance."""
        inst = small_instance(seed, 4, 2, 3, 20, 17, scheme=scheme)
        params, data = inst.params, inst.data
        res = reduced_filter_to_boundary(inst)
        start = compact_to_companion(params, data, res)
        at = quarterly_state_index(params)[: params.n_q * params.p]
        a = predict_mean(start.a, params.coeff_row)
        head = blocked_predict(res.P[: len(at), : len(at)], params.coeff_row, params.sigma(17), at)
        F1 = params.companion_transition()
        P = F1 @ start.P @ F1.T + params.companion_noise_cov(17)
        assert_allclose(head, P[: params.n], rtol=1e-12, atol=1e-12)
        assert_allclose(a, F1 @ start.a, rtol=1e-12, atol=1e-12)

    @staticmethod
    def downdate_case(switch):
        """A period's predicted covariance as its head rows and lag block (at
        the switch, the boundary's block at the quarterly lags), the dense P
        they stand for, the update's M[:np], F and U = C^-1 M[:np]' for the
        Cholesky factor C of F, and the period's observation loading Z."""
        inst = small_instance(3, 4, 2, 3, 20, 17)
        params = inst.params
        n, npp, dim = params.n, params.n * params.p, params.n * (params.p + 1)
        agg = build_aggregation(inst.scheme, params.n_q, params.p)
        if switch:
            res = reduced_filter_to_boundary(inst)
            at = quarterly_state_index(params)[: params.n_q * params.p]
            lag = res.P[: len(at), : len(at)]
            head = blocked_predict(lag, params.coeff_row, params.sigma(17), at)
            dense_lag = np.zeros((npp, npp))
            dense_lag[np.ix_(at, at)] = lag
            P = from_blocks(head, dense_lag)
        else:
            at = None
            P = random_pred_cov(np.random.default_rng(4), dim)
            head, lag = P[:n], P[n:, n:]
        o_t, q_rows = np.array([0, 2]), np.array([1])
        Z = dense_observation(agg, n, dim, o_t, q_rows)
        M = blocked_M(head, lag, o_t, agg.quarterly_state_cols(n, params.n_m), agg.lam_qq[q_rows], at)
        F = Z @ P @ Z.T
        U = np.linalg.solve(np.linalg.cholesky(F), M.T)
        return params, agg, head, lag, at, P, Z, M, F, U

    @pytest.mark.parametrize("switch", [False, True])
    def test_downdate_matches_dense_filtered_block(self, switch):
        """M's first np rows, from the head rows and the lag block, are
        those of P Z', and the next lag block, one downdate by U = C^-1 M'
        for the Cholesky factor C of F, is the first np rows and columns of
        the dense P - M F^-1 M', exactly symmetric; at the switch the lag
        block is the boundary's block at the quarterly lags."""
        params, _, head, lag, at, P, Z, M, F, U = self.downdate_case(switch)
        npp = params.n * params.p
        assert_allclose(M, (P @ Z.T)[:npp], rtol=1e-12, atol=1e-12)
        pf = blocked_downdate(head, U, lag, at)
        assert_allclose(pf, P[:npp, :npp] - M @ np.linalg.solve(F, M.T), rtol=1e-12, atol=1e-12)
        assert np.array_equal(pf, pf.T)

    @pytest.mark.parametrize("switch", [False, True])
    def test_downdate_form_matches_dense_filtered_block(self, switch):
        """The lag block in downdate form, P's block less U'U kept as P's
        head rows, its lag block and U, gives the block's quarterly rows of
        the dense P - M F^-1 M' block."""
        params, agg, head, lag, at, P, _, M, F, U = self.downdate_case(switch)
        n, npp = params.n, params.n * params.p
        pf = P[:npp, :npp] - M @ np.linalg.solve(F, M.T)
        qcols = agg.quarterly_state_cols(n, params.n_m)
        hi = qcols[qcols >= n] - n
        assert len(hi) > 0
        assert_allclose(Downdate(head, lag, at, U).rows(hi), pf[hi], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("quarterly", [False, True], ids=["monthly-only", "aggregate"])
    @pytest.mark.parametrize("form", ["boundary", "downdate", "switch-downdate"])
    def test_last_period_reads_P_only_through_Z(self, form, quarterly):
        """The last period's M[:n] and F (``blocked_last``), read from its lag
        block at the rows and quarterly columns Z reads, are P[:n] Z' and
        Z P Z' of the dense predicted covariance P: from the boundary's block
        (a one-period edge) and from the downdate form, with no aggregate
        observed and with one, whose weights reach lag 0 and lags >= 1."""
        params, agg, head, lag, at, P, _, M, F, U = self.downdate_case(form != "downdate")
        n, npp, dim = params.n, params.n * params.p, params.n * (params.p + 1)
        t = 17
        if form != "boundary":
            pf = np.zeros((dim, dim))
            pf[:npp, :npp] = P[:npp, :npp] - M @ np.linalg.solve(F, M.T)
            F1 = params.companion_transition()
            P = F1 @ pf @ F1.T + params.companion_noise_cov(18)
            lag, at, t = Downdate(head, lag, at, U), None, 18
        o_t, q_rows = np.array([1, 3]), np.arange(params.n_q) if quarterly else np.array([], dtype=int)
        Z = dense_observation(agg, n, dim, o_t, q_rows)
        qcols = agg.quarterly_state_cols(n, params.n_m)
        assert (qcols < n).any() and (qcols >= n).any()
        M_head, F_last = blocked_last(lag, params.coeff_row, params.sigma(t), o_t, qcols, agg.lam_qq[q_rows], at)
        assert_allclose(M_head, P[:n] @ Z.T, rtol=1e-12, atol=1e-12)
        assert_allclose(F_last, Z @ P @ Z.T, rtol=1e-12, atol=1e-12)

    def test_warm_paper_cell_draw_forms_no_dense_covariance(self):
        # the edge keeps each period's head rows and one lag block, and enters
        # from the compact boundary: a warm draw's traced peak stays below two
        # (np)^2 arrays, which a dense n(p+1)-square covariance and its
        # successor exceed
        inst = make_instance(119, 1, 12, 500, 498, np.random.default_rng(0))
        npp = inst.params.n * inst.params.p
        draw_latent(inst.params, inst.scheme, inst.data, "blocked", seed=1)
        tracemalloc.start()
        try:
            draw_latent(inst.params, inst.scheme, inst.data, "blocked", seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * npp**2 * 8, peak
        # nor a gain, nor the last period's head rows, U and M's rows below
        # n: forming those put the peak at 10.6 MB
        assert peak < 8 * 10**6, peak


def cut_edge(cuts, t_b, T):
    """The monthly observations of periods t_b..T-1 when series j is observed
    up to its cut ``cuts[j]``: a monotone ragged edge."""
    return np.arange(t_b, T)[:, None] < np.array(cuts)


@st.composite
def ragged_cases(draw):
    """Shapes and settings of a small instance with a ragged edge: which
    monthly values of periods t_b..T-1 are observed, a (T - t_b, n_m) mask."""
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
    # each monthly value drawn observed or not, any series observed again
    # after a gap; one series is missing at t_b
    edge = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n_m, max_size=n_m),
                                  min_size=T - t_b, max_size=T - t_b)))
    edge[0, draw(st.integers(0, n_m - 1))] = False
    # offset t_b % 3 puts a quarter-end at t_b - 1
    offset = draw(st.integers(0, 2))
    time_varying = draw(st.booleans())
    init_mode = draw(st.sampled_from(["stationary", "diffuse-proxy"]))
    seed = draw(st.integers(0, 2**16))
    return n_m, n_q, p, weights, t_b, T, edge, offset, time_varying, init_mode, seed


@st.composite
def irregular_quarterly_cases(draw):
    """A ragged case whose quarterly observations fall on any rows: missing
    quarters, off-calendar rows and a different pattern per variable."""
    case = draw(ragged_cases())
    n_q, T = case[1], case[5]
    quarterly = draw(st.lists(st.lists(st.booleans(), min_size=n_q, max_size=n_q), min_size=T, max_size=T))
    return case[:7] + (np.array(quarterly, dtype=bool),) + case[8:]


def ragged_instance(case):
    """The parameters, scheme, data and init mode of a ``ragged_cases``
    tuple, whose quarterly entry is either a calendar offset or a (T, n_q)
    observation mask."""
    n_m, n_q, p, weights, t_b, T, edge, quarterly, time_varying, init_mode, seed = case
    if weights is None:
        scheme = intra_quarterly_average()
    else:
        scheme = AggregationScheme(np.array(weights))
    mask = np.ones((T, n_m + n_q), dtype=bool)
    mask[t_b:, :n_m] = edge
    if isinstance(quarterly, int):
        mask[:, n_m:] = ((np.arange(1, T + 1) - quarterly) % 3 == 0)[:, None]
    else:
        mask[:, n_m:] = quarterly
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
    assert_array_equal(inst.data.pattern.quarterly_observed, mask[:, n_m:])
    return params, scheme, inst.data, init_mode


def check_against_joint_oracle(case):
    """All backends within 1e-8 of ``oracle_joint`` on a ``ragged_cases``
    tuple (``ragged_instance``)."""
    params, scheme, data, init_mode = ragged_instance(case)
    oj = oracle_joint(params, scheme, data, init_mode=init_mode)
    for name, run in BACKENDS.items():
        out = run(params, scheme, data, init_mode=init_mode)
        assert_allclose(out.x_hat, oj.mean, rtol=1e-8, atol=1e-8, err_msg=name)


class TestJointOracleProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=ragged_cases())
    @example(case=(2, 1, 3, (1.0,), 6, 8, cut_edge((6, 8), 6, 8), 0, True, "stationary", 1))
    @example(case=(3, 1, 3, None, 5, 7, cut_edge((5, 6, 7), 5, 7), 2, False, "diffuse-proxy", 2))
    # the quarterly block of the stationary initialization is summed
    # directly, not handed to the doubling, from about this shape up
    @example(case=(18, 2, 6, None, 7, 10, cut_edge((7,) * 17 + (9,), 7, 10), 1, False, "stationary", 3))
    # a zero lag-0 weight: an aggregate that does not read its own period
    @example(case=(2, 1, 3, (0.0, 0.5, 0.5), 6, 8, cut_edge((6, 8), 6, 8), 0, True, "stationary", 5))
    @example(case=(3, 2, 4, (0.0, 0.5, 0.5), 7, 9, cut_edge((7, 9, 8), 7, 9), 2, False, "diffuse-proxy", 6))
    # series observed again after a gap: 0 at t = 7, 8 and 1 at t = 9
    @example(case=(3, 1, 3, None, 6, 10, np.array([[0, 1, 1], [1, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=bool),
                   1, True, "stationary", 9))
    # an interior gap six periods before T, the edge's other periods observed
    @example(case=(2, 1, 3, (1.0,), 6, 12, np.array([[0, 1]] + [[1, 1]] * 5, dtype=bool),
                   0, False, "diffuse-proxy", 10))
    def test_backends_match_joint_oracle(self, case):
        check_against_joint_oracle(case)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=irregular_quarterly_cases())
    @example(case=(2, 2, 3, None, 5, 8, cut_edge((5, 7), 5, 8), np.array([[1, 0], [0, 0], [1, 1], [0, 1], [0, 0],
                                                          [1, 0], [0, 0], [0, 1]], dtype=bool),
                   False, "stationary", 4))
    # a 4-month window observed in consecutive months: the windows overlap
    @example(case=(2, 1, 4, (0.4, 0.3, 0.2, 0.1), 6, 9, cut_edge((6, 8), 6, 9),
                   np.array([[0], [0], [1], [1], [1], [0], [1], [1], [0]], dtype=bool), True, "stationary", 7))
    @example(case=(2, 2, 4, (0.4, 0.3, 0.2, 0.1), 6, 9, cut_edge((6, 9), 6, 9),
                   np.array([[0, 1], [1, 1], [1, 0], [1, 1], [0, 1], [1, 1], [0, 0], [1, 1], [1, 0]], dtype=bool),
                   False, "diffuse-proxy", 8))
    def test_irregular_quarters_match_joint_oracle(self, case):
        check_against_joint_oracle(case)


class TestEdgeSteps:
    """The three backends' edge steps from one compact boundary, the
    balanced system's filtered state at t_b-1: the same edge rows at the
    edge system's latent cells and the same adjoint of that boundary, with
    and without a draw's edge shocks."""

    @pytest.mark.parametrize("case", [
        (3, 1, 3, None, 6, 9, cut_edge((6, 9, 8), 6, 9), 0, False, "stationary", 11),
        # series observed again after a gap: a non-monotone edge
        (3, 1, 3, None, 6, 10, np.array([[0, 1, 1], [1, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=bool),
         1, False, "stationary", 9),
        (2, 1, 3, (1.0,), 6, 8, cut_edge((6, 8), 6, 8), 0, False, "stationary", 1),
        (4, 0, 3, None, 6, 9, cut_edge((6, 9, 8, 9), 6, 9), 0, False, "stationary", 12),
        (3, 2, 4, None, 7, 9, cut_edge((7, 9, 8), 7, 9), 2, True, "diffuse-proxy", 6),
        # one edge period: the blocked edge runs no downdate
        (3, 1, 3, None, 8, 9, cut_edge((8, 9, 9), 8, 9), 0, False, "stationary", 13),
        # seven edge periods at p = 3: dense lag blocks, then the last one in
        # downdate form, after the boundary's block has shifted out; the last
        # period observes the aggregate here and in the first two cases, and
        # none in the skip-sampling, no-quarterly and time-varying ones
        (3, 1, 3, None, 6, 13, cut_edge((6, 11, 13), 6, 13), 1, True, "stationary", 14),
    ], ids=["monotone", "non-monotone", "skip-sampling", "no-quarterly", "time-varying", "one-period",
            "long"])
    @pytest.mark.parametrize("drawn", [False, True], ids=["mean", "draw"])
    def test_edge_steps_agree_from_one_boundary(self, case, drawn, monkeypatch):
        import mfsmooth.blocked
        # the blocked edge forms a dense lag block for every period but the
        # last two, and the last period reads its lag block in downdate form,
        # built on a dense block once three or more periods run, at the rows
        # Z reads in P's head: its observed monthly series and its observed
        # aggregates' lag-0 positions, not all n
        downdates, forms = [], []
        monkeypatch.setattr(mfsmooth.blocked, "blocked_downdate",
                            lambda *args: downdates.append(blocked_downdate(*args)) or downdates[-1])
        times = Downdate.times
        monkeypatch.setattr(Downdate, "times", lambda dd, pi: forms.append((dd, len(pi))) or times(dd, pi))
        params, scheme, data, init_mode = ragged_instance(case)
        plan = plan_for(params, scheme, data, init_mode)
        u = run_filter(build_periods(plan.system, plan.balanced(data)))
        boundary = FilterState(plan.system.last(u), plan.system.P_filt)
        shocks = simulate_path(params, data, np.random.default_rng(1), plan.system).shocks if drawn else None
        t_b, (t, v) = data.pattern.t_balanced, plan.edge(data.pattern).cells
        want_heads, want_r, _ = adaptive_edge(plan, data, boundary, shocks)
        assert want_r.shape == ((params.p + 1) * params.n_q,)
        for step in (dense_edge, blocked_edge):
            heads, r, _ = step(plan, data, boundary, shocks)
            assert heads.shape == want_heads.shape == (data.T - t_b, params.n)
            for got, want in ((heads[t - t_b, v], want_heads[t - t_b, v]), (r, want_r)):
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), step.__name__
        edge = data.T - t_b
        assert len(downdates) == max(edge - 2, 0)
        pattern = data.pattern
        n_read = len(pattern.observed(data.T - 1)) + len(pattern.quarterly_rows(data.T - 1))
        assert 0 < n_read < params.n
        assert [(dd.at is None, k) for dd, k in forms] == ([(edge > 2, n_read)] if edge > 1 else [])

    @pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time-varying"])
    def test_one_covariance_pass_serves_other_data_and_shocks(self, time_varying):
        """The blocked edge's covariance pass reads neither the data nor the
        shocks: built on one data object, it serves a second one with other
        values on the same pattern, each with two shock sets, and each
        result agrees with the reference step from the same boundary."""
        case = (3, 1, 3, None, 6, 10, cut_edge((6, 10, 8), 6, 10), 1, time_varying, "stationary", 15)
        params, scheme, data, init_mode = ragged_instance(case)
        plan = plan_for(params, scheme, data, init_mode)
        cov = plan.blocked_pass(data.pattern)
        other = data.replace_values(data.values * 1.5 + 0.25)
        assert other.pattern is data.pattern
        for d in (data, other):
            u = run_filter(build_periods(plan.system, plan.balanced(d)))
            boundary = FilterState(plan.system.last(u), plan.system.P_filt)
            for seed in (1, 2):
                shocks = simulate_path(params, d, np.random.default_rng(seed), plan.system).shocks
                want_heads, want_r, want_cond = dense_edge(plan, d, boundary, shocks)
                heads, r, cond = blocked_edge(plan, d, boundary, shocks)
                for got, want in ((heads, want_heads), (r, want_r)):
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                assert cond == pytest.approx(want_cond, rel=1e-8)
        assert plan._blocked is cov


class TestPeriodBeforeLast:
    """The blocked edge's period before the last reads Pi once and U and its
    head rows only through the covariance pass's small products (``UF``,
    ``HF``), and on a two-period edge the boundary's adjoint reads F1'r
    only at the head and the lagged quarterly positions.  Each case is
    (ragged case, (observations of the period before the last, of the last
    period, aggregates the last period observes))."""

    CASES = [
        ((3, 1, 3, None, 6, 8, np.array([[0, 0, 0], [1, 1, 0]], dtype=bool), 2, False, "stationary", 21),
         (0, 3, 1)),
        ((3, 1, 3, None, 6, 8, np.array([[0, 1, 1], [0, 0, 0]], dtype=bool), 1, True, "stationary", 22),
         (3, 0, 0)),
        ((3, 1, 3, None, 6, 8, np.array([[0, 1, 1], [1, 0, 1]], dtype=bool), 1, False, "diffuse-proxy", 23),
         (3, 2, 0)),
        ((4, 0, 3, None, 6, 8, np.array([[0, 1, 1, 1], [1, 0, 1, 0]], dtype=bool), 0, False, "stationary", 24),
         (3, 2, 0)),
        # p_q = 1: the last period's Z reads no lag below the head (S is empty)
        ((3, 1, 3, (1.0,), 6, 8, np.array([[0, 1, 1], [1, 1, 0]], dtype=bool), 2, False, "stationary", 25),
         (2, 3, 1)),
        # p_q = p: the last period's aggregates reach lag p-1, the widest S
        ((3, 2, 4, (0.4, 0.3, 0.2, 0.1), 7, 9, np.array([[0, 1, 1], [1, 0, 1]], dtype=bool), 0, True,
          "stationary", 26), (2, 4, 2)),
        # the earlier period runs as before: dense F1'r and K'r through U
        ((3, 1, 3, None, 6, 9, cut_edge((6, 9, 8), 6, 9), 0, True, "stationary", 27), (2, 2, 1)),
    ]
    IDS = ["before-last-unobserved", "last-unobserved", "last-no-aggregate", "no-quarterly", "skip-sampling",
           "widest-S", "three-period"]

    @pytest.mark.parametrize("case,counts", CASES, ids=IDS)
    def test_matches_reference_step(self, case, counts):
        params, scheme, data, init_mode = ragged_instance(case)
        pattern, T = data.pattern, data.T
        assert counts == (len(pattern.observed(T - 2)) + len(pattern.quarterly_rows(T - 2)),
                          len(pattern.observed(T - 1)) + len(pattern.quarterly_rows(T - 1)),
                          len(pattern.quarterly_rows(T - 1)))
        plan = plan_for(params, scheme, data, init_mode)
        u = run_filter(build_periods(plan.system, plan.balanced(data)))
        boundary = FilterState(plan.system.last(u), plan.system.P_filt)
        drawn = simulate_path(params, data, np.random.default_rng(1), plan.system).shocks
        for shocks in (None, drawn):
            want_heads, want_r, want_cond = dense_edge(plan, data, boundary, shocks)
            heads, r, cond = blocked_edge(plan, data, boundary, shocks)
            for got, want in ((heads, want_heads), (r, want_r)):
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
            assert cond == pytest.approx(want_cond, rel=1e-8)

    @pytest.mark.parametrize("case,counts", CASES, ids=IDS)
    def test_cold_warm_and_batched_draws_alike(self, case, counts):
        params, scheme, data, init_mode = ragged_instance(case)
        cold = draw_latent(params, scheme, data, "blocked", seed=3, init_mode=init_mode)
        warm = draw_latent(params, scheme, data, "blocked", seed=3, init_mode=init_mode)
        assert cold.stats.factorizations > 0 and warm.stats.factorizations == 0
        assert_array_equal(cold.x, warm.x)
        many = draw_many(params, scheme, data, "blocked", 3, seed=3, init_mode=init_mode)
        for i, x in enumerate(many):
            one = draw_latent(params, scheme, data, "blocked", rng=_rng_for(3, i), init_mode=init_mode)
            assert_array_equal(x, one.x)

    def test_two_period_edge_forms_no_full_adjoint(self, monkeypatch):
        """A warm draw on a two-period edge forms F1'r in full
        (``companion_to_compact``) and K'r through U (``blocked_K``) at no
        period; on a three-period edge the period before the last forms
        F1'r for the first one, which forms both.  Every name perfbench's
        layer table times in ``blocked`` stays defined there."""
        import mfsmooth.blocked

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from layertrace import SPANS

        for mod, name, _ in SPANS:
            if mod == "blocked":
                assert callable(getattr(mfsmooth.blocked, name, None)), name
        calls = Counter()
        for name in ("companion_to_compact", "blocked_K"):
            step = getattr(mfsmooth.blocked, name)
            monkeypatch.setattr(mfsmooth.blocked, name,
                                lambda *args, _step=step, _name=name: calls.update([_name]) or _step(*args))
        for T, want in ((8, {}), (9, {"companion_to_compact": 2, "blocked_K": 1})):
            case = (3, 1, 3, None, 6, T, cut_edge((6, T, 7), 6, T), 0, False, "stationary", 31)
            params, scheme, data, _ = ragged_instance(case)
            draw_latent(params, scheme, data, "blocked", seed=1)
            calls.clear()
            draw_latent(params, scheme, data, "blocked", seed=2)
            assert calls == Counter(want), T
