import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgbtrs
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    InitializationError,
    SingularInnovationError,
    VarParams,
    build_aggregation,
    draw_latent,
    intra_quarterly_average,
    kalman,
    oracle_joint,
    run_adaptive,
    run_blocked,
    skip_sampling,
)
from mfsmooth.kalman import (
    BalancedSystem,
    FilterState,
    filter_periods,
    filter_step,
    init_state,
    quarterly_state_index,
    run_filter,
    run_smoother,
    smooth_periods,
    stationary_companion_cov,
    stationary_quarterly_cov,
)
from mfsmooth.baseline import adaptive_edge, plan_for
from mfsmooth.model import AggregationScheme, MixedFreqData
from mfsmooth.simulate import benchmark_pattern, make_instance, random_stable_params
from mfsmooth.systems import PeriodSystem, SystemMatrices, build_periods
from test_model import random_params
from test_simsmooth import SCHEMES, affine_map, with_time_varying_cov
from test_systems import period_noise, per_period, reference_smooth


def make_period(Z, c, G, T, d, H, y, t=0):
    n_obs, dim = Z.shape
    mats = SystemMatrices(Z=Z, C=np.zeros((n_obs, 0)), T=T, D=np.zeros((dim, 0)), c0=c, d0=d)
    return PeriodSystem(mats, period_noise(G[None], H[None], Z)[0], t, y - c, d)


class TestFilterStep:
    def test_scalar_worked_example(self):
        # Z=T=H=G=1, a=0, P=1, y=2: M=2, F=4, gain 0.5, filtered mean 1
        per = make_period(
            Z=np.array([[1.0]]), c=np.zeros(1), G=np.array([[1.0]]),
            T=np.array([[1.0]]), d=np.zeros(1), H=np.array([[1.0]]),
            y=np.array([2.0]),
        )
        step = filter_step(np.ones((1, 1)), per)
        assert_allclose(step.MFinv * (step.cf @ step.cf.T), [[2.0]])
        assert_allclose(step.cf @ step.cf.T, [[4.0]])
        # from P0 = 0 the period's own prediction gives a = 0, P = 1 again;
        # then one step through the same transition, into the second period
        steps = filter_periods([per, per], FilterState(np.zeros(1), np.zeros((1, 1))))
        assert_allclose(steps[0].K, [[0.5]])
        assert_allclose(steps[0].a_filt, [1.0])
        last = FilterState(steps[0].a_filt, steps[0].P_filt)
        assert_allclose(per.mats.T @ last.a + per.d, [1.0])
        Tm = per.mats.T
        assert_array_equal(kalman._sym(Tm @ last.P @ Tm.T + per.noise.HHt), steps[1].P_pred)
        # terminal smoothing leaves the filtered mean unchanged
        states, _ = smooth_periods(steps, np.zeros(1))
        assert_array_equal(states[1], steps[1].a_filt)

    def test_open_last_record_meets_zero_adjoint(self):
        # the last step keeps no filtered covariance and no gain; without an
        # adjoint the smoother restarts there as from the zero adjoint of
        # K = 0, L = I
        per = make_period(
            Z=np.array([[1.0]]), c=np.zeros(1), G=np.array([[1.0]]),
            T=np.array([[0.5]]), d=np.zeros(1), H=np.array([[1.0]]),
            y=np.array([2.0]),
        )
        init = FilterState(np.zeros(1), np.ones((1, 1)))
        steps = filter_periods([per, per], init)
        last = steps[-1]
        assert last.P_filt is None and last.K is None and last.L is None
        states, r = smooth_periods(steps)
        assert_array_equal(states[-1], last.a_filt)
        closed = [steps[0], dataclasses.replace(last, K=np.zeros((1, 1)), L=np.eye(1))]
        dense = smooth_periods(closed, np.zeros(1))
        assert_array_equal(states, dense[0])
        assert_array_equal(r, dense[1])

    def test_empty_observation_period(self):
        per = make_period(
            Z=np.zeros((0, 2)), c=np.zeros(0), G=np.zeros((0, 2)),
            T=np.eye(2), d=np.zeros(2), H=np.eye(2), y=np.zeros(0),
        )
        step = filter_step(np.eye(2), per)
        assert step.cf is None and step.M is None
        # closed by the next period, the filtered covariance is the predicted
        # one, the identity from P0 = 0
        a0 = np.array([1.0, -1.0])
        steps = filter_periods([per, per], FilterState(a0, np.zeros((2, 2))))
        assert steps[0].P_filt is steps[0].P_pred
        assert_allclose(steps[0].P_filt, np.eye(2))
        assert_allclose(steps[0].a_filt, a0)
        assert steps[0].v.shape == (0,)
        assert_array_equal(steps[0].w, 0.0)

    def test_singular_innovation_raises_with_period(self):
        per = make_period(
            Z=np.array([[1.0], [1.0]]), c=np.zeros(2), G=np.zeros((2, 1)),
            T=np.eye(1), d=np.zeros(1), H=np.eye(1), y=np.zeros(2), t=7,
        )
        with pytest.raises(SingularInnovationError) as err:
            filter_step(np.eye(1), per)
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
        steps = filter_periods(periods, FilterState(np.zeros(dim), np.eye(dim)))
        for step in steps:
            assert np.max(np.abs(step.P_pred - step.P_pred.T)) == 0.0
        for step in steps[:-1]:
            assert np.max(np.abs(step.P_filt - step.P_filt.T)) == 0.0


def assert_close(got, ref, rtol=1e-13):
    got, ref = np.concatenate([np.ravel(x) for x in got]), np.concatenate([np.ravel(x) for x in ref])
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= rtol * np.abs(ref).max(initial=0.0)


class TestMeanBand:
    """The balanced sample's mean as one banded saddle-point solve
    (``BalancedSystem``) against the per-period recursion, on the periods
    and plan a draw runs on."""

    @staticmethod
    def passes(params, inst, edge, init_mode="stationary", r_init=None):
        """The draw's block and, with ``edge``, the adaptive edge step through
        the ragged edge, or the block restarted at t_b-1 from ``r_init``,
        against the per-period reference."""
        data = inst.data
        t_b, n_m, n = data.pattern.t_balanced, params.n_m, params.n
        stop = data.T if edge else t_b
        plan = plan_for(params, inst.scheme, data, init_mode)
        periods = build_periods(plan.system, plan.balanced(data))
        u = run_filter(periods)
        assert len(periods) == 1 and periods[0].mats is plan.system
        r, cells_at, edge_values = r_init, [plan.system.cells], []
        if edge:
            # the edge step's latent values at its system's cells, and the
            # adjoint that lifts the balanced path
            system = plan.edge(data.pattern)
            rows, r, _ = adaptive_edge(plan, data, FilterState(plan.system.last(u), plan.system.P_filt))
            cells_at.append(system.cells)
            edge_values.append(rows[system.cells[0] - t_b, system.cells[1]])
        states = run_smoother(periods, u, r)
        # the reference: the reduced filter and smoother period by period,
        # whose latent values are each period's head, its variables
        # ``head_vars``
        records = per_period(params, plan.agg, data, stop)
        ref = filter_periods(records, plan.init)
        ref_states, _ = smooth_periods(ref, r_init)
        # t_b-1's step is the reference's open last one when it stops there
        last = ref[t_b - 1]
        P_filt = kalman._sym(last.P_pred - last.MFinv @ last.M.T) if last.P_filt is None else last.P_filt
        assert_close([plan.system.last(u)], [last.a_filt])
        assert_close([plan.system.P_filt], [P_filt])
        heads = [s[: per.mats.idx.head_size] for per, s in zip(records[t_b:], ref_states[t_b:])]
        assert_close([states, *edge_values], [*(s[: n - n_m] for s in ref_states[:t_b]), *heads])
        cells = [(t, v) for t in range(t_b) for v in range(n_m, n)]
        cells += [(per.t, v) for per in records[t_b:] for v in per.mats.idx.head_vars()]
        assert_array_equal(np.concatenate(cells_at, axis=1).T, np.reshape(cells, (-1, 2)))
        return plan

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("init_mode", ["stationary", "diffuse-proxy"])
    def test_matches_loop_through_the_edge(self, time_varying, init_mode):
        inst = make_instance(5, 2, 4, 120, 116, np.random.default_rng(3))
        params = inst.params
        if time_varying:
            scale = np.exp(0.3 * np.random.default_rng(4).standard_normal((120, params.n)))
            params = VarParams(5, 2, 4, params.intercept, params.lag_coeffs, scale[:, :, None] * params.chol_cov)
        plan = self.passes(params, inst, True, init_mode)
        # one projection for every period under a constant chol_cov, applied
        # as the residuals are formed (``proj``), one per period under a
        # time-varying one
        system = plan.system
        if time_varying:
            assert system.proj is None and len(system._G) == 116
        else:
            assert system._G is None and system.proj.shape == (system.k, params.n)

    @pytest.mark.parametrize("seed", [5, 7])
    def test_matches_loop_restarted_at_the_boundary(self, seed):
        # the blocked and baseline runs stop at t_b-1 and lift the balanced
        # path by the edge's adjoint
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(seed))
        r_init = np.random.default_rng(seed).normal(size=4)
        self.passes(inst.params, inst, False, r_init=r_init)
        self.passes(inst.params, inst, False)

    @pytest.mark.parametrize("init_mode,time_varying,radius", [
        ("stationary", False, None),
        ("diffuse-proxy", True, None),
        ("stationary", True, 0.99),
        ("diffuse-proxy", False, 0.99),
    ])
    def test_paper_cell(self, init_mode, time_varying, radius):
        """At the paper's cell, n = 120, p = 12, T = 500, T_b = 498, the
        adaptive and blocked smoothed means against the per-period reference,
        within 1e-12 relative on the balanced quarterly path and on the edge's
        latent values, the balanced system's last filtered covariance against
        the reference's, and the adaptive draws' mean and covariance on the
        last period's window against the reference's open last step, within
        1e-10.  The instance's companion radius is 0.897
        (``np.linalg.eigvals``); lag i scaled by c**i scales it by c."""
        inst = make_instance(119, 1, 12, 500, 498, np.random.default_rng(1))
        data, prm = inst.data, inst.params
        lag_coeffs, chol = prm.lag_coeffs, prm.chol_cov
        if radius is not None:
            lag_coeffs = lag_coeffs * ((radius / 0.897) ** np.arange(1, 13))[:, None, None]
        if time_varying:
            chol = np.exp(0.2 * np.random.default_rng(2).standard_normal((500, 120)))[:, :, None] * chol
        params = VarParams(119, 1, 12, prm.intercept, lag_coeffs, chol)
        plan = plan_for(params, inst.scheme, data, init_mode)
        records = per_period(params, plan.agg, data)
        ref = filter_periods(records, plan.init)
        states, _ = smooth_periods(ref)
        assert_close([plan.system.P_filt], [ref[497].P_filt], rtol=1e-12)
        want = [s[: per.mats.idx.head_size] for per, s in zip(records, states)]
        for run in (run_adaptive, run_blocked):
            x_hat = run(params, inst.scheme, data, init_mode=init_mode).x_hat
            got = [x_hat[per.t, per.mats.idx.head_vars()] for per in records]
            assert_close(got[:498], want[:498], rtol=1e-12)
            assert_close(got[498:], want[498:], rtol=1e-12)
        # the draws' moments on the last period's state, its head at
        # t = 499..487, from the adaptive draw's affine map in its 751
        # normals: the smoothed moments there are the open last step's a_filt
        # and P_pred - M F^-1 M'
        last, head = ref[-1], records[-1].mats.idx.head_vars()
        cells = (np.repeat(499 - np.arange(13), len(head)), np.tile(head, 13))
        m, G = affine_map(params, inst.scheme, data, "adaptive", init_mode, cells)
        P = kalman._sym(last.P_pred - last.MFinv @ last.M.T)
        assert G.shape == (1092, 751)
        assert np.abs(m - last.a_filt).max() <= 1e-10 * np.abs(last.a_filt).max()
        assert np.abs(G @ G.T - P).max() <= 1e-10 * np.abs(P).max()

    def test_no_quarterly_variables(self):
        inst = make_instance(4, 0, 3, 30, 28, np.random.default_rng(0))
        plan = self.passes(inst.params, inst, True)
        assert plan.system.k == 0 and plan.system.size == 0

    def test_band_spans_p_plus_one_periods(self):
        # on the Gibbs cell's pattern (n_q = 2, p = 6, a quarterly value
        # every third period): 7 periods of 2 values and the 4 multipliers
        # between them; the mean given the balanced sample alone is the joint
        # oracle's on those periods
        inst = make_instance(18, 2, 6, 300, 297, np.random.default_rng(5), mask=benchmark_pattern(18, 2, 300, 297))
        plan = plan_for(inst.params, inst.scheme, inst.data)
        assert (plan.system.size, plan.system.kl) == (7 * 2 + 297 * 2 + 99 * 2, 17)
        small = make_instance(3, 1, 3, 24, 21, np.random.default_rng(6))
        head = MixedFreqData.from_values(small.data.values[:21], 3, 1)
        plan = plan_for(small.params, small.scheme, head)
        periods = build_periods(plan.system, plan.balanced(head))
        states = run_smoother(periods, run_filter(periods))
        assert_allclose(states, oracle_joint(small.params, small.scheme, head).mean[:, 3], rtol=1e-12)

    def test_zero_pivot_raises_naming_its_period(self):
        # zero aggregation weights: the first observed aggregate's row of the
        # system is zero
        scheme = AggregationScheme(np.zeros(1))
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(5), scheme=scheme)
        first = int(np.flatnonzero(inst.data.pattern.quarterly_observed[:, 0])[0])
        with pytest.raises(SingularInnovationError, match=f"t={first}") as err:
            plan_for(inst.params, inst.scheme, inst.data)
        assert err.value.t == first

    def test_rank_deficient_initial_covariance_is_jittered(self):
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(5))
        init = init_state(inst.params)
        P = init.P.copy()
        P[0, :] = P[:, 0] = 0.0
        agg = build_aggregation(inst.scheme, 1, 3)
        assert BalancedSystem(inst.params, agg, inst.data.pattern, FilterState(init.a, P)).jitter
        assert not BalancedSystem(inst.params, agg, inst.data.pattern, init).jitter


class TestColdPlan:
    """What a new plan builds from new parameters, against direct forms:
    the hand-off from the trailing rows (``BalancedSystem.unit_solve``)
    and, under a constant chol_cov, K's band storage and the system's."""

    @pytest.mark.parametrize("n_q", [0, 1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("t_b", [5, 29])
    def test_hand_off_is_a_full_solve_bit_for_bit(self, n_q, scheme, time_varying, t_b):
        # p = 4, so t_b = 5 is the shortest balanced sample, p+1, and 29 the
        # longest with an edge, T-1; P_filt and the lift against one dgbtrs on
        # the unit vectors at the last state's positions with the same factor
        inst = make_instance(3, n_q, 4, 30, t_b, np.random.default_rng(n_q), scheme=SCHEMES[scheme])
        params = with_time_varying_cov(inst.params, 30, 2) if time_varying else inst.params
        system = plan_for(params, inst.scheme, inst.data).system
        last, path = system.layout.win[-1], system.layout.path.ravel()
        assert system.P_filt.shape == (system.k, system.k) and system._lift.shape == (t_b * n_q, system.k)
        if not n_q:
            assert system.size == 0 and system._lift.shape == (0, 0)
            return
        E = np.zeros((system.size, system.k))
        E[last, np.arange(system.k)] = 1.0
        full, info = dgbtrs(system._lu, system.kl, system.kl, E, system._piv)
        assert info == 0
        assert_array_equal(system.P_filt, kalman._sym(full[last]))
        assert_array_equal(system._lift, full[path])

    @pytest.mark.parametrize("n_q", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("t_b", [5, 8, 37])
    def test_constant_k_matches_the_stacked_terms(self, monkeypatch, n_q, scheme, t_b):
        # K's lower band storage (what dpbtrf factorizes) and the system's
        # band storage (what dgbtrf factorizes) against every period's term
        # stacked and summed by position: X'X from p on, J_t' X'X J_t before
        # it, z's prior and A's entries, the aggregates before p read through
        # J_t; t_b = 5 is the shortest balanced sample
        inst = make_instance(3, n_q, 4, 40, t_b, np.random.default_rng(n_q + 3), scheme=SCHEMES[scheme])
        params, p, k = inst.params, 4, 5 * n_q
        captured = {}
        band_lu, band_chol = kalman.dgbtrf, kalman.dpbtrf

        def lu(ab, *args, **kwargs):
            captured["system"] = ab.copy()
            return band_lu(ab, *args, **kwargs)

        def chol(ab, **kwargs):
            captured["K"] = ab.copy()
            return band_chol(ab, **kwargs)

        monkeypatch.setattr(kalman, "dgbtrf", lu)
        monkeypatch.setattr(kalman, "dpbtrf", chol)
        plan = plan_for(params, inst.scheme, inst.data)
        lay, N, kl = plan.system.layout, plan.system.size, plan.system.kl
        assert (lay.agg_t < p).any()
        # the reference: the whitened operator, each period's term over its
        # window, the early ones through J_t, summed by np.bincount
        B = kalman.var_operator(params, quarterly_state_index(params)).T
        X = scipy.linalg.solve_triangular(params.chol_cov[0], B, lower=True)
        L0 = kalman.initial_factor(plan.init.P)[0]
        J = np.tile(np.eye(k), (t_b, 1, 1))
        for t in range(p):
            J[t, (t + 1) * n_q :, (t + 1) * n_q :] = L0[: k - (t + 1) * n_q, : k - (t + 1) * n_q]
        XJ = X @ J
        Kt = XJ.transpose(0, 2, 1) @ XJ
        lam = lay.lam.copy()
        early = lay.agg_t < p
        lam[early] = np.matmul(lam[early, None], J[lay.agg_t[early]])[:, 0]
        ld = 3 * kl + 1
        win, z = lay.win, lay.z
        a_rows, a_cols = lay.agg[lay.ia], win[lay.agg_t[lay.ia], lay.ja]
        at = np.concatenate([
            ((ld - 1) * win[:, None, :] + win[:, :, None]).ravel(), ld * z,
            (ld - 1) * a_cols + a_rows, (ld - 1) * a_rows + a_cols]) + 2 * kl
        vals = np.concatenate([Kt.ravel(), np.ones(len(z)), np.tile(lam[lay.ia, lay.ja], 2)])
        want = np.bincount(at, vals, ld * N)
        scale = np.abs(want).max()
        got = captured["system"].T.ravel()
        assert np.abs(got - want).max() <= 1e-14 * scale
        want_k = want[lay.kband].T
        assert captured["K"].shape == want_k.shape
        assert np.abs(captured["K"] - want_k).max() <= 1e-14 * scale


class TestWhitening:
    """The balanced system whitens each period once by its factor W_t of
    Sigma_t (``kalman._forward``); its terms against the explicit inverses."""

    def test_forward_matches_per_period_solves(self):
        rng = np.random.default_rng(2)
        W = np.tril(rng.normal(size=(7, 5, 5)), -1) + np.diag(rng.uniform(0.5, 2.0, 5))
        for B in (rng.normal(size=(5, 3)), rng.normal(size=(7, 5, 3)), rng.normal(size=(7, 5, 1))):
            X = kalman._forward(W, B)
            want = np.array([scipy.linalg.solve_triangular(W[j], B if B.ndim == 2 else B[j], lower=True)
                             for j in range(7)])
            assert X.shape == want.shape
            assert np.abs(X - want).max() <= 1e-14 * np.abs(want).max()

    def test_time_varying_terms_match_explicit_inverses(self, monkeypatch):
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(3))
        base = inst.params
        n, n_m, n_q, p = base.n, base.n_m, base.n_q, base.p
        scale = np.exp(0.3 * np.random.default_rng(4).standard_normal((40, n)))
        params = VarParams(n_m, n_q, p, base.intercept, base.lag_coeffs, scale[:, :, None] * base.chol_cov)
        t_b, k = inst.data.pattern.t_balanced, (p + 1) * n_q
        # the first scatter of a build places its entries: K's blocks first
        scattered = []
        scatter = kalman._scatter

        def recorded(idx, vals, size):
            scattered.append(vals.copy())
            return scatter(idx, vals, size)

        monkeypatch.setattr(kalman, "_scatter", recorded)
        plan = plan_for(params, inst.scheme, inst.data)
        system = plan.system
        # e_t = r_t + B s_t; periods before p reach the initial stack through J_t
        B = np.zeros((n, k))
        B[n_m:, :n_q] = np.eye(n_q)
        B[:, n_q:] = -np.concatenate([A[:, n_m:] for A in params.lag_coeffs], axis=1)
        L0 = kalman.initial_factor(plan.init.P)[0]
        J = np.tile(np.eye(k), (t_b, 1, 1))
        for t in range(p):
            j = (t + 1) * n_q
            J[t, j:, j:] = L0[: k - j, : k - j]
        Sinv = np.linalg.inv(params.chol_cov[:t_b] @ params.chol_cov[:t_b].transpose(0, 2, 1))
        BJ = B @ J
        K = BJ.transpose(0, 2, 1) @ Sinv @ BJ
        got = scattered[0][: t_b * k * k].reshape(t_b, k, k)
        assert np.abs(got - K).max() <= 1e-12 * np.abs(K).max()
        # the data's part of the right-hand side: -sum_t J_t' B' Sigma_t^-1 r_t
        resid = np.random.default_rng(5).normal(size=(t_b, n))
        agg = np.zeros(len(system._agg))
        terms = (BJ.transpose(0, 2, 1) @ Sinv @ resid[:, :, None])[:, :, 0]
        want = -np.bincount(system._win.ravel(), terms.ravel(), system.size)
        got = system.rhs(resid, agg) - system.rhs(np.zeros((t_b, n)), agg)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestOpenLastFilteredCovariance:
    def test_formed_only_when_read(self):
        # a run over a list of periods keeps no filtered covariance for its
        # last period; given an adjoint, the smoother forms it with the bits
        # of the closed form, on a draw's per-period reference
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(3))
        plan = plan_for(inst.params, inst.scheme, inst.data)
        steps = filter_periods(per_period(inst.params, plan.agg, inst.data), plan.init)
        last = steps[-1]
        assert last.P_filt is None and last.K is None and last.L is None
        r_init = np.random.default_rng(4).normal(size=len(last.a_filt))
        states, _ = smooth_periods(steps, r_init)
        assert_array_equal(states[-1], last.a_filt + kalman._sym(last.P_pred - last.MFinv @ last.M.T) @ r_init)


class TestEdgeSystem:
    """The ragged edge as one saddle-point system (``EdgeSystem``) against
    the reduced filter and smoother run period by period through the edge."""

    @pytest.mark.parametrize("init_mode", ["stationary", "diffuse-proxy"])
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("case", [
        # skip sampling observed at t_b-1: that value is known, P_filt singular
        ("aggregate at t_b-1", 3, 1, 3, 14, 12, skip_sampling(), 0),
        # an average observed at t_b: its window reaches t_b-2
        ("window into the balanced sample", 3, 1, 3, 15, 12, intra_quarterly_average(), 1),
        ("no quarterly variables", 4, 0, 3, 30, 27, intra_quarterly_average(), 0),
        ("three quarterly variables", 5, 3, 4, 24, 21, intra_quarterly_average(), 1),
    ], ids=lambda case: case[0] if isinstance(case, tuple) else None)
    def test_matches_per_period_reference(self, case, time_varying, init_mode):
        _, n_m, n_q, p, T, t_b, scheme, offset = case
        mask = np.ones((T, n_m + n_q), dtype=bool)
        mask[t_b:, 0] = False
        mask[T - 1 :, n_m - 1] = False
        mask[:, n_m:] = ((np.arange(T) - offset) % 3 == 2)[:, None]
        inst = make_instance(n_m, n_q, p, T, t_b, np.random.default_rng(T), scheme=scheme, mask=mask)
        params = inst.params
        if time_varying:
            scale = np.exp(0.3 * np.random.default_rng(t_b).standard_normal((T, params.n)))
            params = VarParams(n_m, n_q, p, params.intercept, params.lag_coeffs, scale[:, :, None] * params.chol_cov)
        x_hat = run_adaptive(params, inst.scheme, inst.data, init_mode=init_mode).x_hat
        plan = plan_for(params, inst.scheme, inst.data, init_mode)
        ref = reference_smooth(params, plan, inst.data)
        assert np.abs(x_hat - ref).max() <= 1e-12 * np.abs(ref).max()
        observed = np.flatnonzero(inst.data.pattern.quarterly_observed[:, 0]) if n_q else []
        if case[0] == "aggregate at t_b-1":
            assert t_b - 1 in observed
            assert np.linalg.eigvalsh(plan.system.P_filt)[0] <= 1e-12 * np.abs(plan.system.P_filt).max()
        if case[0] == "window into the balanced sample":
            assert t_b in observed

    def test_zero_pivot_raises_naming_the_first_edge_period(self):
        # zero aggregation weights and the quarterly variable observed only
        # at the edge: the balanced system has no aggregate, the edge's
        # aggregate row is zero
        scheme = AggregationScheme(np.zeros(1))
        mask = np.ones((18, 4), dtype=bool)
        mask[16:, 0] = False
        mask[:17, 3] = False
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(5), scheme=scheme, mask=mask)
        plan_for(inst.params, inst.scheme, inst.data)
        with pytest.raises(SingularInnovationError, match="t=16") as err:
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=1)
        assert err.value.t == 16

    def test_cold_draw_on_a_long_edge_keeps_only_the_windows(self):
        # the paper cell with one monthly value missing at t = 100: every
        # later period is edge (400 periods), and each keeps only its window,
        # so a cold draw's traced peak stays below 100 MB; dense
        # (T - t_b, n, N) blocks of the whole edge take 770 MB here
        mask = benchmark_pattern(119, 1, 500, 498)
        mask[100, 0] = False
        inst = make_instance(119, 1, 12, 500, 498, np.random.default_rng(0), mask=mask)
        assert inst.data.pattern.t_balanced == 100
        tracemalloc.start()
        try:
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, peak


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
            states, _ = smooth_periods(filter_periods(periods, FilterState(a0, P0)))
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

    def test_diffuse_proxy(self):
        params = random_params(2, 1, 2, seed=4)
        st = init_state(params, "diffuse-proxy", kappa=500.0)
        assert_allclose(st.a, np.zeros(3))
        assert_allclose(st.P, 500.0 * np.eye(3))

    def test_unknown_mode(self):
        params = random_params(2, 1, 2, seed=4)
        with pytest.raises(InitializationError):
            init_state(params, "exact")


def doubling_block(params):
    qi = quarterly_state_index(params)
    return stationary_companion_cov(params)[np.ix_(qi, qi)]


def spectral_radius(params):
    return np.abs(np.linalg.eigvals(params.companion_transition(params.p))).max()


@pytest.fixture
def doublings(monkeypatch):
    """Shapes of the companions passed to the Lyapunov doubling."""
    calls = []
    solve = kalman.solve_discrete_lyapunov

    def counted(A, Q):
        calls.append(A.shape)
        return solve(A, Q)

    monkeypatch.setattr(kalman, "solve_discrete_lyapunov", counted)
    return calls


class TestStationaryQuarterlyCov:
    @pytest.mark.parametrize("n_q", [1, 2, 3])
    def test_matches_doubling_block(self, n_q, doublings):
        params = random_stable_params(20 - n_q, n_q, 6, np.random.default_rng(n_q))
        P = init_state(params).P
        assert doublings == []
        ref = doubling_block(params)
        assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_doubling_block_at_paper_cell(self, doublings):
        params = random_stable_params(119, 1, 12, np.random.default_rng(0))
        P = init_state(params).P
        assert doublings == []
        ref = doubling_block(params)
        assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_white_noise_gives_noise_covariance(self, doublings):
        params = random_stable_params(18, 2, 6, np.random.default_rng(5))
        white = VarParams(18, 2, 6, params.intercept, np.zeros((6, 20, 20)), params.chol_cov)
        P = init_state(white).P
        assert doublings == []
        assert_allclose(P, np.kron(np.eye(7), params.sigma(0)[18:, 18:]), rtol=1e-15, atol=0)

    def test_no_quarterly_variables(self, doublings):
        params = random_stable_params(20, 0, 6, np.random.default_rng(6))
        assert init_state(params).P.shape == (0, 0)
        assert doublings == []

    def test_monthly_only_explosive_root_rejected(self, doublings, monkeypatch):
        n_m, n_q, p = 18, 2, 6
        params = random_stable_params(n_m, n_q, p, np.random.default_rng(3))
        lags = params.lag_coeffs.copy()
        lags[:, n_m:, :n_m] = 0.0    # the quarterly variables ignore the monthly ones
        lags[:, 0, :] = 0.0          # monthly variable 0 is its own AR(1) with root 1.05
        lags[:, :, 0] = 0.0
        lags[0, 0, 0] = 1.05
        explosive = VarParams(n_m, n_q, p, params.intercept, lags, params.chol_cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InitializationError, match=r"spectral radius 1\.05\)"):
                init_state(explosive)
        assert len(doublings) == 1
        # the quarterly rows alone are blind to the root: without the probe
        # rows the sum settles on a finite block
        monkeypatch.setattr(kalman, "N_PROBES", 0)
        assert np.isfinite(stationary_quarterly_cov(explosive)).all()
        assert len(doublings) == 1

    def test_near_unit_root_hands_over_to_doubling(self, doublings):
        n_m, n_q, p = 18, 2, 6
        params = random_stable_params(n_m, n_q, p, np.random.default_rng(4))
        scale = 0.999 / spectral_radius(params)
        lags = params.lag_coeffs * scale ** np.arange(1, p + 1)[:, None, None]
        near = VarParams(n_m, n_q, p, params.intercept, lags, params.chol_cov)
        assert spectral_radius(near) == pytest.approx(0.999, abs=1e-9)
        P = init_state(near).P
        assert doublings == [((n_m + n_q) * (p + 1),) * 2]
        assert_array_equal(P, doubling_block(near))


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
        steps = filter_periods(periods, FilterState(np.zeros(dim), np.eye(dim)))
        # standardize each innovation by its predicted covariance
        std = []
        for step in steps:
            std.append(scipy.linalg.solve_triangular(step.cf, step.v, lower=True))
        std = np.concatenate(std)
        assert abs(std.mean()) < 4.0 / np.sqrt(T * dim)
