import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    InitializationError,
    MixedFreqData,
    VarParams,
    build_aggregation,
    draw_latent,
    draw_many,
    gen_pseudo,
    intra_quarterly_average,
    oracle_joint,
    run_adaptive,
    skip_sampling,
)
from mfsmooth import kalman, systems
from mfsmooth.baseline import fill_observed, plan_for
from mfsmooth.kalman import init_state
from mfsmooth.model import AggregationScheme
from mfsmooth.simsmooth import BACKENDS, _rng_for, simulate_path
from mfsmooth.simulate import make_instance, random_stable_params


@pytest.fixture
def inst():
    rng = np.random.default_rng(11)
    return make_instance(3, 1, 3, 18, 16, rng)


def reference_path(params, data, rng, init, centered, scheme):
    """The per-period recursion: a forward buffer, a lag stack shifted by a
    copy every period and one aggregation sum per observed quarterly entry."""
    n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
    T = data.T
    buf = np.zeros((p + 1 + T, n))
    s = np.linalg.cholesky(init.P) @ rng.standard_normal(init.P.shape[0])
    if not centered:
        s += init.a
    for lag in range(p + 1):
        buf[p - lag, n_m:] = s[lag * n_q : (lag + 1) * n_q]
    eps = rng.standard_normal((T, n))
    lags = buf[1 : p + 1][::-1].reshape(-1).copy()
    for t in range(T):
        x_t = params.coeff_row @ lags + params.chol(t) @ eps[t]
        if not centered:
            x_t += params.intercept
        buf[p + 1 + t] = x_t
        lags[n:] = lags[: (p - 1) * n]
        lags[:n] = x_t
    x_plus = buf[p + 1 :]
    y_plus = np.full((T, n), np.nan)
    pat = data.pattern
    y_plus[:, :n_m][pat.observed_monthly] = x_plus[:, :n_m][pat.observed_monthly]
    for t in range(T):
        for j in pat.quarterly_rows(t):
            vals = buf[p + 2 + t - scheme.p_q : p + 2 + t, n_m + j][::-1]
            y_plus[t, n_m + j] = scheme.weights @ vals
    return x_plus, y_plus, buf[: p + 1]


class TestSimulatePath:
    def test_quarterly_pseudo_obs_aggregate_path(self, inst):
        rng = np.random.default_rng(0)
        init = init_state(inst.params, "stationary")
        sim = simulate_path(inst.params, inst.data, rng, init, centered=False, scheme=inst.scheme)
        n_m = inst.params.n_m
        pat = inst.data.pattern
        for t in range(inst.data.T):
            for j in pat.quarterly_rows(t):
                if t >= 2:
                    want = sim.x_plus[t - 2 : t + 1, n_m + j].mean()
                    assert_allclose(sim.y_plus[t, n_m + j], want)

    def test_monthly_pseudo_obs_copy_path(self, inst):
        rng = np.random.default_rng(1)
        init = init_state(inst.params, "stationary")
        sim = simulate_path(inst.params, inst.data, rng, init, centered=False, scheme=inst.scheme)
        pat = inst.data.pattern
        obs = pat.observed_monthly
        assert_array_equal(sim.y_plus[:, :3][obs], sim.x_plus[:, :3][obs])
        assert np.all(np.isnan(sim.y_plus[:, :3][~obs]))

    def test_centered_path_has_zero_mean(self, inst):
        # with all shocks zeroed the centered recursion stays at zero
        params = inst.params
        zero_chol = VarParams(
            params.n_m, params.n_q, params.p, params.intercept,
            params.lag_coeffs, 1e-12 * np.eye(params.n),
        )

        class ZeroRng:
            def standard_normal(self, size=None):
                return np.zeros(size if size is not None else ())

        from mfsmooth.kalman import FilterState

        dim = params.n_q * (params.p + 1)
        init = FilterState(np.ones(dim), 1e-24 * np.eye(dim))
        sim = simulate_path(zero_chol, inst.data, ZeroRng(), init, centered=True, scheme=inst.scheme)
        assert_allclose(sim.x_plus, 0.0, atol=1e-9)
        # uncentered, same degenerate shocks: path follows the deterministic VAR
        sim2 = simulate_path(zero_chol, inst.data, ZeroRng(), init, centered=False, scheme=inst.scheme)
        assert np.max(np.abs(sim2.x_plus)) > 0.0

    def test_pseudo_sample_mean_matches_stationary_mean(self):
        rng = np.random.default_rng(7)
        inst = make_instance(2, 1, 3, 60, 58, rng)
        init = init_state(inst.params, "stationary")
        mu = inst.params.unconditional_mean()
        paths = []
        for k in range(400):
            sim = simulate_path(inst.params, inst.data, _rng_for(3, k),
                                init, centered=False, scheme=inst.scheme)
            paths.append(sim.x_plus)
        got = np.mean(paths, axis=(0, 1))
        assert_allclose(got, mu, atol=0.15)

    def test_rank_deficient_initial_covariance_is_jittered(self, inst):
        init = init_state(inst.params, "stationary")
        # one quarterly lag with zero variance: the plain Cholesky fails
        P = init.P.copy()
        P[0, :] = P[:, 0] = 0.0
        sim = simulate_path(inst.params, inst.data, np.random.default_rng(2),
                            kalman.FilterState(init.a, P), scheme=inst.scheme)
        assert sim.init_jitter
        assert np.isfinite(sim.x_plus).all()
        regular = simulate_path(inst.params, inst.data, np.random.default_rng(2), init, scheme=inst.scheme)
        assert not regular.init_jitter

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("scheme", [intra_quarterly_average(), skip_sampling()], ids=["average", "skip"])
    def test_matches_per_period_recursion(self, time_varying, centered, scheme):
        """Against the per-period recursion, on an irregular quarterly mask
        with a ragged monthly edge."""
        n_m, n_q, p, T = 4, 2, 3, 30
        rng = np.random.default_rng(17)
        params = random_stable_params(n_m, n_q, p, rng)
        if time_varying:
            scale = np.exp(0.4 * rng.standard_normal((T, n_m + n_q)))
            params = VarParams(n_m, n_q, p, params.intercept, params.lag_coeffs,
                               scale[:, :, None] * params.chol_cov)
        values = rng.standard_normal((T, n_m + n_q))
        values[27:, 3] = values[29:, 2] = np.nan
        q0 = np.arange(T) % 3 == 2
        q0[[11, 23]] = False
        values[~q0, n_m] = np.nan
        values[np.setdiff1d(np.arange(T), [0, 1, 4, 9, 10, 20, 28]), n_m + 1] = np.nan
        data = MixedFreqData.from_values(values, n_m, n_q)
        init = init_state(params, "stationary")
        got = simulate_path(params, data, _rng_for(4, 2), init, centered, scheme=scheme)
        want = reference_path(params, data, _rng_for(4, 2), init, centered, scheme)
        for name, ref in zip(("x_plus", "y_plus", "presample"), want):
            # a relative bound on the whole array: the products sum in another order
            assert_allclose(getattr(got, name), ref, rtol=0, atol=1e-13 * np.nanmax(np.abs(ref)), err_msg=name)
        assert_array_equal(np.isnan(got.y_plus), np.isnan(want[1]))


class TestDraws:
    def test_init_jitter_reported_per_draw(self, inst):
        draw = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=5)
        assert draw.stats.init_jitter == 0
        # the same draw from a plan whose initial covariance is rank deficient
        plan = inst.data.pattern._plan
        P = plan.init.P.copy()
        P[0, :] = P[:, 0] = 0.0
        object.__setattr__(plan, "init", kalman.FilterState(plan.init.a, P))
        for backend in BACKENDS:
            draw = draw_latent(inst.params, inst.scheme, inst.data, backend, seed=5)
            assert draw.stats.init_jitter == 1, backend
            assert np.isfinite(draw.x).all()

    def test_same_seed_bit_identical(self, inst):
        a = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=5)
        b = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=5)
        assert_array_equal(a.x, b.x)
        c = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=6)
        assert np.max(np.abs(c.x - a.x)) > 0.0

    def test_backends_share_draws(self, inst):
        base = draw_latent(inst.params, inst.scheme, inst.data, "baseline", seed=3)
        for backend in ("blocked", "adaptive"):
            other = draw_latent(inst.params, inst.scheme, inst.data, backend, seed=3)
            assert_allclose(other.x, base.x, rtol=1e-10, atol=1e-10)
            assert other.backend == backend

    def test_observed_monthly_reproduced_exactly(self, inst):
        d = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=9)
        obs = inst.data.pattern.observed_monthly
        assert_array_equal(d.x[:, :3][obs], inst.data.values[:, :3][obs])

    def test_unknown_backend(self, inst):
        with pytest.raises(ConfigurationError):
            draw_latent(inst.params, inst.scheme, inst.data, "fastest")

    def test_negative_draw_count_is_a_usage_error(self, inst):
        with pytest.raises(ConfigurationError, match="n_draws"):
            draw_many(inst.params, inst.scheme, inst.data, "adaptive", -1)

    def test_draw_many_matches_serial_draw_latent(self, inst):
        stack = draw_many(inst.params, inst.scheme, inst.data, "adaptive", 3, seed=21)
        for i in range(3):
            single = draw_latent(inst.params, inst.scheme, inst.data, "adaptive",
                                 rng=_rng_for(21, i))
            assert_array_equal(stack[i], single.x)


class TestDrawDistribution:
    def test_mean_and_variance_match_joint_oracle(self):
        rng = np.random.default_rng(2)
        inst = make_instance(2, 1, 3, 15, 13, rng)
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        draws = draw_many(inst.params, inst.scheme, inst.data, "adaptive", 600, seed=17)
        var = oj.var()
        se = np.sqrt(np.maximum(var, 0.0) / draws.shape[0])
        dev = np.abs(draws.mean(axis=0) - oj.mean)
        free = var > 1e-10
        assert np.all(dev[free] < 4.5 * se[free])
        assert np.all(dev[~free] < 1e-8)
        rel = np.abs(draws.var(axis=0, ddof=1)[free] - var[free]) / var[free]
        assert np.median(rel) < 0.15

    def test_degenerate_noise_reduces_to_smoothed_mean(self):
        # near-zero shock scale: every draw collapses onto the smoothed mean
        rng = np.random.default_rng(8)
        inst = make_instance(2, 1, 3, 12, 10, rng)
        p = inst.params
        tiny = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, 1e-6 * np.eye(p.n))
        sm = run_adaptive(tiny, inst.scheme, inst.data)
        d = draw_latent(tiny, inst.scheme, inst.data, "adaptive", seed=0)
        assert np.max(np.abs(d.x - sm.x_hat)) < 1e-3


class TestGenPseudo:
    def test_pattern_preserved(self, inst):
        sim = gen_pseudo(inst.params, inst.scheme, inst.data, np.random.default_rng(0))
        assert_array_equal(np.isnan(sim.y_plus), np.isnan(inst.data.values))
        assert sim.presample.shape == (inst.params.p + 1, inst.params.n)


class TestPreparedPlan:
    def test_draws_attach_nothing_to_the_inputs(self, inst):
        for backend in BACKENDS:
            draw_latent(inst.params, inst.scheme, inst.data, backend, seed=1)
        draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=1)
        for obj in (inst.params, inst.scheme, inst.data, inst.data.pattern):
            assert set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}

    def test_one_lyapunov_solve_per_parameter_set(self, monkeypatch):
        # the stationary initialization is one direct sum of the quarterly
        # block per parameter set; at this shape it never needs the doubling
        inst = make_instance(18, 2, 6, 24, 21, np.random.default_rng(11))
        calls = []
        doublings = []
        block = kalman.stationary_quarterly_cov
        solve = kalman.solve_discrete_lyapunov

        def counted(params):
            calls.append(params)
            return block(params)

        def counted_doubling(A, Q):
            doublings.append(A.shape)
            return solve(A, Q)

        monkeypatch.setattr(kalman, "stationary_quarterly_cov", counted)
        monkeypatch.setattr(kalman, "solve_discrete_lyapunov", counted_doubling)
        for backend in BACKENDS:
            draw_latent(inst.params, inst.scheme, inst.data, backend, seed=2)
        draw_many(inst.params, inst.scheme, inst.data, "blocked", 3, seed=2)
        gen_pseudo(inst.params, inst.scheme, inst.data, np.random.default_rng(0))
        assert len(calls) == 1
        p = inst.params
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        a = draw_latent(fresh, inst.scheme, inst.data, "adaptive", seed=2)
        assert len(calls) == 2
        b = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=2)
        assert_array_equal(a.x, b.x)
        assert doublings == []

    def test_covariance_pass_once_per_plan(self, monkeypatch):
        # the reduced filter factorizes only while its plan's pass is built:
        # warm draws and draw_many pay none, a new parameter set pays again
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        calls = []
        factorize = kalman.factorize_innovation

        def counted(F, t):
            calls.append(t)
            return factorize(F, t)

        monkeypatch.setattr(kalman, "factorize_innovation", counted)
        cold = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=2)
        assert len(calls) == cold.stats.factorizations > 0
        del calls[:]
        warm = [draw_latent(inst.params, inst.scheme, inst.data, b, seed=2) for b in ("adaptive", "blocked")]
        draw_many(inst.params, inst.scheme, inst.data, "adaptive", 3, seed=2)
        assert calls == []
        assert [d.stats.factorizations for d in warm] == [0, 0]
        p = inst.params
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        draw_latent(fresh, inst.scheme, inst.data, "adaptive", seed=2)
        assert len(calls) == cold.stats.factorizations

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_and_warm_plans_draw_alike(self, backend):
        # a draw that builds the plan and one that reuses it take the same
        # numerical path: bitwise equal draws, the same reuse and condition
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        p = inst.params
        cold = draw_latent(p, inst.scheme, inst.data, backend, seed=5)
        warm = draw_latent(p, inst.scheme, inst.data, backend, seed=5)
        assert_array_equal(cold.x, warm.x)
        assert cold.stats.factorizations > 0 and warm.stats.factorizations == 0
        assert cold.stats.cov_reuse == warm.stats.cov_reuse > 0
        assert cold.stats.worst_cond == warm.stats.worst_cond > 1.0
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        again = draw_latent(fresh, inst.scheme, inst.data, backend, seed=5)
        assert_array_equal(again.x, cold.x)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    def test_diffuse_proxy_kappa_validated(self, inst, kappa):
        with pytest.raises(InitializationError, match="kappa"):
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=0,
                        init_mode="diffuse-proxy", kappa=kappa)


SCHEMES = {
    "average": intra_quarterly_average(),
    "skip": skip_sampling(),
    "custom": AggregationScheme("custom", np.array([0.4, 0.3, 0.2, 0.1]), 4),
}


class TestDataPart:
    """A draw takes the balanced periods' constants as the plan's part at
    the data less the pseudo path's part; the result is the two-step route:
    the backend's smoothed mean on y - y+, plus x+, observed entries filled."""

    @staticmethod
    def instance(scheme, time_varying, seed=3):
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(seed), scheme=scheme)
        params = inst.params
        if time_varying:
            scale = np.exp(0.3 * np.random.default_rng(seed).standard_normal((40, params.n)))
            params = VarParams(params.n_m, params.n_q, params.p, params.intercept,
                               params.lag_coeffs, scale[:, :, None] * params.chol_cov)
        return params, inst.data

    @staticmethod
    def two_step(params, scheme, data, backend, seed, init_mode):
        pseudo = gen_pseudo(params, scheme, data, _rng_for(seed, 0), init_mode)
        star = data.replace_values(data.values - pseudo.y_plus)
        x = BACKENDS[backend](params, scheme, star, init_mode).x_hat + pseudo.x_plus
        fill_observed(x, data)
        return x

    def assert_two_step(self, params, scheme, data, seed, init_mode="stationary"):
        for backend in BACKENDS:
            got = draw_latent(params, scheme, data, backend, seed=seed, init_mode=init_mode).x
            want = self.two_step(params, scheme, data, backend, seed, init_mode)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("init_mode", ["stationary", "diffuse-proxy"])
    def test_matches_two_step_route(self, scheme, time_varying, init_mode):
        params, data = self.instance(SCHEMES[scheme], time_varying)
        self.assert_two_step(params, SCHEMES[scheme], data, 4, init_mode)

    def test_each_data_object_gets_its_own_part(self):
        scheme = SCHEMES["average"]
        params, data = self.instance(scheme, False)
        other = data.replace_values(data.values * 1.5 + 0.25)
        assert other.pattern is data.pattern
        for d in (data, other, data):
            self.assert_two_step(params, scheme, d, 6)
            assert plan_for(params, scheme, d)._part.data is d

    def test_warm_draw_forms_no_data_part(self, monkeypatch):
        params, data = self.instance(SCHEMES["average"], False)
        balanced = []
        constants = systems._constants

        def counted(mats, ts, stacks):
            balanced.append(not len(mats.idx.u_t))
            return constants(mats, ts, stacks)

        monkeypatch.setattr(systems, "_constants", counted)
        draw_latent(params, SCHEMES["average"], data, "adaptive", seed=1)
        part = plan_for(params, SCHEMES["average"], data)._part
        groups = dict(part.groups)
        assert sum(balanced) == len(groups) > 0
        del balanced[:]
        for backend in BACKENDS:
            draw_latent(params, SCHEMES["average"], data, backend, seed=2)
        draw_many(params, SCHEMES["average"], data, "adaptive", 2, seed=2)
        assert sum(balanced) == 0
        assert plan_for(params, SCHEMES["average"], data)._part is part
        assert all(part.groups[k] is v for k, v in groups.items())

    def test_lag_term_is_the_constants_at_the_pseudo_observations(self):
        # C X(y+) and D X(y+)'s head rows, formed the direct way, over the
        # balanced sample of a path with its constants
        params, data = self.instance(SCHEMES["custom"], True)
        scheme = SCHEMES["custom"]
        plan = plan_for(params, scheme, data)
        pseudo = simulate_path(params, data, np.random.default_rng(2), plan.init,
                               centered=False, scheme=scheme)
        t_b = data.pattern.t_balanced
        lagged = systems.pseudo_lag_term(params, pseudo, t_b)
        plus = data.replace_values(pseudo.y_plus)
        for per in systems.build_periods(params, plan.skeleton, plus, stop=t_b):
            n_o, s = len(per.mats.idx.o_t), per.mats.idx.head_size
            assert_allclose(per.c[:n_o] - per.mats.c0[:n_o], lagged[per.t, : params.n_m], rtol=1e-12, atol=1e-14)
            assert_allclose(per.d[:s] - per.mats.d0[:s], lagged[per.t, params.n_m :], rtol=1e-12, atol=1e-14)

    def test_pseudo_path_needs_the_balanced_sample(self):
        params, data = self.instance(SCHEMES["average"], False)
        plan = plan_for(params, SCHEMES["average"], data)
        pseudo = gen_pseudo(params, SCHEMES["average"], data, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="t_balanced"):
            systems.build_periods(params, plan.skeleton, data, stop=10,
                                  split=(plan.data_part(data), pseudo))
