import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    InitializationError,
    MixedFreqData,
    SingularInnovationError,
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
from mfsmooth import baseline, blocked, kalman
from mfsmooth.baseline import plan_for
from mfsmooth.kalman import init_state
from mfsmooth.model import AggregationScheme
from mfsmooth.simsmooth import BACKENDS, _rekeyed, _rng_for, simulate_path
from mfsmooth.simulate import benchmark_pattern, make_instance, random_stable_params, simulate_var_path
from test_systems import projected


@pytest.fixture
def inst():
    rng = np.random.default_rng(11)
    return make_instance(3, 1, 3, 18, 16, rng)


def reference_path(params, data, rng, init, scheme):
    """The full VAR's per-period recursion: a forward buffer, a lag stack
    shifted by a copy every period and one aggregation sum per observed
    quarterly entry."""
    n, n_m, p = params.n, params.n_m, params.p
    T = data.T
    buf = np.zeros((p + 1 + T, n))
    s = np.linalg.cholesky(init.P) @ rng.standard_normal(init.P.shape[0]) + init.a
    for lag in range(p + 1):
        buf[p - lag, n_m:] = s[lag * params.n_q : (lag + 1) * params.n_q]
    eps = rng.standard_normal((T, n))
    lags = buf[1 : p + 1][::-1].reshape(-1).copy()
    for t in range(T):
        x_t = params.coeff_row @ lags + params.chol(t) @ eps[t] + params.intercept
        buf[p + 1 + t] = x_t
        lags[n:] = lags[: (p - 1) * n]
        lags[:n] = x_t
    x = buf[p + 1 :]
    y = np.full((T, n), np.nan)
    pat = data.pattern
    y[:, :n_m][pat.observed_monthly] = x[:, :n_m][pat.observed_monthly]
    for t in range(T):
        for j in pat.quarterly_rows(t):
            vals = buf[p + 2 + t - scheme.p_q : p + 2 + t, n_m + j][::-1]
            y[t, n_m + j] = scheme.weights @ vals
    return x, y


def assert_perturbation(params, scheme, data, seed):
    """A draw's perturbation (``simulate_path``) against each period's own
    shock W_t eta_t: the edge shocks are those products of the generator's
    last normals, and the balanced part, linear in the normals before them,
    has covariance K: I on z's rows, from the offset zeta of z's prior,
    plus that of the shocks of the balanced periods carried through the
    right-hand side (``BalancedSystem.rhs``)."""
    n, T, t_b = params.n, data.T, data.pattern.t_balanced
    system = plan_for(params, scheme, data).system
    k = system.n_normals
    z = _rng_for(seed, 0).standard_normal(k + (T - t_b) * n)
    sim = simulate_path(params, data, FixedNormals(z), system)
    eta = z[k:].reshape(T - t_b, n)
    want = np.array([params.chol(t) @ e for t, e in zip(range(t_b, T), eta)])
    assert np.abs(sim.shocks - want).max() <= 1e-14 * np.abs(want).max()
    assert_array_equal(sim.balanced, system.perturbation(z[:k]))
    M = np.column_stack([system.perturbation(e) for e in np.eye(k)])
    agg = np.zeros(int(data.pattern.quarterly_observed[:t_b].sum()))
    base = system.rhs(projected(system, np.zeros((t_b, n))), agg)
    cols = []
    for t in range(t_b):
        for j in range(n):
            resid = np.zeros((t_b, n))
            resid[t] = params.chol(t)[:, j]
            cols.append(system.rhs(projected(system, resid), agg) - base)
    ref = np.column_stack(cols)
    want = ref @ ref.T
    want[system.layout.z, system.layout.z] += 1.0
    assert np.abs(M @ M.T - want).max() <= 1e-12 * np.abs(want).max()


class TestSimulatePath:
    def test_quarterly_pseudo_obs_aggregate_path(self, inst):
        init = init_state(inst.params, "stationary")
        n_m = inst.params.n_m
        pat = inst.data.pattern
        x, y = simulate_var_path(inst.params, inst.data, np.random.default_rng(0), init, inst.scheme)
        for t in range(inst.data.T):
            for j in pat.quarterly_rows(t):
                if t >= 2:
                    want = x[t - 2 : t + 1, n_m + j].mean()
                    assert_allclose(y[t, n_m + j], want)

    def test_monthly_pseudo_obs_copy_path(self, inst):
        init = init_state(inst.params, "stationary")
        obs = inst.data.pattern.observed_monthly
        x, y = simulate_var_path(inst.params, inst.data, np.random.default_rng(1), init, inst.scheme)
        assert_array_equal(y[:, :3][obs], x[:, :3][obs])
        assert np.all(np.isnan(y[:, :3][~obs]))

    def test_centered_path_has_zero_mean(self, inst):
        # with all normals zero the perturbation is zero, and every
        # backend's draw is the smoothed mean
        params = inst.params

        class ZeroRng:
            def standard_normal(self, size=None):
                return np.zeros(size if size is not None else ())

        sim = gen_pseudo(params, inst.scheme, inst.data, ZeroRng())
        assert_array_equal(sim.balanced, 0.0)
        assert_array_equal(sim.shocks, 0.0)
        for backend, run in BACKENDS.items():
            d = draw_latent(params, inst.scheme, inst.data, backend, rng=ZeroRng())
            assert_array_equal(d.x, run(params, inst.scheme, inst.data).x_hat)
        # the full VAR, degenerate shocks: its path follows the deterministic VAR
        zero_chol = VarParams(
            params.n_m, params.n_q, params.p, params.intercept,
            params.lag_coeffs, 1e-12 * np.eye(params.n),
        )
        from mfsmooth.kalman import FilterState

        dim = params.n_q * (params.p + 1)
        init = FilterState(np.ones(dim), 1e-24 * np.eye(dim))
        x, _ = simulate_var_path(zero_chol, inst.data, ZeroRng(), init, inst.scheme)
        assert np.max(np.abs(x)) > 0.0

    def test_pseudo_sample_mean_matches_stationary_mean(self):
        rng = np.random.default_rng(7)
        inst = make_instance(2, 1, 3, 60, 58, rng)
        init = init_state(inst.params, "stationary")
        mu = inst.params.unconditional_mean()
        paths = []
        for k in range(400):
            x, _ = simulate_var_path(inst.params, inst.data, _rng_for(3, k), init, inst.scheme)
            paths.append(x)
        got = np.mean(paths, axis=(0, 1))
        assert_allclose(got, mu, atol=0.15)

    def test_rank_deficient_initial_covariance_is_jittered(self, inst):
        # one quarterly lag with zero variance: the plain Cholesky fails, the
        # balanced system's factor takes the jitter and the perturbation
        # drawn on it stays finite
        init = init_state(inst.params, "stationary")
        P = init.P.copy()
        P[0, :] = P[:, 0] = 0.0
        agg = build_aggregation(inst.scheme, 1, 3)
        for cov, jitter in ((P, True), (init.P, False)):
            system = kalman.BalancedSystem(inst.params, agg, inst.data.pattern, kalman.FilterState(init.a, cov))
            sim = simulate_path(inst.params, inst.data, np.random.default_rng(2), system)
            assert system.jitter == jitter
            assert np.isfinite(sim.balanced).all() and np.isfinite(sim.shocks).all()

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("scheme", [intra_quarterly_average(), skip_sampling()], ids=["average", "skip"])
    def test_matches_per_period_recursion(self, time_varying, centered, scheme):
        """Against each period's own shocks, on an irregular quarterly mask
        with a ragged monthly edge: ``centered``, a draw's perturbation,
        which has zero mean (``assert_perturbation``); otherwise the full VAR
        ``make_instance`` draws, against its per-period recursion."""
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
        if centered:
            assert_perturbation(params, scheme, data, 4)
            return
        init = init_state(params, "stationary")
        got = simulate_var_path(params, data, _rng_for(4, 2), init, scheme)
        want = reference_path(params, data, _rng_for(4, 2), init, scheme)
        for name, value, ref in zip(("x", "y"), got, want):
            # a relative bound on the whole array: the products sum in another order
            assert_allclose(value, ref, rtol=0, atol=1e-13 * np.nanmax(np.abs(ref)), err_msg=name)
        assert_array_equal(np.isnan(got[1]), np.isnan(want[1]))


class TestDraws:
    def test_init_jitter_reported_per_draw(self, inst, monkeypatch):
        draw = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=5)
        assert draw.stats.init_jitter == 0

        # the same draws on a plan whose initial covariance is rank deficient:
        # its balanced system's factor of it needs jitter
        def deficient(*args):
            init = init_state(*args)
            P = init.P.copy()
            P[0, :] = P[:, 0] = 0.0
            return kalman.FilterState(init.a, P)

        monkeypatch.setattr(baseline, "init_state", deficient)
        p = inst.params
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        for backend in BACKENDS:
            draw = draw_latent(fresh, inst.scheme, inst.data, backend, seed=5)
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

    def test_seed_and_generator_together_rejected(self, inst):
        with pytest.raises(ConfigurationError, match="not both"):
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=1, rng=np.random.default_rng(1))

    def test_negative_draw_count_is_a_usage_error(self, inst):
        with pytest.raises(ConfigurationError, match="n_draws"):
            draw_many(inst.params, inst.scheme, inst.data, "adaptive", -1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", ["default", "balanced", "no_quarterly", "time_varying", "six_period_edge"])
    def test_draw_many_matches_serial_draw_latent(self, inst, backend, case):
        # one batched smooth draws what one draw at a time does, bit for bit:
        # its balanced solve on many columns, each draw's edge step alone
        shapes = {"balanced": (3, 2, 3, 16, 16, 4), "no_quarterly": (4, 0, 3, 30, 28, 0),
                  "six_period_edge": (4, 1, 3, 40, 34, 5)}
        if case in shapes:
            *shape, seed = shapes[case]
            inst = make_instance(*shape, np.random.default_rng(seed))
        params, scheme, data = inst.params, inst.scheme, inst.data
        if case == "time_varying":
            params = with_time_varying_cov(params, data.T, 6)
        stack = draw_many(params, scheme, data, backend, 3, seed=21)
        assert stack.shape == (3, data.T, params.n)
        for i in range(3):
            single = draw_latent(params, scheme, data, backend, rng=_rng_for(21, i))
            assert_array_equal(stack[i], single.x)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_draws_do_not_depend_on_the_batch_size(self, inst, backend):
        # the first draws of a large batch are a small batch's
        many = draw_many(inst.params, inst.scheme, inst.data, backend, 40, seed=8)
        assert_array_equal(many[:2], draw_many(inst.params, inst.scheme, inst.data, backend, 2, seed=8))

    def test_draw_many_checks_its_inputs_at_any_count(self):
        inst = make_instance(4, 1, 3, 30, 27, np.random.default_rng(0))
        other = make_instance(3, 1, 3, 30, 27, np.random.default_rng(0))
        for n_draws in (0, 2):
            with pytest.raises(ConfigurationError, match="n_m=3, n_q=1 on data with n_m=4"):
                draw_many(other.params, inst.scheme, inst.data, "adaptive", n_draws)
            with pytest.raises(ConfigurationError, match="unknown backend 'nonsense'"):
                draw_many(inst.params, inst.scheme, inst.data, "nonsense", n_draws)
        for n_draws in (2.0, True, False, "2", None, np.int64(-1)):
            with pytest.raises(ConfigurationError, match="n_draws must be an integer >= 0"):
                draw_many(inst.params, inst.scheme, inst.data, "adaptive", n_draws)
        for n_draws in (0, np.int64(0), np.int32(2)):
            stack = draw_many(inst.params, inst.scheme, inst.data, "adaptive", n_draws, seed=3)
            assert stack.shape == (int(n_draws), 30, 5)
        assert_array_equal(stack[1], draw_latent(inst.params, inst.scheme, inst.data, rng=_rng_for(3, 1)).x)

    def test_rekeyed_generator_matches_a_new_one(self):
        # draw_many re-keys one generator per draw; after any use, each key
        # gives the normals of a new generator on it
        for seed in (0, 1, 2**63 + 5, 2**64 - 1):
            keyed = _rekeyed(seed)
            for index in (0, 1, 7, 2**40, 1, 0):
                got = keyed(index).standard_normal(1000)
                assert_array_equal(got, _rng_for(seed, index).standard_normal(1000), (seed, index))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, inst, seed):
        """A seed is one Philox key word: one outside 0..2**64-1 raises
        instead of wrapping onto another seed's draws."""
        with pytest.raises(ConfigurationError, match=f"seed {seed} is outside 0..2\\*\\*64-1"):
            draw_latent(inst.params, inst.scheme, inst.data, seed=seed)
        with pytest.raises(ConfigurationError, match=f"seed {seed} is outside"):
            draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=seed)

    @pytest.mark.parametrize("seed", [2.5, 2.9, 2.0, np.float64(1.0), True, False, "3"])
    def test_seed_that_is_not_an_integer_rejected(self, inst, seed):
        """A float, bool or string seed raises instead of being truncated or
        read as another seed's draws (2.5 as 2, True as 1)."""
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            draw_latent(inst.params, inst.scheme, inst.data, "blocked", seed=seed)
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=seed)

    def test_numpy_integer_seed_accepted(self, inst):
        top = draw_latent(inst.params, inst.scheme, inst.data, seed=np.uint64(2**64 - 1)).x
        assert_array_equal(top, draw_latent(inst.params, inst.scheme, inst.data, seed=2**64 - 1).x)
        assert_array_equal(draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=np.int32(3)),
                           draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=3))

    def test_largest_seed_accepted(self, inst):
        top = draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=2**64 - 1)
        assert_array_equal(top[0], draw_latent(inst.params, inst.scheme, inst.data, seed=2**64 - 1).x)
        assert not np.array_equal(top, draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=0))


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
        # one perturbation of the plan's balanced right-hand side, and one
        # shock per ragged-edge period
        sim = gen_pseudo(inst.params, inst.scheme, inst.data, np.random.default_rng(0))
        plan = plan_for(inst.params, inst.scheme, inst.data)
        assert sim.balanced.shape == (plan.system.size,)
        assert sim.shocks.shape == (inst.data.T - inst.data.pattern.t_balanced, inst.params.n)


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
        # a plan factorizes while it is built: the balanced system's band LU
        # and its K's band Cholesky factor, then, on the adaptive backend's
        # first draw, the edge system's LU, and on the blocked backend's
        # first draw its covariance pass's factors of F, one per edge period
        # (all three observe here; factorized through the blocked module's
        # binding, not kalman's); the reduced filter factors no F; warm draws
        # and draw_many pay none, a new parameter set pays again
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        calls = []
        factorize, band_lu, edge_lu = kalman.factorize_innovation, kalman.dgbtrf, kalman.dgetrf
        band_chol = kalman.dpbtrf

        def counted(F, t):
            calls.append(t)
            return factorize(F, t)

        def counted_lu(*args, **kwargs):
            calls.append("band")
            return band_lu(*args, **kwargs)

        def counted_edge_lu(*args, **kwargs):
            calls.append("edge")
            return edge_lu(*args, **kwargs)

        def counted_chol(*args, **kwargs):
            calls.append("chol")
            return band_chol(*args, **kwargs)

        monkeypatch.setattr(kalman, "factorize_innovation", counted)
        monkeypatch.setattr(kalman, "dgbtrf", counted_lu)
        monkeypatch.setattr(kalman, "dgetrf", counted_edge_lu)
        monkeypatch.setattr(kalman, "dpbtrf", counted_chol)
        cold = draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=2)
        assert calls == ["band", "chol", "edge"] and cold.stats.factorizations == 3
        del calls[:]
        warm = [draw_latent(inst.params, inst.scheme, inst.data, b, seed=2) for b in ("adaptive", "blocked")]
        draw_many(inst.params, inst.scheme, inst.data, "adaptive", 3, seed=2)
        assert calls == []
        assert [d.stats.factorizations for d in warm] == [0, 3]
        p = inst.params
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        draw_latent(fresh, inst.scheme, inst.data, "adaptive", seed=2)
        assert len(calls) == cold.stats.factorizations

    def test_failed_k_factor_raises_naming_its_period(self, monkeypatch):
        # a K that dpbtrf cannot factorize raises, naming the period whose
        # slot holds the failing column (here q at period 5), and no plan
        # is kept; no jitter is tried
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        p, n_q = inst.params.p, inst.params.n_q
        band_chol, calls = kalman.dpbtrf, []

        def failing(ab, **kwargs):
            calls.append(ab.shape)
            return band_chol(ab, **kwargs)[0], (p + 1 + 5) * n_q + 1

        monkeypatch.setattr(kalman, "dpbtrf", failing)
        with pytest.raises(SingularInnovationError, match="t=5") as err:
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=2)
        assert err.value.t == 5 and len(calls) == 1
        assert inst.data.pattern._plan is None

    def test_edge_system_built_once_per_plan_by_the_adaptive_backend(self, monkeypatch):
        # cold blocked and reference draws never build the edge's system;
        # the adaptive backend's first draw on a plan builds it, and every
        # later draw on the plan, draw_many's included, solves on it
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        built = []
        edge_system = kalman.EdgeSystem
        monkeypatch.setattr(baseline, "EdgeSystem", lambda *args: built.append(edge_system(*args)) or built[-1])
        p = inst.params
        for backend in ("blocked", "baseline"):
            fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
            draw_latent(fresh, inst.scheme, inst.data, backend, seed=2)
            assert built == [], backend
        for backend in ("adaptive", "blocked", "adaptive"):
            draw_latent(fresh, inst.scheme, inst.data, backend, seed=2)
        draw_many(fresh, inst.scheme, inst.data, "adaptive", 2, seed=2)
        assert len(built) == 1
        assert plan_for(fresh, inst.scheme, inst.data)._edge is built[0]
        draw_latent(p, inst.scheme, inst.data, "adaptive", seed=2)
        assert len(built) == 2

    def test_covariance_pass_built_once_per_plan_by_the_blocked_backend(self, monkeypatch):
        # adaptive and reference draws never build the blocked edge's
        # covariance pass; the blocked backend's first draw on a plan builds
        # it and counts its three factors of F, and every later blocked draw
        # on the plan, draw_many's included, runs its mean pass on it
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        built, taken = [], []
        covariance_pass, blocked_pass = blocked.CovariancePass, baseline.Plan.blocked_pass
        monkeypatch.setattr(blocked, "CovariancePass", lambda *args: built.append(covariance_pass(*args)) or built[-1])
        monkeypatch.setattr(baseline.Plan, "blocked_pass",
                            lambda plan, pattern: taken.append(blocked_pass(plan, pattern)) or taken[-1])
        p = inst.params
        for backend in ("adaptive", "baseline"):
            fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
            draw_latent(fresh, inst.scheme, inst.data, backend, seed=2)
            assert built == [] and taken == [], backend
        draws = [draw_latent(fresh, inst.scheme, inst.data, b, seed=2) for b in ("blocked", "blocked", "adaptive")]
        assert [d.stats.factorizations for d in draws] == [3, 0, 1]
        draw_many(fresh, inst.scheme, inst.data, "blocked", 3, seed=2)
        draw_latent(fresh, inst.scheme, inst.data, "baseline", seed=2)
        draw_latent(fresh, inst.scheme, inst.data, "blocked", seed=3)
        assert len(built) == 1 and len(taken) == 6
        assert all(cov is built[0] for cov in taken)
        assert plan_for(fresh, inst.scheme, inst.data)._blocked is built[0]
        draw_latent(p, inst.scheme, inst.data, "blocked", seed=2)
        assert len(built) == 2 and taken[-1] is built[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_and_warm_plans_draw_alike(self, backend):
        # a draw that builds the plan and one that reuses it take the same
        # numerical path: bitwise equal draws and the same condition
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        p = inst.params
        cold = draw_latent(p, inst.scheme, inst.data, backend, seed=5)
        warm = draw_latent(p, inst.scheme, inst.data, backend, seed=5)
        assert_array_equal(cold.x, warm.x)
        assert cold.stats.factorizations > 0 and warm.stats.factorizations == 0
        assert cold.stats.worst_cond == warm.stats.worst_cond > 1.0
        fresh = VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs, p.chol_cov)
        again = draw_latent(fresh, inst.scheme, inst.data, backend, seed=5)
        assert_array_equal(again.x, cold.x)

    def test_band_built_once_per_plan(self, monkeypatch):
        # the plan builds the balanced system once; every draw's balanced
        # block is solved on it, a draw_many call's in one solve, and a cold
        # and a warm draw agree bitwise
        inst = make_instance(4, 1, 3, 60, 57, np.random.default_rng(3))
        systems_built, solved = [], []
        system, run_filter = kalman.BalancedSystem, baseline.run_filter

        def built(*args):
            systems_built.append(system(*args))
            return systems_built[-1]

        def recorded(periods):
            solved.append(periods[0].mats)
            return run_filter(periods)

        monkeypatch.setattr(baseline, "BalancedSystem", built)
        monkeypatch.setattr(baseline, "run_filter", recorded)
        for backend in BACKENDS:
            cold = draw_latent(inst.params, inst.scheme, inst.data, backend, seed=5)
            warm = draw_latent(inst.params, inst.scheme, inst.data, backend, seed=5)
            assert_array_equal(cold.x, warm.x)
        draw_many(inst.params, inst.scheme, inst.data, "adaptive", 2, seed=5)
        assert len(systems_built) == 1 and len(solved) == 2 * len(BACKENDS) + 1
        assert all(mats is systems_built[0] for mats in solved)
        assert plan_for(inst.params, inst.scheme, inst.data).system is systems_built[0]

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    def test_diffuse_proxy_kappa_validated(self, inst, kappa):
        with pytest.raises(InitializationError, match="kappa"):
            draw_latent(inst.params, inst.scheme, inst.data, "adaptive", seed=0,
                        init_mode="diffuse-proxy", kappa=kappa)


SCHEMES = {
    "average": intra_quarterly_average(),
    "skip": skip_sampling(),
    "custom": AggregationScheme(np.array([0.4, 0.3, 0.2, 0.1])),
}


class FixedNormals:
    """A generator whose normals are one fixed vector, handed out in order."""

    def __init__(self, z):
        self.z, self.used = z, 0

    def standard_normal(self, size):
        k = int(np.prod(size))
        out = self.z[self.used : self.used + k].reshape(size)
        self.used += k
        return out


def affine_map(params, scheme, data, backend, init_mode="stationary", cells=None):
    """(m, G) with a flattened draw from normals z equal to m + G z.

    A draw is affine in the generator's normals: its value at z = 0 is m and
    its change at each unit vector a column of G, so m is its mean and G G'
    its covariance.  It takes one normal per unknown of the balanced
    system's K, (p+1+t_b) n_q for z and the balanced path, and n for each
    ragged-edge period.  With ``cells``, a (periods, variables) index pair,
    the draw is kept only there."""
    t_b = data.pattern.t_balanced
    k = (params.p + 1 + t_b) * params.n_q + (data.T - t_b) * params.n

    def draw(z):
        rng = FixedNormals(z)
        x = draw_latent(params, scheme, data, backend, rng=rng, init_mode=init_mode).x
        assert rng.used == k
        return (x if cells is None else x[cells]).reshape(-1)

    m = draw(np.zeros(k))
    return m, np.column_stack([draw(e) - m for e in np.eye(k)])


def assert_moments(m, G, oj, label):
    """The draw's exact mean and covariance against the joint oracle's."""
    assert np.abs(m - oj.mean_flat).max() <= 1e-10 * np.abs(oj.mean_flat).max(), label
    assert np.abs(G @ G.T - oj.cov).max() <= 1e-10 * np.abs(oj.cov).max(), label


def with_time_varying_cov(params, T, seed):
    scale = np.exp(0.3 * np.random.default_rng(seed).standard_normal((T, params.n)))
    return VarParams(params.n_m, params.n_q, params.p, params.intercept,
                     params.lag_coeffs, scale[:, :, None] * params.chol_cov)


class TestExactMoments:
    """Every backend's draws have the joint oracle's conditional mean and
    covariance, read off the draw's affine map in the generator's normals."""

    @pytest.mark.parametrize("shape", [
        (2, 1, 4, 12, 10),
        (3, 2, 4, 12, 11),
        (3, 2, 5, 14, 14),   # fully balanced
        (4, 1, 6, 15, 12),
    ], ids=str)
    def test_draws_have_the_joint_oracle_moments(self, shape):
        self.check(shape)

    def test_non_monotone_edge(self):
        # monthly series observed again after a gap: series 0 at t = 10 and
        # 12, series 1 at t = 12
        mask = benchmark_pattern(3, 1, 13, 13)
        mask[9:, :3] = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=bool)
        self.check((3, 1, 4, 13, 9), mask)

    def test_early_gap_long_edge(self):
        # monthly series 0 missing at t = 5 of T = 16 with p = 4, besides the
        # ragged end: an edge of eleven periods, whose windows from t = 9 on
        # no longer reach the balanced system's last state
        mask = benchmark_pattern(3, 1, 16, 14)
        mask[5, 0] = False
        self.check((3, 1, 4, 16, 5), mask)

    @staticmethod
    def check(shape, mask=None):
        T = shape[3]
        for k, scheme in enumerate(SCHEMES.values()):
            inst = make_instance(*shape, np.random.default_rng(k), scheme=scheme, mask=mask)
            for params in (inst.params, with_time_varying_cov(inst.params, T, k)):
                for init_mode in ("stationary", "diffuse-proxy"):
                    oj = oracle_joint(params, scheme, inst.data, init_mode)
                    for backend in BACKENDS:
                        m, G = affine_map(params, scheme, inst.data, backend, init_mode)
                        assert_moments(m, G, oj, (scheme.weights, params.time_varying_cov, init_mode, backend))

    @pytest.mark.parametrize("case", ["zero quarterly lag column", "n < k"])
    def test_rank_deficient_noise_factor(self, case):
        """B' Sigma^-1 B singular (the last lag's quarterly columns zero, with
        n >= k) or of rank n < k: no period's term is factorized on its own;
        K, their sum over the windows plus I on z, stays positive definite,
        so its banded Cholesky factor draws the perturbation and the draws
        keep the joint oracle's moments."""
        if case == "n < k":
            inst = make_instance(3, 3, 6, 24, 22, np.random.default_rng(0))
            params = inst.params
        else:
            inst = make_instance(5, 1, 3, 14, 12, np.random.default_rng(1))
            p = inst.params
            lag_coeffs = p.lag_coeffs.copy()
            lag_coeffs[-1][:, p.n_m :] = 0.0
            params = VarParams(p.n_m, p.n_q, p.p, p.intercept, lag_coeffs, p.chol_cov)
        for prm in (params, with_time_varying_cov(params, inst.data.T, 2)):
            oj = oracle_joint(prm, inst.scheme, inst.data)
            for backend in BACKENDS:
                m, G = affine_map(prm, inst.scheme, inst.data, backend)
                assert_moments(m, G, oj, (case, prm.time_varying_cov, backend))

    def test_no_quarterly_variables(self):
        # n_q = 0: no quarterly stack to solve for; every backend draws the
        # same panel, with the oracle's mean
        inst = make_instance(4, 0, 3, 30, 28, np.random.default_rng(0))
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        draws = [draw_latent(inst.params, inst.scheme, inst.data, b, seed=1).x for b in BACKENDS]
        for x in draws:
            assert np.isfinite(x).all()
            assert_allclose(x, draws[0], rtol=1e-8, atol=1e-8)
        for backend in BACKENDS:
            m, G = affine_map(inst.params, inst.scheme, inst.data, backend)
            assert_moments(m, G, oj, backend)


class TestDataPart:
    """A draw takes the balanced periods' constants as the plan keeps them
    for the data (``Plan.balanced``).  The reference is the draw's exact
    moments: each backend's mean and the adaptive backend's affine map
    against the joint oracle, and every backend's seeded draw that map at
    the seed's normals."""

    @staticmethod
    def instance(scheme, time_varying, seed=3):
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(seed), scheme=scheme)
        params = with_time_varying_cov(inst.params, 40, seed) if time_varying else inst.params
        return params, inst.data

    @staticmethod
    def assert_exact(params, scheme, data, seed, init_mode="stationary", G=None):
        """Asserts the draws on ``data`` against the oracle and returns the
        adaptive backend's G, or checks them against ``G`` when given: G
        depends on the pattern only, not on the data."""
        oj = oracle_joint(params, scheme, data, init_mode, cap=data.T * params.n)
        if G is None:
            m, G = affine_map(params, scheme, data, "adaptive", init_mode)
            assert_moments(m, G, oj, "adaptive")
        z = _rng_for(seed, 0).standard_normal(G.shape[1])
        for backend in BACKENDS:
            zero = draw_latent(params, scheme, data, backend, rng=FixedNormals(0.0 * z), init_mode=init_mode).x
            assert np.abs(zero.reshape(-1) - oj.mean_flat).max() <= 1e-10 * np.abs(oj.mean_flat).max(), backend
            want = oj.mean_flat + G @ z
            got = draw_latent(params, scheme, data, backend, seed=seed, init_mode=init_mode).x.reshape(-1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), backend
        return G

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("init_mode", ["stationary", "diffuse-proxy"])
    def test_matches_two_step_route(self, scheme, time_varying, init_mode):
        params, data = self.instance(SCHEMES[scheme], time_varying)
        self.assert_exact(params, SCHEMES[scheme], data, 4, init_mode)

    def test_each_data_object_gets_its_own_part(self):
        scheme = SCHEMES["average"]
        params, data = self.instance(scheme, False)
        other = data.replace_values(data.values * 1.5 + 0.25)
        assert other.pattern is data.pattern
        G = None
        for d in (data, other, data):
            G = self.assert_exact(params, scheme, d, 6, G=G)
            assert plan_for(params, scheme, d)._last[0] is d

    def test_warm_draw_forms_no_data_part(self, monkeypatch):
        params, data = self.instance(SCHEMES["average"], False)
        formed = []
        constants = baseline.balanced_constants

        def counted(params, data, proj=None):
            formed.append(data)
            return constants(params, data, proj)

        monkeypatch.setattr(baseline, "balanced_constants", counted)
        draw_latent(params, SCHEMES["average"], data, "adaptive", seed=1)
        consts = plan_for(params, SCHEMES["average"], data).balanced(data)
        assert formed == [data]
        del formed[:]
        for backend in BACKENDS:
            draw_latent(params, SCHEMES["average"], data, backend, seed=2)
        draw_many(params, SCHEMES["average"], data, "adaptive", 2, seed=2)
        assert formed == []
        assert plan_for(params, SCHEMES["average"], data).balanced(data) is consts

    def test_warm_draw_takes_the_data_part_arrays(self, monkeypatch):
        # every draw's period build takes the plan's right-hand side array,
        # not a copy
        scheme = SCHEMES["custom"]
        params, data = self.instance(scheme, True)
        built = []
        build = baseline.build_periods

        def recorded(*args, **kwargs):
            built.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(baseline, "build_periods", recorded)
        draw_latent(params, scheme, data, "adaptive", seed=1)
        plan = plan_for(params, scheme, data)
        consts = plan.balanced(data)
        for backend in BACKENDS:
            draw_latent(params, scheme, data, backend, seed=2)
        assert plan_for(params, scheme, data).balanced(data) is consts
        assert consts.shape == (plan.system.size,)
        assert len(built) == 4 and all(arr is consts for arr in built)

    def test_warm_draw_forms_no_edge_residuals(self, monkeypatch):
        # the edge system's data part is kept beside the balanced one: a warm
        # adaptive draw forms only its shocks' term, and its edge step
        # takes the plan's array
        scheme = SCHEMES["custom"]
        params, data = self.instance(scheme, True)
        formed, built = [], []
        rhs, edge_data = kalman.EdgeSystem.rhs, baseline.Plan.edge_data

        def counted(system, values):
            formed.append(values)
            return rhs(system, values)

        def recorded(plan, data):
            built.append((plan.edge(data.pattern), edge_data(plan, data)))
            return built[-1][1]

        monkeypatch.setattr(kalman.EdgeSystem, "rhs", counted)
        monkeypatch.setattr(baseline.Plan, "edge_data", recorded)
        draw_latent(params, scheme, data, "adaptive", seed=1)
        assert len(formed) == 1 and formed[0] is data.values
        plan = plan_for(params, scheme, data)
        part = plan.edge_data(data)
        del formed[:], built[:]
        for seed in (2, 3):
            draw_latent(params, scheme, data, "adaptive", seed=seed)
        draw_many(params, scheme, data, "adaptive", 2, seed=2)
        assert formed == []
        assert len(built) == 4 and all(edge[0] is plan.edge(data.pattern) and edge[1] is part for edge in built)
        assert plan_for(params, scheme, data).edge_data(data) is part
        assert part.shape == (plan.edge(data.pattern).n_z + plan.edge(data.pattern).n_a,)
        # another data object on the pattern gets its own part
        other = data.replace_values(data.values * 1.5 + 0.25)
        draw_latent(params, scheme, other, "adaptive", seed=2)
        assert len(formed) == 1 and formed[0] is other.values


class TestLayoutReuse:
    """A new plan on a pattern takes its predecessor's band layout
    (``kalman.BandLayout``) when p and the aggregation object are the same,
    as a Gibbs sampler's iterations do; otherwise it builds its own."""

    @staticmethod
    def successor(params, seed):
        """Another parameter set of the same shape: the lags scaled lag-wise
        (so still stable), new intercepts and noise factors."""
        rng = np.random.default_rng(seed)
        lag = params.lag_coeffs * 0.9 ** np.arange(1, params.p + 1)[:, None, None]
        chol = params.chol_cov * np.exp(0.1 * rng.standard_normal(params.n))[:, None]
        return VarParams(params.n_m, params.n_q, params.p, params.intercept + 0.1, lag, chol)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_reused_layout_builds_bitwise_a_fresh_plan(self, time_varying):
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(3))
        params = with_time_varying_cov(inst.params, 40, 3) if time_varying else inst.params
        scheme, data = inst.scheme, inst.data
        first = plan_for(params, scheme, data)
        params = self.successor(params, 4)
        plan = plan_for(params, scheme, data)
        assert plan is not first and plan.system.layout is first.system.layout
        fresh_data = MixedFreqData.from_values(data.values.copy(), data.n_m, data.n_q)
        fresh = plan_for(params, scheme, fresh_data)
        assert fresh.system.layout is not first.system.layout
        for name in ("_lu", "_piv", "P_filt"):
            assert_array_equal(getattr(plan.system, name), getattr(fresh.system, name))
        for backend in BACKENDS:
            assert_array_equal(draw_latent(params, scheme, data, backend, seed=5).x,
                               draw_latent(params, scheme, fresh_data, backend, seed=5).x)

    def test_other_p_or_weight_support_gets_its_own_layout(self):
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(3))
        data = inst.data
        # each after a plan on the instance's own p and scheme: a lower p on
        # the same scheme object, a custom scheme whose zero weight drops a
        # lag from the support, and one whose fourth weight adds one
        other_p = random_stable_params(5, 2, 3, np.random.default_rng(8))
        gap = AggregationScheme(np.array([0.5, 0.0, 0.5]))
        for params, scheme in ((other_p, inst.scheme), (inst.params, gap), (inst.params, SCHEMES["custom"])):
            prev = plan_for(self.successor(inst.params, 5), inst.scheme, data)
            plan = plan_for(params, scheme, data)
            assert plan.system.layout is not prev.system.layout
            fresh = kalman.BalancedSystem(params, plan.agg, data.pattern, plan.init)
            assert (plan.system.kl, plan.system.size) == (fresh.kl, fresh.size)
            TestDataPart.assert_exact(params, scheme, data, 6)

    def test_zero_weights_raise_after_a_plan(self):
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(5))
        plan = plan_for(inst.params, inst.scheme, inst.data)
        zero = AggregationScheme(np.zeros(1))
        first = int(np.flatnonzero(inst.data.pattern.quarterly_observed[:, 0])[0])
        with pytest.raises(SingularInnovationError, match=f"t={first}") as err:
            plan_for(inst.params, zero, inst.data)
        assert err.value.t == first
        assert inst.data.pattern._plan is plan

    def test_k_band_holds_every_window(self):
        # K's band storage (``BandLayout.kband``) reads every entry of every
        # period's window, all within kd = k - 1 of each other in K's order,
        # and z's diagonal from its place in the system's band storage, and
        # elsewhere position 0 or one that no entry is scattered to, which
        # hold zero, on this class's layouts and on a smaller one (n_q = 1),
        # where a position taken for a row past K's last would be an entry's
        inst = make_instance(5, 2, 4, 40, 36, np.random.default_rng(3))
        other_p = random_stable_params(5, 2, 3, np.random.default_rng(8))
        gap = AggregationScheme(np.array([0.5, 0.0, 0.5]))
        small = make_instance(3, 1, 3, 18, 16, np.random.default_rng(3))
        cases = ((inst.params, inst.scheme, inst.data), (other_p, inst.scheme, inst.data),
                 (inst.params, gap, inst.data), (inst.params, SCHEMES["custom"], inst.data),
                 (small.params, small.scheme, small.data))
        for params, scheme, data in cases:
            system = plan_for(params, scheme, data).system
            lay, kl = system.layout, system.kl
            nk, k = lay.kband.shape
            assert (nk, k) == ((params.p + 1 + data.pattern.t_balanced) * params.n_q, system.k)
            kwin = np.searchsorted(lay.kpos, lay.win)
            assert_array_equal(lay.kpos[kwin], lay.win)
            a, b = np.broadcast_arrays(kwin[:, :, None], kwin[:, None, :])
            assert np.abs(a - b).max() == k - 1
            a, b = a[a >= b], b[a >= b]
            want = np.zeros((nk, k), dtype=np.int64)
            want[b, a - b] = 3 * kl * lay.kpos[b] + lay.kpos[a] + 2 * kl
            z = np.searchsorted(lay.kpos, lay.z)
            want[z, 0] = (3 * kl + 1) * lay.z + 2 * kl
            entry = want != 0
            assert_array_equal(lay.kband[entry], want[entry])
            rest = lay.kband[~entry]
            assert not np.isin(rest[rest != 0], lay.flat).any()
