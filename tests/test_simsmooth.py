import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import (
    ConfigurationError,
    VarParams,
    build_aggregation,
    draw_latent,
    draw_many,
    gen_pseudo,
    oracle_joint,
    run_adaptive,
)
from mfsmooth.kalman import init_state
from mfsmooth.simsmooth import _rng_for, simulate_path
from mfsmooth.simulate import make_instance


@pytest.fixture
def inst():
    rng = np.random.default_rng(11)
    return make_instance(3, 1, 3, 18, 16, rng)


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


class TestDraws:
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
