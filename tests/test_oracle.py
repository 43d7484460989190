import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfsmooth import (
    OracleSizeError,
    VarParams,
    intra_quarterly_average,
    oracle_joint,
    oracle_smooth,
)
from mfsmooth.model import MixedFreqData
from mfsmooth.simulate import make_instance


@pytest.fixture
def inst():
    rng = np.random.default_rng(23)
    return make_instance(3, 1, 3, 20, 17, rng)


class TestMutualAgreement:
    @pytest.mark.parametrize("tv_seed", [pytest.param(None, id="constant"),
                                         *(pytest.param(s, id=f"time-varying-{s}") for s in range(3))])
    def test_smooth_and_joint_oracles_agree(self, inst, tv_seed):
        # a time-varying chol_cov: the constant factor's rows scaled by
        # exp(0.3 z) per period, so every period has its own noise products
        case = inst if tv_seed is None else make_instance(3, 1, 3, 30, 27, np.random.default_rng(tv_seed))
        params = case.params
        if tv_seed is not None:
            scale = np.exp(0.3 * np.random.default_rng(tv_seed).standard_normal((30, params.n)))
            params = VarParams(3, 1, 3, params.intercept, params.lag_coeffs, scale[:, :, None] * params.chol_cov)
        sm = oracle_smooth(params, case.scheme, case.data)
        oj = oracle_joint(params, case.scheme, case.data)
        assert_allclose(sm.x_hat, oj.mean, rtol=1e-8, atol=1e-9)
        assert np.abs(sm.x_hat - oj.mean).max() <= 1e-12 * np.abs(oj.mean).max()

    def test_diffuse_proxy_agreement(self, inst):
        sm = oracle_smooth(inst.params, inst.scheme, inst.data, init_mode="diffuse-proxy")
        oj = oracle_joint(inst.params, inst.scheme, inst.data, init_mode="diffuse-proxy")
        assert_allclose(sm.x_hat, oj.mean, rtol=1e-6, atol=1e-6)


class TestCaps:
    def test_smooth_cap(self, inst):
        with pytest.raises(OracleSizeError):
            oracle_smooth(inst.params, inst.scheme, inst.data, cap=10)

    def test_joint_cap(self, inst):
        with pytest.raises(OracleSizeError):
            oracle_joint(inst.params, inst.scheme, inst.data, cap=50)


class TestClosedForm:
    def test_forecast_of_final_missing_value(self):
        # diagonal VAR: the monthly variable is a scalar AR(3); with only
        # its final value missing the conditional mean is the one-step
        # forecast and the conditional variance is the shock variance
        phi_m = np.array([0.5, 0.2, -0.1])
        phi_q = np.array([0.3, 0.0, 0.0])
        lags = np.zeros((3, 2, 2))
        lags[:, 0, 0] = phi_m
        lags[:, 1, 1] = phi_q
        c = np.array([0.4, 0.0])
        chol = np.diag([0.7, 1.0])
        params = VarParams(1, 1, 3, c, lags, chol)

        T = 12
        rng = np.random.default_rng(0)
        values = np.full((T, 2), np.nan)
        values[:, 0] = rng.normal(size=T)
        values[T - 1, 0] = np.nan
        data = MixedFreqData.from_values(values, 1, 1, min_balanced=4)

        oj = oracle_joint(params, intra_quarterly_average(), data)
        want = c[0] + phi_m @ values[T - 2 : T - 5 : -1, 0]
        assert_allclose(oj.mean[T - 1, 0], want, rtol=1e-10)
        assert_allclose(oj.var()[T - 1, 0], 0.7**2, rtol=1e-10)

        sm = oracle_smooth(params, intra_quarterly_average(), data)
        assert_allclose(sm.x_hat[T - 1, 0], want, rtol=1e-8)

    def test_observed_values_have_zero_conditional_variance(self, inst):
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        var = oj.var()
        assert np.min(var) > -1e-8
        obs = inst.data.pattern.observed_monthly
        assert np.max(np.abs(var[:, :3][obs])) < 1e-8
        assert_allclose(oj.mean[:, :3][obs], inst.data.values[:, :3][obs],
                        rtol=1e-9, atol=1e-9)

    def test_quarterly_aggregation_of_conditional_mean(self, inst):
        oj = oracle_joint(inst.params, inst.scheme, inst.data)
        pat = inst.data.pattern
        n_m = inst.params.n_m
        for t in range(inst.data.T):
            for j in pat.quarterly_rows(t):
                if t >= 2:
                    got = oj.mean[t - 2 : t + 1, n_m + j].mean()
                    assert_allclose(got, inst.data.values[t, n_m + j],
                                    rtol=1e-8, atol=1e-8)
