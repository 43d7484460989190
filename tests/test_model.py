import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mfsmooth
from mfsmooth import (
    ConfigurationError,
    MixedFreqData,
    ObservationPattern,
    VarParams,
    build_aggregation,
    detect_pattern,
    draw_latent,
    intra_quarterly_average,
    skip_sampling,
)
from mfsmooth.baseline import plan_for
from mfsmooth.model import AggregationScheme
from mfsmooth.simulate import make_instance


def random_params(n_m, n_q, p, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    n = n_m + n_q
    lags = rng.normal(scale=scale / np.sqrt(n * p), size=(p, n, n))
    B = rng.normal(size=(n, n)) * 0.3
    chol = np.linalg.cholesky(B @ B.T + 0.5 * np.eye(n))
    return VarParams(n_m, n_q, p, rng.normal(size=n) * 0.1, lags, chol)


class TestVarParams:
    @pytest.mark.parametrize("n_m,n_q,p,message", [
        (-1, 3, 1, "n_m=-1, n_q=3"),     # n = 2 would fit the arrays below
        (3, -1, 1, "n_m=3, n_q=-1"),
        (1, 1, 0, "p=0"),
        (1, 1, -1, "p=-1"),
    ])
    def test_rejects_nonsense_dimensions(self, n_m, n_q, p, message):
        with pytest.raises(ConfigurationError, match=message):
            VarParams(n_m, n_q, p, np.zeros(2), np.zeros((max(p, 0), 2, 2)), np.eye(2))

    def test_rejects_mismatched_lag_shapes(self):
        with pytest.raises(ConfigurationError):
            VarParams(2, 1, 2, np.zeros(3), np.zeros((3, 3, 3)), np.eye(3))

    @pytest.mark.parametrize("size", [2, 4])
    def test_rejects_intercept_of_the_wrong_length(self, size):
        with pytest.raises(ConfigurationError, match=r"intercept shape \(%d,\) != \(3,\)" % size):
            VarParams(2, 1, 2, np.zeros(size), np.zeros((2, 3, 3)), np.eye(3))

    def test_rejects_non_lower_triangular_chol(self):
        W = np.eye(3)
        W[0, 2] = 0.5
        with pytest.raises(ConfigurationError):
            VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), W)

    def test_rejects_bad_factor_in_any_period(self):
        stack = np.tile(np.eye(3), (5, 1, 1))
        upper = stack.copy()
        upper[3, 0, 2] = 0.5
        with pytest.raises(ConfigurationError, match="lower-triangular"):
            VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), upper)
        singular = stack.copy()
        singular[4, 1, 1] = 0.0
        with pytest.raises(ConfigurationError, match="positive diagonals"):
            VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), singular)

    @pytest.mark.parametrize("period", [0, 3, 4])
    def test_upper_triangle_tolerance_in_any_period(self, period):
        # entries above the diagonal up to 1e-8 in magnitude pass as zero
        stack = np.tile(np.eye(3), (5, 1, 1))
        for value, ok in ((1e-9, True), (-1e-9, True), (1e-7, False), (-1e-7, False)):
            W = stack.copy()
            W[period, 1, 2] = value
            if ok:
                VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), W)
            else:
                with pytest.raises(ConfigurationError, match="lower-triangular"):
                    VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), W)

    def test_upper_triangle_checked_at_every_position(self):
        # every entry above the diagonal is read, in every period, and none
        # below it
        stack = np.tile(np.eye(4), (3, 1, 1))
        for t in range(3):
            for i in range(4):
                for j in range(4):
                    W = stack.copy()
                    W[t, i, j] += 1e-7
                    if j > i:
                        with pytest.raises(ConfigurationError, match="lower-triangular"):
                            VarParams(3, 1, 1, np.zeros(4), np.zeros((1, 4, 4)), W)
                    else:
                        VarParams(3, 1, 1, np.zeros(4), np.zeros((1, 4, 4)), W)

    def test_rejects_an_empty_stack(self):
        with pytest.raises(ConfigurationError, match="no factors"):
            VarParams(2, 1, 1, np.zeros(3), np.zeros((1, 3, 3)), np.zeros((0, 3, 3)))

    @pytest.mark.parametrize("field", ["intercept", "lag_coeffs", "chol_cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        arrays = {
            "intercept": np.zeros(3), "lag_coeffs": np.zeros((1, 3, 3)), "chol_cov": np.eye(3),
        }
        arrays[field].flat[0] = bad
        with pytest.raises(ConfigurationError, match=f"{field} has non-finite"):
            VarParams(2, 1, 1, **arrays)

    def test_arrays_are_read_only_copies(self):
        lags = np.full((1, 3, 3), 0.1)
        params = VarParams(2, 1, 1, np.zeros(3), lags, np.eye(3))
        lags[0] *= 0.5
        assert_allclose(params.lag_coeffs, 0.1)
        for arr in (params.intercept, params.lag_coeffs, params.chol_cov):
            with pytest.raises(ValueError):
                arr[0] *= 0.5

    def test_companion_shift_structure(self):
        params = random_params(3, 1, 3)
        F = params.companion_transition()
        assert F.shape == (16, 16)
        assert_allclose(F[4:, :12], np.eye(12))
        assert_allclose(F[4:, 12:], 0.0)

    def test_companion_reproduces_var_recursion(self):
        params = random_params(2, 1, 2, seed=3)
        n, p = 3, 2
        rng = np.random.default_rng(5)
        z = rng.normal(size=n * (p + 1))
        F = params.companion_transition()
        Fc = params.companion_intercept()
        path_direct = []
        lags = [z[l * n : (l + 1) * n] for l in range(p + 1)]
        z_comp = z.copy()
        for _ in range(20):
            x = params.intercept + sum(params.lag_coeffs[l] @ lags[l] for l in range(p))
            lags = [x] + lags[:-1]
            path_direct.append(x)
            z_comp = F @ z_comp + Fc
            assert_allclose(z_comp[:n], x, atol=1e-12)

    def test_unconditional_mean_fixed_point(self):
        params = random_params(2, 1, 2, seed=9)
        mu = params.unconditional_mean()
        assert_allclose(params.intercept + sum(P @ mu for P in params.lag_coeffs), mu)


class TestAggregation:
    def test_intra_quarterly_average_row(self):
        agg = build_aggregation(intra_quarterly_average(), 1, 3)
        assert_allclose(agg.lam_qq, np.full((1, 3), 1.0 / 3.0))

    def test_skip_sampling_is_identity(self):
        agg = build_aggregation(skip_sampling(), 2, 2)
        assert_allclose(agg.lam_qq, np.eye(2))

    def test_two_quarterly_expansion(self):
        agg = build_aggregation(intra_quarterly_average(), 2, 4)
        expected = np.zeros((2, 6))
        for i in range(2):
            expected[i, [i, i + 2, i + 4]] = 1.0 / 3.0
        assert_allclose(agg.lam_qq, expected)

    def test_aggregating_simulated_path(self):
        # quarterly observation = average of the three latest latent values
        agg = build_aggregation(intra_quarterly_average(), 2, 3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))  # rows t-2, t-1, t of (monthly, monthly, quarterly, quarterly)
        zq = x[::-1, 2:].reshape(-1)  # lag-major quarterly stack (x_q,t, x_q,t-1, x_q,t-2)
        assert_allclose(agg.lam_qq @ zq, x[:, 2:].mean(axis=0))

    def test_p_below_p_q_rejected(self):
        with pytest.raises(ConfigurationError):
            build_aggregation(intra_quarterly_average(), 1, 2)

    def test_bad_custom_weights(self):
        with pytest.raises(ConfigurationError, match="at least one weight"):
            AggregationScheme(np.array([]))

    def test_p_q_is_the_weight_count(self):
        assert AggregationScheme([0.5, 0.3, 0.2]).p_q == 3
        assert (intra_quarterly_average().p_q, skip_sampling().p_q) == (3, 1)
        with pytest.raises(TypeError):
            AggregationScheme(np.ones(2), 2)

    def test_weights_are_read_only(self):
        scheme = intra_quarterly_average()
        with pytest.raises(ValueError):
            scheme.weights[0] = 1.0
        assert_array_equal(scheme.weights, np.full(3, 1.0 / 3.0))

    def test_caller_edit_changes_neither_scheme_nor_cached_plan(self):
        """The scheme keeps a private copy of the caller's weights, so an
        edit of that array after a draw leaves the scheme and the plan
        prepared from it (``baseline.plan_for``) on the same weights."""
        weights = np.array([0.5, 0.3, 0.2])
        scheme = AggregationScheme(weights)
        inst = make_instance(4, 1, 3, 30, 27, np.random.default_rng(1), scheme=scheme)
        first = draw_latent(inst.params, scheme, inst.data, seed=3).x
        weights[:] = [1.0, 0.0, 0.0]
        assert_array_equal(scheme.weights, [0.5, 0.3, 0.2])
        assert_array_equal(draw_latent(inst.params, scheme, inst.data, seed=3).x, first)
        fresh = MixedFreqData.from_values(inst.data.values, 4, 1)
        assert_array_equal(draw_latent(inst.params, AggregationScheme([0.5, 0.3, 0.2]), fresh, seed=3).x, first)

    @pytest.mark.parametrize("entry", ["plan_for", "run_baseline", "run_blocked", "run_adaptive", "draw_latent",
                                       "draw_many", "gen_pseudo", "oracle_smooth", "oracle_joint"])
    def test_entry_points_take_no_expanded_aggregation(self, entry):
        inst = make_instance(3, 1, 3, 18, 16, np.random.default_rng(0))
        agg = build_aggregation(inst.scheme, 1, 3)
        args = {"draw_many": ("adaptive", 1), "gen_pseudo": (np.random.default_rng(0),)}.get(entry, ())
        fn = plan_for if entry == "plan_for" else getattr(mfsmooth, entry)
        with pytest.raises(AttributeError):
            fn(inst.params, agg, inst.data, *args)

    @pytest.mark.parametrize("weights", [0.5, [[0.5, 0.5]], np.ones((2, 2)) / 4, np.ones((1, 3, 1)) / 3])
    def test_weights_must_be_one_dimensional(self, weights):
        """Weights are one per lag: an array of any other rank is rejected,
        not flattened into lags."""
        with pytest.raises(ConfigurationError, match="need a 1-D array"):
            AggregationScheme(weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="aggregation weights have non-finite entries"):
            AggregationScheme(np.array([0.5, bad]))


class TestDetectPattern:
    def test_fully_observed(self):
        values = np.zeros((6, 3))
        pat = detect_pattern(values, 2, 1)
        assert pat.t_balanced == 6
        assert pat.balanced
        assert len(pat.unobserved(5)) == 0

    def test_growing_monotone_edge(self):
        values = np.zeros((8, 4))
        values[6, 2] = np.nan
        values[7, 1] = np.nan
        values[7, 2] = np.nan
        pat = detect_pattern(values, 3, 1)
        assert pat.t_balanced == 6
        assert list(pat.unobserved(6)) == [2]
        assert list(pat.unobserved(7)) == [1, 2]
        assert list(pat.observed(6)) == [0, 1]

    def test_non_monotone_accepted(self):
        # variable 1 is missing at t=2 and observed again from t=3; variable
        # 0 has an interior gap at t=4
        values = np.zeros((7, 3))
        values[2, 1] = np.nan
        values[4, 0] = np.nan
        values[5:, 2] = np.nan
        pat = detect_pattern(values, 3, 0)
        assert pat.t_balanced == 2
        assert [list(pat.unobserved(t)) for t in range(2, 7)] == [[1], [], [0], [2], [2]]
        assert list(pat.observed(3)) == [0, 1, 2]

    @pytest.mark.parametrize("n_m,n_q", [(-1, 3), (3, -1)])
    def test_negative_variable_counts_rejected(self, n_m, n_q):
        # they sum to the two columns, which negative slicing would split
        values = np.zeros((6, 2))
        for call in (detect_pattern, MixedFreqData.from_values):
            with pytest.raises(ConfigurationError, match=f"n_m={n_m}, n_q={n_q}"):
                call(values, n_m, n_q)

    def test_min_balanced_enforced(self):
        values = np.zeros((6, 3))
        values[2:, 1] = np.nan
        with pytest.raises(ConfigurationError):
            detect_pattern(values, 3, 0, min_balanced=4)

    @pytest.mark.parametrize("col", [1, 2])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_values_rejected(self, col, bad):
        values = np.zeros((6, 3))
        values[5, 0] = np.nan
        values[4, col] = bad
        with pytest.raises(ConfigurationError, match=f"t=4, column {col} is infinite"):
            detect_pattern(values, 2, 1)
        with pytest.raises(ConfigurationError, match="infinite"):
            MixedFreqData.from_values(values, 2, 1)

    def test_quarterly_gaps_allowed_anywhere(self):
        values = np.zeros((6, 3))
        values[:, 2] = np.nan
        values[2, 2] = 1.0
        pat = detect_pattern(values, 2, 1)
        assert pat.t_balanced == 6
        assert list(pat.quarterly_rows(2)) == [0]
        assert list(pat.quarterly_rows(3)) == []


class TestObservationPattern:
    def test_t_balanced_is_the_first_period_with_a_monthly_value_missing(self):
        obs = np.ones((30, 4), dtype=bool)
        obs[27:, 3] = False
        obs[29, 1] = False
        pattern = ObservationPattern(obs, np.zeros((30, 1), dtype=bool))
        assert (pattern.T, pattern.t_balanced, pattern.n_m, pattern.n_q) == (30, 27, 4, 1)
        assert not pattern.balanced
        full = ObservationPattern(np.ones((30, 4), dtype=bool), np.ones((30, 0), dtype=bool))
        assert (full.t_balanced, full.n_q, full.balanced) == (30, 0, True)

    @pytest.mark.parametrize("rows_q", [29, 31])
    def test_flag_row_counts_must_agree(self, rows_q):
        with pytest.raises(ConfigurationError, match="one row per period"):
            ObservationPattern(np.ones((30, 4), dtype=bool), np.ones((rows_q, 1), dtype=bool))

    def test_no_monthly_variable_rejected(self):
        """Data with no monthly variable (n_m = 0) is rejected wherever it is
        built: the pattern, pattern detection, the data object and a
        simulated instance."""
        values = np.random.default_rng(0).normal(size=(20, 2))
        want = "no monthly variable"
        with pytest.raises(ConfigurationError, match=want):
            ObservationPattern(np.ones((20, 0), dtype=bool), np.ones((20, 2), dtype=bool))
        with pytest.raises(ConfigurationError, match=want):
            detect_pattern(values, 0, 2)
        with pytest.raises(ConfigurationError, match=want):
            MixedFreqData.from_values(values, 0, 2)
        with pytest.raises(ConfigurationError, match=want):
            make_instance(0, 2, 3, 20, 20, np.random.default_rng(0), mask=np.ones((20, 2), dtype=bool))
        with pytest.raises(ConfigurationError, match="recipe needs 2 monthly variables, have 0"):
            make_instance(0, 2, 3, 20, 18, np.random.default_rng(0))

    def test_derived_values_cannot_be_passed(self):
        obs = np.ones((30, 4), dtype=bool)
        with pytest.raises(TypeError):
            ObservationPattern(30, 29, obs, np.ones((30, 1), dtype=bool))
        with pytest.raises(TypeError):
            ObservationPattern(obs, np.ones((30, 1), dtype=bool), t_balanced=29)


class TestMixedFreqData:
    def test_variable_counts_come_from_the_pattern(self):
        data = make_instance(4, 1, 3, 30, 27, np.random.default_rng(1)).data
        assert (data.n_m, data.n_q, data.n) == (4, 1, 5)
        with pytest.raises(TypeError):
            MixedFreqData(data.values, 4, 2, data.pattern)

    @pytest.mark.parametrize("where", ["values", "observed_monthly", "quarterly_observed"])
    def test_data_arrays_are_read_only(self, where):
        values = np.zeros((6, 3))
        values[5, 1] = np.nan
        data = MixedFreqData.from_values(values, 2, 1)
        arr = data.values if where == "values" else getattr(data.pattern, where)
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[0, 0] = np.nan if where == "values" else False
        assert_array_equal(arr, before)

    def test_data_values_are_a_private_copy(self):
        values = np.zeros((6, 3))
        data = MixedFreqData.from_values(values, 2, 1)
        values[0, 0] = 1.0
        assert data.values[0, 0] == 0.0
        replaced = data.replace_values(values)
        values[0, 0] = 2.0
        assert replaced.values[0, 0] == 1.0

    @pytest.mark.parametrize(
        "t, col, value, state",
        [(5, 0, np.nan, "observed"), (5, 0, np.inf, "observed"), (37, 3, 7.0, "missing")],
    )
    def test_values_must_agree_with_pattern(self, t, col, value, state):
        """A NaN or inf at an observed entry, or a value at an entry the
        pattern has missing (which the filters treat as latent), is rejected
        by the constructor and by ``replace_values``."""
        data = make_instance(4, 1, 3, 40, 37, np.random.default_rng(0)).data
        assert data.pattern.observed_monthly[5, 0] and not data.pattern.quarterly_observed[37, 0]
        values = data.values.copy()
        values[t, col] = value
        with pytest.raises(ConfigurationError, match=f"t={t}, column {col}: the pattern has it {state}"):
            MixedFreqData(values, data.pattern)
        with pytest.raises(ConfigurationError, match=f"t={t}, column {col}"):
            data.replace_values(values)

    def test_values_must_fit_pattern_shape(self):
        data = MixedFreqData.from_values(np.zeros((6, 3)), 2, 1)
        with pytest.raises(ConfigurationError, match="do not fit the pattern"):
            data.replace_values(np.zeros((5, 3)))
