"""Model primitives: VAR parameters, aggregation schemes, observation patterns.

Conventions used throughout the package:

* variables are ordered monthly-first: columns ``0..n_m-1`` are monthly,
  ``n_m..n-1`` are quarterly;
* stacked state vectors are variable-major within each lag, lags ascending,
  i.e. ``(x_t', x_{t-1}', ...)'``;
* exogenous (observed monthly) regressor vectors are variable-major with the
  lags ``t-1..t-p`` ascending inside each variable block;
* time indices are 0-based internally; ``t_balanced`` counts the leading
  fully-observed monthly periods, so rows ``0..t_balanced-1`` are balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "VarParams",
    "AggregationScheme",
    "Aggregation",
    "ObservationPattern",
    "MixedFreqData",
    "build_aggregation",
    "detect_pattern",
    "intra_quarterly_average",
]


def check_dimensions(n_m: int, n_q: int, p: int = 1) -> None:
    """Reject a negative variable count or a lag order below 1."""
    if n_m < 0 or n_q < 0:
        raise ConfigurationError(f"variable counts must be >= 0, got n_m={n_m}, n_q={n_q}")
    if p < 1:
        raise ConfigurationError(f"lag order p must be >= 1, got p={p}")


@dataclass(frozen=True)
class VarParams:
    """Parameters of a monthly-frequency VAR(p) with mixed-frequency observation.

    Attributes
    ----------
    n_m, n_q : int
        Number of monthly and quarterly variables, each >= 0.
    p : int
        Lag order, >= 1.
    intercept : (n,) array
    lag_coeffs : (p, n, n) array
        One coefficient matrix per lag, lag 1 first.
    chol_cov : (n, n) or (T, n, n) array
        Lower-triangular Cholesky factor(s) of the error covariance.  A single
        matrix is replicated logically over time, never materialized per t.
    coeff_row : (n, n*p) array
        The lag coefficients stacked side by side, lag 1 first; derived.

    The arrays are private read-only copies: the prepared plan derived from
    them serves every draw, so they must not change after construction.
    """

    n_m: int
    n_q: int
    p: int
    intercept: np.ndarray
    lag_coeffs: np.ndarray
    chol_cov: np.ndarray
    coeff_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dimensions(self.n_m, self.n_q, self.p)
        n = self.n_m + self.n_q
        intercept = np.array(self.intercept, dtype=float)
        lag_coeffs = np.array(self.lag_coeffs, dtype=float)
        chol_cov = np.array(self.chol_cov, dtype=float)
        if intercept.size != n:
            raise ConfigurationError(f"intercept shape {intercept.shape} != {(n,)}")
        intercept = intercept.reshape(n)
        if lag_coeffs.shape != (self.p, n, n):
            raise ConfigurationError(
                f"lag_coeffs shape {lag_coeffs.shape} != {(self.p, n, n)}"
            )
        if chol_cov.ndim == 2:
            chol_cov = chol_cov[None, :, :]
        if chol_cov.shape[1:] != (n, n):
            raise ConfigurationError(f"chol_cov trailing dims must be {(n, n)}")
        if len(chol_cov) == 0:
            raise ConfigurationError("chol_cov has no factors")
        arrays = {"intercept": intercept, "lag_coeffs": lag_coeffs, "chol_cov": chol_cov}
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        coeff_row = lag_coeffs.transpose(1, 0, 2).reshape(n, n * self.p)
        coeff_row.setflags(write=False)
        object.__setattr__(self, "coeff_row", coeff_row)
        # the strict upper triangle, up to the 1e-8 that passes for zero: each
        # entry's largest magnitude over the periods, in two reductions along
        # the stack, then one (n, n) mask; no gather out of the stack
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        if np.maximum(chol_cov.max(axis=0), -chol_cov.min(axis=0))[upper].max(initial=0.0) > 1e-8:
            raise ConfigurationError("chol_cov factors must be lower-triangular")
        if np.any(np.diagonal(chol_cov, axis1=1, axis2=2) <= 0):
            raise ConfigurationError("chol_cov factors need strictly positive diagonals")

    @property
    def n(self) -> int:
        return self.n_m + self.n_q

    @property
    def time_varying_cov(self) -> bool:
        return self.chol_cov.shape[0] > 1

    def chol(self, t: int) -> np.ndarray:
        """Lower-triangular factor W_t (0-based t)."""
        if self.chol_cov.shape[0] == 1:
            return self.chol_cov[0]
        return self.chol_cov[t]

    def sigma(self, t: int) -> np.ndarray:
        W = self.chol(t)
        return W @ W.T

    def companion_transition(self, n_lags: int | None = None) -> np.ndarray:
        """Companion transition with ``n_lags`` lag groups (default p+1).

        Rows below the coefficient block carry the shift structure
        ``(I | 0)``.
        """
        n = self.n
        k = self.p + 1 if n_lags is None else n_lags
        if k < self.p:
            raise ConfigurationError("companion form needs at least p lag groups")
        F = np.zeros((n * k, n * k))
        F[:n, : n * self.p] = self.coeff_row
        idx = np.arange(n * (k - 1))
        F[n + idx, idx] = 1.0
        return F

    def companion_intercept(self) -> np.ndarray:
        out = np.zeros(self.n * (self.p + 1))
        out[: self.n] = self.intercept
        return out

    def companion_noise_cov(self, t: int) -> np.ndarray:
        """State-noise covariance, zero outside its upper-left n x n block."""
        dim = self.n * (self.p + 1)
        out = np.zeros((dim, dim))
        out[: self.n, : self.n] = self.sigma(t)
        return out

    def unconditional_mean(self) -> np.ndarray:
        A = np.eye(self.n) - self.lag_coeffs.sum(axis=0)
        return np.linalg.solve(A, self.intercept)


@dataclass(frozen=True)
class AggregationScheme:
    """How observed quarterly values aggregate the latent monthly series.

    ``weights`` has one entry per included high-frequency lag (lag 0 first),
    ``p_q`` of them; a private read-only copy, like ``VarParams``' arrays.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1:
            raise ConfigurationError(f"aggregation weights of shape {weights.shape}: need a 1-D array, one per lag")
        if len(weights) < 1:
            raise ConfigurationError("aggregation needs at least one weight")
        if not np.isfinite(weights).all():
            raise ConfigurationError("aggregation weights have non-finite entries")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def p_q(self) -> int:
        return len(self.weights)


def intra_quarterly_average() -> AggregationScheme:
    return AggregationScheme(np.full(3, 1.0 / 3.0))


def skip_sampling() -> AggregationScheme:
    """Quarterly value equals the quarter-end monthly latent value."""
    return AggregationScheme(np.ones(1))


@dataclass(frozen=True)
class Aggregation:
    """Expanded aggregation matrix of a scheme for n_q quarterly variables."""

    scheme: AggregationScheme
    n_q: int
    lam_qq: np.ndarray    # n_q x n_q*p_q, weights on the quarterly lags 0..p_q-1

    @property
    def p_q(self) -> int:
        return self.scheme.p_q

    def quarterly_state_cols(self, n_state_group: int, offset: int) -> np.ndarray:
        """Columns of the nonzero quarterly entries inside a stacked state.

        The state is assumed to consist of lag groups of size
        ``n_state_group`` whose quarterly variables sit at
        ``offset..offset+n_q-1`` within each group; returns the columns of
        lags ``0..p_q-1`` in lag-major order, matching ``lam_qq``'s columns.
        """
        lags = np.repeat(np.arange(self.p_q), self.n_q)
        vars_ = np.tile(np.arange(self.n_q), self.p_q)
        return lags * n_state_group + offset + vars_


def build_aggregation(scheme: AggregationScheme, n_q: int, p: int) -> Aggregation:
    """Expand an aggregation scheme to its ``lam_qq`` matrix."""
    if p < scheme.p_q:
        raise ConfigurationError(
            f"lag order p={p} must be >= aggregation lag count p_q={scheme.p_q}"
        )
    lam_qq = np.zeros((n_q, scheme.p_q, n_q))
    lam_qq[np.arange(n_q), :, np.arange(n_q)] = scheme.weights
    return Aggregation(scheme, n_q, lam_qq.reshape(n_q, n_q * scheme.p_q))


@dataclass(frozen=True)
class ObservationPattern:
    """Per-period monthly observation sets and quarterly observation flags.

    The (T, n_m) and (T, n_q) flag arrays are private read-only copies, and
    ``T`` and ``t_balanced`` (T_b: the first period with a monthly value
    missing, else T) derive from them.  ``_plan`` holds the prepared plan
    last built for this pattern (``baseline.plan_for``), which every data
    object sharing the pattern reuses.
    """

    observed_monthly: np.ndarray
    quarterly_observed: np.ndarray
    t_balanced: int = field(init=False)
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        obs_m = np.array(self.observed_monthly, dtype=bool)
        obs_q = np.array(self.quarterly_observed, dtype=bool)
        if obs_m.ndim != 2 or obs_q.ndim != 2 or len(obs_m) != len(obs_q):
            raise ConfigurationError(f"flag arrays of shapes {obs_m.shape}, {obs_q.shape}: need one row per period")
        if obs_m.shape[1] == 0:
            raise ConfigurationError("no monthly variable: the sampler needs n_m >= 1")
        for name, arr in (("observed_monthly", obs_m), ("quarterly_observed", obs_q)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        full = obs_m.all(axis=1)
        object.__setattr__(self, "t_balanced", len(full) if full.all() else int(np.argmin(full)))

    @property
    def T(self) -> int:
        return len(self.observed_monthly)

    @property
    def n_m(self) -> int:
        return self.observed_monthly.shape[1]

    @property
    def n_q(self) -> int:
        return self.quarterly_observed.shape[1]

    def observed(self, t: int) -> np.ndarray:
        """O_t: indices of monthly variables observed at 0-based period t."""
        return self.observed_monthly[t].nonzero()[0]

    def unobserved(self, t: int) -> np.ndarray:
        """U_t: indices of monthly variables unobserved at 0-based period t."""
        return np.flatnonzero(~self.observed_monthly[t])

    def quarterly_rows(self, t: int) -> np.ndarray:
        return self.quarterly_observed[t].nonzero()[0]

    @property
    def balanced(self) -> bool:
        return self.t_balanced == self.T


@dataclass(frozen=True)
class MixedFreqData:
    """Dense observation matrix with NaN missing markers plus its pattern.

    ``values`` is a private read-only copy: the pattern was derived from it.
    Its NaNs must be exactly the pattern's missing entries, and every other
    value finite: the filters treat the pattern's missing entries as latent
    and read only the observed ones.
    """

    values: np.ndarray  # (T, n) float, NaN where missing
    pattern: ObservationPattern

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        observed = np.hstack([self.pattern.observed_monthly, self.pattern.quarterly_observed])
        if values.shape != observed.shape:
            raise ConfigurationError(f"values of shape {values.shape} do not fit the pattern")
        bad = (np.isnan(values) == observed) | np.isinf(values)
        if bad.any():
            t, j = np.argwhere(bad)[0]
            state, need = ("observed", "finite") if observed[t, j] else ("missing", "NaN")
            raise ConfigurationError(
                f"data value {values[t, j]} at t={t}, column {j}: the pattern has it {state}, "
                f"so it must be {need}"
            )

    @classmethod
    def from_values(cls, values: np.ndarray, n_m: int, n_q: int, min_balanced: int = 1) -> "MixedFreqData":
        values = np.asarray(values, dtype=float)
        return cls(values, detect_pattern(values, n_m, n_q, min_balanced=min_balanced))

    @property
    def n_m(self) -> int:
        return self.pattern.n_m

    @property
    def n_q(self) -> int:
        return self.pattern.n_q

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.n_m + self.n_q

    def replace_values(self, values: np.ndarray) -> "MixedFreqData":
        """Same pattern, new values: a data object that shares the pattern,
        and with it the plan prepared on it (``baseline.plan_for``).

        The new matrix must be missing exactly where the original is.
        """
        return MixedFreqData(values, self.pattern)


def detect_pattern(values: np.ndarray, n_m: int, n_q: int, min_balanced: int = 1) -> ObservationPattern:
    """Derive the observation pattern of a data matrix.

    NaN marks a missing value; infinite values and negative counts are
    rejected.  At least ``min_balanced`` leading periods must be fully observed
    in the monthly block (``ObservationPattern.t_balanced``); after them any
    pattern is accepted: a monthly value may be missing and observed again.
    """
    check_dimensions(n_m, n_q)
    values = np.asarray(values, dtype=float)
    _, n = values.shape
    if n != n_m + n_q:
        raise ConfigurationError(f"data has {n} columns, expected {n_m + n_q}")
    if np.isinf(values).any():
        t, j = np.argwhere(np.isinf(values))[0]
        raise ConfigurationError(
            f"data value at t={t}, column {j} is infinite; NaN marks missing values"
        )
    observed = ~np.isnan(values)
    pattern = ObservationPattern(observed[:, :n_m], observed[:, n_m:])
    if pattern.t_balanced < min_balanced:
        raise ConfigurationError(
            f"only {pattern.t_balanced} leading fully observed monthly periods, "
            f"need at least {min_balanced}"
        )
    return pattern
