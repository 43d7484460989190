"""Brute-force references: a full stacked-state Kalman smoother that never
reduces the state, and direct joint-Gaussian conditioning of the whole
latent panel on the whole observation vector.  Test-only ground truth;
deliberately simple and slow.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .baseline import RunStats, SmoothResult, check_pattern, companion_periods, fill_observed, prepare
from .errors import OracleSizeError
from .kalman import (
    FilterState,
    filter_periods,
    init_state,
    quarterly_state_index,
    smooth_periods,
    stationary_companion_cov,
)
from .model import AggregationScheme, MixedFreqData, VarParams

__all__ = ["oracle_smooth", "oracle_joint", "JointResult"]

STATE_CAP = 60
JOINT_CAP = 200


def _quarterly_init(params: VarParams, init_mode: str, kappa: float) -> FilterState:
    """The reduced filters' initial quarterly stack, with the stationary
    moments read from the doubling reference (the quarterly block of
    ``stationary_companion_cov``) rather than from ``init_state``'s direct sum,
    so a fault there shows against the oracles."""
    if init_mode != "stationary":
        return init_state(params, init_mode, kappa)
    qi = quarterly_state_index(params)
    a = np.tile(params.unconditional_mean()[params.n_m :], params.p + 1)
    return FilterState(a, stationary_companion_cov(params)[np.ix_(qi, qi)])


def _companion_init(params: VarParams, init_mode: str, kappa: float) -> FilterState:
    """Stacked-state initial distribution matching the reduced filters:
    pre-sample monthly values are the constant zero, the quarterly stack
    carries the reduced initialization moments."""
    dim = params.n * (params.p + 1)
    a = np.zeros(dim)
    P = np.zeros((dim, dim))
    qinit = _quarterly_init(params, init_mode, kappa)
    qi = quarterly_state_index(params)
    a[qi] = qinit.a
    P[np.ix_(qi, qi)] = qinit.P
    return FilterState(a, P)


def oracle_smooth(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    cap: int = STATE_CAP,
) -> SmoothResult:
    """Full stacked-form filter and smoother over every period."""
    agg = prepare(params, scheme)
    check_pattern(params, data)
    dim = params.n * (params.p + 1)
    if dim > cap:
        raise OracleSizeError(f"stacked state dimension {dim} exceeds the oracle cap {cap}")
    periods = companion_periods(params, agg, data, 0)
    states, _ = smooth_periods(filter_periods(periods, _companion_init(params, init_mode, kappa)))
    x = np.empty((data.T, params.n))
    for t, a in enumerate(states):
        x[t] = a[: params.n]
    fill_observed(x, data)
    return SmoothResult(x, RunStats(companion_steps=data.T))


class JointResult:
    """Conditional moments of the stacked latent panel given all data."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray, T: int, n: int):
        self.mean_flat = mean
        self.cov = cov
        self.T = T
        self.n = n

    @property
    def mean(self) -> np.ndarray:
        return self.mean_flat.reshape(self.T, self.n)

    def var(self) -> np.ndarray:
        return np.diag(self.cov).reshape(self.T, self.n)


def oracle_joint(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    cap: int = JOINT_CAP,
) -> JointResult:
    """Exact conditioning of the latent panel on all observations.

    Every latent value is an affine function of (initial quarterly stack,
    all shocks), and so is every observation.  With those degrees of freedom
    written as ``mean_z + S u``, u standard normal and S = blkdiag(P0^(1/2),
    I), the observations are exact linear constraints ``W_y u = resid`` on
    u: its conditional mean is their least-norm solution and its covariance
    the projector onto the null space of ``W_y``, both read from one complete
    QR factorization of ``W_y'``.  Working in u keeps the large prior
    variance of a diffuse-proxy initial stack out of every product: the
    covariance form ``C_xy V_y^-1 resid`` loses about ``kappa`` times the
    working precision to cancellation.
    """
    agg = prepare(params, scheme)
    check_pattern(params, data)
    n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
    T = data.T
    if T * n > cap:
        raise OracleSizeError(f"T*n = {T * n} exceeds the joint-oracle cap {cap}")

    kq = n_q * (p + 1)
    D = kq + T * n  # latent degrees of freedom: initial stack + shocks
    # rows of A: times -(p+1)..-1 then 0..T-1, each a block of n variables
    A = np.zeros(((p + 1 + T) * n, D))
    b = np.zeros((p + 1 + T) * n)
    for lag in range(p + 1):
        # presample row p-lag holds time -1-lag; monthly entries stay zero
        for j in range(n_q):
            A[(p - lag) * n + n_m + j, lag * n_q + j] = 1.0
    coeff_row = params.coeff_row
    for t in range(T):
        row = (p + 1 + t) * n
        lag_rows = np.concatenate(
            [np.arange((p + 1 + t - lag) * n, (p + 2 + t - lag) * n) for lag in range(1, p + 1)]
        )
        A[row : row + n] = coeff_row @ A[lag_rows]
        b[row : row + n] = coeff_row @ b[lag_rows] + params.intercept
        A[row : row + n, kq + t * n : kq + (t + 1) * n] = params.chol(t)

    init = _quarterly_init(params, init_mode, kappa)
    mean_z = np.concatenate([init.a, np.zeros(T * n)])
    # a square root of P0 that a singular P0 leaves valid
    lam, V = np.linalg.eigh(init.P)
    S0 = V * np.sqrt(np.clip(lam, 0.0, None))

    # observation rows: selections of latents plus quarterly aggregates
    obs_rows = []
    y_obs = []
    weights = scheme.weights
    for t in range(T):
        for v in data.pattern.observed(t):
            obs_rows.append(A[(p + 1 + t) * n + v])
            y_obs.append(data.values[t, v] - b[(p + 1 + t) * n + v])
        for j in data.pattern.quarterly_rows(t):
            row = np.zeros(D)
            shift = 0.0
            for lag in range(agg.p_q):
                r = (p + 1 + t - lag) * n + n_m + j
                row = row + weights[lag] * A[r]
                shift += weights[lag] * b[r]
            obs_rows.append(row)
            y_obs.append(data.values[t, n_m + j] - shift)
    Ay = np.array(obs_rows)
    resid = np.array(y_obs) - Ay @ mean_z

    Ax = A[(p + 1) * n :]
    Wy, Wx = Ay.copy(), Ax.copy()
    Wy[:, :kq] = Ay[:, :kq] @ S0
    Wx[:, :kq] = Ax[:, :kq] @ S0
    m = len(resid)
    Q, R = np.linalg.qr(Wy.T, mode="complete")
    u = solve_triangular(R[:m], resid, trans="T")
    mean_x = Ax @ mean_z + b[(p + 1) * n :] + Wx @ (Q[:, :m] @ u)
    null = Wx @ Q[:, m:]
    return JointResult(mean_x, null @ null.T, T, n)
