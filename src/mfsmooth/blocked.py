"""Blocked smoother: the stacked-form recursions over the ragged edge are
computed through block subsetting and reuse of bracketed products instead
of dense full-dimension multiplications.  Results match the reference
backend numerically; only the arithmetic route differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .baseline import (
    RunStats,
    SmoothResult,
    check_pattern,
    compact_to_companion,
    companion_to_compact,
    fill_observed,
    fill_states,
    prepare,
    smooth_balanced,
)
from .kalman import factorize_innovation, init_state, run_filter, run_smoother
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams
from .systems import build_periods

__all__ = [
    "OpCounter",
    "blocked_F",
    "blocked_M",
    "blocked_K",
    "blocked_predict",
    "blocked_smooth_r",
    "run_blocked",
]


@dataclass
class OpCounter:
    """Scalar-multiplication tally for the instrumented block products."""

    mults: int = 0

    def add(self, rows: int, inner: int, cols: int) -> None:
        self.mults += rows * inner * cols


def blocked_F(P: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray) -> np.ndarray:
    """Innovation covariance from P's monthly/quarterly blocks.

    The bracket P^{mq} Lam_qq' is computed once and transposed into place.
    """
    n_o = len(o_t)
    n_qo = lamqq_obs.shape[0]
    F = np.empty((n_o + n_qo, n_o + n_qo))
    F[:n_o, :n_o] = P[np.ix_(o_t, o_t)]
    bracket = P[np.ix_(o_t, qcols)] @ lamqq_obs.T
    F[:n_o, n_o:] = bracket
    F[n_o:, :n_o] = bracket.T
    F[n_o:, n_o:] = lamqq_obs @ P[np.ix_(qcols, qcols)] @ lamqq_obs.T
    return F


def blocked_M(P: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray) -> np.ndarray:
    """M = P Z' assembled from column subsets, never touching zero columns."""
    return np.concatenate([P[:, o_t], P[:, qcols] @ lamqq_obs.T], axis=1)


def blocked_K(
    MFinv: np.ndarray,
    coeff_row: np.ndarray,
    F1: np.ndarray,
    o_t: np.ndarray,
    qcols: np.ndarray,
    lamqq_obs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain K = (Pi [bracket]; [bracket]) and L = T - K Z.

    The bracket is the first np rows of M F^{-1}; L subtracts K's columns
    from the shift-structured transition only where Z is nonzero.
    """
    n, npp = coeff_row.shape
    B = MFinv[:npp]
    K = np.concatenate([coeff_row @ B, B], axis=0)
    L = F1.copy()
    n_o = len(o_t)
    L[:, o_t] -= K[:, :n_o]
    if lamqq_obs.shape[0]:
        L[:, qcols] -= K[:, n_o:] @ lamqq_obs
    return K, L


def blocked_predict(
    a_filt: np.ndarray,
    pf_top: np.ndarray,
    coeff_row: np.ndarray,
    sigma: np.ndarray,
    ops: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """State prediction from the top-left block of the filtered covariance.

    The product Pi P^{1:p,1:p} is formed once and placed in three blocks;
    the lower-right block is copied, not recomputed.  No constant term in
    this formulation; the caller adds the intercept.
    """
    n, npp = coeff_row.shape
    dim = npp + n
    bracket = coeff_row @ pf_top
    top_left = bracket @ coeff_row.T + sigma
    if ops is not None:
        ops.add(n, npp, npp)
        ops.add(n, npp, n)
    P_next = np.empty((dim, dim))
    P_next[:n, :n] = (top_left + top_left.T) / 2.0
    P_next[:n, n:] = bracket
    P_next[n:, :n] = bracket.T
    P_next[n:, n:] = pf_top
    a_next = np.concatenate([coeff_row @ a_filt[:npp], a_filt[:npp]])
    return a_next, P_next


def blocked_smooth_r(
    L: np.ndarray,
    r: np.ndarray,
    Finv_v: np.ndarray,
    o_t: np.ndarray,
    qcols: np.ndarray,
    lamqq_obs: np.ndarray,
) -> np.ndarray:
    """r update: L'r plus the observation term scattered onto its support."""
    out = L.T @ r
    n_o = len(o_t)
    out[o_t] += Finv_v[:n_o]
    if lamqq_obs.shape[0]:
        out[qcols] += lamqq_obs.T @ Finv_v[n_o:]
    return out


@dataclass
class BlockedRecord:
    t: int
    a_filt: np.ndarray
    P_pred: np.ndarray
    L: np.ndarray
    Finv_v: np.ndarray
    o_t: np.ndarray
    lamqq_obs: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]


def run_blocked(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    ops: OpCounter | None = None,
) -> SmoothResult:
    agg = prepare(params, agg)
    check_pattern(params, data)
    init = init_state(params, init_mode, kappa)
    if data.pattern.balanced:
        return smooth_balanced(params, agg, data, init)

    t_b = data.pattern.t_balanced
    T = data.T
    periods = build_periods(params, agg, data, stop=t_b)
    res = run_filter(periods, init, final_transition=compact_to_companion(params, data, t_b))

    n, p = params.n, params.p
    npp = n * p
    dim = n * (p + 1)
    coeff_row = params.coeff_row
    F1 = params.companion_transition()
    qcols = agg.quarterly_state_cols(n, params.n_m)
    # the lifted filtered state at t_b-1; only its first np rows and columns
    # reach the prediction
    a_filt = res.final_pred.a
    pf_top = res.final_pred.P[:npp, :npp]
    records: list[BlockedRecord] = []
    for t in range(t_b, T):
        a, P = blocked_predict(a_filt, pf_top, coeff_row, params.sigma(t), ops)
        a[:n] += params.intercept
        o_t = data.pattern.observed(t)
        q_rows = data.pattern.quarterly_rows(t)
        lamqq_obs = agg.lam_qq[q_rows]
        n_obs = len(o_t) + len(q_rows)
        if n_obs == 0:
            a_filt, Finv_v = a, np.zeros(0)
            pf_top = P[:npp, :npp]
            L = F1.copy()
        else:
            F = blocked_F(P, o_t, qcols, lamqq_obs)
            F = (F + F.T) / 2.0
            M = blocked_M(P, o_t, qcols, lamqq_obs)
            y = np.concatenate([data.values[t, o_t], data.values[t, params.n_m + q_rows]])
            v = y - np.concatenate([a[o_t], lamqq_obs @ a[qcols]])
            cf = (factorize_innovation(F, t), True)
            Finv_v = cho_solve(cf, v, check_finite=False)
            MFinv = cho_solve(cf, M.T, check_finite=False).T
            a_filt = a + M @ Finv_v
            pf_top = P[:npp, :npp] - MFinv[:npp] @ M[:npp].T
            pf_top = (pf_top + pf_top.T) / 2.0
            _, L = blocked_K(MFinv, coeff_row, F1, o_t, qcols, lamqq_obs)
        records.append(BlockedRecord(t, a_filt, P, L, Finv_v, o_t, lamqq_obs))

    # backward pass over the ragged edge; the last record's L meets r = 0
    r = np.zeros(dim)
    states2: list[np.ndarray] = [None] * len(records)  # type: ignore[list-item]
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        states2[i] = rec.a_filt + rec.P_pred @ (rec.L.T @ r)
        r = blocked_smooth_r(rec.L, r, rec.Finv_v, rec.o_t, qcols, rec.lamqq_obs)

    states1, _ = run_smoother(res.records, r_init=companion_to_compact(r, params))

    x = np.empty((T, params.n))
    fill_states(x, states1, periods, params.n_m)
    for rec, a_sm in zip(records, states2):
        x[rec.t] = a_sm[:n]
    fill_observed(x, data)
    stats = RunStats(compact_steps=len(periods), companion_steps=len(records))
    return SmoothResult(x, stats, res.records)
