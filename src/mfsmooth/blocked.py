"""Blocked smoother: the stacked-form recursions over the ragged edge are
computed through block subsetting and reuse of bracketed products instead
of dense full-dimension multiplications.  Results match the reference
backend numerically; only the arithmetic route differs.  ``blocked_edge``
is the edge step it passes to the shared ``baseline.smooth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .baseline import SmoothResult, smooth
from .kalman import FilterResult, factorize_innovation
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``baseline.smooth``
# calls them through baseline
from .baseline import companion_to_compact, fill_observed, fill_states, prepare  # noqa: F401
from .kalman import init_state, run_filter, run_smoother  # noqa: F401
from .systems import build_periods  # noqa: F401

__all__ = [
    "OpCounter",
    "blocked_F",
    "blocked_M",
    "blocked_K",
    "blocked_predict",
    "blocked_smooth_r",
    "blocked_edge",
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
    a_filt: np.ndarray
    P_pred: np.ndarray
    L: np.ndarray
    Finv_v: np.ndarray
    o_t: np.ndarray
    lamqq_obs: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]


def blocked_edge(
    params: VarParams,
    agg: Aggregation,
    data: MixedFreqData,
    reduced: FilterResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge step of the blocked backend: the stacked-form filter and
    smoother through block subsetting, from its own lift of the reduced
    run's last filtered state."""
    n, p = params.n, params.p
    npp = n * p
    dim = n * (p + 1)
    coeff_row = params.coeff_row
    F1 = params.companion_transition()
    qcols = agg.quarterly_state_cols(n, params.n_m)
    # only the first np rows and columns of the lifted state reach the
    # prediction; E is a 0/1 placement, so that block of E P E' holds P's
    # entries at E's rows and zeros elsewhere
    E, a_known, _ = reduced.final_transition
    a_filt = E @ reduced.a_filt[-1] + a_known
    rows, cols = np.nonzero(E[:npp])
    pf_top = np.zeros((npp, npp))
    pf_top[np.ix_(rows, rows)] = reduced.run.steps[-1].entry.P_filt[np.ix_(cols, cols)]
    records: list[BlockedRecord] = []
    for t in range(data.pattern.t_balanced, data.T):
        a, P = blocked_predict(a_filt, pf_top, coeff_row, params.sigma(t))
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
            cf = (factorize_innovation(F, t)[0], True)
            Finv_v = cho_solve(cf, v, check_finite=False)
            MFinv = cho_solve(cf, M.T, check_finite=False).T
            a_filt = a + M @ Finv_v
            pf_top = P[:npp, :npp] - MFinv[:npp] @ M[:npp].T
            pf_top = (pf_top + pf_top.T) / 2.0
            _, L = blocked_K(MFinv, coeff_row, F1, o_t, qcols, lamqq_obs)
        records.append(BlockedRecord(a_filt, P, L, Finv_v, o_t, lamqq_obs))

    # backward pass over the ragged edge; the last record's L meets r = 0
    r = np.zeros(dim)
    heads = np.empty((len(records), n))
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        heads[i] = (rec.a_filt + rec.P_pred @ (rec.L.T @ r))[:n]
        r = blocked_smooth_r(rec.L, r, rec.Finv_v, rec.o_t, qcols, rec.lamqq_obs)
    return heads, r


def run_blocked(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> SmoothResult:
    return smooth(params, agg, data, init_mode, kappa, blocked_edge)
