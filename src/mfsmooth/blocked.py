"""Blocked smoother: the stacked-form recursions over the ragged edge in
block form, never multiplying out the transition's shift structure.  The
prediction places one coefficient-block product, the gain is K = (Pi B; B)
for the first np rows B of M F^-1, F is read from the rows of M = P Z', and
the backward pass forms L'r = F1'r - Z'(K'r) (Durbin and Koopman 2002) from
the boundary's adjoint step and Z's scatter, with no dense F1 or L.  Results
match the reference backend numerically; only the arithmetic route differs.
``blocked_edge`` is the edge step it passes to the shared ``baseline.smooth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dpotrs

from .baseline import SmoothResult, companion_to_compact, smooth
from .errors import SingularInnovationError
from .kalman import FilterState, factorize_innovation
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``baseline.smooth``
# calls them through baseline
from .baseline import fill_observed, fill_states, prepare  # noqa: F401
from .kalman import init_state, run_filter, run_smoother  # noqa: F401
from .systems import build_periods  # noqa: F401

if TYPE_CHECKING:
    from .simsmooth import PseudoSample

__all__ = [
    "blocked_F",
    "blocked_M",
    "blocked_K",
    "blocked_predict",
    "blocked_smooth_r",
    "blocked_edge",
    "run_blocked",
]


def blocked_F(M: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray) -> np.ndarray:
    """Innovation covariance F = Z M from the rows of M = P Z' that Z reads."""
    return np.concatenate([M[o_t], lamqq_obs @ M[qcols]], axis=0)


def blocked_M(P: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray) -> np.ndarray:
    """M = P Z' assembled from column subsets, never touching zero columns."""
    return np.concatenate([P[:, o_t], P[:, qcols] @ lamqq_obs.T], axis=1)


def blocked_K(MFinv: np.ndarray, coeff_row: np.ndarray) -> np.ndarray:
    """Gain K = F1 M F^-1 = (Pi B; B), where B is the first np rows of
    M F^-1: the transition's shift rows copy B instead of multiplying it."""
    B = MFinv[: coeff_row.shape[1]]
    return np.concatenate([coeff_row @ B, B], axis=0)


def blocked_predict(
    a_filt: np.ndarray,
    pf_top: np.ndarray,
    coeff_row: np.ndarray,
    sigma: np.ndarray,
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
    P_next = np.empty((dim, dim))
    P_next[:n, :n] = (top_left + top_left.T) / 2.0
    P_next[:n, n:] = bracket
    P_next[n:, :n] = bracket.T
    P_next[n:, n:] = pf_top
    a_next = np.concatenate([coeff_row @ a_filt[:npp], a_filt[:npp]])
    return a_next, P_next


def blocked_smooth_r(
    g: np.ndarray,
    x: np.ndarray,
    o_t: np.ndarray,
    qcols: np.ndarray,
    lamqq_obs: np.ndarray,
) -> np.ndarray:
    """g + Z'x: ``x`` scattered onto the support of Z's columns."""
    out = g.copy()
    n_o = len(o_t)
    out[o_t] += x[:n_o]
    out[qcols] += lamqq_obs.T @ x[n_o:]
    return out


@dataclass
class BlockedRecord:
    """What the backward pass reads of one edge period: the heads of the
    filtered mean and of the predicted covariance's rows, the gain and
    F^-1 v."""

    a_head: np.ndarray
    P_head: np.ndarray
    K: np.ndarray
    Finv_v: np.ndarray
    o_t: np.ndarray
    lamqq_obs: np.ndarray


def blocked_edge(
    params: VarParams,
    agg: Aggregation,
    data: MixedFreqData,
    start: FilterState,
    shocks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge step of the blocked backend: the stacked-form filter and
    smoother through block subsetting, from the stacked state ``start`` at
    t_b-1, of whose covariance only the first np rows and columns reach the
    prediction; each period's intercept is less its row of ``shocks``, a
    draw's edge shocks, when given."""
    n, p = params.n, params.p
    npp = n * p
    dim = n * (p + 1)
    coeff_row = params.coeff_row
    qcols = agg.quarterly_state_cols(n, params.n_m)
    a_filt, pf_top = start.a, start.P[:npp, :npp]
    t_b = data.pattern.t_balanced
    intercept = params.intercept - (np.zeros((data.T - t_b, n)) if shocks is None else shocks)
    records: list[BlockedRecord] = []
    worst_cond = 0.0
    for t in range(t_b, data.T):
        a, P = blocked_predict(a_filt, pf_top, coeff_row, params.sigma(t))
        a[:n] += intercept[t - t_b]
        o_t = data.pattern.observed(t)
        q_rows = data.pattern.quarterly_rows(t)
        lamqq_obs = agg.lam_qq[q_rows]
        n_obs = len(o_t) + len(q_rows)
        if n_obs == 0:
            a_filt, Finv_v = a, np.zeros(0)
            pf_top = P[:npp, :npp]
            K = np.zeros((dim, 0))
        else:
            M = blocked_M(P, o_t, qcols, lamqq_obs)
            F = blocked_F(M, o_t, qcols, lamqq_obs)
            y = np.concatenate([data.values[t, o_t], data.values[t, params.n_m + q_rows]])
            # one solve for F^-1 v and F^-1 M' over the rows the update reads
            rhs = np.empty((n_obs, 1 + npp), order="F")
            rhs[:, 0] = y - np.concatenate([a[o_t], lamqq_obs @ a[qcols]])
            rhs[:, 1:] = M[:npp].T
            cf, cond = factorize_innovation(np.asfortranarray((F + F.T) / 2.0), t)
            worst_cond = max(worst_cond, cond)
            sol, info = dpotrs(cf, rhs, lower=1, overwrite_b=1)
            if info != 0:
                raise SingularInnovationError(t)
            Finv_v, MFinv_top = sol[:, 0], sol[:, 1:].T
            a_filt = a + M @ Finv_v
            if t + 1 < data.T:
                # only the next prediction reads the filtered covariance
                pf_top = P[:npp, :npp] - MFinv_top @ M[:npp].T
                pf_top = (pf_top + pf_top.T) / 2.0
            K = blocked_K(MFinv_top, coeff_row)
        records.append(BlockedRecord(a_filt[:n], P[:n].copy(), K, Finv_v, o_t, lamqq_obs))

    # backward pass over the ragged edge, with L'r = F1'r - Z'(K'r); the
    # last record's gain meets r = 0
    r = np.zeros(dim)
    heads = np.empty((len(records), n))
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        Ltr = blocked_smooth_r(companion_to_compact(r, params), -(rec.K.T @ r), rec.o_t, qcols, rec.lamqq_obs)
        heads[i] = rec.a_head + rec.P_head @ Ltr
        r = blocked_smooth_r(Ltr, rec.Finv_v, rec.o_t, qcols, rec.lamqq_obs)
    return heads, r, worst_cond


def run_blocked(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    return smooth(params, agg, data, init_mode, kappa, blocked_edge, noise)
