"""Blocked smoother: the stacked-form recursions over the ragged edge in
block form, never multiplying out the transition's shift structure,
never forming the stacked state's n(p+1)-square covariance and forming
only what the draw reads.

The edge enters from the balanced system's compact boundary, whose
covariance is zero outside the quarterly positions, so the switch period
is predicted from the boundary's block at the quarterly lags.  From then on
each predicted covariance is kept as its head rows P[:n] and its lag block
P[n:, n:], which is the previous period's filtered top block as it is.
M = P Z' is gathered from those two parts and F read from its rows; the
next lag block is one downdate by U = C^-1 M[:np]' for the lower Cholesky
factor C of F.  The downdate forms the dense np x np block only when a
later period downdates it in turn; the period before the last keeps it in
downdate form (``Downdate``: this period's head rows, its lag block and U).
No gain is formed: the backward pass needs only K'r = B' (F1'r)[:np] for
K = (Pi B; B) and B = M[:np] F^-1, which is C^-T (U (F1'r)[:np]), one
triangular solve on a vector (``blocked_K``), so the forward pass solves
with C^-T on v alone.  The last period's smoothed row is its filtered
mean's head, as r = 0 there, so it reads P only through Z: F = Z P Z' and
M[:n] = P[:n] Z' from P's rows at the observed monthly positions and the
quarterly ones its aggregates weigh (``blocked_last``), formed from the
downdate form as Pi[R] pf = Pi[R] P_block - (Pi[R] U')U and the block's
rows at the quarterly lags, with no head rows, no rows of M below n and
no U (Durbin and Koopman 2012, section 4.3).  At the switch P's lag block
is the boundary's sparse block, so only Pi's columns at the quarterly lags
enter.  The backward pass forms L'r = F1'r - Z'(K'r) (Durbin and Koopman
2002) from the boundary's adjoint step and Z's scatter, with no dense F1
or L.  Results match the reference backend numerically; only the
arithmetic route differs.  ``blocked_edge`` is the edge step it passes to
the shared ``baseline.smooth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .baseline import Plan, SmoothResult, companion_mean, companion_to_compact, smooth
from .errors import SingularInnovationError
from .kalman import FilterState, factorize_innovation, quarterly_state_index
from .model import AggregationScheme, MixedFreqData, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``baseline.smooth``
# calls them through baseline
from .baseline import fill_observed, fill_states, prepare  # noqa: F401
from .kalman import init_state, run_filter, run_smoother  # noqa: F401
from .systems import build_periods  # noqa: F401

if TYPE_CHECKING:
    from .simsmooth import PseudoSample

__all__ = [
    "Downdate",
    "blocked_F",
    "blocked_M",
    "blocked_K",
    "blocked_predict",
    "blocked_last",
    "blocked_downdate",
    "blocked_smooth_r",
    "blocked_edge",
    "run_blocked",
]


def blocked_F(M: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray) -> np.ndarray:
    """Innovation covariance F = Z M from the rows of M = P Z' that Z reads."""
    return np.concatenate([M[o_t], lamqq_obs @ M[qcols]], axis=0)


def _rows(head: np.ndarray, lag: np.ndarray, idx: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Rows ``idx`` (ascending) of the predicted covariance P from its head
    rows P[:n] and its lag block P[n:, n:]: P's row j < n is the head's row
    j, and below the head its row j is the head's column j followed by the
    lag block's row j - n.  With ``at``, ``lag`` holds the lag block's
    entries at the positions ``at``, zero elsewhere, and the rows read below
    the head lie in ``at``."""
    n, dim = head.shape
    k0 = np.searchsorted(idx, n)
    hi = idx[k0:] - n
    rows = np.empty((len(idx), dim))
    rows[:k0] = head[idx[:k0]]
    rows[k0:, :n] = head[:, idx[k0:]].T
    if at is None:
        rows[k0:, n:] = lag[hi]
    else:
        rows[k0:, n:] = 0.0
        rows[k0:, n + at] = lag[np.searchsorted(at, hi)]
    return rows


@dataclass(frozen=True)
class Downdate:
    """A lag block in downdate form: the first np rows and columns of the
    filtered covariance P - M F^-1 M', P's block less U'U, kept as its parts
    (P's head rows, its lag block ``lag`` with ``at`` as in ``_rows``, and
    U = C^-1 M[:np]') instead of the np x np array ``blocked_downdate``
    forms.  The last period reads its lag block only through Pi[R] pf, for
    the rows R of Pi that Z reads, and the block's rows at the quarterly
    lags (``blocked_last``), which the parts give at a small share of the
    dense block's cost."""

    head: np.ndarray
    lag: np.ndarray
    at: np.ndarray | None
    U: np.ndarray

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows ``idx`` (ascending) of the block: P's rows less U[:, idx]'U."""
        npp = self.U.shape[1]
        return _rows(self.head, self.lag, idx, self.at)[:, :npp] - self.U[:, idx].T @ self.U

    def times(self, pi: np.ndarray) -> np.ndarray:
        """Pi pf = Pi P_block - (Pi U')U: Pi's first n columns meet P's head
        rows, the others its rows below the head, read as the head's columns
        and the lag block (with ``at``, only Pi's columns ``at`` enter)."""
        n, npp = self.head.shape[0], self.U.shape[1]
        out = pi[:, :n] @ self.head[:, :npp]
        out[:, :n] += pi[:, n:] @ self.head[:, n:npp].T
        if self.at is None:
            out[:, n:] += pi[:, n:] @ self.lag[: npp - n, : npp - n]
        else:
            cols = n + self.at[: np.searchsorted(self.at, npp - n)]
            out[:, cols] += pi[:, cols] @ self.lag[: len(cols), : len(cols)]
        out -= (pi @ self.U.T) @ self.U
        return out


def blocked_M(head: np.ndarray, lag: np.ndarray, o_t: np.ndarray, qcols: np.ndarray, lamqq_obs: np.ndarray,
              at: np.ndarray | None = None) -> np.ndarray:
    """M = P Z' from the predicted covariance's head rows P[:n] and its lag
    block P[n:, n:] (with ``at`` as in ``_rows``), reading only the rows of
    P at the columns Z reads."""
    rows = _rows(head, lag, qcols, at)
    return np.concatenate([head[o_t].T, rows.T @ lamqq_obs.T], axis=1)


def blocked_K(C: np.ndarray | None, U: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gain's adjoint product K'r, with no gain formed: for K = F1 M F^-1
    = (Pi B; B), B the first np rows of M F^-1, and g = F1'r
    (``companion_to_compact``), K'r = B' g[:np] = C^-T (U g[:np]), for
    U = C^-1 M[:np]' and the lower Cholesky factor C of F.  A period with no
    observations has no factor and an empty product."""
    if len(U) == 0:
        return np.zeros(0)
    # C solved the forward pass, so its diagonal has no zero
    x, _ = dtrtrs(C, U @ g[: U.shape[1]], lower=1, trans=1)
    return x


def blocked_predict(
    a_filt: np.ndarray,
    pf_top: np.ndarray,
    coeff_row: np.ndarray,
    sigma: np.ndarray,
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """State prediction from the first np positions of the filtered state:
    the mean and the head rows P[:n] of the predicted covariance, whose lag
    block P[n:, n:] is ``pf_top`` itself.

    The product Pi pf_top is formed once and placed in the head's lag
    columns.  With ``at``, ``pf_top`` holds the entries at the positions
    ``at``, zero elsewhere, and only Pi's columns ``at`` enter.
    No constant term in this formulation; the caller adds the intercept.
    """
    n, npp = coeff_row.shape
    pi = coeff_row if at is None else coeff_row[:, at]
    bracket = pi @ pf_top
    top_left = bracket @ pi.T + sigma
    head = np.zeros((n, n + npp))
    head[:, :n] = (top_left + top_left.T) / 2.0
    head[:, np.s_[n:] if at is None else n + at] = bracket
    return np.concatenate([coeff_row @ a_filt[:npp], a_filt[:npp]]), head


def blocked_last(
    pf_top: np.ndarray | Downdate,
    coeff_row: np.ndarray,
    sigma: np.ndarray,
    o_t: np.ndarray,
    qcols: np.ndarray,
    lamqq_obs: np.ndarray,
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """M[:n] = P[:n] Z' and F = Z P Z' of the last period, from its
    predicted covariance P's rows at the positions Z reads and no others:
    the observed monthly ones and the quarterly columns ``lamqq_obs``
    weighs, those at lag 0 in P's head, the others n + hi below it.

    P's rows R < n are (Pi[R] pf Pi' + Sigma[R], Pi[R] pf) and its rows
    n + hi are (pf[hi] Pi', pf[hi]), for pf = ``pf_top``, P's lag block;
    both are read only at P's columns :n and n + hi.  A ``Downdate`` forms
    Pi[R] pf (``Downdate.times``) and pf[hi] (``Downdate.rows``) from its
    parts; with ``at`` as in ``blocked_predict``, only Pi's columns ``at``
    enter, and hi lies in ``at``.
    """
    n = coeff_row.shape[0]
    read = lamqq_obs.any(axis=0)
    qc, lam = qcols[read], lamqq_obs[:, read]
    k0 = np.searchsorted(qc, n)
    rows, hi = np.concatenate([o_t, qc[:k0]]), qc[k0:] - n
    pi = coeff_row if at is None else coeff_row[:, at]
    pos = hi if at is None else np.searchsorted(at, hi)
    if isinstance(pf_top, Downdate):
        bracket, low = pf_top.times(pi[rows]), pf_top.rows(hi)
    else:
        bracket, low = pi[rows] @ pf_top, pf_top[pos]
    block = np.concatenate([bracket, low])
    P_read = np.concatenate([block @ pi.T, block[:, pos]], axis=1)
    P_read[: len(rows), :n] += sigma[rows]
    # M's rows :n and n + hi, which Z reads at o_t and at qc's positions
    M = np.concatenate([P_read[: len(o_t)].T, P_read[len(o_t):].T @ lam.T], axis=1)
    return M[:n], blocked_F(M, o_t, np.concatenate([qc[:k0], n + np.arange(len(hi))]), lam)


def blocked_downdate(head: np.ndarray, U: np.ndarray, lag: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """The next lag block: the first np rows and columns of the filtered
    covariance P - M F^-1 M', formed into one new array as P's block less
    U'U, for U = C^-1 M[:np]' and the lower Cholesky factor C of F.  P's
    block is read from its head rows and its lag block ``lag`` (with
    ``at``, the lag block's entries at the positions ``at``, zero
    elsewhere).  The result is exactly symmetric, with no symmetrizing
    pass.  The edge forms it only for a period that downdates it in turn;
    the last period's block stays in downdate form (``Downdate``)."""
    n, npp = head.shape[0], U.shape[1]
    # numpy forms A'A as one symmetric rank-k update (syrk) with its mirror
    pf = U.T @ U
    np.subtract(head[:, :npp], pf[:n], out=pf[:n])
    np.subtract(head[:, n:npp].T, pf[n:, :n], out=pf[n:, :n])
    low = pf[n:, n:]
    if at is None:
        np.subtract(lag[: npp - n, : npp - n], low, out=low)
    else:
        np.negative(low, out=low)
        k = np.searchsorted(at, npp - n)
        low[at[:k, None], at[:k]] += lag[:k, :k]
    return pf


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
    """What the backward pass reads of one edge period but the last: the
    heads of the filtered mean and of the predicted covariance's rows,
    U = C^-1 M[:np]' and the lower Cholesky factor C of F, from which
    ``blocked_K`` forms the gain's adjoint product, and F^-1 v."""

    a_head: np.ndarray
    P_head: np.ndarray
    U: np.ndarray
    C: np.ndarray | None
    Finv_v: np.ndarray
    o_t: np.ndarray
    lamqq_obs: np.ndarray


def blocked_edge(
    plan: Plan,
    data: MixedFreqData,
    boundary: FilterState,
    shocks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge step of the blocked backend: the stacked-form filter and
    smoother through block subsetting, from ``boundary``, the balanced
    system's filtered quarterly state at t_b-1; each period's intercept is
    less its row of ``shocks``, a draw's edge shocks, when given.

    The stacked state at t_b-1 holds the known monthly values with zero
    variance and the boundary at the quarterly positions, so the switch
    period is predicted from the boundary's block at the quarterly lags
    inside the first np positions.  No n(p+1)-square matrix and no gain is
    formed: each period but the last keeps its predicted covariance's head
    rows and lag block and forms the next lag block as one downdate
    (``blocked_downdate``), or in downdate form (``Downdate``) before the
    last period, which forms P only at the rows Z reads (``blocked_last``);
    the backward pass reads K'r from U and C (``blocked_K``).
    """
    params, agg = plan.params, plan.agg
    n, p = params.n, params.p
    npp = n * p
    dim = n * (p + 1)
    coeff_row = params.coeff_row
    qcols = agg.quarterly_state_cols(n, params.n_m)
    t_b = data.pattern.t_balanced
    intercept = params.intercept - (np.zeros((data.T - t_b, n)) if shocks is None else shocks)
    # the switch's lag block is the boundary's block at the quarterly lags
    # inside the first np positions, ``at``; from the first downdate on it
    # is a whole np x np array
    at = quarterly_state_index(params)[: params.n_q * p]
    a_filt = companion_mean(params, data, boundary.a)
    lag = boundary.P[: len(at), : len(at)]
    records: list[BlockedRecord] = []
    worst_cond = 0.0
    for t in range(t_b, data.T):
        last = t + 1 == data.T
        o_t = data.pattern.observed(t)
        q_rows = data.pattern.quarterly_rows(t)
        lamqq_obs = agg.lam_qq[q_rows]
        n_obs = len(o_t) + len(q_rows)
        if not last:
            a, head = blocked_predict(a_filt, lag, coeff_row, params.sigma(t), at)
            if n_obs:
                M = blocked_M(head, lag, o_t, qcols, lamqq_obs, at)
                F = blocked_F(M, o_t, qcols, lamqq_obs)
        else:
            a = np.concatenate([coeff_row @ a_filt[:npp], a_filt[:npp]])
            if n_obs:
                M, F = blocked_last(lag, coeff_row, params.sigma(t), o_t, qcols, lamqq_obs, at)
        a[:n] += intercept[t - t_b]
        if n_obs == 0:
            a_filt, Finv_v, U, cf = a, np.zeros(0), np.zeros((0, npp)), None
        else:
            y = np.concatenate([data.values[t, o_t], data.values[t, params.n_m + q_rows]])
            # C^-1 v and, for a period the backward pass reads, U = C^-1 M'
            # over the rows the update reads; then F^-1 v
            rhs = np.empty((n_obs, 1 if last else 1 + npp), order="F")
            rhs[:, 0] = y - np.concatenate([a[o_t], lamqq_obs @ a[qcols]])
            if not last:
                rhs[:, 1:] = M[:npp].T
            # F's Fortran-ordered transpose: the factor reads one triangle
            cf, cond = factorize_innovation(F.T, t)
            worst_cond = max(worst_cond, cond)
            half, info = dtrtrs(cf, rhs, lower=1, overwrite_b=1)
            if info != 0:
                raise SingularInnovationError(t)
            Finv_v, info = dtrtrs(cf, half[:, 0], lower=1, trans=1)
            if info != 0:
                raise SingularInnovationError(t)
            U = half[:, 1:]
            a_filt = a + M @ Finv_v if not last else a[:n] + M @ Finv_v
        if last:
            break
        # only the next period reads the filtered covariance; the last one
        # reads it only through Pi[R] pf and its quarterly rows, which the
        # downdate's parts give without the dense block
        if t + 2 < data.T:
            lag, at = blocked_downdate(head, U, lag, at), None
        else:
            lag, at = Downdate(head, lag, at, U), None
        records.append(BlockedRecord(a_filt[:n], head, U, cf, Finv_v, o_t, lamqq_obs))

    # backward pass over the ragged edge, with L'r = F1'r - Z'(K'r); r = 0
    # at the last period, whose smoothed row is its filtered mean's head
    heads = np.empty((len(records) + 1, n))
    heads[-1] = a_filt[:n]
    r = blocked_smooth_r(np.zeros(dim), Finv_v, o_t, qcols, lamqq_obs)
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        g = companion_to_compact(r, params)
        Ltr = blocked_smooth_r(g, -blocked_K(rec.C, rec.U, g), rec.o_t, qcols, rec.lamqq_obs)
        heads[i] = rec.a_head + rec.P_head @ Ltr
        r = blocked_smooth_r(Ltr, rec.Finv_v, rec.o_t, qcols, rec.lamqq_obs)
    return heads, companion_to_compact(r, params)[quarterly_state_index(params)], worst_cond


def run_blocked(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    return smooth(params, scheme, data, blocked_edge, init_mode, kappa, noise)
