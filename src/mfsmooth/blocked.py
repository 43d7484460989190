"""Blocked smoother: the stacked-form recursions over the ragged edge in
block form, never multiplying out the transition's shift structure,
never forming the stacked state's n(p+1)-square covariance and forming
only what the draw reads.

The edge's covariance side reads neither the data nor a draw's shocks,
only the parameters, the pattern and the balanced system's filtered
covariance at t_b-1 (Durbin and Koopman 2002), so it is one pass per plan
(``CovariancePass``, kept by ``Plan.blocked_pass``); a draw runs only the
mean pass (``blocked_edge``).  A cold draw builds the pass and then runs
the same mean pass as a warm one, so the two draw alike bit for bit.

The covariance pass enters from the compact boundary, whose covariance is
zero outside the quarterly positions, so the switch period is predicted
from the boundary's block at the quarterly lags.  From then on each
predicted covariance is kept as its head rows P[:n] and its lag block
P[n:, n:], which is the previous period's filtered top block as it is.
Z P's first np columns are formed row-wise from those two parts (the
rows of P at the columns Z reads), F is read from them and
U = C^-1 M[:np]' for M = P Z' and the lower Cholesky factor C of F comes
from one right-side triangular solve on their Fortran-ordered transpose
M[:np], with no transposing copy (``blocked_M``).  The next lag block is
one downdate by U.  The downdate forms the dense np x np block only when
a later period downdates it in turn; the period before the last keeps it
in downdate form (``Downdate``: this period's head rows, its lag block
and U).  The last period's smoothed row is its filtered mean's head, as
r = 0 there, so it reads P only through Z: F = Z P Z' and M[:n] = P[:n] Z'
from P's rows at the observed monthly positions and the quarterly ones
its aggregates weigh (``blocked_last``), formed from the downdate form as
Pi[R] pf = Pi[R] P_block - (Pi[R] U')U and the block's rows at the
quarterly lags, with no head rows and no rows of M below n (Durbin and
Koopman 2012, section 4.3).  At the switch P's lag block is the
boundary's sparse block, so only Pi's columns at the quarterly lags
enter.  Each period keeps C, U and, for the backward pass, its head rows;
the last two keep no head rows and only U's first n columns
(C^-1 M[:n]'), and the period before the last keeps instead two small
products with F1' on R = (0..n-1, n + S), the positions at which the
last period's predicted state is read, for S the lagged quarterly
positions its Z reads, less n: UF = (U Pi', U[:, S]) and
HF = (P[:n, :np] Pi', P[:n, S]).  M itself is not kept.

The mean pass solves C x = v for each innovation v and updates the
filtered mean's first k positions as a[:k] + U'x, which is a + M F^-1 v
there, then solves C' f = x for f = F^-1 v.  No gain is formed: the
backward pass needs only K'r = B' (F1'r)[:np] for K = (Pi B; B) and
B = M[:np] F^-1, which is C^-T (U (F1'r)[:np]), one triangular solve on a
vector (``blocked_K``), and forms L'r = F1'r - Z'(K'r) from the boundary's
adjoint step and Z's scatter, with no dense F1 or L.  The last two
periods read no np-wide array but Pi, once: the period before the last
takes its own predicted head and the lag part of the last period's from
one product of Pi with two columns, forms its filtered mean only at the
head and at S, and gives the last period's predicted state at R as
F1 a + UF'x there.  Going back, the last period's adjoint Z'f is zero
below the head but at n + S, so U (F1'r)[:np] = UF r[R], and the head's
P[:n] L'r = HF r[R] - U[:, :n]' UF r[R], as P[:n] Z' = U[:, :n]' C'.  F1'r
is formed in full only for an earlier period; on a two-period edge the
boundary's adjoint reads it at the head and the lagged quarterly
positions, from Pi's columns there.  Results match the reference
backend numerically; only the arithmetic route differs.  ``blocked_edge``
is the edge step it passes to the shared ``baseline.smooth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dtrtrs

from .baseline import Plan, SmoothResult, companion_mean, companion_to_compact, smooth
from .kalman import FilterState, factorize_innovation, quarterly_state_index
from .model import Aggregation, AggregationScheme, MixedFreqData, ObservationPattern, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``baseline.smooth``
# calls them through baseline
from .baseline import fill_observed, fill_states, prepare  # noqa: F401
from .kalman import init_state, run_filter, run_smoother  # noqa: F401
from .systems import build_periods  # noqa: F401

if TYPE_CHECKING:
    from .simsmooth import PseudoSample

__all__ = [
    "CovariancePass",
    "PassPeriod",
    "Downdate",
    "blocked_F",
    "blocked_M",
    "blocked_K",
    "predict_mean",
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
    """M[:np] for M = P Z', from the predicted covariance's head rows P[:n]
    and its lag block P[n:, n:] (with ``at`` as in ``_rows``), reading only
    the rows of P at the columns Z reads: the Fortran-ordered transpose of
    Z P's first np columns, which are formed row-wise, with no transposing
    copy."""
    npp = head.shape[1] - head.shape[0]
    rows = _rows(head, lag, qcols, at)
    return np.concatenate([head[o_t, :npp], lamqq_obs @ rows[:, :npp]]).T


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


def predict_mean(a_filt: np.ndarray, coeff_row: np.ndarray) -> np.ndarray:
    """The predicted stacked mean F1 a from the first np positions of the
    filtered mean: (Pi a[:np], a[:np]).  No constant term in this
    formulation; the caller adds the intercept."""
    npp = coeff_row.shape[1]
    return np.concatenate([coeff_row @ a_filt[:npp], a_filt[:npp]])


def blocked_predict(
    pf_top: np.ndarray,
    coeff_row: np.ndarray,
    sigma: np.ndarray,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """The head rows P[:n] of the predicted covariance, whose lag block
    P[n:, n:] is the filtered covariance's first np rows and columns
    ``pf_top`` itself.

    The product Pi pf_top is formed once and placed in the head's lag
    columns.  With ``at``, ``pf_top`` holds the entries at the positions
    ``at``, zero elsewhere, and only Pi's columns ``at`` enter.
    """
    n, npp = coeff_row.shape
    pi = coeff_row if at is None else coeff_row[:, at]
    bracket = pi @ pf_top
    top_left = bracket @ pi.T + sigma
    head = np.zeros((n, n + npp))
    head[:, :n] = (top_left + top_left.T) / 2.0
    head[:, np.s_[n:] if at is None else n + at] = bracket
    return head


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


@dataclass(frozen=True)
class PassPeriod:
    """One edge period of the covariance pass: the data columns it observes
    (``cols``: o_t, then the observed aggregates' columns), Z's parts, the
    lower Cholesky factor C of F (None with no observation) and
    U = C^-1 M[:k]', for k = np, or k = n at the last two periods, whose
    updates form only the filtered mean's head.  ``head`` is the predicted
    covariance's head rows P[:n], which the backward pass reads at every
    period but the last two (None there).

    The period before the last keeps ``UF`` and ``HF``: its full U and its
    head rows' first np columns times F1'[:np, R], for R the positions the
    last period's predicted state is read at (``CovariancePass.R``), that
    is (U Pi', U[:, S]) and (P[:n, :np] Pi', P[:n, S])."""

    cols: np.ndarray
    o_t: np.ndarray
    lamqq_obs: np.ndarray
    head: np.ndarray | None
    U: np.ndarray
    C: np.ndarray | None
    UF: np.ndarray | None = None
    HF: np.ndarray | None = None

    def innovation(self, y: np.ndarray, a_obs: np.ndarray, a_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x = C^-1 v and f = F^-1 v = C^-T x for the innovation v of the
        data row ``y``, from the predicted mean at o_t (``a_obs``) and at the
        quarterly columns (``a_q``); both empty with no observation."""
        if self.C is None:
            return np.zeros(0), np.zeros(0)
        v = y[self.cols] - np.concatenate([a_obs, self.lamqq_obs @ a_q])
        x, _ = dtrtrs(self.C, v, lower=1)
        f, _ = dtrtrs(self.C, x, lower=1, trans=1)
        return x, f


class CovariancePass:
    """The blocked edge's covariance side, which reads neither the data nor
    a draw's shocks: per edge period (``periods``) its predicted head rows,
    C and U (``PassPeriod``), from the balanced system's ``P_filt`` at
    t_b-1, as the module's docstring sets out.  ``cond`` is the worst
    squared diagonal ratio of the factors of F.

    It also keeps the index work of the mean pass: the quarterly columns
    Z reads (``qcols``, lag-major, lag 0 first), the stacked state's
    quarterly positions (``qi``) and those at lags 0..p-1 (``lagged``),
    with Pi's columns there (``pi_lagged``), and S, the positions below
    the head that the last period's Z reads, less n (``S``), so that
    R = (0..n-1, n + S) (``R``)."""

    def __init__(self, params: VarParams, agg: Aggregation, pattern: ObservationPattern, P_filt: np.ndarray):
        n, npp, coeff_row = params.n, params.n * params.p, params.coeff_row
        self.qcols = qcols = agg.quarterly_state_cols(n, params.n_m)
        self.qi = quarterly_state_index(params)
        self.lagged = at = self.qi[: params.n_q * params.p]
        self.pi_lagged = coeff_row[:, at]
        self.S = S = qcols[params.n_q:] - n
        self.R = np.concatenate([np.arange(n), n + S])
        lag = P_filt[: len(at), : len(at)]
        self.periods: list[PassPeriod] = []
        self.cond = 0.0
        self.factorizations = 0    # the factors of F, until ``pop_factorizations``
        for t in range(pattern.t_balanced, pattern.T):
            last, pen = t + 1 == pattern.T, t + 2 == pattern.T
            o_t, q_rows = pattern.observed(t), pattern.quarterly_rows(t)
            lamqq_obs = agg.lam_qq[q_rows]
            n_obs = len(o_t) + len(q_rows)
            head = None if last else blocked_predict(lag, coeff_row, params.sigma(t), at)
            U, cf = np.zeros((0, n if last else npp)), None
            if n_obs:
                if last:
                    M, F = blocked_last(lag, coeff_row, params.sigma(t), o_t, qcols, lamqq_obs, at)
                else:
                    M = blocked_M(head, lag, o_t, qcols, lamqq_obs, at)
                    F = blocked_F(M, o_t, qcols, lamqq_obs)
                # F's Fortran-ordered transpose: the factor reads one triangle
                cf, cond = factorize_innovation(F.T, t)
                self.cond = max(self.cond, cond)
                self.factorizations += 1
                # each M is Fortran-ordered, solved in place; the factor's
                # diagonal has no zero, so neither solve can fail
                if last:
                    U, _ = dtrtrs(cf, M.T, lower=1, overwrite_b=1)
                else:
                    U = dtrsm(1.0, cf, M, side=1, lower=1, trans_a=1, overwrite_b=1).T
            cols = np.concatenate([o_t, params.n_m + q_rows])
            if pen:
                UF = np.concatenate([U @ coeff_row.T, U[:, S]], axis=1)
                HF = np.concatenate([head[:, :npp] @ coeff_row.T, head[:, S]], axis=1)
                self.periods.append(PassPeriod(cols, o_t, lamqq_obs, None, U[:, :n].copy(), cf, UF, HF))
            else:
                self.periods.append(PassPeriod(cols, o_t, lamqq_obs, head, U, cf))
            # only the next period reads the filtered covariance; the last one
            # reads it only through Pi[R] pf and its quarterly rows, which the
            # downdate's parts give without the dense block
            if t + 2 < pattern.T:
                lag, at = blocked_downdate(head, U, lag, at), None
            elif pen:
                lag, at = Downdate(head, lag, at, U), None

    def pop_factorizations(self) -> int:
        """The factors of F on the first call, then 0."""
        k, self.factorizations = self.factorizations, 0
        return k


def blocked_edge(
    plan: Plan,
    data: MixedFreqData,
    boundary: FilterState,
    shocks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge step of the blocked backend: the mean pass of the stacked-form
    filter and smoother on the plan's covariance pass
    (``Plan.blocked_pass``), from ``boundary``'s mean, the balanced
    system's filtered quarterly state at t_b-1 (its covariance is the
    plan's ``P_filt``, which the covariance pass read); each period's
    intercept is less its row of ``shocks``, a draw's edge shocks, when
    given."""
    params = plan.params
    n, npp, n_q, t_b = params.n, params.n * params.p, params.n_q, data.pattern.t_balanced
    pi = params.coeff_row
    cov = plan.blocked_pass(data.pattern)
    qcols, S, periods = cov.qcols, cov.S, cov.periods
    m = len(periods)
    y = data.values[t_b:]
    intercept = params.intercept - (np.zeros((m, n)) if shocks is None else shocks)
    a_filt = companion_mean(params, data, boundary.a, cov.qi)
    heads = np.empty((m, n))
    Finv_v = []
    for i, per in enumerate(periods[:-2]):
        a = predict_mean(a_filt, pi)
        a[:n] += intercept[i]
        x, f = per.innovation(y[i], a[per.o_t], a[qcols])
        a_filt = a[:npp] + per.U.T @ x
        heads[i] = a_filt[:n]
        Finv_v.append(f)
    # the last period's predicted mean, read at its head and at n + S only
    b = a_filt[:npp]
    if m == 1:
        a_head, a_S = pi @ b + intercept[-1], b[S]
    else:
        # the period before the last reads Pi once, for its own prediction
        # and the lag part of the last one's, and forms its filtered mean
        # only at the head and at S; the last period's predicted head is
        # Pi times that filtered mean, A_1 a[:n] + lag part + (U Pi')'x
        pen = periods[-2]
        shifted = np.zeros((npp, 2))
        shifted[:, 0] = b
        shifted[n:, 1] = b[: npp - n]
        own, lag_part = (pi @ shifted).T
        a = np.concatenate([own + intercept[-2], b])
        x, f = pen.innovation(y[-2], a[pen.o_t], a[qcols])
        heads[-2] = a[:n] + pen.U.T @ x
        Finv_v.append(f)
        ux = pen.UF.T @ x
        a_head = pi[:, :n] @ a[:n] + lag_part + ux[:n] + intercept[-1]
        a_S = a[S] + ux[n:]
    last = periods[-1]
    x, f = last.innovation(y[-1], a_head[last.o_t], np.concatenate([a_head[qcols[:n_q]], a_S]))
    heads[-1] = a_head + last.U.T @ x
    Finv_v.append(f)

    # backward pass over the ragged edge, with L'r = F1'r - Z'(K'r); r = 0
    # at the last period, whose smoothed row is its filtered mean's head
    r = blocked_smooth_r(np.zeros(n + npp), Finv_v[-1], last.o_t, qcols, last.lamqq_obs)
    if m > 1:
        # r is zero below the head but at n + S, so F1'r's first np
        # positions are F1'[:np, R] r[R], which the kept UF and HF carry
        # into K'r = C^-T (U F1'r) and the head's P[:n] L'r, with
        # P[:n] Z' K'r = U[:, :n]' (U F1'r)
        rho = r[cov.R]
        u = pen.UF @ rho
        KTr = u if pen.C is None else dtrtrs(pen.C, u, lower=1, trans=1)[0]
        heads[-2] += pen.HF @ rho - pen.U.T @ u
        if m > 2:
            g = companion_to_compact(r, params)
        else:
            # F1'r only where the boundary's adjoint reads it: the head and
            # the lagged quarterly positions below np (it is zero from np on)
            g = np.zeros(n + npp)
            g[:n] = pi[:, :n].T @ r[:n] + r[n: 2 * n]
            low = cov.lagged[n_q:]
            g[low] = cov.pi_lagged[:, n_q:].T @ r[:n] + r[n + low]
        r = blocked_smooth_r(g, Finv_v[-2] - KTr, pen.o_t, qcols, pen.lamqq_obs)
    for i in range(m - 3, -1, -1):
        per = periods[i]
        g = companion_to_compact(r, params)
        Ltr = blocked_smooth_r(g, -blocked_K(per.C, per.U, g), per.o_t, qcols, per.lamqq_obs)
        heads[i] += per.head @ Ltr
        r = blocked_smooth_r(Ltr, Finv_v[i], per.o_t, qcols, per.lamqq_obs)
    # the adjoint F1'r at the quarterly positions only: Pi's lagged quarterly
    # columns times r[:n], plus r[n:] there; zero at lag p
    r_q = np.zeros(len(cov.qi))
    r_q[: len(cov.lagged)] = cov.pi_lagged.T @ r[:n] + r[n + cov.lagged]
    return heads, r_q, cov.cond


def run_blocked(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    return smooth(params, scheme, data, blocked_edge, init_mode, kappa, noise)
