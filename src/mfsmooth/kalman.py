"""Kalman filtering and fixed-interval smoothing with correlated noises.

The state and observation disturbances share the same underlying shock
vector, so the recursions carry the cross term ``H_t G_t'`` through the
gain, the innovation covariance and the smoother.  Transitions may be
non-square (the state dimension can change between periods).

The per-period convention: the transition ``(T_t, d_t, H_t)`` maps the
t-1 state onto the t state.  One filter step at t therefore uses period
t's observation matrices together with period t+1's transition for the
gain ``K_t`` and ``L_{t+1}``.  The last period of a run without a closing
transition has ``K = 0``, ``L = I``, which meet the adjoint ``r = 0``; its
record leaves them unset and the smoother skips both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InitializationError, SingularInnovationError
from .model import VarParams
from .systems import PeriodSystem

__all__ = [
    "FilterState",
    "FilterRecord",
    "FilterResult",
    "factorize_innovation",
    "filter_step",
    "run_filter",
    "run_smoother",
    "smooth_step",
    "solve_discrete_lyapunov",
    "stationary_companion_cov",
    "stationary_quarterly_cov",
    "init_state",
]

# condition-number estimate above which the innovation covariance is
# treated as numerically singular
COND_LIMIT = 1e12

# squarings allowed to the Lyapunov doubling iteration: 2**40 periods of
# accumulated covariance, so a spectral radius up to about 1 - 1e-10 converges
LYAPUNOV_MAX_SQUARINGS = 40

# stationary_quarterly_cov: generic rows carried beside the quarterly rows, the
# terms summed between two convergence checks, and its cost model in
# multiply-adds of a dense BLAS product, in which a row step, a matrix-vector
# shape, runs at about a third of that rate and one numpy call costs about
# 1e5 (both measured with one OpenBLAS thread on a 2-vCPU Xeon)
N_PROBES = 2
CHECK_EVERY = 16
ROW_STEP_RATIO = 3.0
CALL_COST = 1e5


@dataclass
class FilterState:
    a: np.ndarray
    P: np.ndarray


@dataclass
class FilterRecord:
    """Everything one period contributes to the backward smoothing pass.

    ``K`` and ``L`` are set when the next transition closes the record; the
    last record of a run without a closing transition keeps them unset.
    """

    t: int
    a_pred: np.ndarray
    P_pred: np.ndarray
    a_filt: np.ndarray
    P_filt: np.ndarray
    v: np.ndarray
    Finv_v: np.ndarray
    M: np.ndarray
    MFinv: np.ndarray
    Z: np.ndarray
    HGt: np.ndarray
    K: np.ndarray = field(default=None)  # type: ignore[assignment]
    L: np.ndarray = field(default=None)  # type: ignore[assignment]


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def factorize_innovation(F: np.ndarray, t: int) -> np.ndarray:
    """Lower Cholesky factor of the innovation covariance ``F`` at period t.

    Raises ``SingularInnovationError`` when ``F`` is not positive definite or
    the squared ratio of the factor's largest to smallest diagonal entry
    exceeds ``COND_LIMIT``.  A Fortran-ordered ``F`` is overwritten.
    """
    cf, info = dpotrf(F, lower=1, overwrite_a=1)
    diag = cf.diagonal()
    if info != 0 or (diag.max() / diag.min()) ** 2 > COND_LIMIT:
        raise SingularInnovationError(t)
    return cf


def filter_step(
    state: FilterState,
    sys_t: PeriodSystem,
) -> tuple[FilterState, FilterRecord]:
    """One measurement update at period t; K/L are filled in afterwards.

    ``state`` is the one-step-ahead predicted state at t.
    """
    m, nz = sys_t.mats, sys_t.noise
    a, P = state.a, state.P
    Z = m.Z
    HGt = nz.GHt.T
    if m.n_obs == 0:
        v = Finv_v = np.zeros(0)
        M = MFinv = np.zeros((a.shape[0], 0))
        a_filt, P_filt = a, P
    else:
        v = sys_t.y - Z @ a - sys_t.c
        # the covariance-side quantities depend only on (m, nz, P); the
        # prediction covariance sequence is data-independent and converges to
        # a cycle, so for small states the factorizations are memoized on the
        # period's noise part, keyed by P's bytes.  Hits reproduce the uncached
        # arithmetic bit for bit because the cached arrays came from identical
        # inputs: a noise part belongs to one set of structural matrices.
        key = P.tobytes() if P.nbytes <= 16384 else None
        hit = nz._cov_cache.get(key)
        if hit is not None:
            cf, M, MFinv, P_filt = hit
            Finv_v = dpotrs(cf, v.reshape(-1, 1), lower=1)[0][:, 0]
        else:
            M = P @ Z.T + HGt
            # direct LAPACK calls with Fortran-ordered operands: this step runs
            # once per period and wrapper or copy overhead is measurable at T=500
            cf = factorize_innovation(np.asfortranarray(Z @ M + nz.F_const), sys_t.t)
            rhs = np.empty((v.shape[0], 1 + a.shape[0]), order="F")
            rhs[:, 0] = v
            rhs[:, 1:] = M.T
            sol, info = dpotrs(cf, rhs, lower=1, overwrite_b=1)
            if info != 0:
                raise SingularInnovationError(sys_t.t)
            Finv_v = sol[:, 0]
            MFinv = sol[:, 1:].T
            P_filt = _sym(P - MFinv @ M.T)
            if key is not None and len(nz._cov_cache) < 512:
                nz._cov_cache[key] = (cf, M, MFinv, P_filt)
        a_filt = a + M @ Finv_v
    rec = FilterRecord(sys_t.t, a, P, a_filt, P_filt, v, Finv_v, M, MFinv, Z, HGt)
    return FilterState(a_filt, P_filt), rec


# (T, d, HHt); HHt may be the scalar 0 for a noise-free transition
Transition = tuple[np.ndarray, np.ndarray, np.ndarray | float]


def _predict(state: FilterState, Tm: np.ndarray, d: np.ndarray, HHt: np.ndarray | float) -> FilterState:
    a = Tm @ state.a + d
    P = _sym(Tm @ state.P @ Tm.T + HHt)
    return FilterState(a, P)


def _close_record(rec: FilterRecord, Tm: np.ndarray) -> None:
    rec.K = Tm @ rec.MFinv
    rec.L = Tm - rec.K @ rec.Z


@dataclass
class FilterResult:
    records: list[FilterRecord]
    final_transition: Transition | None = None

    @cached_property
    def final_pred(self) -> FilterState | None:
        """The last filtered state mapped through ``final_transition``; formed
        on first use, so a caller that reads the last record itself never
        pays for it."""
        if self.final_transition is None:
            return None
        last = self.records[-1]
        return _predict(FilterState(last.a_filt, last.P_filt), *self.final_transition)


def run_filter(
    periods: list[PeriodSystem],
    init: FilterState,
    final_transition: Transition | None = None,
) -> FilterResult:
    """Filter a run of periods.

    ``init`` is the state distribution before the first period; each period
    first predicts through its own transition, then updates.  If
    ``final_transition`` is given, the last record's gain uses it and the
    state it maps onto is the result's ``final_pred`` (the transition may
    change the state space, as the ragged-edge backends' lift into the
    stacked state does); otherwise the last record is left open: its ``K = 0``
    and ``L = I`` are never formed, and ``run_smoother`` starts from it with
    ``r = 0``.
    """
    records: list[FilterRecord] = []
    state = init
    prev: FilterRecord | None = None
    for per in periods:
        Tm = per.mats.T
        if prev is not None:
            _close_record(prev, Tm)
        state = _predict(state, Tm, per.d, per.noise.HHt)
        state, rec = filter_step(state, per)
        records.append(rec)
        prev = rec
    if prev is None or final_transition is None:
        return FilterResult(records)
    _close_record(prev, final_transition[0])
    return FilterResult(records, final_transition)


def smooth_step(rec: FilterRecord, r: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mean at rec.t and the propagated adjoint r_{t-1}.

    ``r`` lives in the t+1 state space; the smoothing projection is applied
    as two matrix-vector products so it is never materialized.  ``r = None``
    stands for ``r = 0``, after the last period of a run: then the smoothed
    mean is the filtered one and the gain is not read.
    """
    if r is None:
        return rec.a_filt, rec.Z.T @ rec.Finv_v
    Ltr = rec.L.T @ r
    a_sm = rec.a_filt + rec.P_pred @ Ltr - rec.HGt @ (rec.K.T @ r)
    r_prev = Ltr + rec.Z.T @ rec.Finv_v
    return a_sm, r_prev


def run_smoother(
    records: list[FilterRecord],
    r_init: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backward pass; returns smoothed state means and the final adjoint r_0.

    ``r_init`` is the adjoint after the last record, which a run closed by a
    final transition needs; without one the pass starts from ``r = 0``.
    """
    r = r_init
    out: list[np.ndarray] = [None] * len(records)  # type: ignore[list-item]
    for i in range(len(records) - 1, -1, -1):
        a_sm, r = smooth_step(records[i], r)
        out[i] = a_sm
    return out, r


def solve_discrete_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve ``X = A X A' + Q`` by squared-Smith doubling.

    After k steps ``X`` sums ``A^i Q A^i'`` over the first ``2^k`` periods;
    the iteration stops once the increment no longer changes ``X`` at working
    precision.  Convergence certifies that ``A`` is stable: a non-finite
    increment, or no convergence within ``LYAPUNOV_MAX_SQUARINGS`` squarings,
    raises ``InitializationError`` naming the spectral radius.
    """
    X = np.array(Q, dtype=float)
    Ak = A
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(LYAPUNOV_MAX_SQUARINGS):
            inc = Ak @ X @ Ak.T
            if not np.isfinite(inc).all():
                break
            X += inc
            if np.abs(inc).max() <= eps * np.abs(X).max():
                return X
            Ak = Ak @ Ak
    radius = np.abs(np.linalg.eigvals(A)).max()
    raise InitializationError(
        f"VAR companion is not stable (spectral radius {radius:.12g}): its "
        f"covariance does not converge within 2**{LYAPUNOV_MAX_SQUARINGS} periods; "
        "stationary initialization is unavailable, use diffuse-proxy"
    )


def stationary_companion_cov(params: VarParams) -> np.ndarray:
    """Unconditional covariance of the stacked state (p+1 lag groups).

    Solves the discrete Lyapunov equation of the companion form by doubling
    (``solve_discrete_lyapunov``), whose convergence is the stability check:
    raises ``InitializationError`` if the VAR is not stable.  Time-varying
    error covariances use the first period's factor.  Not cached: the solve
    is cubic in n(p+1).  This is the reference for the quarterly block that
    ``stationary_quarterly_cov`` sums directly, and its fallback when that
    sum does not settle within its term budget.
    """
    F = params.companion_transition()
    return _sym(solve_discrete_lyapunov(F, params.companion_noise_cov(0)))


def _probe_windows(n: int, p: int) -> np.ndarray:
    """Fixed start windows of the probe rows.  They are generic (no entry is
    zero, no two rows are proportional), so short of an exact cancellation
    their recursion carries every mode of the VAR."""
    k = np.arange(N_PROBES * p * n).reshape(N_PROBES, p, n)
    return np.cos(1.0 + 0.7548776662466927 * k)


def _term_budget(n: int, n_q: int, p: int) -> int:
    """Terms the row sum of ``stationary_quarterly_cov`` may take.

    The doubling covers 2**s terms in s squarings of 3 d**3 multiply-adds
    (d = n(p+1)); one term of the row sum is a (n_q + N_PROBES) x np x n row
    step.  The budget is the largest K whose terms cost no more than the
    log2(K) + 1 squarings that would cover them, so a sum that misses it and
    hands over to the doubling costs at most about twice the doubling alone.
    """
    squaring = 3.0 * (n * (p + 1)) ** 3 + 6 * CALL_COST
    term = ROW_STEP_RATIO * (n_q + N_PROBES) * n * n * p + CALL_COST * (1 + 5 / CHECK_EVERY)
    K = squaring / term
    for _ in range(4):
        K = squaring / term * (np.log2(max(K, 1.0)) + 1)
    return int(K)


def stationary_quarterly_cov(params: VarParams) -> np.ndarray:
    """Quarterly block of ``stationary_companion_cov``, summed directly.

    The block holds the quarterly autocovariances
    ``Gamma(h) = sum_k Psi_{k+h}[q,:] Sigma Psi_k[q,:]'``, h = 0..p, over
    the MA(infinity) coefficients of the VAR (Luetkepohl 2005, ch. 2).  Their
    quarterly rows ``psi_k`` follow ``psi_k = sum_i psi_{k-i} A_i``: the
    rows ``S F^k`` of the p-lag companion, each step one row product with the
    coefficient stack plus a shift, here a sliding window over the stored
    rows.  ``N_PROBES`` generic rows run the same recursion, so a mode the
    quarterly rows do not see, an explosive monthly root say, still keeps the
    sum from settling.  The sum stops when the last p terms of the quarterly
    rows, the state of their recursion, no longer change it at working
    precision, and the probes' state has shrunk by the same factor.

    If it has not stopped within ``_term_budget`` terms, or turns non-finite,
    the block is read from ``stationary_companion_cov``, whose doubling
    converges or raises ``InitializationError`` naming the spectral radius.
    """
    n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
    W = params.chol(0)
    scale = np.max(np.sum(W * W, axis=1))       # largest diagonal entry of Sigma
    coeff = params.lag_coeffs[::-1].reshape(p * n, n)   # A_p .. A_1 stacked
    rows = n_q + N_PROBES
    budget = _term_budget(n, n_q, p)
    eps = np.finfo(float).eps
    # win[:, j] holds psi_{k-p+1+j}, where k is the number of terms stored so far
    win = np.zeros((rows, p + CHECK_EVERY, n))
    win[:n_q, p - 1, n_m:] = np.eye(n_q)         # psi_0: the quarterly rows of I
    win[n_q:, :p] = _probe_windows(n, p)
    terms: list[np.ndarray] = []                 # B_k = psi_k W, in checked blocks
    gamma0 = np.zeros(n_q)                       # diagonal of the partial Gamma(0)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < budget:
            for j in range(p, p + CHECK_EVERY):
                win[:, j] = win[:, j - p : j].reshape(rows, p * n) @ coeff
            B = win[:n_q, p - 1 : p - 1 + CHECK_EVERY] @ W
            terms.append(B)
            gamma0 += np.sum(B * B, axis=(1, 2))
            k += CHECK_EVERY
            win[:, :p] = win[:, CHECK_EVERY:]
            # the quarterly rows' state against the sum, the probes' against
            # their start (entries of magnitude up to 1)
            mq = np.abs(win[:n_q, :p]).max(initial=0.0)
            mp = np.abs(win[n_q:, :p]).max(initial=0.0)
            if not np.isfinite(mq + mp + gamma0.sum()):
                break
            if mq * mq * scale <= eps * gamma0.max(initial=0.0) and mp * mp <= eps:
                return _quarterly_block(terms, n_q, n, p)
    qi = quarterly_state_index(params)
    return stationary_companion_cov(params)[np.ix_(qi, qi)]


def _quarterly_block(terms: list[np.ndarray], n_q: int, n: int, p: int) -> np.ndarray:
    """Assemble the (p+1) n_q square block from the stored terms B_k."""
    K = sum(B.shape[1] for B in terms)
    flat = np.concatenate([*terms, np.zeros((n_q, p, n))], axis=1).reshape(n_q, (K + p) * n)
    # every Gamma(h) = sum_k B_{k+h} B_k' in one batched product over
    # overlapping views of the stored terms
    shifted = np.lib.stride_tricks.sliding_window_view(flat, K * n, axis=1)[:, ::n]
    gamma = np.matmul(shifted.transpose(1, 0, 2), flat[:, : K * n].T)
    lag = np.arange(p + 1)
    d = lag[None, :] - lag[:, None]
    # block (a, b) is the covariance of lags a and b: Gamma(b - a), or the
    # transpose of Gamma(a - b) below the diagonal
    blocks = np.where((d >= 0)[:, :, None, None], gamma[np.abs(d)], gamma.transpose(0, 2, 1)[np.abs(d)])
    kq = n_q * (p + 1)
    return blocks.transpose(0, 2, 1, 3).reshape(kq, kq)


def quarterly_state_index(params: VarParams) -> np.ndarray:
    """Positions of the quarterly entries inside the stacked state."""
    n = params.n
    return np.concatenate([lag * n + params.n_m + np.arange(params.n_q) for lag in range(params.p + 1)])


def init_state(params: VarParams, mode: str = "stationary", kappa: float = 1e4) -> FilterState:
    """Initial distribution of the stacked quarterly state (p+1 lag groups).

    ``stationary`` takes the quarterly sub-block of the companion form's
    unconditional moments (``stationary_quarterly_cov``); ``diffuse-proxy``
    uses a zero mean with ``kappa`` (finite, > 0) times the identity.
    """
    kq = params.n_q * (params.p + 1)
    if mode == "diffuse-proxy":
        if not (np.isfinite(kappa) and kappa > 0):
            raise InitializationError(f"diffuse-proxy kappa must be finite and > 0, got {kappa!r}")
        return FilterState(np.zeros(kq), kappa * np.eye(kq))
    if mode != "stationary":
        raise InitializationError(f"unknown initialization mode {mode!r}")
    mu = params.unconditional_mean()
    a = np.tile(mu[params.n_m :], params.p + 1)
    return FilterState(a, _sym(stationary_quarterly_cov(params)))
