"""Kalman filtering and fixed-interval smoothing with correlated noises.

The state and observation disturbances share the same underlying shock
vector, so the recursions carry the cross term ``H_t G_t'`` through the
gain, the innovation covariance and the smoother.  Transitions may be
non-square (the state dimension can change between periods).

The per-period convention: the transition ``(T_t, d_t, H_t)`` maps the
t-1 state onto the t state.  One filter step at t therefore uses period
t's observation matrices together with period t+1's transition for the
gain ``K_t`` and ``L_{t+1}``; the last period uses ``K = 0``, ``L = I``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "init_state",
]

# condition-number estimate above which the innovation covariance is
# treated as numerically singular
COND_LIMIT = 1e12

# squarings allowed to the Lyapunov doubling iteration: 2**40 periods of
# accumulated covariance, so a spectral radius up to about 1 - 1e-10 converges
LYAPUNOV_MAX_SQUARINGS = 40


@dataclass
class FilterState:
    a: np.ndarray
    P: np.ndarray


@dataclass
class FilterRecord:
    """Everything one period contributes to the backward smoothing pass."""

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

    @property
    def N(self) -> np.ndarray:
        """Smoothing projection P_t L' - HG' K' (materialized on demand)."""
        return self.P_pred @ self.L.T - self.HGt @ self.K.T


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
    m = sys_t.mats
    a, P = state.a, state.P
    if m.n_obs == 0:
        rec = FilterRecord(
            t=sys_t.t,
            a_pred=a,
            P_pred=P,
            a_filt=a,
            P_filt=P,
            v=np.zeros(0),
            Finv_v=np.zeros(0),
            M=np.zeros((a.shape[0], 0)),
            MFinv=np.zeros((a.shape[0], 0)),
            Z=m.Z,
            HGt=m.GHt.T,
        )
        return FilterState(a, P), rec

    Z = m.Z
    HGt = m.GHt.T
    v = sys_t.y - Z @ a - sys_t.c
    # the covariance-side quantities depend only on (m, P); the prediction
    # covariance sequence is data-independent and converges to a cycle, so
    # for small states the factorizations are memoized on the system
    # matrices, keyed by P's bytes.  Hits reproduce the uncached arithmetic
    # bit for bit because the cached arrays came from identical inputs.
    cache = m._cov_cache if P.nbytes <= 16384 else None
    if cache is not None:
        key = P.tobytes()
        hit = cache.get(key)
        if hit is not None:
            cf, M, MFinv, P_filt = hit
            Finv_v = dpotrs(cf, v.reshape(-1, 1), lower=1)[0][:, 0]
            a_filt = a + M @ Finv_v
            rec = FilterRecord(
                t=sys_t.t,
                a_pred=a,
                P_pred=P,
                a_filt=a_filt,
                P_filt=P_filt,
                v=v,
                Finv_v=Finv_v,
                M=M,
                MFinv=MFinv,
                Z=Z,
                HGt=HGt,
            )
            return FilterState(a_filt, P_filt), rec
    M = P @ Z.T + HGt
    # direct LAPACK calls with Fortran-ordered operands: this step runs once
    # per period and wrapper or copy overhead is measurable at T=500
    cf = factorize_innovation(np.asfortranarray(Z @ M + m.F_const), sys_t.t)
    n_obs = v.shape[0]
    rhs = np.empty((n_obs, 1 + a.shape[0]), order="F")
    rhs[:, 0] = v
    rhs[:, 1:] = M.T
    sol, info = dpotrs(cf, rhs, lower=1, overwrite_b=1)
    if info != 0:
        raise SingularInnovationError(sys_t.t)
    Finv_v = sol[:, 0]
    MFinv = sol[:, 1:].T
    a_filt = a + M @ Finv_v
    P_filt = _sym(P - MFinv @ M.T)
    if cache is not None and len(cache) < 512:
        cache[key] = (cf, M, MFinv, P_filt)
    rec = FilterRecord(
        t=sys_t.t,
        a_pred=a,
        P_pred=P,
        a_filt=a_filt,
        P_filt=P_filt,
        v=v,
        Finv_v=Finv_v,
        M=M,
        MFinv=MFinv,
        Z=m.Z,
        HGt=HGt,
    )
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
    final_pred: FilterState | None = None


def run_filter(
    periods: list[PeriodSystem],
    init: FilterState,
    final_transition: Transition | None = None,
) -> FilterResult:
    """Filter a run of periods.

    ``init`` is the state distribution before the first period; each period
    first predicts through its own transition, then updates.  If
    ``final_transition`` is given, the last record's gain uses it and the
    state it maps onto is returned as ``final_pred`` (the transition may
    change the state space, as the ragged-edge backends' lift into the
    stacked state does); otherwise the run terminates with ``K = 0``,
    ``L = I``.
    """
    records: list[FilterRecord] = []
    state = init
    prev: FilterRecord | None = None
    for per in periods:
        Tm = per.mats.T
        if prev is not None:
            _close_record(prev, Tm)
        state = _predict(state, Tm, per.d, per.mats.HHt)
        state, rec = filter_step(state, per)
        records.append(rec)
        prev = rec
    final_pred = None
    if prev is not None:
        if final_transition is not None:
            Tm, d, HHt = final_transition
            _close_record(prev, Tm)
            final_pred = _predict(state, Tm, d, HHt)
        else:
            dim = prev.a_filt.shape[0]
            prev.K = np.zeros((dim, prev.v.shape[0]))
            prev.L = np.eye(dim)
    return FilterResult(records, final_pred)


def smooth_step(rec: FilterRecord, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mean at rec.t and the propagated adjoint r_{t-1}.

    ``r`` lives in the t+1 state space; the smoothing projection is applied
    as two matrix-vector products so it is never materialized.
    """
    Ltr = rec.L.T @ r
    a_sm = rec.a_filt + rec.P_pred @ Ltr - rec.HGt @ (rec.K.T @ r)
    r_prev = Ltr + rec.Z.T @ rec.Finv_v
    return a_sm, r_prev


def run_smoother(
    records: list[FilterRecord],
    r_init: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backward pass; returns smoothed state means and the final adjoint r_0."""
    last = records[-1]
    r = np.zeros(last.L.shape[0]) if r_init is None else r_init
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


def stationary_companion_cov(params: VarParams, n_lags: int | None = None) -> np.ndarray:
    """Unconditional covariance of the stacked state (p+1 lag groups).

    Solves the discrete Lyapunov equation of the companion form by doubling
    (``solve_discrete_lyapunov``), whose convergence is the stability check:
    raises ``InitializationError`` if the VAR is not stable.  Time-varying
    error covariances use the first period's factor.  Cached on the parameter
    object: the solve is cubic in n(p+1) and would otherwise dominate every
    draw.
    """
    cache = getattr(params, "_stationary_cov", None)
    if cache is not None and cache[0] == n_lags:
        return cache[1]
    F = params.companion_transition(n_lags)
    Q = params.companion_noise_cov(0, n_lags)
    P = _sym(solve_discrete_lyapunov(F, Q))
    object.__setattr__(params, "_stationary_cov", (n_lags, P))
    return P


def quarterly_state_index(params: VarParams, n_lags: int | None = None) -> np.ndarray:
    """Positions of the quarterly entries inside the stacked state."""
    n = params.n
    k = params.p + 1 if n_lags is None else n_lags
    return np.concatenate([lag * n + params.n_m + np.arange(params.n_q) for lag in range(k)])


def init_state(params: VarParams, mode: str = "stationary", kappa: float = 1e4) -> FilterState:
    """Initial distribution of the stacked quarterly state (p+1 lag groups).

    ``stationary`` takes the quarterly sub-block of the companion form's
    unconditional moments; ``diffuse-proxy`` uses a zero mean with a large
    multiple of the identity.
    """
    kq = params.n_q * (params.p + 1)
    if mode == "diffuse-proxy":
        return FilterState(np.zeros(kq), kappa * np.eye(kq))
    if mode != "stationary":
        raise InitializationError(f"unknown initialization mode {mode!r}")
    P_full = stationary_companion_cov(params)
    qi = quarterly_state_index(params)
    mu = params.unconditional_mean()
    a = np.tile(mu[params.n_m :], params.p + 1)
    return FilterState(a, _sym(P_full[np.ix_(qi, qi)]))
