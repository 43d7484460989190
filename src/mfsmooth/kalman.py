"""Kalman filtering and fixed-interval smoothing with correlated noises,
and a draw's quarterly path and ragged edge as two saddle-point systems.

The state and observation disturbances share the same underlying shock
vector, so the recursions carry the cross term ``H_t G_t'`` through the
gain, the innovation covariance and the smoother.  Transitions may be
non-square (the state dimension can change between periods).

The per-period convention: the transition ``(T_t, d_t, H_t)`` maps the
t-1 state onto the t state.  The covariance side of period t (P_pred, the
factor of F, the gain ``K_t`` and ``L_t`` onto the t+1 state through period
t+1's transition) depends on no data.  ``filter_periods`` runs it and the
mean update over y - c period by period in one forward pass, one
``FilterStep`` per period, and ``smooth_periods`` the backward pass (Durbin
and Koopman 2002).  A run's last step is always open: it leaves ``P_filt``,
``K`` and ``L`` unset, and the smoother restarts there from an adjoint of
the last filtered state (zero by default, and only a given one forms that
state's covariance), as a caller that continues on another state space
hands it back.
The reference edge step and ``oracle_smooth`` run this recursion over their
companion periods.

Over a draw's own periods no recursion runs.  Given the data, the
quarterly path over the balanced periods is Gaussian with a precision
banded in time, and the observed aggregates are exact linear constraints
on it: ``BalancedSystem`` solves for its mean as one banded saddle-point
system that each plan factorizes once (Chan and Jeliazkov 2009; Chan, Poon
and Zhu 2023).  Its solution's last state is the filtered state at the
balanced sample's last period, where every edge step starts.  From it,
the adaptive backend's step solves for the ragged edge's latent values,
the monthly values still missing and the quarterly ones, as one dense
saddle-point system over the edge periods' windows (``EdgeSystem``), whose
multipliers are the adjoint that lifts the balanced path.  A draw solves
both on right-hand sides that carry the model's own noise (``simsmooth``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgecon, dgetrf, dgetrs, dpbtrf, dpotrf, dpotrs

from .errors import InitializationError, SingularInnovationError
from .model import Aggregation, ObservationPattern, VarParams
from .systems import Block, PeriodSystem

__all__ = [
    "FilterState",
    "BalancedSystem",
    "EdgeSystem",
    "FilterStep",
    "factorize_innovation",
    "filter_periods",
    "filter_step",
    "initial_factor",
    "run_filter",
    "run_smoother",
    "smooth_periods",
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


@dataclass(eq=False, slots=True)
class FilterStep:
    """One period of the forward pass (``filter_periods``).

    Its covariance side (``filter_step``) depends on the period's structural
    matrices and noise part and on the predicted covariance ``P_pred``,
    never on the data.  ``cf`` is the lower Cholesky factor of the
    innovation covariance F and ``cond`` its squared ratio of largest to
    smallest diagonal entry (None and 0 when nothing is observed).
    ``FinvMZ`` is ``F^-1 [M', Z]`` with ``M = P_pred Z' + H G'`` (``M``,
    None when nothing is observed): one product with it gives the filtered
    mean ``a_filt`` and ``w = Z' F^-1 v`` from the innovation ``v``.  The
    next period closes the step with the filtered covariance ``P_filt``, the
    gain onto its state K = T' M F^-1 and L = T' - K Z for its transition
    T'; a run's last step keeps these three None.
    """

    P_pred: np.ndarray
    Z: np.ndarray
    HGt: np.ndarray
    cf: np.ndarray | None
    cond: float
    FinvMZ: np.ndarray
    M: np.ndarray | None
    a_filt: np.ndarray | None = None
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    P_filt: np.ndarray | None = None
    K: np.ndarray | None = None
    L: np.ndarray | None = None

    @property
    def MFinv(self) -> np.ndarray:
        return self.FinvMZ[:, : self.P_pred.shape[0]].T


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def factorize_innovation(F: np.ndarray, t: int) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the innovation covariance ``F`` at period t,
    and the squared ratio of its largest to smallest diagonal entry.

    Raises ``SingularInnovationError`` when ``F`` is not positive definite or
    that ratio exceeds ``COND_LIMIT``.  A Fortran-ordered ``F`` is overwritten.
    """
    cf, info = dpotrf(F, lower=1, overwrite_a=1)
    diag = cf.diagonal()
    cond = float((diag.max() / diag.min()) ** 2) if info == 0 else np.inf
    if not cond <= COND_LIMIT:
        raise SingularInnovationError(t)
    return cf, cond


def filter_step(P: np.ndarray, sys_t) -> FilterStep:
    """A period's step with its covariance side, from its predicted
    covariance ``P``; of the ``PeriodSystem`` ``sys_t`` it reads ``mats``,
    ``noise`` and ``t``."""
    m, nz = sys_t.mats, sys_t.noise
    Z = m.Z
    HGt = nz.GHt.T
    dim = P.shape[0]
    if m.n_obs == 0:
        return FilterStep(P, Z, HGt, None, 0.0, np.zeros((0, 2 * dim)), None)
    M = P @ Z.T + HGt
    # direct LAPACK calls with Fortran-ordered operands: wrapper or copy
    # overhead is measurable when a pass computes hundreds of entries
    cf, cond = factorize_innovation(np.asfortranarray(Z @ M + nz.F_const), sys_t.t)
    rhs = np.empty((m.n_obs, 2 * dim), order="F")
    rhs[:, :dim] = M.T
    rhs[:, dim:] = Z
    sol, info = dpotrs(cf, rhs, lower=1, overwrite_b=1)
    if info != 0:
        raise SingularInnovationError(sys_t.t)
    return FilterStep(P, Z, HGt, cf, cond, sol, M)


def filter_periods(periods: list[PeriodSystem], init: FilterState) -> list[FilterStep]:
    """The forward pass over a list of periods from ``init``, the state
    distribution before the first period, which predicts through its own
    transition.  Per period: the covariance side (``filter_step``) from the
    predicted covariance, then the mean update
    ``a_t = T_t a_{t-1} + d_t + M F^-1 (y_t - c_t - Z_t (T_t a_{t-1} + d_t))``.
    This period's transition closes the previous step; the last is left
    open and its filtered covariance is never formed."""
    a, P, steps = init.a, init.P, []
    for per in periods:
        Tm = per.mats.T
        if steps:
            prev = steps[-1]
            prev.K = Tm @ prev.MFinv
            prev.L = Tm - prev.K @ prev.Z
            prev.P_filt = P = prev.P_pred if prev.M is None else _sym(prev.P_pred - prev.MFinv @ prev.M.T)
        step = filter_step(_sym(Tm @ P @ Tm.T + per.noise.HHt), per)
        a = Tm @ a + per.d
        dim = len(a)
        step.v = per.ymc - step.Z @ a
        x = step.v @ step.FinvMZ
        step.a_filt = a = a + x[:dim]
        step.w = x[dim:]
        steps.append(step)
    return steps


def smooth_periods(
    steps: list[FilterStep], r_init: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The backward pass over the forward pass ``steps``; returns the
    smoothed state means and the adjoint of the first period's predicted
    mean.

    ``r_{t-1} = L_t' r_t + Z_t' F_t^-1 v_t`` with the smoothed means
    ``a_filt + (P_pred L_t' - H G' K_t') r_t``, per period.  The last
    period's step is open: ``r_init`` is the adjoint of its filtered state,
    which a caller that continued past it hands back, so its smoothed mean
    is ``a_filt + P_filt r_init`` and the adjoint before it
    ``r_init - Z' F^-1 M' r_init + Z' F^-1 v``.  Without one the adjoint is
    zero there and the smoothed mean is the filtered one.
    """
    last = steps[-1]
    states: list[np.ndarray] = [None] * len(steps)  # type: ignore[list-item]
    if r_init is None:
        states[-1], r = last.a_filt, last.w
    else:
        P_filt = last.P_pred if last.M is None else _sym(last.P_pred - last.MFinv @ last.M.T)
        states[-1] = last.a_filt + P_filt @ r_init
        r = r_init - last.Z.T @ (last.MFinv.T @ r_init) + last.w
    for t in range(len(steps) - 2, -1, -1):
        step = steps[t]
        ltr = step.L.T @ r
        states[t] = step.a_filt + step.P_pred @ ltr - step.HGt @ (step.K.T @ r)
        r = ltr + step.w
    return states, r


def initial_factor(P: np.ndarray) -> tuple[np.ndarray, bool]:
    """A lower factor L of the initial quarterly covariance, L L' = P, and
    whether P needed a jitter of 1e-10 trace/k on its diagonal to factorize
    (a rank-deficient P)."""
    try:
        return np.linalg.cholesky(P), False
    except np.linalg.LinAlgError:
        k = P.shape[0]
        return np.linalg.cholesky(P + 1e-10 * np.trace(P) / k * np.eye(k)), True


def _forward(W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``W_j^-1 B_j`` for a (s, n, n) stack of lower-triangular ``W_j`` and an
    (n, k) ``B``, the same for each, or an (s, n, k) stack of them: forward
    substitution, each row one operation over the stack."""
    X = np.empty((len(W), *B.shape[-2:]))
    for i in range(X.shape[1]):
        X[:, i] = (B[..., i, :] - np.matmul(W[:, i, None, :i], X[:, :i])[:, 0]) / W[:, i, i, None]
    return X


def _scatter(idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """The sums of ``vals`` at positions ``idx`` of a length ``size`` vector."""
    return np.bincount(idx.ravel(), vals.ravel(), size).astype(float, copy=False)


class BandLayout:
    """Where a balanced system's unknowns and entries sit: this depends only
    on the observation pattern, p and the aggregation weights' support, so a
    plan on the same pattern, p and aggregation takes its predecessor's
    (``baseline.plan_for``).

    Slot j holds time j - p - 1: its n_q values, then the multipliers of the
    aggregates observed then (rows ``agg``); period t's window ``win`` is its
    reduced state (q_t, ..., q_{t-p}), and z is in the first p+1 slots.  A's
    entries are the weights' support, widened for a period before p through
    J_t's lower-triangular L0 block to every initial column up to its last.
    ``flat`` is each entry's position in LAPACK band storage with kl more rows
    for the pivoting's fill: (i, j) at j (ld - 1) + i + 2 kl, ld = 3 kl + 1.

    K, the block over z and the path (``kpos``, in slot order), has
    bandwidth kd = k - 1: period t's window is K's contiguous range from
    slot t+1 to slot t+p+1, and slot 0 only has z's prior.  ``kband`` is
    the (len(kpos), k) array of where each entry of K's lower band storage,
    column b's rows b..b+kd, sits in that storage: a row within kl of the
    column at its own place, which holds an entry of K or zero (every entry
    of a window lies within kl), and any other at 0, a fill row, which
    holds zero.
    """

    def __init__(self, agg: Aggregation, pattern: ObservationPattern, p: int):
        self.p = p
        n_q, t_b = agg.n_q, pattern.t_balanced
        k = (p + 1) * n_q
        qobs = pattern.quarterly_observed[:t_b]
        size = np.full(p + 1 + t_b, n_q)
        size[p + 1 :] += qobs.sum(axis=1)
        self.first = first = np.cumsum(size) - size
        self.size = N = int(size.sum())
        qpos = first[:, None] + np.arange(n_q)
        self.path = qpos[p + 1 :]
        self.win = win = qpos[p + 1 + np.arange(t_b)[:, None] - np.arange(p + 1)].reshape(t_b, k)
        self.z = qpos[: p + 1].ravel()
        self.agg_t, self.agg_q = agg_t, agg_q = np.nonzero(qobs)
        self.agg = first[p + 1 + agg_t] + n_q + np.arange(len(agg_t)) - np.searchsorted(agg_t, agg_t)
        support = np.zeros((len(agg_t), k), dtype=bool)
        support[:, : agg.lam_qq.shape[1]] = agg.lam_qq[agg_q] != 0
        reach = np.logical_or.accumulate(support[:, ::-1], axis=1)[:, ::-1]
        self.ia, self.ja = ia, ja = np.nonzero(np.where(np.arange(k) >= (agg_t[:, None] + 1) * n_q, reach, support))
        a_rows, a_cols = self.agg[ia], win[agg_t[ia], ja]
        self.kl = kl = int(max(np.max(win.max(axis=1, initial=0) - win.min(axis=1, initial=N), initial=0),
                               np.max(a_rows - a_cols, initial=0)))
        # 4-byte positions while the band storage's size allows: the layout
        # lives as long as the pattern's plans, and its 8-byte form slowed
        # warm draws run beside the Gibbs iterations that keep it
        ld = 3 * kl + 1
        dtype = np.int32 if ld * N <= np.iinfo(np.int32).max else np.intp
        self.flat = np.concatenate([
            ((ld - 1) * win[:, None, :] + win[:, :, None]).ravel(),
            ld * self.z,
            (ld - 1) * a_cols + a_rows,
            (ld - 1) * a_rows + a_cols,
        ]).astype(dtype) + dtype(2 * kl)
        # 8-byte positions, unlike ``flat``: a small array, which numpy
        # gathers by without a conversion, about twice as fast as by 4-byte ones
        self.kpos = kpos = qpos.ravel()
        self.kband = np.zeros((0, 0), dtype=np.intp)
        if len(kpos):
            rows = np.lib.stride_tricks.sliding_window_view(np.append(kpos, np.full(k - 1, -1)), k)
            inside = (rows >= 0) & (rows - kpos[:, None] <= kl)
            self.kband = np.where(inside, rows + ((ld - 1) * kpos + 2 * kl)[:, None], 0)

    def period(self, i: int) -> int:
        """The period whose slot holds position ``i``."""
        return int(np.searchsorted(self.first, i, side="right")) - self.p - 2


class BalancedSystem:
    """The quarterly path over the balanced periods 0..t_b-1 given their
    data, as one banded saddle-point system that a plan factorizes once.

    Given the monthly values, the quarterly values q_{-1-p}..q_{t_b-1} are
    Gaussian with a precision banded in time, and the observed aggregates
    are exact linear constraints on them.  Period t's VAR residual is
    e_t = r_t + B s_t with s_t = (q_t, ..., q_{t-p}) its reduced state,
    B = [E_q, -A_1[:, q], ..., -A_p[:, q]] (``var_operator``) and r_t the
    residual at zero quarterly values (``systems.balanced_constants``); the
    initial stack s_{-1} = a0 + L0 z is parametrized by a standard normal z
    through a factor L0 of P0 (``initial_factor``), so P0 is never inverted.

    The unknowns are the values in time order, z in the initial slots (its
    lag-i block in the slot of q_{-1-i}, so with L0 lower triangular each
    initial value reads only z of its own and later slots), and one Lagrange
    multiplier per observed aggregate right after its period.  The matrix is
    [[K, A'], [A, 0]]: K is I on z plus the sum over t of B_t' Sigma_t^-1 B_t,
    where B_t is B with the initial values it reaches expressed in z, and A
    holds the aggregation weights.  Each period is whitened once: with
    X_t = W_t^-1 B for the factor W_t of Sigma_t, its term is X_t' X_t.
    Where these entries sit (``BandLayout``) is the plan's predecessor's on
    the same pattern when given as ``layout``.  The bandwidth is that of
    p+1 periods; LAPACK ``dgbtrf`` factorizes the matrix, partial pivoting
    taking the zero block.  K alone, positive definite with bandwidth
    k - 1, is factorized too, by ``dpbtrf`` from its own band storage
    (``BandLayout.kband``): C C' = K draws the perturbation.  A zero pivot
    of the LU, or a K that is not positive definite, raises
    ``SingularInnovationError`` naming its period.

    A right-hand side is formed from the data once (``rhs``), which reads
    the residuals only through B' Sigma_t^-1: under a constant chol_cov
    they are formed already projected by ``proj`` = B' Sigma^-1, k rows
    (``systems.balanced_constants``), and ``proj`` is None under a
    time-varying one.  A draw adds the model's noise to it
    (``perturbation``, one normal per unknown of K) and is one ``dgbtrs``
    solve (``solve``), whose mean is the solution of the data's.  Its last
    state s_{t_b-1} is the filtered state at t_b-1, where the ragged edge
    starts (the backend's edge step).  One more solve, on the unit
    vectors of that state's positions, gives its covariance ``P_filt`` and
    Cov(q_t, s_{t_b-1}), which lifts the edge's adjoint r onto the path:
    the smoothed path is the mean plus that covariance times r
    (``smoothed``).
    """

    def __init__(self, params: VarParams, agg: Aggregation, pattern: ObservationPattern, init: FilterState,
                 layout: BandLayout | None = None):
        n_m, n_q, p = params.n_m, params.n_q, params.p
        t_b = pattern.t_balanced    # > p (``baseline.check_pattern``)
        self.layout = lay = BandLayout(agg, pattern, p) if layout is None else layout
        self.size, self.kl = N, kl = lay.size, lay.kl
        self._win, self._path, self._agg = lay.win, lay.path.ravel(), lay.agg
        self.cells = np.indices((t_b, n_q)).reshape(2, -1) + [[0], [n_m]]
        win, z_pos = lay.win, lay.z
        self.k = k = (p + 1) * n_q
        L0, self.jitter = initial_factor(init.P)
        self.n_normals = len(lay.kpos)
        self.factorizations = 2 if N else 0    # the band LU and K's factor, until ``pop_factorizations``

        # the whitened X_t = W_t^-1 B, one for all periods or one each.  A
        # period's data term is B' Sigma_t^-1 r_t: under a constant chol_cov
        # the residuals are projected by ``proj`` = B' Sigma^-1 = (W'^-1 X)'
        # as they are formed; under a time-varying one they are whitened,
        # w_t = W_t^-1 r_t, and the term is G_t w_t with G_t = X_t' (``rhs``)
        B = var_operator(params, quarterly_state_index(params)).T
        if params.time_varying_cov:
            self._W = params.chol_cov[:t_b]
            X = _forward(self._W, B)
            self._G, self.proj = X.transpose(0, 2, 1), None
        else:
            self._W = self._G = None
            X = solve_triangular(params.chol_cov[0], B, lower=True, check_finite=False)[None]
            self.proj = solve_triangular(params.chol_cov[0], X[0], lower=True, trans="T", check_finite=False).T

        # periods 0..p-1 reach the initial stack: their window is m_t + J_t u
        # in the unknowns u, m_t the stack's mean and J_t = I but for L0
        J = np.tile(np.eye(k), (p, 1, 1))
        m = np.zeros((p, k))
        for t in range(p):
            j = (t + 1) * n_q
            J[t, j:, j:] = L0[: k - j, : k - j]
            m[t, j:] = init.a[: k - j]
        self._Jt = Jt = J.transpose(0, 2, 1)
        agg_t, lead = lay.agg_t, np.flatnonzero(lay.agg_t < p)
        lam = np.zeros((len(agg_t), k))
        lam[:, : agg.lam_qq.shape[1]] = agg.lam_qq[lay.agg_q]
        g = np.zeros(len(agg_t))
        g[lead] = -np.einsum("ij,ij->i", lam[lead], m[agg_t[lead]])
        lam[lead] = np.matmul(lam[lead, None, :], J[agg_t[lead]])[:, 0]

        # the entries at the layout's positions: K's, period t's over its
        # window, z's prior and A's
        vals = np.empty(len(lay.flat))
        Kt = vals[: t_b * k * k].reshape(t_b, k, k)
        Kt[:] = X.transpose(0, 2, 1) @ X
        b_head = -Jt @ Kt[:p] @ m[:, :, None]
        Kt[:p] = Jt @ Kt[:p] @ J
        vals[Kt.size : Kt.size + len(z_pos)] = 1.0
        vals[Kt.size + len(z_pos) :] = np.tile(lam[lay.ia, lay.ja], 2)
        ld = 3 * kl + 1
        flat = _scatter(lay.flat, vals, ld * N)
        kband = flat[lay.kband].T    # K's lower band, before the LU overwrites it
        if N:
            self._lu, self._piv, info = dgbtrf(flat.reshape(N, ld).T, kl, kl, overwrite_ab=1)
            if info > 0:
                t = lay.period(info - 1)
                raise SingularInnovationError(t, f"the balanced sample's system is singular at period t={t}")
            self._C, info = dpbtrf(kband, lower=1, overwrite_ab=1)
            if info > 0:
                t = lay.period(lay.kpos[info - 1])
                raise SingularInnovationError(t, f"the balanced sample's precision K is not positive definite "
                                                 f"at period t={t}")

        # the initial mean's part of the right-hand side, and the handoff
        self._b = _scatter(win[:p], b_head, N)
        self._b[self._agg] += g
        E = np.zeros((N, k))
        E[win[-1], np.arange(k)] = 1.0
        X = self.solve(E)
        self.P_filt = _sym(X[win[-1]])
        self._lift = X[self._path]

    def pop_factorizations(self) -> int:
        """On the first call the factorizations the system computed, the band
        LU and K's factor (none without quarterly variables), then 0."""
        k, self.factorizations = self.factorizations, 0
        return k

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution for the right-hand side ``b``, (N,) or one column per
        right-hand side, which is left as it is."""
        if not self.size:
            return b
        x, _ = dgbtrs(self._lu, self.kl, self.kl, b, self._piv)
        return x

    def rhs(self, resid: np.ndarray, agg: np.ndarray) -> np.ndarray:
        """The right-hand side given the data's residuals at zero quarterly
        values as ``systems.balanced_constants(params, data, proj)`` forms
        them, and their observed aggregates in order of period, then
        variable: -sum_t B_t' Sigma_t^-1 r_t beside the aggregates, and the
        initial mean's terms.  Under a constant chol_cov ``resid`` holds the
        terms C_t = B' Sigma^-1 r_t themselves, a (t_b, k) array; under a
        time-varying one it holds r_t, a (t_b, n) array, and C_t = G_t w_t
        with w_t = W_t^-1 r_t, one batched product.  Each term is placed at
        its period's window; the first p periods' reach the initial stack
        through J_t, as J_t' C_t."""
        C = resid if self._W is None else np.matmul(self._G, _forward(self._W, resid[:, :, None]))[:, :, 0]
        p = len(self._Jt)
        C = np.concatenate([np.matmul(self._Jt, C[:p, :, None])[:, :, 0], C[p:]])
        b = self._b - _scatter(self._win, C, self.size)
        b[self._agg] += agg
        return b

    def perturbation(self, normals: np.ndarray) -> np.ndarray:
        """The right-hand side's perturbation from ``n_normals`` standard
        normals xi, one per unknown of K: C xi on K's rows, for the lower
        band factor C C' = K (Rue 2001).  K is the covariance of what a
        draw's noise adds to the right-hand side, a standard normal offset
        zeta to z's prior (||z||^2 becoming ||z - zeta||^2, term zeta on z's
        rows) and to each period's residual a shock W_t eta_t (term
        -B_t' Sigma_t^-1 W_t eta_t), so the solution has the mean and
        covariance of the quarterly path given the data."""
        b = np.zeros(self.size)
        if self.n_normals:
            b[self.layout.kpos] = dtbmv(self.k - 1, self._C, normals, lower=1)
        return b

    def last(self, u: np.ndarray) -> np.ndarray:
        """The filtered state at t_b-1 of the solution ``u``."""
        return u[self._win[-1]]

    def smoothed(self, u: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        """The quarterly path of ``u``, at the panel positions ``cells``,
        lifted by ``r``, the adjoint of the filtered state at t_b-1, when
        given."""
        path = u[self._path]
        if r is not None:
            path += self._lift @ r
        return path


class EdgeSystem:
    """The ragged edge t_b..T-1 given the balanced sample, as one dense
    saddle-point system that a plan factorizes once, on the first call of
    the adaptive backend's edge step (``baseline.adaptive_edge``).

    The unknowns z = (s, l) are the balanced system's last state
    s = (q_{t_b-1}, ..., q_{t_b-1-p}), k = (p+1) n_q values, and the latent
    values of each edge period in time order: its unobserved monthly values
    ascending, then its quarterly ones, at the panel's (t, variable)
    positions ``cells``.  Period t's VAR residual reads only its window, its
    values at t..t-p: e_t = r_t + B_t z, with B_t the VAR's operator on the
    window's unknowns (``var_operator``; lags in the balanced sample fall in
    s) and r_t the operator on its known values less the intercept.  Each
    period keeps Sigma_t^-1 B_t over its window's unknowns only, and
    K = sum_t B_t' Sigma_t^-1 B_t.  A holds one row per observed edge
    aggregate, its weights on q_t..q_{t-p_q+1}, and J selects s from z.  With
    s given the balanced sample distributed as N(u_s, P_filt)
    (``BalancedSystem.last``, ``BalancedSystem.P_filt``), the mean solves

        [[K, A', J'], [A, 0, 0], [J, 0, -P_filt]] (z, nu, lam)
            = (-sum_t B_t' Sigma_t^-1 r_t, y_agg, u_s),

    the covariance form of the prior on s, so a singular P_filt (an
    aggregate observed at t_b-1) needs no inverse.  Then s = u_s + P_filt lam:
    lam is the adjoint of the filtered state at t_b-1 that lifts the
    balanced path (``BalancedSystem.smoothed``).

    LAPACK ``dgetrf`` factorizes the matrix; a zero pivot raises
    ``SingularInnovationError`` naming the first edge period.  ``cond`` is
    1/rcond of ``dgecon``, a diagnostic.  A draw is one ``dgetrs`` solve.
    """

    def __init__(self, params: VarParams, agg: Aggregation, pattern: ObservationPattern, P_filt: np.ndarray):
        n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
        t_b, T = pattern.t_balanced, pattern.T
        n_e = T - t_b
        self.k = k = (p + 1) * n_q
        self.factorizations = 1    # the LU, until ``pop_factorizations``

        # col[i, v]: the unknown holding variable v at time t_b-1-p+i, or -1
        # for a known value; latent edge values in time order, then variable
        lt, lv = np.nonzero(np.hstack([~pattern.observed_monthly[t_b:], np.ones((n_e, n_q), dtype=bool)]))
        self.n_z = N = k + len(lt)
        col = np.full((p + 1 + n_e, n), -1)
        col[: p + 1, n_m:] = np.arange(k).reshape(p + 1, n_q)[::-1]
        col[p + 1 + lt, lv] = np.arange(k, N)
        self.cells = np.stack([t_b + lt, lv])
        self._at, self._shape = (lt, lv), (n_e, n)
        self._known, self._params = col < 0, params
        ae, aj = np.nonzero(pattern.quarterly_observed[t_b:])
        self.n_a = n_a = len(ae)
        self._agg = (t_b + ae, n_m + aj)
        m = N + n_a
        M = np.zeros((m + k, m + k), order="F")

        # period t's window is row t - t_b of col[_rows], its times t..t-p
        # lag-major like the VAR's operator: ``_windows`` keeps the positions
        # of its unknowns in z and (Sigma_t^-1 B_t)', and K sums B_t' Sigma_t^-1 B_t
        self._rows = p + 1 + np.arange(n_e)[:, None] - np.arange(p + 1)
        win = col[self._rows].reshape(n_e, -1)
        e, slot = np.nonzero(win >= 0)
        ends = np.cumsum(np.bincount(e, minlength=n_e))[:-1]
        self._windows = []
        for t, pos, Bt in zip(range(t_b, T), np.split(win[e, slot], ends), np.split(var_operator(params, slot), ends)):
            SB, _ = dpotrs(params.chol(t), Bt.T, lower=1)
            M[pos[:, None], pos] += Bt @ SB
            self._windows.append((pos, SB.T))
        M[N + np.arange(n_a)[:, None], col[ae[:, None] + p + 1 - np.arange(agg.p_q), n_m + aj[:, None]]] = \
            agg.scheme.weights
        M[:N, N:m] = M[N:m, :N].T
        M[m + np.arange(k), np.arange(k)] = M[np.arange(k), m + np.arange(k)] = 1.0
        M[m:, m:] = -P_filt
        anorm = np.abs(M).sum(axis=0).max()
        self._lu, self._piv, info = dgetrf(M, overwrite_a=1)
        if info > 0:
            raise SingularInnovationError(t_b, f"the ragged edge's system is singular at period t={t_b}")
        rcond, _ = dgecon(self._lu, anorm)
        self.cond = 1.0 / rcond if rcond > 0 else np.inf

    def pop_factorizations(self) -> int:
        """1 on the first call, for the LU, then 0."""
        k, self.factorizations = self.factorizations, 0
        return k

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """The rows of z and nu at the (T, n) data ``values``: each edge period's
        residual at z = 0, the operator on its window's known values less the
        intercept, taken as ``perturbation`` takes shocks; then the aggregates."""
        X = np.where(self._known, values[-len(self._known) :], 0.0)[self._rows]
        b = self.perturbation(X[:, 0] - X[:, 1:].reshape(len(X), -1) @ self._params.coeff_row.T
                              - self._params.intercept)
        b[self.n_z :] = values[self._agg]
        return b

    def perturbation(self, shocks: np.ndarray) -> np.ndarray:
        """The rows of z and nu that a draw's (T - t_b, n) edge shocks e_t,
        parts of the residuals, add to ``rhs``: -sum_t (Sigma_t^-1 B_t)' e_t,
        each period's at its window's unknowns."""
        b = np.zeros(self.n_z + self.n_a)
        for e, (pos, SBt) in zip(shocks, self._windows):
            b[pos] -= SBt @ e
        return b

    def solve(self, rhs: np.ndarray, last: np.ndarray) -> np.ndarray:
        """The solution (z, nu, lam) given the rows of z and nu (``rhs``) and
        the balanced system's last state ``last``."""
        x, _ = dgetrs(self._lu, self._piv, np.concatenate([rhs, last]))
        return x

    def smoothed(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge's (T - t_b, n) rows, the latent values in ``x`` at the
        positions ``cells`` and zero elsewhere, and the adjoint lam of the
        filtered state at t_b-1."""
        heads = np.zeros(self._shape)
        heads[self._at] = x[self.k : self.n_z]
        return heads, x[self.n_z + self.n_a :]


def run_filter(periods: list[Block]) -> np.ndarray:
    """The forward pass over a draw's one block (``build_periods``): one
    solve of its ``BalancedSystem`` (``mats``), on all of a batch's columns
    at once."""
    (block,) = periods
    return block.mats.solve(block.rhs)


def run_smoother(periods: list[Block], u: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """The smoothed balanced quarterly path of a draw's block, at its
    ``cells``: the draw's solution ``u``, its column of a batch's, lifted
    by ``r``, the adjoint of the filtered state at t_b-1 that the draw's
    edge step hands back (``BalancedSystem.smoothed``)."""
    return periods[0].mats.smoothed(u, r)


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
    return (params.n * np.arange(params.p + 1)[:, None] + params.n_m + np.arange(params.n_q)).ravel()


def var_operator(params: VarParams, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of the VAR's operator [I, -coeff_row], which maps the
    lag-major stack (x_t, ..., x_{t-p}) to x_t - sum_i A_i x_{t-i}, as rows."""
    n = params.n
    rows = -params.coeff_row.T[np.maximum(cols - n, 0)]
    rows[cols < n] = np.eye(n)[cols[cols < n]]
    return rows


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
