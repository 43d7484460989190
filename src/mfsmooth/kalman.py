"""Kalman filtering and fixed-interval smoothing with correlated noises,
split into a covariance pass and a mean pass.

The state and observation disturbances share the same underlying shock
vector, so the recursions carry the cross term ``H_t G_t'`` through the
gain, the innovation covariance and the smoother.  Transitions may be
non-square (the state dimension can change between periods).

The per-period convention: the transition ``(T_t, d_t, H_t)`` maps the
t-1 state onto the t state.  The covariance side of period t (P_pred, the
factor of F, the gain ``K_t`` and ``L_t`` onto the t+1 state through period
t+1's transition) depends on no data: ``CovariancePass`` computes it once
per sequence of periods and shares it between periods whose recursion has
entered a cycle.  Each draw then runs only the mean pass over y - c,
``run_filter`` forward and ``run_smoother`` backward (Durbin and Koopman
2002).  A run's last step is always open: it leaves ``K`` and ``L`` unset,
and the smoother restarts there from an adjoint of the last filtered state
(zero by default), as a caller that continues on another state space hands
it back.

Over a draw's balanced periods the state dimension is constant, and the
mean pass is two banded triangular solves (``MeanBand``, after Chan and
Jeliazkov 2009): the predicted means solve one unit lower block-bidiagonal
system and the adjoints its transpose, each one LAPACK ``dtbtrs`` call.
Every other term is one product per structural group or per shared step.
The ragged edge, whose state grows, and the balanced sample's last period,
where a run closes onto the edge or restarts from a caller's adjoint, take
per-period steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpotrf, dpotrs, dtbtrs

from .errors import InitializationError, SingularInnovationError
from .model import VarParams
from .systems import BalancedGroup, DrawPeriods, PeriodSystem

__all__ = [
    "FilterState",
    "CovEntry",
    "CovStep",
    "CovariancePass",
    "PassRun",
    "MeanBand",
    "Means",
    "FilterResult",
    "factorize_innovation",
    "filter_step",
    "run_filter",
    "run_smoother",
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
class CovEntry:
    """The covariance side of one measurement update.

    It depends on the period's structural matrices and noise part and on the
    predicted covariance ``P_pred``, never on the data.  ``cf`` is the lower
    Cholesky factor of the innovation covariance F and ``cond`` its squared
    ratio of largest to smallest diagonal entry (None and 0 when nothing is
    observed).  ``FinvMZ`` is ``F^-1 [M', Z]`` with ``M = P_pred Z' + H G'``
    (``M``, None when nothing is observed): one product with it gives a
    period's filtered mean and ``Z' F^-1 v``.  The filtered covariance ``P_filt`` is
    formed on its first read, as nothing reads it in a run's open last step
    but a caller that continues from there.
    """

    P_pred: np.ndarray
    Z: np.ndarray
    HGt: np.ndarray
    cf: np.ndarray | None
    cond: float
    FinvMZ: np.ndarray
    M: np.ndarray | None
    _P_filt: np.ndarray | None = None

    @property
    def MFinv(self) -> np.ndarray:
        return self.FinvMZ[:, : self.P_pred.shape[0]].T

    @property
    def P_filt(self) -> np.ndarray:
        if self._P_filt is None:
            self._P_filt = self.P_pred if self.M is None else _sym(self.P_pred - self.MFinv @ self.M.T)
        return self._P_filt


@dataclass(eq=False, slots=True)
class CovStep:
    """A period's entry with the gain onto the next state, K = T' M F^-1 and
    L = T' - K Z for the next transition T'.  Both are None in a run's last
    step, which has no next period.  ``succ`` is the next period's entry."""

    entry: CovEntry
    K: np.ndarray | None = None
    L: np.ndarray | None = None
    succ: CovEntry | None = None


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


def filter_step(P: np.ndarray, sys_t) -> CovEntry:
    """The covariance side of the measurement update at one period, from its
    predicted covariance ``P``; of the ``PeriodSystem`` ``sys_t`` it reads
    ``mats``, ``noise`` and ``t``."""
    m, nz = sys_t.mats, sys_t.noise
    Z = m.Z
    HGt = nz.GHt.T
    dim = P.shape[0]
    if m.n_obs == 0:
        return CovEntry(P, Z, HGt, None, 0.0, np.zeros((0, 2 * dim)), None)
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
    return CovEntry(P, Z, HGt, cf, cond, sol, M)


def _predict_cov(P: np.ndarray, Tm: np.ndarray, HHt: np.ndarray | float) -> np.ndarray:
    return _sym(Tm @ P @ Tm.T + HHt)


def _close(entry: CovEntry, Tm: np.ndarray, succ: CovEntry | None) -> CovStep:
    K = Tm @ entry.MFinv
    return CovStep(entry, K, Tm - K @ entry.Z, succ)


@dataclass(eq=False)
class PassRun:
    """The steps of periods 0..stop-1 of a covariance pass.  ``reused``
    periods share an earlier period's entry and ``worst_cond`` is the
    largest condition ratio among their factorizations.  The last step is
    open."""

    steps: list[CovStep]
    reused: int
    worst_cond: float


class CovariancePass:
    """The covariance side of the filter over one sequence of periods:
    predicted and filtered covariances, the factor of F and the gains K and
    L, computed from the initial covariance ``P0`` without any data.

    A prepared plan holds one pass, so every draw for it runs only the mean
    pass (``run_filter``, ``run_smoother``).  The pass is extended as far as
    a run asks for.  The step from one entry to the next depends only on the
    entry and on the next period's (mats, noise) objects, so the pass keeps
    each step under that triple.  A predicted covariance that repeats, bit
    for bit, the one an earlier period with the same (mats, noise) objects
    had is that period's entry: the recursion has entered a cycle, and every
    further period of it is a lookup.  Entries are shared only where the
    noise part is the same object, since ``P_pred`` does not see G.
    """

    def __init__(self, periods, P0: np.ndarray):
        self.periods = periods
        self.P0 = P0
        self.factorizations = 0    # factorizations since the last ``pop_factorizations``
        self._steps: list[CovStep] = []    # closed steps of the leading periods
        self._next: CovEntry | None = None    # entry of the period after them
        self._keys = [(id(per.mats), id(per.noise)) for per in periods]
        counts = Counter(self._keys)
        # only a (mats, noise) pair that recurs can close a cycle
        self._recurs = [counts[key] > 1 for key in self._keys]
        self._seen: dict[tuple, CovEntry] = {}
        self._links: dict[tuple, CovStep] = {}
        self._runs: dict[int, PassRun] = {}

    def pop_factorizations(self) -> int:
        """Factorizations computed since the last call."""
        k, self.factorizations = self.factorizations, 0
        return k

    def run(self, stop: int) -> PassRun:
        """Steps of periods 0..stop-1, the last left open."""
        found = self._runs.get(stop)
        if found is None:
            found = self._runs[stop] = self._make_run(stop)
        return found

    def _entry(self, P: np.ndarray, t: int) -> CovEntry:
        if not self._recurs[t]:
            entry = filter_step(P, self.periods[t])
        else:
            key = (self._keys[t], P.tobytes())
            entry = self._seen.get(key)
            if entry is not None:
                return entry
            entry = self._seen[key] = filter_step(P, self.periods[t])
        self.factorizations += entry.cf is not None
        return entry

    def extend(self, stop: int) -> CovEntry:
        """Close the steps of periods 0..stop-2; returns period stop-1's entry."""
        periods, steps = self.periods, self._steps
        if self._next is None:
            per = periods[0]
            self._next = self._entry(_predict_cov(self.P0, per.mats.T, per.noise.HHt), 0)
        entry = self._next
        for t in range(len(steps) + 1, stop):
            # a step into a period whose (mats, noise) pair does not recur is
            # never taken again, so only the others are kept
            if self._recurs[t]:
                key = (id(entry), self._keys[t])
                step = self._links.get(key)
                if step is None:
                    step = self._links[key] = self._step(entry, t)
            else:
                step = self._step(entry, t)
            steps.append(step)
            entry = step.succ
        self._next = entry
        return steps[stop - 1].entry if stop <= len(steps) else entry

    def _step(self, entry: CovEntry, t: int) -> CovStep:
        """The step from ``entry`` into period t."""
        per = self.periods[t]
        Tm = per.mats.T
        return _close(entry, Tm, self._entry(_predict_cov(entry.P_filt, Tm, per.noise.HHt), t))

    def _make_run(self, stop: int) -> PassRun:
        last = CovStep(self.extend(stop))
        steps = [*self._steps[: stop - 1], last]
        # only periods whose (mats, noise) pair recurs share entries
        cycled = [id(steps[t].entry) for t in range(stop) if self._recurs[t]]
        worst = max(step.entry.cond for step in steps)
        return PassRun(steps, len(cycled) - len(set(cycled)), worst)


def _distinct(objs: list) -> tuple[list, np.ndarray]:
    """The distinct objects of ``objs`` by identity, in order of first
    appearance, and each item's position among them."""
    index: dict[int, int] = {}
    which = np.array([index.setdefault(id(o), len(index)) for o in objs], dtype=np.intp)
    return list({id(o): o for o in objs}.values()), which


class _RowProducts:
    """The products ``x_j O_j`` of the rows ``x_j`` of a matrix with per-row
    operands ``O_j = ops[which[j]]``: one product for the rows of each
    operand that two or more rows share, one batched matmul for the rows
    with one of their own."""

    def __init__(self, ops: np.ndarray, which: np.ndarray):
        counts = np.bincount(which, minlength=len(ops))
        own = counts[which] == 1
        self.lone = np.flatnonzero(own)
        picked = which[own]
        # ``ops`` itself when the lone rows take every operand in order
        self.lone_ops = ops if np.array_equal(picked, np.arange(len(ops))) else ops[picked]
        order = np.argsort(which, kind="stable")
        ends = np.cumsum(counts)
        self.shared = [(order[ends[i] - counts[i] : ends[i]], ops[i]) for i in np.flatnonzero(counts > 1)]
        self.cols = ops.shape[2]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((len(X), self.cols))
        for rows, op in self.shared:
            out[rows] = X[rows] @ op
        out[self.lone] = np.matmul(X[self.lone, None, :], self.lone_ops)[:, 0]
        return out


class MeanBand:
    """What the mean pass over a draw's balanced periods 0..t_b-1 reads of
    the covariance side, formed once per plan from its steps.

    The state dimension k is constant there, so the predicted means solve
    one unit lower block-bidiagonal system with ``-L_t`` at block (t+1, t),
    and the adjoints its transpose.  ``ab`` is that matrix in LAPACK band
    storage, bandwidth 2k - 1; its unit diagonal is implied.  ``groups``
    holds, per balanced structural group (``Skeleton.balanced``), its
    periods, those before t_b-1 (whose steps are the band's) and the
    products its rows take (``_RowProducts``): ``K_t'`` for the forward
    right-hand side, ``F^-1 [M', Z]`` for the measurement update and
    ``(P_pred L_t' - H G' K_t')'`` for the smoothed mean.
    """

    def __init__(self, steps: list[CovStep], groups: list[np.ndarray]):
        self.t_b = t_b = sum(len(ts) for ts in groups)
        self.k = k = steps[0].entry.P_pred.shape[0]
        own, which = _distinct(steps[: t_b - 1])
        L = np.array([step.L for step in own]).reshape(len(own), k, k)
        self.ab = np.zeros((2 * k, t_b * k), order="F")
        # column j = t k + c holds -L_t[:, c] from row k - c; in column-major
        # order block column t is 2k^2 consecutive values with column c at
        # 2k c, so one strided view places -L_t' for every t
        flat = self.ab.T.reshape(-1)
        i = flat.itemsize
        below = as_strided(flat[k:], (t_b - 1, k, k), (2 * k * k * i, (2 * k - 1) * i, i))
        np.negative(L[which].transpose(0, 2, 1), out=below)
        self.groups = [self._group(steps, ts, own, which, L) for ts in groups]

    def _group(self, steps: list[CovStep], ts: np.ndarray, own: list, which: np.ndarray, L: np.ndarray) -> tuple:
        """One group's rows and products; ``own`` are the band's distinct
        steps, ``which`` each band period's among them and ``L`` theirs."""
        k = self.k
        n_obs = steps[ts[0]].entry.Z.shape[0]
        entries, rows = _distinct([steps[t].entry for t in ts])
        update = _RowProducts(np.array([e.FinvMZ for e in entries]).reshape(len(entries), n_obs, 2 * k), rows)
        closed = ts[: np.searchsorted(ts, self.t_b - 1)]
        used, rows = np.unique(which[closed], return_inverse=True)
        K = np.array([own[i].K for i in used]).reshape(len(used), k, n_obs)
        P = np.array([own[i].entry.P_pred for i in used]).reshape(len(used), k, k)
        HGt = np.array([own[i].entry.HGt for i in used]).reshape(len(used), k, n_obs)
        smooth = _RowProducts(L[used] @ P - K @ HGt.transpose(0, 2, 1), rows)
        return ts, closed, _RowProducts(K.transpose(0, 2, 1), rows), update, smooth

    def _solve(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        if not self.k:
            return rhs
        x, _ = dtbtrs(self.ab, rhs.reshape(-1, 1), uplo="L", trans=trans, diag="U", overwrite_b=1)
        return x.reshape(rhs.shape)

    def filter(self, groups: list[BalancedGroup], a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The filtered means and w of the balanced periods, rows of two
        (t_b, k) arrays; ``a0`` is period 0's predicted mean less its d.

        The right-hand side of the band system is ``a0 + d_0`` and then
        ``K_t (y_t - c_t) + d_{t+1}``; the measurement update is one product
        with Z per group, then ``_RowProducts``."""
        k = self.k
        rhs = np.empty((self.t_b, k))
        rhs[0] = a0
        for g, (_, closed, gain, _, _) in zip(groups, self.groups):
            rhs[closed + 1] = gain(g.ymc[: len(closed)])
        for g in groups:
            rhs[g.ts] += g.d
        A = self._solve(rhs, "N")
        A_filt = np.empty_like(A)
        W = np.empty_like(A)
        for g, (ts, _, _, update, _) in zip(groups, self.groups):
            At = A[ts]
            X = update(g.ymc - At @ g.mats.Z.T)
            A_filt[ts] = At + X[:, :k]
            W[ts] = X[:, k:]
        return A_filt, W

    def smooth(self, A_filt: np.ndarray, W: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The smoothed means of the balanced periods as rows, the last row
        left for the caller, and the adjoint of period 0's predicted mean.

        ``r`` is the adjoint of period t_b-1's predicted mean.  The adjoints
        of the earlier ones, ``r_{t-1} = L_t' r_t + w_t``, solve the
        transposed band system."""
        rhs = W.copy()
        rhs[-1] = r
        x = self._solve(rhs, "T")
        states = np.empty_like(A_filt)
        for _, closed, _, _, smooth in self.groups:
            states[closed] = A_filt[closed] + smooth(x[closed + 1])
        return states, x[0]


@dataclass(frozen=True)
class Means:
    """Per-period vectors of a mean pass: those of a draw's balanced periods
    as the rows of ``head`` (no rows in a run of per-period records only),
    and one per later period in ``tail``."""

    head: np.ndarray
    tail: list[np.ndarray]


@dataclass(eq=False)
class FilterResult:
    """One draw's forward mean pass: the filtered means and
    ``w = Z' F^-1 v`` (``Means``), and the innovations ``v`` of the periods
    in their tails.  ``band`` is the balanced periods' ``MeanBand``, None
    when there are none."""

    run: PassRun
    a_filt: Means
    v: list[np.ndarray]
    w: Means
    band: MeanBand | None = None


def _filter_steps(steps: list[CovStep], periods: list[PeriodSystem], a: np.ndarray) -> tuple[list, list, list]:
    """The per-period forward pass from ``a``, the filtered mean before the
    first period: per period the prediction through its transition, then
    the measurement update.  Returns the filtered means, v and w."""
    a_filt, v, w = [], [], []
    for step, per in zip(steps, periods):
        a = per.mats.T @ a + per.d
        e, dim = step.entry, len(a)
        v.append(per.ymc - e.Z @ a)
        x = v[-1] @ e.FinvMZ
        a = a + x[:dim]
        a_filt.append(a)
        w.append(x[dim:])
    return a_filt, v, w


def run_filter(
    periods: list[PeriodSystem] | DrawPeriods,
    init: FilterState,
    run: PassRun | None = None,
    band: MeanBand | None = None,
) -> FilterResult:
    """The forward mean pass over a run of periods:
    ``a_{t+1} = L_t a_t + K_t (y_t - c_t) + d_{t+1}``.

    ``init`` is the state distribution before the first period, which
    predicts through its own transition.  ``run`` is the covariance side
    (``CovariancePass.run``); without one a list of periods computes its
    own from ``init.P``.  On a draw's periods (``build_periods``) the
    balanced ones take the products and the solve of ``band``, the
    ``MeanBand`` of ``run``'s balanced steps (``MeanBand.filter``), and the
    ragged-edge periods after them per-period steps; any other list of
    periods takes per-period steps throughout.
    """
    if not isinstance(periods, DrawPeriods):
        if run is None:
            run = CovariancePass(periods, init.P).run(len(periods))
        none = np.zeros((0, 0))
        a_filt, v, w = _filter_steps(run.steps, periods, init.a)
        return FilterResult(run, Means(none, a_filt), v, Means(none, w))
    groups = periods.groups
    A_filt, W = band.filter(groups, groups[0].mats.T @ init.a)
    a_filt, v, w = _filter_steps(run.steps[band.t_b :], periods.edge, A_filt[-1])
    return FilterResult(run, Means(A_filt, a_filt), v, Means(W, w), band)


def _smooth_steps(
    steps: list[CovStep], a_filt: list[np.ndarray], w: list[np.ndarray], r_init: np.ndarray | None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The per-period backward pass over ``steps``, the last open; returns
    the smoothed means and the adjoint of the first period's predicted
    mean."""
    last = len(steps) - 1
    states: list[np.ndarray] = [None] * len(steps)  # type: ignore[list-item]
    if r_init is None:
        states[last], r = a_filt[last], w[last]
    else:
        e = steps[last].entry
        states[last] = a_filt[last] + e.P_filt @ r_init
        r = r_init - e.Z.T @ (e.MFinv.T @ r_init) + w[last]
    for t in range(last - 1, -1, -1):
        step = steps[t]
        e = step.entry
        ltr = step.L.T @ r
        states[t] = a_filt[t] + e.P_pred @ ltr - e.HGt @ (step.K.T @ r)
        r = ltr + w[t]
    return states, r


def run_smoother(
    periods: list[PeriodSystem] | DrawPeriods,
    filtered: FilterResult,
    r_init: np.ndarray | None = None,
) -> tuple[Means, np.ndarray]:
    """The backward mean pass over the periods of ``filtered``; returns the
    smoothed state means and the final adjoint r_0.

    ``r_{t-1} = L_t' r_t + Z_t' F_t^-1 v_t`` with the smoothed means
    ``a_filt + (P_pred L_t' - H G' K_t') r_t``: per period over the
    per-period steps, and over a draw's balanced periods one transposed
    band solve and one product per group or shared step
    (``MeanBand.smooth``).  The last period's step is open: ``r_init`` is
    the adjoint of its filtered state, which a caller that continued past
    it hands back, so its smoothed mean is ``a_filt + P_filt r_init`` and
    the adjoint before it ``r_init - Z' F^-1 M' r_init + Z' F^-1 v``.
    Without one the adjoint is zero there and the smoothed mean is the
    filtered one.
    """
    run, band, a_filt, w = filtered.run, filtered.band, filtered.a_filt, filtered.w
    if band is None:
        states, r = _smooth_steps(run.steps, a_filt.tail, w.tail, r_init)
        return Means(a_filt.head, states), r
    # the last balanced period closes onto the edge or restarts from r_init
    # per period, and hands the band the adjoint of its predicted mean
    h = band.t_b - 1
    states, r = _smooth_steps(run.steps[h:], [a_filt.head[h], *a_filt.tail], [w.head[h], *w.tail], r_init)
    head, r = band.smooth(a_filt.head, w.head, r)
    head[h] = states[0]
    return Means(head, states[1:]), r


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
