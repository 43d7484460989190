"""The smoothing routine all backends share, and the reference and adaptive
edge steps.

``smooth`` solves the balanced sample's system; the backends differ only in
the ragged-edge step they pass it.  What their draws share, both systems'
factorizations included, is prepared once per (parameters, aggregation,
pattern) by ``plan_for``.
The reference step, ``dense_edge``, deliberately places the boundary in a
dense stacked covariance (``compact_to_companion``) and uses dense
full-dimension companion products; the other backends exist to avoid
exactly that cost.  The adaptive one, ``adaptive_edge``, solves the plan's
``EdgeSystem``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError
from .kalman import (
    BalancedSystem,
    EdgeSystem,
    FilterState,
    filter_periods,
    init_state,
    quarterly_state_index,
    run_filter,
    run_smoother,
    smooth_periods,
)
from .model import Aggregation, AggregationScheme, MixedFreqData, ObservationPattern, VarParams, build_aggregation
from .systems import (
    Block,
    PeriodNoise,
    PeriodSystem,
    SystemMatrices,
    balanced_constants,
    build_periods,
    build_system_matrices,  # noqa: F401  bound for perfbench/layertrace.py's COUNTED table
    companion_observation,
)

if TYPE_CHECKING:
    from .blocked import CovariancePass
    from .simsmooth import PseudoSample

__all__ = ["RunStats", "SmoothResult", "smooth", "dense_edge", "adaptive_edge", "run_baseline",
           "compact_to_companion", "companion_to_compact"]


@dataclass
class RunStats:
    """Step counters used to verify which formulations a run touched, and
    the numerical path a draw took:

    - ``factorizations``: factorizations the plan computed for this draw:
      its balanced system's band LU and the band Cholesky factor of its K
      (the perturbation's), on the adaptive backend's first draw its edge
      system's LU, so 3 on a cold adaptive draw, and on the blocked
      backend's first draw its covariance pass's factors of F, one per
      edge period with an observation; 0 when the plan was warm;
    - ``worst_cond``: the edge's condition: the largest squared diagonal
      ratio of the edge step's factors of F (``blocked``, ``baseline``), or
      1/rcond of the edge system's LU (``adaptive``), a diagnostic with no
      threshold; 0 on a balanced sample (a zero pivot of either LU raises
      instead);
    - ``init_jitter``: 1 when the initial quarterly covariance needed jitter
      to factorize for the balanced system.
    """

    compact_steps: int = 0
    companion_steps: int = 0
    adaptive_steps: int = 0
    factorizations: int = 0
    worst_cond: float = 0.0
    init_jitter: int = 0


@dataclass
class SmoothResult:
    x_hat: np.ndarray                     # (T, n) smoothed latent matrix, or a batch's (m, T, n) draws
    stats: RunStats


def prepare(params: VarParams, scheme: AggregationScheme) -> Aggregation:
    return build_aggregation(scheme, params.n_q, params.p)


def check_pattern(params: VarParams, data: MixedFreqData) -> None:
    if (params.n_m, params.n_q) != (data.n_m, data.n_q):
        raise ConfigurationError(
            f"parameters for n_m={params.n_m}, n_q={params.n_q} on data with "
            f"n_m={data.n_m}, n_q={data.n_q}"
        )
    if data.pattern.t_balanced < params.p + 1:
        raise ConfigurationError(
            f"need at least p+1={params.p + 1} balanced leading periods, "
            f"found {data.pattern.t_balanced}"
        )
    k = params.chol_cov.shape[0]
    if params.time_varying_cov and k != data.T:
        raise ConfigurationError(f"time-varying chol_cov has {k} factors, the data {data.T} periods")


@dataclass(frozen=True)
class Plan:
    """What every draw for one (parameters, aggregation, pattern) shares:
    the expanded aggregation, the initial quarterly state and the balanced
    sample's factorized system (``BalancedSystem``), which every backend
    solves.  Every edge step continues from its filtered state at t_b-1;
    the adaptive one (``adaptive_edge``) solves the ragged edge's system
    (``EdgeSystem``), built from it on that step's first call (``edge``),
    and the blocked one (``blocked.blocked_edge``) runs its mean pass on
    the edge's covariance pass (``blocked.CovariancePass``), likewise built
    on that step's first call (``blocked_pass``).
    ``scheme`` is the caller's aggregation scheme and ``init_key`` the
    ``(init_mode, kappa)`` pair; with ``params`` they decide reuse.

    ``_last`` holds the data object the plan last ran on and the data's
    parts of the two systems' right-hand sides, which every draw and
    smoothed mean on that object shares: the balanced system's
    (``balanced``) and, once the edge's system is built, the edge's
    (``edge_data``).
    """

    params: VarParams
    scheme: AggregationScheme
    init_key: tuple[str, float]
    agg: Aggregation
    init: FilterState
    system: BalancedSystem
    _last: tuple[MixedFreqData, np.ndarray, np.ndarray | None] | None = field(
        default=None, init=False, repr=False, compare=False)
    _edge: EdgeSystem | None = field(default=None, init=False, repr=False, compare=False)
    _blocked: CovariancePass | None = field(default=None, init=False, repr=False, compare=False)

    def balanced(self, data: MixedFreqData) -> np.ndarray:
        """The balanced system's right-hand side at ``data``
        (``BalancedSystem.rhs``), from the residuals at zero quarterly values
        (``balanced_constants``), formed straight from the monthly series and,
        under a constant ``chol_cov``, projected by ``BalancedSystem.proj``
        as they are formed, and the observed aggregates: kept while ``data``
        is the same object, otherwise formed once and kept in its place."""
        if self._last is None or self._last[0] is not data:
            resid = balanced_constants(self.params, data, self.system.proj)
            agg = data.values[self.system.layout.agg_t, data.n_m + self.system.layout.agg_q]
            object.__setattr__(self, "_last", (data, self.system.rhs(resid, agg), None))
        return self._last[1]

    def edge_data(self, data: MixedFreqData) -> np.ndarray:
        """The edge system's right-hand side at ``data`` (``EdgeSystem.rhs``,
        which forms each edge period's VAR residual at zero latent values and
        reads the observed edge aggregates from the data's values): kept
        beside ``balanced`` while ``data`` is the same object."""
        balanced = self.balanced(data)
        if self._last[2] is None:
            object.__setattr__(self, "_last", (data, balanced, self.edge(data.pattern).rhs(data.values)))
        return self._last[2]

    def edge(self, pattern: ObservationPattern) -> EdgeSystem:
        """The ragged edge's system on the plan's ``pattern``, built and
        factorized on the first call."""
        if self._edge is None:
            object.__setattr__(self, "_edge", EdgeSystem(self.params, self.agg, pattern, self.system.P_filt))
        return self._edge

    def blocked_pass(self, pattern: ObservationPattern) -> CovariancePass:
        """The blocked edge's covariance pass on the plan's ``pattern``,
        built on the first call."""
        if self._blocked is None:
            from .blocked import CovariancePass    # blocked imports this module

            object.__setattr__(self, "_blocked", CovariancePass(self.params, self.agg, pattern, self.system.P_filt))
        return self._blocked

    def pop_factorizations(self) -> int:
        """Factorizations the plan computed since the last call."""
        return sum(part.pop_factorizations() for part in (self.system, self._edge, self._blocked) if part is not None)


def plan_for(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> Plan:
    """The prepared plan for a draw.

    The plan on ``data.pattern`` is reused while the parameters and the
    aggregation are the same objects and ``(init_mode, kappa)`` is equal;
    otherwise a new plan is built and replaces it there.  A new plan
    factorizes the balanced system, which every backend shares; the
    adaptive backend factorizes the edge's system on first use, and the
    blocked backend its covariance pass's factors of F.  It takes
    the band layout of the plan it replaces (``BandLayout``) when p is the
    same and the aggregation the same object, as in a Gibbs sampler's
    iterations.
    """
    pattern = data.pattern
    plan = pattern._plan
    init_key = (init_mode, kappa)
    if plan is not None and plan.params is params and plan.scheme is scheme and plan.init_key == init_key:
        return plan
    layout = plan.system.layout if plan is not None and plan.params.p == params.p and plan.scheme is scheme else None
    expanded = prepare(params, scheme)
    check_pattern(params, data)
    init = init_state(params, init_mode, kappa)
    plan = Plan(params, scheme, init_key, expanded, init, BalancedSystem(params, expanded, pattern, init, layout))
    object.__setattr__(pattern, "_plan", plan)
    return plan


def fill_states(x: np.ndarray, states: np.ndarray, periods: list[Block]) -> None:
    """Write the smoothed balanced quarterly path (``run_smoother``) into x
    in one assignment, at the (t, variable) positions of the balanced
    block's ``cells``."""
    t, v = periods[0].mats.cells
    x[t, v] = states


def fill_observed(x: np.ndarray, data: MixedFreqData, start: int = 0) -> None:
    """Write the observed monthly values of periods start..T-1 into x, a
    (T, n) panel or an (m, T, n) stack of them, through the pattern."""
    n_m = data.n_m
    np.copyto(x[..., start:, :n_m], data.values[start:, :n_m], where=data.pattern.observed_monthly[start:])


def companion_mean(params: VarParams, data: MixedFreqData, a_q: np.ndarray) -> np.ndarray:
    """The stacked (companion) mean at t_b-1: the known monthly values at
    lags 0..p, and ``a_q``, the reduced run's filtered mean, at the
    quarterly positions (``quarterly_state_index``)."""
    n, p, t_b = params.n, params.p, data.pattern.t_balanced
    a = np.zeros((p + 1, n))
    a[:, : params.n_m] = data.values[t_b - 1 - p : t_b, : params.n_m][::-1]
    a = a.reshape(-1)
    a[quarterly_state_index(params)] = a_q
    return a


def compact_to_companion(params: VarParams, data: MixedFreqData, boundary: FilterState) -> FilterState:
    """The reduced run's last filtered state, at t_b-1, placed in the stacked
    (companion) state of the same period.

    The reduced mean and covariance ``boundary`` (``BalancedSystem.last``,
    ``BalancedSystem.P_filt``) go to the quarterly positions
    (``quarterly_state_index``); the known monthly values at lags 0..p fill
    the rest of the mean, with zero variance (``companion_mean``).
    """
    a = companion_mean(params, data, boundary.a)
    qi = quarterly_state_index(params)
    P = np.zeros((len(a), len(a)))
    P[np.ix_(qi, qi)] = boundary.P
    return FilterState(a, P)


def companion_to_compact(r: np.ndarray, params: VarParams) -> np.ndarray:
    """``F1' r``: the adjoint ``r`` of the stacked state predicted at t
    carried back to the stacked state at t-1.

    At the balanced boundary its quarterly positions are the adjoint of the
    reduced filtered state at t_b-1, which restarts the reduced smoother.
    """
    n, npp = params.n, params.n * params.p
    out = np.zeros(npp + n)
    out[:npp] = params.coeff_row.T @ r[:n] + r[n:]
    return out


def companion_periods(
    params: VarParams, agg: Aggregation, data: MixedFreqData, start: int, shocks: np.ndarray | None = None
) -> list[PeriodSystem]:
    """Periods start..T-1 of the stacked (companion) formulation.

    The dense transition and intercept are built once for the call, and
    H H' once under a constant ``chol_cov`` (one batched product over the
    periods under a time-varying one); the observation noise and c are zero.
    With ``shocks``, a draw's (T - start, n) edge shocks, each period's
    intercept is less its shock.
    """
    n, dim = params.n, params.n * (params.p + 1)
    pattern = data.pattern
    F1 = params.companion_transition()
    Fc = params.companion_intercept()
    tv = params.time_varying_cov
    W = params.chol_cov[start:] if tv else params.chol_cov
    H = np.zeros((len(W), dim, n))
    H[:, :n] = W
    HHt = H @ H.transpose(0, 2, 1)
    d = np.tile(Fc, (pattern.T - start, 1))
    if shocks is not None:
        d[:, :n] -= shocks
    periods = []
    for t in range(start, pattern.T):
        o_t, q_rows = pattern.observed(t), pattern.quarterly_rows(t)
        Z = companion_observation(params, agg, o_t, q_rows)
        n_obs = Z.shape[0]
        mats = SystemMatrices(Z, np.zeros((n_obs, 0)), F1, np.zeros((dim, 0)), np.zeros(n_obs), Fc)
        noise = PeriodNoise(np.zeros((n_obs, dim)), HHt[t - start if tv else 0], np.zeros((n_obs, n_obs)))
        y = np.concatenate([data.values[t, o_t], data.values[t, params.n_m + q_rows]])
        periods.append(PeriodSystem(mats, noise, t, y, d[t - start]))
    return periods


def dense_edge(
    plan: Plan, data: MixedFreqData, boundary: FilterState, shocks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge step of the reference backend: the stacked-form filter and
    smoother with dense companion products, covariance side included, from
    ``boundary``, the balanced system's filtered state at t_b-1, placed in
    the dense stacked state (``compact_to_companion``), the intercepts less
    ``shocks`` when given (``companion_periods``); the adjoint is ``F1' r``
    at the quarterly positions (``companion_to_compact``)."""
    params = plan.params
    start = compact_to_companion(params, data, boundary)
    steps = filter_periods(companion_periods(params, plan.agg, data, data.pattern.t_balanced, shocks), start)
    states, r = smooth_periods(steps)
    r = companion_to_compact(r, params)[quarterly_state_index(params)]
    return np.array([a[: params.n] for a in states]), r, max(step.cond for step in steps)


def adaptive_edge(
    plan: Plan, data: MixedFreqData, boundary: FilterState, shocks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge step of the adaptive backend: one solve of the plan's
    ``EdgeSystem`` from the boundary's mean, on the data's right-hand side
    (``Plan.edge_data``) plus the term of a draw's ``shocks`` when given
    (``EdgeSystem.perturbation``); its multipliers are the adjoint."""
    system = plan.edge(data.pattern)
    rhs = plan.edge_data(data)
    if shocks is not None:
        rhs = rhs + system.perturbation(shocks)
    heads, r = system.smoothed(system.solve(rhs, boundary.a))
    return heads, r, system.cond


def smooth(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    edge: Callable[..., tuple[np.ndarray, np.ndarray, float]],
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    """The balanced sample's system, the ragged edge, then the balanced
    path lifted by the edge's adjoint.

    The balanced block is one solve of the plan's ``BalancedSystem``.  The
    ``edge`` step receives its compact boundary, the filtered quarterly
    state at t_b-1 (``BalancedSystem.last``, ``BalancedSystem.P_filt``):
    ``edge(plan, data, boundary, shocks)`` returns the smoothed (T - t_b, n)
    edge rows, the boundary's adjoint, of length (p+1) n_q, which lifts the
    balanced path with no linear solve, and its worst condition
    (``RunStats.worst_cond``).  A balanced sample (t_b = T) runs no step.

    The balanced system's right-hand side is the plan's at ``data``
    (``Plan.balanced``).  Without ``noise`` the result is the smoothed mean.
    With ``noise``, a draw's perturbation (``simsmooth.simulate_path``), the
    balanced system solves on a right-hand side that carries the model's own
    noise, and the edge step takes its shocks: the result is then a draw
    from the latent values' distribution given the data
    (perturbation-optimization; Papandreou and Yuille 2010).

    ``noise`` may also hold the perturbations of m draws, ``balanced`` as
    the columns of an (N, m) array and ``shocks`` as an (m, T - t_b, n)
    stack (``simsmooth.draw_many``).  Their balanced systems are then one
    solve on the m columns, the edge step and the lift run per draw on its
    column, and ``x_hat`` is the (m, T, n) stack of the draws.  A single
    right-hand side is the batch of one, whose draw or mean is (T, n).
    """
    plan = plan_for(params, scheme, data, init_mode, kappa)
    T, t_b = data.T, data.pattern.t_balanced
    periods = build_periods(plan.system, plan.balanced(data), noise)
    u = run_filter(periods)
    # one solution and one edge's shocks per draw; the edge's condition is
    # the same for every draw, as no draw's noise enters it
    single = u.ndim == 1
    if single:
        cols, shocks = [u], [None if noise is None else noise.shocks]
    else:
        cols, shocks = u.T, noise.shocks
    steps, worst_cond = [], 0.0
    for u_i, shocks_i in zip(cols, shocks):
        heads, r = None, None
        if T > t_b:
            boundary = FilterState(plan.system.last(u_i), plan.system.P_filt)
            heads, r, worst_cond = edge(plan, data, boundary, shocks_i)
        steps.append((heads, run_smoother(periods, u_i, r)))
    # allocated last: the result outlives the filter's working set, and placed
    # above it, it keeps that set's freed memory off the top of the heap, where
    # malloc would return it to the system for the next draw to fault back in.
    # It starts as the data, one contiguous copy, which on memory not yet in
    # cache costs less than writing the observed values in blocks and no more
    # than a zero fill; this writes the balanced rows' observed values.  The
    # quarterly path and the edge's rows overwrite the rest, then the edge's
    # observed values are written again
    x = np.empty((len(steps), T, params.n))
    x[...] = data.values
    for x_i, (heads, states) in zip(x, steps):
        if heads is not None:
            x_i[t_b:] = heads
        fill_states(x_i, states, periods)
    fill_observed(x, data, t_b)
    stats = RunStats(compact_steps=t_b, factorizations=plan.pop_factorizations(),
                     worst_cond=worst_cond, init_jitter=int(plan.system.jitter))
    if edge is adaptive_edge:
        stats.adaptive_steps = T - t_b
    else:
        stats.companion_steps = T - t_b
    return SmoothResult(x[0] if single else x, stats)


def run_baseline(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    """``smooth`` with the dense companion-form edge step."""
    return smooth(params, scheme, data, dense_edge, init_mode, kappa, noise)
