"""Reference smoother: reduced filtering for the balanced sample, a switch
to the full stacked (companion) formulation over the ragged edge, and a
switch back for the final smoothing pass.

The reduced filter's last record is closed with a transition onto the
stacked state (``compact_to_companion``), so the edge filter starts from the
lifted filtered state and the edge smoother's adjoint restarts the reduced
smoother directly (``companion_to_compact``), with no linear solve.  The
companion segment deliberately uses dense full-dimension products; the
other backends exist to avoid exactly that cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .kalman import (
    FilterRecord,
    FilterState,
    Transition,
    init_state,
    quarterly_state_index,
    run_filter,
    run_smoother,
)
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams, build_aggregation
from .systems import (
    PeriodSystem,
    SystemMatrices,
    build_companion_system,
    build_periods,
    build_system_matrices,  # noqa: F401  bound for perfbench/layertrace.py's COUNTED table
)

__all__ = ["RunStats", "SmoothResult", "run_baseline", "compact_to_companion", "companion_to_compact"]


@dataclass
class RunStats:
    """Step counters used to verify which formulations a run touched."""

    compact_steps: int = 0
    companion_steps: int = 0
    adaptive_steps: int = 0


@dataclass
class SmoothResult:
    x_hat: np.ndarray                     # (T, n) smoothed latent matrix
    stats: RunStats
    records: list[FilterRecord] = field(default=None, repr=False)  # type: ignore[assignment]


def prepare(params: VarParams, agg: Aggregation | AggregationScheme) -> Aggregation:
    if isinstance(agg, AggregationScheme):
        # reuse one expansion per scheme so repeated draws share cached
        # period structures downstream
        dims = (params.n_m, params.n_q, params.p)
        cached = getattr(agg, "_expanded", None)
        if cached is not None and cached[0] == dims:
            return cached[1]
        expanded = build_aggregation(agg, *dims)
        object.__setattr__(agg, "_expanded", (dims, expanded))
        return expanded
    if (agg.n_m, agg.n_q, agg.p) != (params.n_m, params.n_q, params.p):
        raise ConfigurationError("aggregation dimensions do not match the VAR parameters")
    return agg


def check_pattern(params: VarParams, data: MixedFreqData) -> None:
    if data.pattern.t_balanced < params.p + 1:
        raise ConfigurationError(
            f"need at least p+1={params.p + 1} balanced leading periods, "
            f"found {data.pattern.t_balanced}"
        )


def fill_states(x: np.ndarray, states: list[np.ndarray], periods: list[PeriodSystem], n_m: int) -> None:
    """Write each period's smoothed head (latent monthly and quarterly) into x."""
    for per, a in zip(periods, states):
        idx = per.mats.idx
        k = len(idx.u_t)
        x[per.t, idx.u_t] = a[:k]
        x[per.t, n_m:] = a[k : idx.head_size]


def fill_observed(x: np.ndarray, data: MixedFreqData) -> None:
    mask = ~np.isnan(data.values[:, : data.n_m])
    x[:, : data.n_m][mask] = data.values[:, : data.n_m][mask]


def smooth_balanced(
    params: VarParams,
    agg: Aggregation,
    data: MixedFreqData,
    init: FilterState,
) -> SmoothResult:
    """Reduced-form filtering and smoothing over a fully balanced sample.

    This is the single code path all backends share when there is no ragged
    edge.
    """
    periods = build_periods(params, agg, data)
    res = run_filter(periods, init)
    states, _ = run_smoother(res.records)
    x = np.empty((data.T, params.n))
    fill_states(x, states, periods, params.n_m)
    fill_observed(x, data)
    stats = RunStats(compact_steps=len(periods))
    return SmoothResult(x, stats, res.records)


def compact_to_companion(params: VarParams, data: MixedFreqData, t_b: int) -> Transition:
    """Noise-free transition from the reduced state at t_b-1 onto the stacked
    (companion) state at the same period.

    ``E`` places the reduced state on its quarterly positions and ``a_known``
    holds the known monthly values at lags 0..p, which enter with zero
    variance.  Closing the reduced filter with it makes ``run_filter`` return
    the lifted filtered state as ``final_pred``.
    """
    n, p = params.n, params.p
    qi = quarterly_state_index(params)
    E = np.zeros((n * (p + 1), len(qi)))
    E[qi, np.arange(len(qi))] = 1.0
    a_known = np.zeros((p + 1, n))
    a_known[:, : params.n_m] = data.values[t_b - 1 - p : t_b, : params.n_m][::-1]
    return E, a_known.reshape(-1), 0.0


def companion_to_compact(r: np.ndarray, params: VarParams) -> np.ndarray:
    """Adjoint that restarts the reduced smoother at the balanced boundary.

    ``r`` is the edge smoother's adjoint for the stacked state predicted at
    t_b; the result ``F1' r`` is the adjoint for the lifted state at t_b-1,
    onto which ``compact_to_companion`` closed the last reduced record.
    """
    n, npp = params.n, params.n * params.p
    out = np.zeros(npp + n)
    out[:npp] = params.coeff_row.T @ r[:n] + r[n:]
    return out


def companion_periods(
    params: VarParams, agg: Aggregation, data: MixedFreqData, start: int
) -> list[PeriodSystem]:
    periods = []
    pattern = data.pattern
    for t in range(start, pattern.T):
        comp = build_companion_system(params, agg, pattern, t)
        mats = SystemMatrices(
            Z=comp.Z,
            C=np.zeros((comp.Z.shape[0], 0)),
            G=np.zeros((comp.Z.shape[0], params.n)),
            T=comp.transition,
            D=np.zeros((comp.transition.shape[0], 0)),
            H=comp.noise_chol,
            c0=np.zeros(comp.Z.shape[0]),
            d0=comp.intercept,
        )
        o_t = pattern.observed(t)
        y = np.concatenate([data.values[t, o_t], data.values[t, params.n_m + pattern.quarterly_rows(t)]])
        periods.append(PeriodSystem(mats, mats.c0, comp.intercept, y, t))
    return periods


def run_baseline(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> SmoothResult:
    """Reduced filtering to the balanced boundary, stacked-form filtering and
    smoothing over the ragged edge, then reduced smoothing back to t=1."""
    agg = prepare(params, agg)
    check_pattern(params, data)
    init = init_state(params, init_mode, kappa)
    if data.pattern.balanced:
        return smooth_balanced(params, agg, data, init)

    t_b = data.pattern.t_balanced
    periods = build_periods(params, agg, data, stop=t_b)
    res = run_filter(periods, init, final_transition=compact_to_companion(params, data, t_b))
    # the first edge period predicts through the dense companion transition
    edge = companion_periods(params, agg, data, t_b)
    res2 = run_filter(edge, res.final_pred)
    states2, r_tb = run_smoother(res2.records)
    states1, _ = run_smoother(res.records, r_init=companion_to_compact(r_tb, params))

    x = np.empty((data.T, params.n))
    fill_states(x, states1, periods, params.n_m)
    n = params.n
    for per, a in zip(edge, states2):
        x[per.t] = a[:n]
    fill_observed(x, data)
    stats = RunStats(compact_steps=len(periods), companion_steps=len(edge))
    return SmoothResult(x, stats, res.records + res2.records)
