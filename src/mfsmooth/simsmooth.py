"""Simulation smoothing: draws of the latent monthly-frequency panel given
parameters and ragged-edge data.

A pseudo latent path and pseudo observations are simulated from the model
with constants excluded, the smoother runs on the difference y - y+ with
constants included, and the draw is the smoothed mean plus the pseudo path.
Per-draw generators are keyed by (master seed, draw index) with a
counter-based bit generator, so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import run_adaptive
from .baseline import RunStats, run_baseline
from .blocked import run_blocked
from .errors import ConfigurationError
from .kalman import FilterState, init_state
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams

__all__ = ["PseudoSample", "LatentDraw", "gen_pseudo", "draw_latent", "draw_many", "BACKENDS"]


BACKENDS = {
    "baseline": run_baseline,
    "blocked": run_blocked,
    "adaptive": run_adaptive,
}


@dataclass(frozen=True)
class PseudoSample:
    x_plus: np.ndarray       # (T, n) pseudo latent path
    y_plus: np.ndarray       # (T, n), NaN where the data are missing
    presample: np.ndarray    # (p+1, n) pseudo values for times -(p+1)..-1


@dataclass(frozen=True)
class LatentDraw:
    x: np.ndarray            # (T, n)
    backend: str
    stats: RunStats


def _draw_initial_quarterly(init: FilterState, rng: np.random.Generator, centered: bool) -> np.ndarray:
    P = init.P
    try:
        C = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        C = np.linalg.cholesky(P + 1e-10 * np.trace(P) / P.shape[0] * np.eye(P.shape[0]))
    s = C @ rng.standard_normal(P.shape[0])
    if not centered:
        s += init.a
    return s


def simulate_path(
    params: VarParams,
    data: MixedFreqData,
    rng: np.random.Generator,
    init: FilterState,
    centered: bool = True,
    scheme: AggregationScheme | None = None,
    agg: Aggregation | None = None,
) -> PseudoSample:
    """Simulate a latent path and its observations under the data's pattern.

    Pre-sample monthly values are zero (the same convention the filters
    use); the pre-sample quarterly stack is drawn from the filter's
    initialization distribution.  ``centered`` drops all constants.
    """
    n, n_m, p = params.n, params.n_m, params.p
    T = data.T
    buf = np.zeros((p + 1 + T, n))
    s = _draw_initial_quarterly(init, rng, centered)
    for lag in range(p + 1):
        # initial group `lag` holds the quarterly values at time -1-lag
        buf[p - lag, n_m:] = s[lag * params.n_q : (lag + 1) * params.n_q]
    coeff_row = params.coeff_row
    eps = rng.standard_normal((T, n))
    # rolling lag stack (x_{t-1}', ..., x_{t-p}')', shifted in place each period
    lags = buf[1 : p + 1][::-1].reshape(-1).copy()
    for t in range(T):
        x_t = coeff_row @ lags + params.chol(t) @ eps[t]
        if not centered:
            x_t += params.intercept
        buf[p + 1 + t] = x_t
        lags[n:] = lags[: (p - 1) * n]
        lags[:n] = x_t
    x_plus = buf[p + 1 :]

    weights = (agg.scheme if agg is not None else scheme).weights
    p_q = len(weights)
    y_plus = np.full((T, n), np.nan)
    pat = data.pattern
    y_plus[:, :n_m][pat.observed_monthly] = x_plus[:, :n_m][pat.observed_monthly]
    for t in range(T):
        for j in pat.quarterly_rows(t):
            col = n_m + j
            vals = buf[p + 1 + t - p_q + 1 : p + 2 + t, col][::-1]
            y_plus[t, col] = weights[:p_q] @ vals
    return PseudoSample(x_plus, y_plus, buf[: p + 1].copy())


def gen_pseudo(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    rng: np.random.Generator,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> PseudoSample:
    init = init_state(params, init_mode, kappa)
    scheme = agg.scheme if isinstance(agg, Aggregation) else agg
    return simulate_path(params, data, rng, init, centered=True, scheme=scheme)


def _rng_for(master_seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(master_seed & (2**64 - 1)), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_latent(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    backend: str = "adaptive",
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> LatentDraw:
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    if rng is None:
        rng = _rng_for(0 if seed is None else seed, 0)
    pseudo = gen_pseudo(params, agg, data, rng, init_mode, kappa)
    y_star = data.values - pseudo.y_plus
    data_star = data.replace_values(y_star)
    result = BACKENDS[backend](params, agg, data_star, init_mode, kappa)
    x = result.x_hat + pseudo.x_plus
    # observed entries are exact by construction; overwrite to drop fp residue
    mask = ~np.isnan(data.values[:, : params.n_m])
    x[:, : params.n_m][mask] = data.values[:, : params.n_m][mask]
    return LatentDraw(x, backend, result.stats)


def draw_many(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    backend: str,
    n_draws: int,
    seed: int = 0,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> np.ndarray:
    """Stack of independent draws, deterministic in (seed, index).

    Returns an (n_draws, T, n) array."""
    out = np.empty((n_draws, data.T, params.n))
    for i in range(n_draws):
        out[i] = draw_latent(
            params, agg, data, backend, rng=_rng_for(seed, i), init_mode=init_mode, kappa=kappa
        ).x
    return out
