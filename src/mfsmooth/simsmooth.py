"""Simulation smoothing: draws of the latent monthly-frequency panel given
parameters and ragged-edge data.

A pseudo latent path and pseudo observations are simulated from the model
with constants excluded, the smoother runs on the difference y - y+ with
constants included, and the draw is the smoothed mean plus the pseudo path.
The backend receives the data and the pseudo sample, not y - y+ alone: the
balanced periods' constants are linear in the data, so their part from y is
formed once per data object (``baseline.Plan.data_part``) and their part
from y+ is read off the pseudo path's shocks (``systems.build_periods``).
Per-draw generators are keyed by (master seed, draw index) with a
counter-based bit generator, so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import run_adaptive
from .baseline import RunStats, fill_observed, plan_for, run_baseline
from .blocked import run_blocked
from .errors import ConfigurationError
from .kalman import FilterState
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``gen_pseudo``
# reaches it through ``plan_for``
from .kalman import init_state  # noqa: F401

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
    shocks: np.ndarray       # (T, n) the path's shocks: x_plus less its lag terms
    init_jitter: bool        # the initial covariance needed jitter to factorize


@dataclass(frozen=True)
class LatentDraw:
    x: np.ndarray            # (T, n)
    backend: str
    stats: RunStats


def _draw_initial_quarterly(
    init: FilterState, rng: np.random.Generator, centered: bool
) -> tuple[np.ndarray, bool]:
    """A draw of the initial quarterly stack, and whether its covariance
    needed a jitter of 1e-10 trace/k on the diagonal to factorize."""
    P = init.P
    jitter = False
    try:
        C = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        C = np.linalg.cholesky(P + 1e-10 * np.trace(P) / P.shape[0] * np.eye(P.shape[0]))
        jitter = True
    s = C @ rng.standard_normal(P.shape[0])
    if not centered:
        s += init.a
    return s, jitter


def simulate_path(
    params: VarParams,
    data: MixedFreqData,
    rng: np.random.Generator,
    init: FilterState,
    centered: bool = True,
    *,
    scheme: AggregationScheme,
) -> PseudoSample:
    """Simulate a latent path and its observations under the data's pattern.

    Pre-sample monthly values are zero (the same convention the filters
    use); the pre-sample quarterly stack is drawn from the filter's
    initialization distribution.  ``centered`` drops all constants.  The
    generator gives the initial quarterly draw, then one (T, n) block of
    shocks.

    The path is kept in reversed time: row i of the buffer holds period
    T-1-i and rows T..T+p the pre-sample periods -1..-(p+1).  Period t's lag
    stack (x_{t-1}', ..., x_{t-p}')' is then the contiguous run of rows
    T-t..T-t+p-1, in ``coeff_row``'s lag order, which the recursion reads in
    place.  The shocks are one product over the sample, and the quarterly
    pseudo-observations one weighted sum of shifted slices of the buffer.
    """
    n, n_m, p = params.n, params.n_m, params.p
    T = data.T
    rev = np.zeros((T + p + 1, n))
    s, jitter = _draw_initial_quarterly(init, rng, centered)
    # initial group `lag` holds the quarterly values at time -1-lag
    rev[T:, n_m:] = s.reshape(p + 1, params.n_q)
    eps = rng.standard_normal((T, n))
    if params.time_varying_cov:
        shocks = np.matmul(params.chol_cov[:T], eps[:, :, None])[:, :, 0]
    else:
        shocks = eps @ params.chol_cov[0].T
    if not centered:
        shocks += params.intercept
    rev[:T] = shocks[::-1]
    flat = rev.reshape(-1)
    coeff_row = params.coeff_row
    for i in range(T - 1, -1, -1):
        rev[i] += coeff_row @ flat[(i + 1) * n : (i + 1 + p) * n]
    x_plus = rev[:T][::-1]

    # row i: the aggregate of the quarterly values at periods T-1-i, T-2-i, ...
    quarterly = sum(w * rev[lag : lag + T, n_m:] for lag, w in enumerate(scheme.weights))
    pat = data.pattern
    observed = np.hstack([pat.observed_monthly, pat.quarterly_observed])
    y_plus = np.where(observed, np.hstack([x_plus[:, :n_m], quarterly[::-1]]), np.nan)
    return PseudoSample(x_plus, y_plus, rev[T:][::-1].copy(), shocks, jitter)


def gen_pseudo(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    rng: np.random.Generator,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> PseudoSample:
    plan = plan_for(params, agg, data, init_mode, kappa)
    return simulate_path(params, data, rng, plan.init, centered=True, scheme=plan.agg.scheme)


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
    result = BACKENDS[backend](params, agg, data, init_mode, kappa, pseudo)
    x = result.x_hat   # in place: the draw keeps the array the smoother allocated last
    x += pseudo.x_plus
    # observed entries are exact by construction; overwrite to drop fp residue
    fill_observed(x, data)
    result.stats.init_jitter = int(pseudo.init_jitter)
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
    if n_draws < 0:
        raise ConfigurationError(f"n_draws must be >= 0, got {n_draws}")
    out = np.empty((n_draws, data.T, params.n))
    for i in range(n_draws):
        out[i] = draw_latent(
            params, agg, data, backend, rng=_rng_for(seed, i), init_mode=init_mode, kappa=kappa
        ).x
    return out
