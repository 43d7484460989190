"""Simulation smoothing: draws of the latent monthly-frequency panel given
parameters and ragged-edge data.

A pseudo latent path x+ and pseudo observations y+ are simulated from the
model the smoother runs, with its constants and its exogenous inputs (the
observed monthly lags) zero; the smoother runs on the observations y - y+
with the constants and with the inputs at y - x+, and the draw is the
smoothed mean plus x+ (Durbin and Koopman 2002).  Over the balanced sample
that model is the reduced one, the quarterly stack filtered and the monthly
values observed, so the pseudo sample there is one banded solve and one
product (``simulate_path``) and holds the monthly path at zero.  The
balanced periods' constants are then those of the data, formed once per
data object (``baseline.Plan.balanced``).  Over the ragged edge the
pseudo path runs the full VAR.

Per-draw generators are keyed by (master seed, draw index) with a
counter-based bit generator, so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .adaptive import run_adaptive
from .baseline import RunStats, fill_observed, plan_for, run_baseline
from .blocked import run_blocked
from .errors import ConfigurationError
from .kalman import FilterState, initial_factor
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
    x_plus: np.ndarray       # (T, n) pseudo latent path; monthly entries zero over the balanced sample
    y_plus: np.ndarray       # (T, n) pseudo observations, NaN where the data are missing
    init_jitter: bool        # the initial covariance needed jitter to factorize


@dataclass(frozen=True)
class LatentDraw:
    x: np.ndarray            # (T, n)
    backend: str
    stats: RunStats


def _draw_initial_quarterly(init: FilterState, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """A centered draw of the initial quarterly stack, and whether its
    covariance needed jitter to factorize (``initial_factor``)."""
    C, jitter = initial_factor(init.P)
    return C @ rng.standard_normal(C.shape[0]), jitter


def _quarterly_band(params: VarParams, t_b: int) -> np.ndarray:
    """Lower band storage of the unit lower-triangular matrix of the
    quarterly recursion over t_b periods: block (t+i, t) is -A_i[q, q] for
    i = 1..p and each diagonal block the identity, so its bandwidth is
    (p+1) n_q - 1.  The matrix is block Toeplitz, so every block column is
    stored alike."""
    n_m, n_q = params.n_m, params.n_q
    blocks = np.concatenate([np.eye(n_q), -params.lag_coeffs[:, n_m:, n_m:].reshape(-1, n_q)])
    band = np.zeros_like(blocks)
    for j in range(n_q):
        band[: len(blocks) - j, j] = blocks[j:, j]
    return np.tile(band, t_b)


def simulate_path(
    params: VarParams,
    data: MixedFreqData,
    rng: np.random.Generator,
    init: FilterState,
    *,
    scheme: AggregationScheme,
) -> PseudoSample:
    """A pseudo sample of the model the smoother runs, constants and
    exogenous inputs zero, under the data's pattern.

    Over the balanced periods the smoother conditions on the observed
    monthly values and filters the quarterly stack only, the monthly lags
    entering as inputs.  With those inputs zero the quarterly path is
    q_t = sum_i A_i[q, q] q_{t-i} + e_{q,t}, one banded triangular solve over
    the balanced sample with the pre-sample stack in its first p right-hand
    sides, and the monthly pseudo-observations are
    sum_i A_i[m, q] q_{t-i} + e_{m,t}, one product over the quarterly lag
    windows.  The path's monthly entries are zero there.  The ragged-edge
    periods run the full VAR recursion from that path.

    The pre-sample quarterly stack is drawn from the filter's
    initialization distribution, centered; the generator gives that draw,
    then one (T, n) block of shocks.
    """
    n, n_m, n_q, p = params.n, params.n_m, params.n_q, params.p
    T, t_b = data.T, data.pattern.t_balanced
    s, jitter = _draw_initial_quarterly(init, rng)
    eps = rng.standard_normal((T, n))
    if params.time_varying_cov:
        shocks = np.matmul(params.chol_cov[:T], eps[:, :, None])[:, :, 0]
    else:
        shocks = eps @ params.chol_cov[0].T

    # quarterly values at times -(p+1)..t_b-1, a row each: period t's lags,
    # times t-p..t-1, are one contiguous run, read in place for every t
    xq = np.zeros((p + 1 + t_b, n_q))
    # initial group `lag` holds the quarterly values at time -1-lag
    xq[: p + 1] = s.reshape(p + 1, n_q)[::-1]
    step = xq.itemsize
    windows = np.lib.stride_tricks.as_strided(xq[1:], (t_b, p * n_q), (n_q * step, step), writeable=False)
    coeffs = params.lag_coeffs[::-1, :, n_m:].transpose(0, 2, 1).reshape(p * n_q, n)
    if n_q:
        rhs = shocks[:t_b, n_m:].copy()
        # the pre-sample terms, while the sample rows are still zero
        rhs[:p] += windows[:p] @ coeffs[:, n_m:]
        # a unit diagonal: the solve cannot meet a zero pivot
        q, _ = dtbtrs(_quarterly_band(params, t_b), rhs.reshape(-1, 1), uplo="L", diag="U")
        xq[p + 1 :] = q.reshape(t_b, n_q)
    monthly = windows @ coeffs[:, :n_m]
    monthly += shocks[:t_b, :n_m]

    buf = np.zeros((p + 1 + T, n))   # row p+1+t holds period t
    buf[: p + 1 + t_b, n_m:] = xq
    coeff_row = params.coeff_row
    for t in range(t_b, T):
        # the lag stack x_{t-1}, ..., x_{t-p} in coeff_row's lag order
        buf[p + 1 + t] = coeff_row @ buf[p + t : t : -1].reshape(-1) + shocks[t]
    x_plus = buf[p + 1 :]

    values = np.empty((T, n))
    values[:t_b, :n_m] = monthly
    values[t_b:, :n_m] = x_plus[t_b:, :n_m]
    values[:, n_m:] = sum(w * buf[p + 1 - lag : p + 1 - lag + T, n_m:] for lag, w in enumerate(scheme.weights))
    pat = data.pattern
    observed = np.hstack([pat.observed_monthly, pat.quarterly_observed])
    y_plus = np.where(observed, values, np.nan)
    return PseudoSample(x_plus, y_plus, jitter)


def gen_pseudo(
    params: VarParams,
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    rng: np.random.Generator,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> PseudoSample:
    plan = plan_for(params, agg, data, init_mode, kappa)
    return simulate_path(params, data, rng, plan.init, scheme=plan.agg.scheme)


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
    result.stats.init_jitter |= int(pseudo.init_jitter)
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
