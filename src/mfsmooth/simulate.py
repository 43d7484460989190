"""Synthetic instance generation: random stable VARs, latent paths, and the
ragged-edge missingness recipes used by the benchmark experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .kalman import FilterState, init_state, initial_factor
from .model import (
    AggregationScheme,
    MixedFreqData,
    VarParams,
    check_dimensions,
    intra_quarterly_average,
)

__all__ = [
    "random_stable_params",
    "missing_both_count",
    "benchmark_pattern",
    "simulate_var_path",
    "make_instance",
    "Instance",
]

# random_stable_params: the companion spectral radius a draw must stay
# below, the scale of its lag coefficients before any rescale, and the
# powers of the companion its radius certificate tries before the eigenvalues
SPECTRAL_BOUND = 0.95
COEF_SCALE = 0.4
CERTIFY_STEPS = 128


def _radius_bound(coeff_row: np.ndarray) -> float:
    """An upper bound on the spectral radius of the companion matrix F whose
    top block row is ``coeff_row`` (n x np), from powers of F, not its
    eigenvalues.

    R_k, the top block row of F^k, follows R_{k+1} = R_k[:, :n] coeff_row +
    R_k shifted one block left, and block row j of F^k is R_{k-j}.  So for
    k >= p, rho(F) <= ||F^k||_inf^(1/k) = (max_{j<p} ||R_{k-j}||_inf)^(1/k).
    Returns the first such bound below ``SPECTRAL_BOUND``, else the smallest
    for k <= ``CERTIFY_STEPS``.
    """
    n, npp = coeff_row.shape
    p = npp // n
    R = coeff_row
    norms = [np.abs(R).sum(axis=1).max()]
    best = np.inf
    for k in range(2, CERTIFY_STEPS + 1):
        nxt = R[:, :n] @ coeff_row
        nxt[:, : npp - n] += R[:, n:]
        R = nxt
        norms.append(np.abs(R).sum(axis=1).max())
        if k >= p:
            best = min(best, max(norms[-p:]) ** (1.0 / k))
            if best < SPECTRAL_BOUND:
                break
    return best


def random_stable_params(n_m: int, n_q: int, p: int, rng: np.random.Generator) -> VarParams:
    """Random VAR rescaled lag-wise until the companion spectral radius is
    below ``SPECTRAL_BOUND``.

    The eigenvalues are computed only when ``_radius_bound`` cannot certify
    the radius below the bound; the certificate draws nothing from ``rng``.
    """
    check_dimensions(n_m, n_q, p)
    n = n_m + n_q
    lag_coeffs = rng.normal(scale=COEF_SCALE / math.sqrt(n * p), size=(p, n, n))
    intercept = rng.normal(scale=0.1, size=n)
    B = rng.normal(scale=0.2 / math.sqrt(n), size=(n, n))
    sigma = B @ B.T + 0.5 * np.eye(n)
    chol = np.linalg.cholesky(sigma)
    params = VarParams(n_m, n_q, p, intercept, lag_coeffs, chol)
    if _radius_bound(params.coeff_row) < SPECTRAL_BOUND:
        return params
    radius = np.abs(np.linalg.eigvals(params.companion_transition(p))).max()
    if radius >= SPECTRAL_BOUND:
        scale = SPECTRAL_BOUND / radius * 0.98
        lag_coeffs = lag_coeffs * scale ** np.arange(1, p + 1)[:, None, None]
        params = VarParams(n_m, n_q, p, intercept, lag_coeffs, chol)
    return params


def missing_both_count(n: int, recipe: str = "bracket") -> int:
    """How many monthly variables are missing over the whole ragged edge.

    ``bracket`` is the benchmark default (1 up to n=40, 2 up to 80, 3 above);
    ``fraction`` uses ceil(0.025 n).
    """
    if recipe == "fraction":
        return math.ceil(0.025 * n)
    if recipe != "bracket":
        raise ConfigurationError(f"unknown missingness recipe {recipe!r}")
    if n <= 40:
        return 1
    if n <= 80:
        return 2
    return 3


def benchmark_pattern(n_m: int, n_q: int, T: int, t_balanced: int, recipe: str = "bracket") -> np.ndarray:
    """Boolean (T, n) observation mask for the benchmark design.

    The last T - t_balanced periods form the ragged edge: a few monthly
    variables are missing throughout it, the fully observed share is
    ceil(0.3 n), the rest are missing in the final period only.  Quarterly
    values appear at every third month.  A ``t_balanced`` outside 0..T
    raises ``ConfigurationError``.
    """
    if not 0 <= t_balanced <= T:
        raise ConfigurationError(f"t_balanced = {t_balanced} is outside 0..T, T = {T}")
    n = n_m + n_q
    k_both = missing_both_count(n, recipe)
    k_full = math.ceil(0.3 * n)
    if k_both + k_full > n_m:
        raise ConfigurationError(
            f"missingness recipe needs {k_both + k_full} monthly variables, have {n_m}"
        )
    mask = np.zeros((T, n), dtype=bool)
    mask[:, :n_m] = True
    if t_balanced < T:
        # edge except the last period: only the always-missing block is out
        mask[t_balanced:, n_m - k_both :] = False
        mask[T - 1, k_full:n_m] = False
    mask[:, n_m:] = (np.arange(1, T + 1) % 3 == 0)[:, None]
    return mask


def simulate_var_path(
    params: VarParams,
    data: MixedFreqData,
    rng: np.random.Generator,
    init: FilterState,
    scheme: AggregationScheme,
) -> tuple[np.ndarray, np.ndarray]:
    """A path of the full VAR, constants included, and its observations
    under the data's pattern: the (T, n) path and the (T, n) observations
    (NaN where the data are missing).

    Pre-sample monthly values are zero; the pre-sample quarterly stack is
    drawn from ``init``.  The generator gives that draw, then one (T, n)
    block of shocks.  The path is kept in reversed time: row i of the buffer
    holds period T-1-i and rows T..T+p the pre-sample periods -1..-(p+1), so
    period t's lag stack is the contiguous run of rows T-t..T-t+p-1, in
    ``coeff_row``'s lag order, which the recursion reads in place.
    """
    n, n_m, p = params.n, params.n_m, params.p
    T = data.T
    rev = np.zeros((T + p + 1, n))
    L0, _ = initial_factor(init.P)
    s = L0 @ rng.standard_normal(len(L0)) + init.a
    # initial group `lag` holds the quarterly values at time -1-lag
    rev[T:, n_m:] = s.reshape(p + 1, params.n_q)
    eps = rng.standard_normal((T, n))
    if params.time_varying_cov:
        shocks = np.matmul(params.chol_cov[:T], eps[:, :, None])[:, :, 0]
    else:
        shocks = eps @ params.chol_cov[0].T
    shocks += params.intercept
    rev[:T] = shocks[::-1]
    flat = rev.reshape(-1)
    coeff_row = params.coeff_row
    for i in range(T - 1, -1, -1):
        rev[i] += coeff_row @ flat[(i + 1) * n : (i + 1 + p) * n]
    x = rev[:T][::-1]

    # row i: the aggregate of the quarterly values at periods T-1-i, T-2-i, ...
    quarterly = sum(w * rev[lag : lag + T, n_m:] for lag, w in enumerate(scheme.weights))
    pat = data.pattern
    observed = np.hstack([pat.observed_monthly, pat.quarterly_observed])
    y = np.where(observed, np.hstack([x[:, :n_m], quarterly[::-1]]), np.nan)
    return x, y


@dataclass(frozen=True)
class Instance:
    params: VarParams
    scheme: AggregationScheme
    data: MixedFreqData
    x_true: np.ndarray


def make_instance(
    n_m: int,
    n_q: int,
    p: int,
    T: int,
    t_balanced: int,
    rng: np.random.Generator,
    scheme: AggregationScheme | None = None,
    recipe: str = "bracket",
    mask: np.ndarray | None = None,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> Instance:
    """Random parameters, a simulated latent path, and masked observations."""
    scheme = scheme or intra_quarterly_average()
    params = random_stable_params(n_m, n_q, p, rng)
    if mask is None:
        mask = benchmark_pattern(n_m, n_q, T, t_balanced, recipe)
    shape_data = MixedFreqData.from_values(np.where(mask, 0.0, np.nan), n_m, n_q)
    init = init_state(params, init_mode, kappa)
    x, y = simulate_var_path(params, shape_data, rng, init, scheme)
    values = np.full((T, n_m + n_q), np.nan)
    values[:, :n_m] = np.where(mask[:, :n_m], x[:, :n_m], np.nan)
    # quarterly observations aggregate the simulated latent path
    values[:, n_m:] = y[:, n_m:]
    data = MixedFreqData.from_values(values, n_m, n_q, min_balanced=p + 1)
    return Instance(params, scheme, data, x)
