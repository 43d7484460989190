"""Simulation smoothing: draws of the latent monthly-frequency panel given
parameters and ragged-edge data.

A draw solves the two systems whose solution is the smoothed mean, the
balanced sample's and the ragged edge's, on right-hand sides that carry the
model's own noise (perturbation-optimization: Papandreou and Yuille 2010;
with the aggregates as exact constraints, conditioning by kriging, Rue and
Held 2005, sec. 2.3.3).  Each period's VAR residual gains a shock W_t eta_t
and the initial stack's prior a standard normal offset; the constrained
minimizer then has exactly the mean and covariance of the latent values
given the data.  Over the balanced sample the noise's whole term on the
right-hand side has covariance K, the saddle-point matrix's block over
the quarterly unknowns, so it is drawn from one normal per unknown through
K's banded Cholesky factor (``kalman.BalancedSystem.perturbation``; Rue
2001, Chan and Jeliazkov 2009), and the data's parts of both right-hand
sides are formed once per data object (``baseline.Plan.balanced``,
``baseline.Plan.edge_data``).
``simulate_path`` draws the perturbation; no pseudo path is simulated.
``draw_many`` smooths its draws as one batch: one balanced solve on all of
their right-hand sides (``baseline.smooth``), then each draw's edge step,
written in place into the stack it returns.

Per-draw generators are keyed by (master seed, draw index) with a
counter-based bit generator, so results do not depend on scheduling.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .adaptive import run_adaptive
from .baseline import RunStats, plan_for, run_baseline
from .blocked import run_blocked
from .errors import ConfigurationError
from .kalman import BalancedSystem
from .model import AggregationScheme, MixedFreqData, VarParams

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
    """A draw's perturbation of the two systems' right-hand sides, or a
    batch's, one column of ``balanced`` and one leading slice of ``shocks``
    per draw (``draw_many``)."""

    balanced: np.ndarray     # (N,) or (N, m) added to the balanced system's right-hand side
    shocks: np.ndarray       # (T - t_b, n) or (m, T - t_b, n) W_t eta_t, added to the edge periods' VAR residuals


@dataclass(frozen=True)
class LatentDraw:
    x: np.ndarray            # (T, n)
    backend: str
    stats: RunStats


def simulate_path(
    params: VarParams,
    data: MixedFreqData,
    rng: np.random.Generator,
    system: BalancedSystem,
) -> PseudoSample:
    """A draw's perturbation for the plan's balanced ``system``.

    The generator gives one block of standard normals: the balanced
    system's ``n_normals`` (``BalancedSystem.perturbation``), one per
    quarterly unknown, (p+1+t_b) n_q, then n for each ragged-edge period,
    which its factor of Sigma_t turns into its shock.
    """
    n, T, t_b = params.n, data.T, data.pattern.t_balanced
    m = system.n_normals
    z = rng.standard_normal(m + (T - t_b) * n)
    eta = z[m:].reshape(T - t_b, n)
    if params.time_varying_cov:
        shocks = np.matmul(params.chol_cov[t_b:T], eta[:, :, None])[:, :, 0]
    else:
        shocks = eta @ params.chol_cov[0].T
    return PseudoSample(system.perturbation(z[:m]), shocks)


def gen_pseudo(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    rng: np.random.Generator,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> PseudoSample:
    """A draw's perturbation on the plan for the arguments (``simulate_path``)."""
    return simulate_path(params, data, rng, plan_for(params, scheme, data, init_mode, kappa).system)


def _rng_for(master_seed: int, index: int) -> np.random.Generator:
    """The generator of draw ``index`` under ``master_seed``, a Philox keyed
    by the pair; a seed that is not a non-bool integer (``np.integer``
    accepted) in 0..2**64-1 raises ``ConfigurationError``."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
        raise ConfigurationError(f"seed must be an integer, got {master_seed!r}")
    if not 0 <= master_seed < 2**64:
        raise ConfigurationError(f"seed {master_seed} is outside 0..2**64-1")
    key = np.array([np.uint64(master_seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed(master_seed: int) -> Callable[[int], np.random.Generator]:
    """``_rng_for(master_seed, i)`` for every i from one generator: the
    function returned assigns its Philox the state of key (master_seed, i),
    counter 0 and an empty buffer, the state a new one starts in, and
    returns it.  The assignment costs several times less than a new
    generator."""
    rng = _rng_for(master_seed, 0)
    state = rng.bit_generator.state

    def keyed(index: int) -> np.random.Generator:
        state["state"]["key"][1] = index
        rng.bit_generator.state = state
        return rng

    return keyed


def draw_latent(
    params: VarParams,
    scheme: AggregationScheme,
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
    elif seed is not None:
        raise ConfigurationError("give a seed or a generator (rng), not both")
    noise = gen_pseudo(params, scheme, data, rng, init_mode, kappa)
    result = BACKENDS[backend](params, scheme, data, init_mode, kappa, noise)
    return LatentDraw(result.x_hat, backend, result.stats)


def draw_many(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    backend: str,
    n_draws: int,
    seed: int = 0,
    init_mode: str = "stationary",
    kappa: float = 1e4,
) -> np.ndarray:
    """Stack of independent draws, deterministic in (seed, index): draw i
    is ``draw_latent``'s with the generator ``_rng_for(seed, i)``, one
    generator re-keyed for each draw (``_rekeyed``).

    The draws' perturbations (``simulate_path``) form one batch, which the
    backend smooths in one call (``baseline.smooth``): one solve of the
    balanced system on all of the batch's right-hand sides, then each
    draw's edge step, written into its slice of the result.  The inputs
    are checked as one draw's are, at any count: an unknown backend,
    parameters that do not fit the data and a count that is not an integer
    >= 0 raise ``ConfigurationError``.

    Returns an (n_draws, T, n) array."""
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    if isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer)) or n_draws < 0:
        raise ConfigurationError(f"n_draws must be an integer >= 0, got {n_draws!r}")
    keyed = _rekeyed(seed)
    system = plan_for(params, scheme, data, init_mode, kappa).system
    balanced = np.empty((system.size, n_draws), order="F")
    shocks = np.empty((n_draws, data.T - data.pattern.t_balanced, params.n))
    for i in range(n_draws):
        noise = simulate_path(params, data, keyed(i), system)
        balanced[:, i], shocks[i] = noise.balanced, noise.shocks
    batch = PseudoSample(balanced, shocks)
    return BACKENDS[backend](params, scheme, data, init_mode, kappa, batch).x_hat
