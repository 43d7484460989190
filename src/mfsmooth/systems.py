"""Per-period state-space system construction, and a draw's blocks.

One general builder covers the reduced (quarterly-stack) formulation and its
ragged-edge extension in which the state is augmented, period by period, with
exactly the currently-unobserved monthly variables.  The balanced case is the
special case ``U_t = {}``.  This per-period form needs a monotone edge, a
monthly variable once unobserved staying so (``AdaptiveIndex``).  The full
stacked (companion) formulation used by the reference smoother is built
separately (``baseline.companion_periods``).  A draw runs on neither per
period and takes any ragged edge: ``build_periods`` assembles the right-hand
side of the balanced sample's system (``kalman.BalancedSystem``) as a draw's
one ``Block``, and ``kalman.EdgeSystem`` forms the edge's from the data.

State layout: ``p+1`` lag groups, each group ``(x_{U_t}, x_q)`` with the
unobserved monthly indices ascending and the quarterly variables last.
Exogenous regressors are the observed monthly series, variable-major with
lags ``t-1..t-p`` inside each variable block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .model import Aggregation, MixedFreqData, VarParams

if TYPE_CHECKING:
    from .kalman import BalancedSystem
    from .simsmooth import PseudoSample

__all__ = [
    "AdaptiveIndex",
    "SystemMatrices",
    "PeriodSystem",
    "Block",
    "build_adaptive_T",
    "build_adaptive_D",
    "build_adaptive_Z",
    "build_adaptive_C",
    "adaptive_loadings",
    "PeriodNoise",
    "build_system_matrices",
    "companion_observation",
    "balanced_constants",
    "build_periods",
]


@dataclass(frozen=True)
class AdaptiveIndex:
    """Index sets driving one period's system matrices.

    ``u_t``/``o_t`` partition the monthly variables at period t;
    ``u_prev``/``o_prev`` at period t-1.  A monotone edge requires
    ``u_prev`` to be a subset of ``u_t``.  Each set ascends strictly, for ``np.searchsorted``.
    """

    u_t: np.ndarray
    o_t: np.ndarray
    u_prev: np.ndarray
    o_prev: np.ndarray
    n_m: int
    n_q: int

    def __post_init__(self):
        for name in ("u_t", "o_t", "u_prev", "o_prev"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=int))
            if np.any(np.diff(getattr(self, name)) <= 0):
                raise ConfigurationError(f"{name} must be strictly increasing")
        if not set(self.u_prev) <= set(self.u_t):
            raise ConfigurationError("non-monotone index sets: u_prev must be within u_t")
        if sorted(set(self.u_t) | set(self.o_t)) != list(range(self.n_m)):
            raise ConfigurationError("u_t and o_t must partition the monthly indices")

    @property
    def head_size(self) -> int:
        """|U_t| + n_q, the size of one current-state lag group."""
        return len(self.u_t) + self.n_q

    @property
    def prev_head_size(self) -> int:
        return len(self.u_prev) + self.n_q

    def head_vars(self) -> np.ndarray:
        """Global variable indices of one current lag group."""
        return np.concatenate([self.u_t, self.n_m + np.arange(self.n_q)])

    def prev_head_vars(self) -> np.ndarray:
        return np.concatenate([self.u_prev, self.n_m + np.arange(self.n_q)])


def _coeffs(params: VarParams, rows: np.ndarray, cols: np.ndarray, exog: bool = False) -> np.ndarray:
    """The lag 1..p coefficients of equations ``rows`` on variables ``cols``,
    one gather from ``coeff_row`` (lag ``l``, variable j at column
    ``(l - 1) * n + j``): lag-major like the state's lag groups, or with
    ``exog`` variable-major like the exogenous regressors."""
    lag = params.n * np.arange(params.p)
    cols = cols[:, None] + lag if exog else lag[:, None] + cols
    return params.coeff_row[np.ix_(rows, cols.ravel())]


def _shifted(idx: AdaptiveIndex, p: int) -> np.ndarray:
    """Where the t-1 head (U_{t-1}, then quarterly) sits in lag groups 1..p
    of the current state, lag-major."""
    pos = np.searchsorted(idx.head_vars(), idx.prev_head_vars())
    return (idx.head_size * np.arange(1, p + 1)[:, None] + pos).ravel()


def build_adaptive_T(params: VarParams, idx: AdaptiveIndex) -> np.ndarray:
    """Transition mapping the t-1 state onto the (possibly larger) t state.

    Top rows gather the lag coefficients restricted to the latent columns;
    the lower block scatters ones that place each still-tracked component
    one lag group down (the Kronecker selection structure).
    """
    p = params.p
    s, sp = idx.head_size, idx.prev_head_size
    T = np.zeros(((p + 1) * s, (p + 1) * sp))
    T[:s, : p * sp] = _coeffs(params, idx.head_vars(), idx.prev_head_vars())
    T[_shifted(idx, p), np.arange(p * sp)] = 1.0
    return T


def _newly_latent(idx: AdaptiveIndex, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The lag identities of the variables observed at t-1 but unobserved
    at t: their state rows in lag groups 1..p and the exogenous columns
    (variable-major) those rows copy."""
    newly = np.isin(idx.u_t, idx.o_prev)
    lag = np.arange(1, p + 1)[:, None]
    return lag * idx.head_size + np.flatnonzero(newly), np.searchsorted(idx.o_prev, idx.u_t[newly]) * p + lag - 1


def build_adaptive_D(params: VarParams, idx: AdaptiveIndex) -> np.ndarray:
    """Loadings of the state equation on lagged observed monthly data.

    The lower rows scatter the lag identities of variables observed at t-1
    but unobserved at t (the orthogonal-complement routing).
    """
    p = params.p
    s = idx.head_size
    D = np.zeros(((p + 1) * s, p * len(idx.o_prev)))
    D[:s] = _coeffs(params, idx.head_vars(), idx.o_prev, exog=True)
    D[_newly_latent(idx, p)] = 1.0
    return D


def build_adaptive_Z(
    params: VarParams, agg: Aggregation, idx: AdaptiveIndex, q_rows: np.ndarray
) -> np.ndarray:
    """Observation loading on the current stacked state.

    Monthly rows load lag coefficients only on components latent since t-1
    (observed lags arrive through the exogenous block instead); quarterly
    rows are ``lam_qq``'s, placed on the quarterly positions of lag groups
    ``0..p_q-1``.
    """
    n_o = len(idx.o_t)
    Z = np.zeros((n_o + len(q_rows), (params.p + 1) * idx.head_size))
    Z[:n_o, _shifted(idx, params.p)] = _coeffs(params, idx.o_t, idx.prev_head_vars())
    Z[n_o:, agg.quarterly_state_cols(idx.head_size, len(idx.u_t))] = agg.lam_qq[q_rows]
    return Z


def build_adaptive_C(params: VarParams, idx: AdaptiveIndex, q_rows: np.ndarray) -> np.ndarray:
    """Observation loadings on lagged observed monthly data (quarterly rows zero)."""
    C = np.zeros((len(idx.o_t) + len(q_rows), params.p * len(idx.o_prev)))
    C[: len(idx.o_t)] = _coeffs(params, idx.o_t, idx.o_prev, exog=True)
    return C


def adaptive_loadings(
    W: np.ndarray, idx: AdaptiveIndex, q_rows: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shock loadings G and H for a (k, n, n) stack of Cholesky factors.

    G loads the observed monthly rows (quarterly rows zero); H loads the
    current lag group of the state.
    """
    k, n = W.shape[:2]
    s = idx.head_size
    G = np.zeros((k, len(idx.o_t) + len(q_rows), n))
    G[:, : len(idx.o_t)] = W[:, idx.o_t]
    H = np.zeros((k, (p + 1) * s, n))
    H[:, :s] = W[:, idx.head_vars()]
    return G, H


@dataclass
class SystemMatrices:
    """The structural matrices shared by every period of one pattern key.

    ``c0``/``d0`` are the intercept parts; the data-dependent parts come from
    the exogenous regressor vector at each period.  The noise products, which
    change with t under a time-varying ``chol_cov``, are a ``PeriodNoise``.
    """

    Z: np.ndarray
    C: np.ndarray
    T: np.ndarray
    D: np.ndarray
    c0: np.ndarray
    d0: np.ndarray
    idx: AdaptiveIndex | None = None
    q_rows: np.ndarray | None = None

    @property
    def n_obs(self) -> int:
        return self.Z.shape[0]


@dataclass
class PeriodNoise:
    """Noise products of one period: G H', H H' and the constant part of
    the innovation covariance, F = Z M + F_const with F_const = G G' + G H' Z'."""

    GHt: np.ndarray
    HHt: np.ndarray
    F_const: np.ndarray


class PeriodSystem(NamedTuple):
    """One period: its structural matrices and noise products, all the
    covariance pass reads, its observations less their constant, y - c,
    and the state constant d."""

    mats: SystemMatrices
    noise: PeriodNoise
    t: int
    ymc: np.ndarray | None = None
    d: np.ndarray | None = None


class Block(NamedTuple):
    """A draw's balanced periods 0..t_b-1 solved as one system: ``mats``,
    the plan's ``kalman.BalancedSystem``, ``t`` its first period, 0, and the
    system's right-hand side for the draw (``rhs``)."""

    mats: BalancedSystem
    t: int
    rhs: np.ndarray


def build_system_matrices(
    params: VarParams,
    agg: Aggregation,
    idx: AdaptiveIndex,
    q_rows: np.ndarray,
) -> SystemMatrices:
    q_rows = np.asarray(q_rows, dtype=int)
    Z = build_adaptive_Z(params, agg, idx, q_rows)
    C = build_adaptive_C(params, idx, q_rows)
    T = build_adaptive_T(params, idx)
    D = build_adaptive_D(params, idx)
    c0 = np.zeros(Z.shape[0])
    c0[: len(idx.o_t)] = params.intercept[idx.o_t]
    d0 = np.zeros(T.shape[0])
    d0[: idx.head_size] = params.intercept[idx.head_vars()]
    return SystemMatrices(Z, C, T, D, c0, d0, idx=idx, q_rows=q_rows)


def companion_observation(
    params: VarParams,
    agg: Aggregation,
    o_t: np.ndarray,
    q_rows: np.ndarray,
) -> np.ndarray:
    """Observation loading on the stacked state: selection plus aggregation rows."""
    Z = np.zeros((len(o_t) + len(q_rows), params.n * (params.p + 1)))
    Z[np.arange(len(o_t)), o_t] = 1.0
    Z[len(o_t) :, agg.quarterly_state_cols(params.n, params.n_m)] = agg.lam_qq[q_rows]
    return Z


def balanced_constants(params: VarParams, data: MixedFreqData, proj: np.ndarray | None = None) -> np.ndarray:
    """The balanced periods' VAR residuals at zero quarterly values,
    r_t = E_m y_{m,t} - intercept - sum_i A_i[:, m] y_{m,t-i} (pre-sample
    lags zero), as (t_b, n) rows, or with ``proj``, an (r, n) matrix, their
    projections proj r_t as (t_b, r) rows.

    The coefficients of each lag are projected first, then one product of
    the monthly series with all p+1 of them, (t_b, n_m) by (n_m, (p+1) r),
    gives every period's term at every lag, and p shifted adds sum them: no
    lag stack is gathered.  A balanced period's residual reads only monthly
    values of balanced periods, which are data, so the balanced system's
    right-hand side formed from it is the same for every draw on ``data``
    (``baseline.Plan.balanced``, which projects by ``BalancedSystem.proj``).
    """
    n, n_m, p, t_b = params.n, params.n_m, params.p, data.pattern.t_balanced
    if proj is None:
        lead, rows, c = np.eye(n, n_m), params.coeff_row, params.intercept
    else:
        lead, rows, c = proj[:, :n_m], proj @ params.coeff_row, proj @ params.intercept
    r = len(rows)
    coeffs = np.empty((n_m, p + 1, r))    # [m, i]: lag i's coefficients on monthly variable m
    coeffs[:, 0] = lead.T
    coeffs[:, 1:] = -rows.reshape(r, p, n)[:, :, :n_m].transpose(2, 1, 0)
    terms = (data.values[:t_b, :n_m] @ coeffs.reshape(n_m, -1)).reshape(t_b, p + 1, r)
    out = terms[:, 0] - c
    for i in range(1, p + 1):
        out[i:] += terms[: t_b - i, i]
    return out


def build_periods(
    system: BalancedSystem,
    balanced: np.ndarray,
    noise: PseudoSample | None = None,
) -> list[Block]:
    """A draw's one block, on ``system``, the plan's
    ``kalman.BalancedSystem``: its right-hand side is ``balanced``, the
    data's part that the plan keeps
    (``baseline.Plan.balanced``), plus ``noise.balanced`` with ``noise``, a
    draw's perturbation (``simsmooth.simulate_path``)."""
    return [Block(system, 0, balanced if noise is None else balanced + noise.balanced)]
