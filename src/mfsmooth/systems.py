"""Per-period state-space system construction, and a draw's blocks.

One general builder covers the reduced (quarterly-stack) formulation and its
ragged-edge extension in which the state is augmented, period by period, with
exactly the currently-unobserved monthly variables.  The balanced case is the
special case ``U_t = {}``.  That state is the companion state
(x_t, ..., x_{t-p}) restricted to the variables latent at t, so the builder
reads each period's T, D, C and Z off the companion transition F1
(``VarParams.companion_transition``).  Its index sets (``AdaptiveIndex``)
take a monotone edge, a monthly variable once unobserved staying so: the
reference the tests run period by period.  The full stacked (companion)
formulation used by the reference smoother is built separately
(``baseline.companion_periods``).  A draw runs on neither per period and
takes any ragged edge: ``build_periods`` assembles the right-hand side of the
balanced sample's system (``kalman.BalancedSystem``) as a draw's one
``Block``, and ``kalman.EdgeSystem`` forms the edge's from the data.

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


def _companion_block(params: VarParams, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``params.companion_transition()[np.ix_(rows, cols)]`` for ascending
    ``rows``, without the n(p+1)-square matrix: ``coeff_row`` on the first n
    rows and np columns, and the shift's ones, F1[c + n, c], below."""
    n, top = params.n, params.n * params.p
    k = np.searchsorted(rows, n)
    out = params.coeff_row[np.ix_(rows[:k], np.minimum(cols, top - 1))]
    out[:, cols >= top] = 0.0
    if k < len(rows):
        out = np.vstack([out, rows[k:, None] - n == cols])
    return out


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
    system's right-hand side for the draw (``rhs``), (N,), or (N, m) with
    one column for each of a batch's m draws."""

    mats: BalancedSystem
    t: int
    rhs: np.ndarray


def build_system_matrices(
    params: VarParams,
    agg: Aggregation,
    idx: AdaptiveIndex,
    q_rows: np.ndarray,
) -> SystemMatrices:
    """Z, C, T and D of one period, read off the companion transition F1:
    the state at t is the companion state restricted to ``cur``, at t-1 to
    ``prev``, and the exogenous regressors are the companion coordinates
    ``exog`` of the observed lags t-1..t-p.  Monthly rows of Z load the
    lagged values the state carries from t-1; newly latent ones arrive
    through D's ones and C instead."""
    n, p, n_o = params.n, params.p, len(idx.o_t)
    q_rows = np.asarray(q_rows, dtype=int)
    groups = n * np.arange(p + 1)[:, None]
    cur = (groups + idx.head_vars()).ravel()
    prev = (groups + idx.prev_head_vars()).ravel()
    exog = (idx.o_prev[:, None] + groups[:p].T).ravel()
    T = _companion_block(params, cur, prev)
    D = _companion_block(params, cur, exog)
    C = np.zeros((n_o + len(q_rows), len(exog)))
    C[:n_o] = _companion_block(params, idx.o_t, exog)
    Z = np.zeros((n_o + len(q_rows), len(cur)))
    held = np.isin(cur, prev + n)
    Z[:n_o, held] = _companion_block(params, idx.o_t, cur[held] - n)
    Z[n_o:, agg.quarterly_state_cols(idx.head_size, len(idx.u_t))] = agg.lam_qq[q_rows]
    c0 = np.zeros(Z.shape[0])
    c0[:n_o] = params.intercept[idx.o_t]
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
    draw's perturbation (``simsmooth.simulate_path``).  A batch's (N, m)
    perturbations (``simsmooth.draw_many``) give the m draws' right-hand
    sides as the columns of one (N, m) Fortran array."""
    if noise is None:
        return [Block(system, 0, balanced)]
    # the sum's transpose: an (N,) perturbation's as it is, an (N, m) Fortran
    # array's column by column, again in Fortran order
    return [Block(system, 0, (noise.balanced.T + balanced).T)]
