"""Adaptive smoother: the ragged edge adds to the quarterly path exactly
the monthly values still missing, so no full stacked formulation is ever
built.  It is ``baseline.smooth`` with the edge step
``baseline.adaptive_edge``: after the balanced sample's system, which every
backend solves, the edge's latent values are one solve of the plan's
``kalman.EdgeSystem``, a saddle-point system over the edge periods' windows
from the balanced system's filtered state at t_b-1, factorized on this
backend's first draw.  ``RunStats.worst_cond`` is its 1/rcond.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .baseline import SmoothResult, adaptive_edge, smooth
from .model import AggregationScheme, MixedFreqData, VarParams

# looked up here by perfbench/layertrace.py's SPANS table; ``baseline.smooth``
# calls them through baseline
from .baseline import fill_observed, fill_states, prepare  # noqa: F401
from .kalman import init_state, run_filter, run_smoother  # noqa: F401
from .systems import build_periods  # noqa: F401

if TYPE_CHECKING:
    from .simsmooth import PseudoSample

__all__ = ["run_adaptive", "mult_count"]


def mult_count(rows: int, inner: int) -> int:
    """Scalar-multiplication tally for the rows x inner x inner x rows
    triple product, counted as the cube of each factor's element count."""
    return rows**3 * inner**3


def run_adaptive(
    params: VarParams,
    scheme: AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    noise: PseudoSample | None = None,
) -> SmoothResult:
    return smooth(params, scheme, data, adaptive_edge, init_mode, kappa, noise)
