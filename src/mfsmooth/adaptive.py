"""Adaptive smoother: the state is augmented per period with exactly the
currently-unobserved monthly variables, so no full stacked formulation is
ever built.  It is ``baseline.smooth`` with no edge step: the reduced
filtering the other backends use over the balanced sample runs on through
the ragged edge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .baseline import SmoothResult, smooth
from .model import Aggregation, AggregationScheme, MixedFreqData, VarParams

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
    agg: Aggregation | AggregationScheme,
    data: MixedFreqData,
    init_mode: str = "stationary",
    kappa: float = 1e4,
    pseudo: PseudoSample | None = None,
) -> SmoothResult:
    return smooth(params, agg, data, init_mode, kappa, pseudo=pseudo)
