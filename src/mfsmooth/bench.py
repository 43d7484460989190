"""Timing harness: per-cell median milliseconds per draw over a grid of
model sizes and backends, with warmup, plus plot-ready CSV emission.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConfigurationError
from .model import intra_quarterly_average
from .simsmooth import draw_latent, _rng_for
from .simulate import make_instance

__all__ = ["BenchCell", "time_instance", "run_grid", "write_bench_csv", "relative_cost_table"]


@dataclass(frozen=True)
class BenchCell:
    n: int
    n_q: int
    p: int
    T: int = 500
    t_balanced: int = 498


def time_instance(
    instance,
    backend: str,
    reps: int = 20,
    warmup: int = 3,
    seed: int = 0,
) -> float:
    """Median milliseconds per draw after warmup.

    Draws run under the caller's BLAS threading, which is fixed when numpy
    is first imported; the documented timings use one BLAS thread
    (``OPENBLAS_NUM_THREADS=1`` in the environment of the process).
    Raises ``ConfigurationError`` unless ``reps >= 1`` and ``warmup >= 0``.
    """
    if reps < 1 or warmup < 0:
        raise ConfigurationError(f"need reps >= 1 and warmup >= 0, got reps={reps}, warmup={warmup}")
    times = []
    for i in range(warmup + reps):
        rng = _rng_for(seed, i)
        start = time.perf_counter()
        draw_latent(instance.params, instance.scheme, instance.data, backend, rng=rng)
        elapsed = time.perf_counter() - start
        if i >= warmup:
            times.append(elapsed)
    return float(np.median(times) * 1e3)


def run_grid(
    cells: list[BenchCell],
    backends: tuple[str, ...] = ("baseline", "blocked", "adaptive"),
    reps: int = 20,
    warmup: int = 3,
    seed: int = 0,
    recipe: str = "bracket",
) -> list[dict]:
    rows = []
    for cell in cells:
        rng = _rng_for(seed, hash((cell.n, cell.n_q, cell.p)) & 0xFFFF)
        inst = make_instance(
            cell.n - cell.n_q, cell.n_q, cell.p, cell.T, cell.t_balanced,
            rng, scheme=intra_quarterly_average(), recipe=recipe,
        )
        for backend in backends:
            ms = time_instance(inst, backend, reps=reps, warmup=warmup, seed=seed)
            rows.append(
                {
                    "n": cell.n,
                    "n_q": cell.n_q,
                    "p": cell.p,
                    "T": cell.T,
                    "t_balanced": cell.t_balanced,
                    "backend": backend,
                    "ms_per_iter": ms,
                    "reps": reps,
                }
            )
    return rows


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_info() -> tuple[str, str]:
    """Name and version of the BLAS numpy was built against, or ``unknown``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 or no BLAS record
        return "unknown", "unknown"
    return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))


def machine_header() -> str:
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    blas, blas_version = _blas_info()
    return (
        f"# platform={platform.platform()} machine={platform.machine()} cpus={os.cpu_count()} "
        f"python={sys.version.split()[0]} numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas} blas_version={blas_version} {threads}"
    )


def write_bench_csv(path, rows: list[dict]) -> None:
    cols = ["n", "n_q", "p", "T", "t_balanced", "backend", "ms_per_iter", "reps"]
    with open(path, "w") as fh:
        fh.write(machine_header() + "\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


def relative_cost_table(rows: list[dict]) -> list[dict]:
    """Adaptive-to-baseline cost ratio per (n, n_q, p) cell."""
    by_cell: dict[tuple, dict] = {}
    for row in rows:
        key = (row["n"], row["n_q"], row["p"])
        by_cell.setdefault(key, {})[row["backend"]] = row["ms_per_iter"]
    out = []
    for (n, n_q, p), d in sorted(by_cell.items()):
        if "adaptive" in d and "baseline" in d:
            out.append(
                {"n": n, "n_q": n_q, "p": p, "relative_cost": d["adaptive"] / d["baseline"]}
            )
    return out
