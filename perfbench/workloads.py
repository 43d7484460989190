"""Benchmark workloads: inputs generated from the seed, the timed closed
loops, and the checks every timed draw must pass.

Every timed call receives objects rebuilt from plain arrays, so no cache
that the package attaches to its parameter, scheme or data objects can
carry over from input generation into a timed region.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import mfsmooth as mf
from calibrate import SpeedIndex
from layertrace import clock_ns
from mfsmooth.simulate import benchmark_pattern, random_stable_params

BACKENDS = ("adaptive", "blocked", "baseline")
KERNEL_WARM = 8          # reference-kernel calls timed before the first setup
NEAREST = 16             # kernel calls nearest in time that scale one sample
# A sample longer than this (paper-p12's 35 s set-up) spans machine states its
# nearest kernel calls never saw, and averages the drift by itself: unscaled.
LONG_SAMPLE_S = 5.0
PHASES = ("setup", "iter") + tuple(f"draw.{b}" for b in BACKENDS)
MANY_BATCH = 2           # draws per draw_many call on the paper cell
TAIL_PCT = 75            # percentile reported as iter_ms.p75
COUNT_OPS = 3            # traced primary operations the per-draw counts come from
TOL = 1e-8               # aggregation and cross-backend tolerance
BURN_IN = 200            # periods simulated and dropped before the sample


@dataclass(frozen=True)
class Cell:
    n_m: int
    n_q: int
    p: int
    T: int
    t_b: int
    sv: bool            # fresh (T, n, n) stochastic-volatility chol_cov per iteration
    setups: int         # timed fresh setups per run
    primary: str        # "gibbs": new parameters each iteration; "many": draw_many calls
    shares: tuple       # share of --seconds for primary, adaptive, blocked, baseline, reference kernel

    @property
    def n(self) -> int:
        return self.n_m + self.n_q


WORKLOADS = {
    "gibbs-small": Cell(18, 2, 6, 300, 297, False, 5, "gibbs", (0.66, 0.08, 0.08, 0.08, 0.1)),
    "gibbs-sv": Cell(18, 2, 6, 300, 297, True, 5, "gibbs", (0.75, 0.05, 0.05, 0.05, 0.1)),
    "paper-p12": Cell(119, 1, 12, 500, 498, False, 1, "many", (0.55, 0.07, 0.18, 0.1, 0.1)),
}

# traced layer -> per-layer metric name
LAYER_METRICS = {
    "model.params": "model.params_ms",
    "model.prepare": "model.prepare_ms",
    "kalman.init": "kalman.init_ms",
    "kalman.lyapunov": "kalman.lyapunov_ms",
    "simsmooth.simulate_path": "simsmooth.simulate_path_ms",
    "systems.build_periods": "systems.build_periods_ms",
    "kalman.run_filter_self": "kalman.run_filter_self_ms",
    "kalman.filter_step": "kalman.filter_step_ms",
    "kalman.run_smoother": "kalman.run_smoother_ms",
    "assembly": "assembly.ms",
    "simsmooth.draw_many_self": "simsmooth.draw_many_self_ms",
}
COUNT_METRICS = (
    "kalman.lyapunov_solves",
    "systems.system_builds",
    "systems.distinct_mats",
    "kalman.filter_steps",
    "kalman.factorizations",
)


# ---------------------------------------------------------------- inputs --

# parameter arrays use "setup"/"iter"; the draws made with them use their own streams
STREAMS = {"base": 1, "data": 2, "setup": 3, "iter": 4, "setup-draw": 5, "iter-draw": 6, "draw": 7, "xb": 8}


def stream_rng(seed: int, stream: str, *index: int) -> np.random.Generator:
    """Independent generator for one use of the seed (inputs or a draw)."""
    return np.random.default_rng([seed, STREAMS[stream], *index])


def spectral_radius(lag_coeffs: np.ndarray) -> float:
    p, n, _ = lag_coeffs.shape
    F = np.zeros((n * p, n * p))
    F[:n] = np.concatenate(list(lag_coeffs), axis=1)
    F[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.abs(np.linalg.eigvals(F)).max())


def sv_path(rng: np.random.Generator, chol: np.ndarray, T: int) -> np.ndarray:
    """(T, n, n) factors: rows of ``chol`` scaled by exp(h_t / 2), with each
    log-variance h an AR(1) with persistence 0.9."""
    n = chol.shape[0]
    h = np.zeros((T, n))
    shocks = rng.normal(scale=0.3, size=(T, n))
    for t in range(T):
        h[t] = (0.9 * h[t - 1] if t else 0.0) + shocks[t]
    return np.exp(h / 2.0)[:, :, None] * chol[None, :, :]


class Inputs:
    """Plain arrays for one workload and seed; nothing here is timed."""

    def __init__(self, cell: Cell, seed: int):
        self.cell, self.seed = cell, seed
        base = random_stable_params(cell.n_m, cell.n_q, cell.p, stream_rng(seed, "base"))
        self.base = {
            "intercept": base.intercept.copy(),
            "lag_coeffs": base.lag_coeffs.copy(),
            "chol_cov": base.chol_cov[0].copy(),
        }
        self.weights = mf.intra_quarterly_average().weights.copy()
        rng = stream_rng(seed, "data")
        chol = sv_path(rng, self.base["chol_cov"], BURN_IN + cell.T) if cell.sv else self.base["chol_cov"]
        self.values = self._simulate(chol, rng)

    def _simulate(self, chol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        c = self.cell
        A = self.base["lag_coeffs"]
        mu = np.linalg.solve(np.eye(c.n) - A.sum(axis=0), self.base["intercept"])
        total = BURN_IN + c.T
        x = np.tile(mu, (c.p + total, 1))
        coeff_row = np.concatenate(list(A), axis=1)
        eps = rng.standard_normal((total, c.n))
        for t in range(total):
            lags = x[t : t + c.p][::-1].reshape(-1)
            W = chol[t] if chol.ndim == 3 else chol
            x[c.p + t] = self.base["intercept"] + coeff_row @ lags + W @ eps[t]
        x = x[c.p:]                       # burn-in rows, then the sample
        mask = benchmark_pattern(c.n_m, c.n_q, c.T, c.t_b)
        values = np.full((c.T, c.n), np.nan)
        sample = x[BURN_IN:]
        values[:, : c.n_m] = np.where(mask[:, : c.n_m], sample[:, : c.n_m], np.nan)
        agg = sum(w * x[BURN_IN - lag : BURN_IN - lag + c.T, c.n_m :] for lag, w in enumerate(self.weights))
        values[:, c.n_m :] = np.where(mask[:, c.n_m :], agg, np.nan)
        return values

    def params(self, stream: str, i: int) -> dict:
        """Parameter arrays for setup or Gibbs iteration ``i``.

        The paper cell keeps one fixed parameter set.  The Gibbs cells draw
        a stable perturbation of the base set, as successive posterior
        draws would be, plus a fresh volatility path on the SV cell.
        """
        c = self.cell
        if c.primary == "many":
            return {k: v.copy() for k, v in self.base.items()}
        rng = stream_rng(self.seed, stream, i)
        lag = self.base["lag_coeffs"] * (1.0 + 0.05 * rng.standard_normal((c.p, c.n, c.n)))
        radius = spectral_radius(lag)
        if radius > 0.97:
            lag = lag * (0.97 / radius * 0.99) ** np.arange(1, c.p + 1)[:, None, None]
        intercept = self.base["intercept"] + 0.01 * rng.standard_normal(c.n)
        chol = np.tril(self.base["chol_cov"] * (1.0 + 0.05 * rng.standard_normal((c.n, c.n))))
        if c.sv:
            chol = sv_path(rng, chol, c.T)
        return {"intercept": intercept, "lag_coeffs": lag, "chol_cov": chol}


# ---------------------------------------------------------------- checks --

def check_draw(x: np.ndarray, values: np.ndarray, n_m: int, weights: np.ndarray) -> str | None:
    """None if the draw passes, else the reason it fails.

    Observed monthly entries must be reproduced bit for bit; observed
    quarterly values must equal the weighted sum of the drawn monthly
    latent values within TOL, relative to max(1, |y|).  Periods whose
    aggregation window reaches before the sample are not checked.
    """
    if not np.all(np.isfinite(x)):
        return "non-finite draw"
    obs = ~np.isnan(values[:, :n_m])
    if not np.array_equal(x[:, :n_m][obs], values[:, :n_m][obs]):
        return "observed monthly values not reproduced"
    k = len(weights)
    for j in range(values.shape[1] - n_m):
        col = n_m + j
        ts = np.flatnonzero(~np.isnan(values[:, col]))
        ts = ts[ts >= k - 1]
        agg = sum(w * x[ts - lag, col] for lag, w in enumerate(weights))
        y = values[ts, col]
        if np.any(np.abs(agg - y) > TOL * np.maximum(1.0, np.abs(y))):
            return f"quarterly aggregate of variable {col} off by more than {TOL:g}"
    return None


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


# ------------------------------------------------------------------- run --

class Run:
    """One benchmark run: timed phases, checks and the collected samples."""

    def __init__(self, name: str, seed: int, seconds: float, tracer=None):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.cell = WORKLOADS[name]
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stamps: dict[str, list[float]] = defaultdict(list)   # wall-clock midpoints
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fallbacks = {b: [0, 0] for b in BACKENDS}   # [pseudo-inverse warnings, draws]
        self.cross_diff = 0.0
        self.input_s = 0.0

    # -- bookkeeping ----------------------------------------------------
    def _fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{where}: {why}")

    def _timed(self, phase: str, fn, traced: bool):
        """Run one operation; (seconds, result), or (None, None) if it raised."""
        self.attempted += 1
        w0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.root(phase) as idx:
                    out = fn(True)
                return self.tracer.seconds(idx), out
            t0 = clock_ns()
            out = fn(False)
            return (clock_ns() - t0) * 1e-9, out
        except Exception as exc:  # a failed draw is counted, and the run goes on
            self._fail(phase, f"{type(exc).__name__}: {exc}")
            return None, None
        finally:
            self._mid = 0.5 * (w0 + time.perf_counter())

    def _record(self, phase: str, dt: float, traced: bool) -> None:
        if traced:
            self.traced[phase].append(dt)
        else:
            self.samples[phase].append(dt)
            self.stamps[phase].append(self._mid)

    def _check(self, where: str, x: np.ndarray) -> bool:
        why = check_draw(x, self.inputs.values, self.cell.n_m, self.inputs.weights)
        if why is not None:
            self._fail(where, why)
        return why is None

    def _span(self, traced: bool, layer: str, fn):
        if not traced:
            return fn()
        idx = self.tracer.open(layer)
        try:
            return fn()
        finally:
            self.tracer.close(idx)

    def _new_params(self, arrs: dict, traced: bool):
        c = self.cell
        return self._span(
            traced,
            "model.params",
            lambda: mf.VarParams(c.n_m, c.n_q, c.p, arrs["intercept"], arrs["lag_coeffs"], arrs["chol_cov"]),
        )

    # -- schedule -------------------------------------------------------
    def execute(self) -> None:
        t0 = time.perf_counter()
        self.inputs = Inputs(self.cell, self.seed)
        self.speed = SpeedIndex()
        self.input_s = time.perf_counter() - t0
        for j in range(KERNEL_WARM):
            self._time_kernel(j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._caught = caught
            first = self._setup(0)
            if first is None:
                return
            # warm objects for the per-backend draws; the Gibbs loop gets its
            # own scheme and data so it never touches their caches
            self.par, self.scheme, self.data = first
            self.gibbs_scheme = mf.intra_quarterly_average()
            self.gibbs_data = mf.MixedFreqData.from_values(self.inputs.values.copy(), self.cell.n_m, self.cell.n_q)
            self._prev = None
            for backend in BACKENDS:
                self._warm_up(backend)
            self._interleave()
            self._cross_backend()

    def _interleave(self) -> None:
        """Closed loop over every timed operation for --seconds.

        Operations of all kinds alternate through the whole window, each
        kind getting its share of the time, so a slow spell of the machine
        touches every metric a little instead of one metric entirely.  The
        remaining fresh setups run at evenly spaced times.
        """
        c = self.cell
        primary = self._gibbs_iteration if c.primary == "gibbs" else self._many_call
        kinds = {"iter": (c.shares[0], 8 if c.primary == "gibbs" else 6, primary)}
        for backend, share in zip(BACKENDS, c.shares[1:]):
            kinds[f"draw.{backend}"] = (share, 3, functools.partial(self._warm_draw, backend))
        kinds["kernel"] = (c.shares[4], KERNEL_WARM, self._time_kernel)
        spent = dict.fromkeys(kinds, 0.0)
        done = dict.fromkeys(kinds, 0)
        start = time.perf_counter()
        end = start + self.seconds
        setup_due = [start + k / c.setups * self.seconds for k in range(1, c.setups)]
        while True:
            now = time.perf_counter()
            if setup_due and (now >= setup_due[0] or now >= end):
                setup_due.pop(0)
                self._setup(c.setups - 1 - len(setup_due))
                continue
            open_ = [k for k in kinds if now < end or done[k] < kinds[k][1]]
            if not open_:
                break
            kind = min(open_, key=lambda k: spent[k] / kinds[k][0])
            kinds[kind][2](done[kind])
            spent[kind] += time.perf_counter() - now
            done[kind] += 1

    # -- operations -----------------------------------------------------
    def _time_kernel(self, j: int) -> None:
        """One call of the reference kernel; never traced."""
        w0 = time.perf_counter()
        self.samples["kernel"].append(self.speed.measure(clock_ns))
        self.stamps["kernel"].append(0.5 * (w0 + time.perf_counter()))

    def _setup(self, k: int):
        """Fresh scheme, data and parameters from plain arrays to a first draw."""
        c = self.cell
        arrs = self.inputs.params("setup", k)
        values = self.inputs.values.copy()
        rng = stream_rng(self.seed, "setup-draw", k)

        def op(traced):
            scheme = mf.intra_quarterly_average()
            data = self._span(traced, "model.data", lambda: mf.MixedFreqData.from_values(values, c.n_m, c.n_q))
            par = self._new_params(arrs, traced)
            return par, scheme, data, mf.draw_latent(par, scheme, data, "adaptive", rng=rng)

        traced = self.tracer is not None
        dt, out = self._timed("setup", op, traced)
        if out is None or not self._check("setup", out[3].x):
            return None
        self._record("setup", dt, traced)
        return out[:3]

    def _gibbs_iteration(self, i: int) -> None:
        """One Gibbs iteration: new VarParams, one adaptive draw."""
        arrs = self.inputs.params("iter", i)
        rng = stream_rng(self.seed, "iter-draw", i)
        traced = self.tracer is not None and i % 2 == 0
        made = []

        def op(traced):
            made.append(self._new_params(arrs, traced))
            return mf.draw_latent(made[0], self.gibbs_scheme, self.gibbs_data, "adaptive", rng=rng)

        dt, d = self._timed("iter", op, traced)
        if made:
            par, prev = made[0], self._prev
            # cold-input guard: a new object with new values every iteration
            if prev is not None and (
                par is prev
                or np.array_equal(par.lag_coeffs, prev.lag_coeffs)
                or np.array_equal(par.chol_cov, prev.chol_cov)
            ):
                self._fail("iter", f"iteration {i} reused the previous parameters")
                d = None
            self._prev = par
        if d is not None and self._check("iter", d.x):
            self._record("iter", dt, traced)
            if i == 0:
                self._redraw_baseline(par, d.x, stream_rng(self.seed, "iter-draw", i))

    def _redraw_baseline(self, par, x: np.ndarray, rng) -> None:
        self.attempted += 1
        try:
            xb = mf.draw_latent(par, self.gibbs_scheme, self.gibbs_data, "baseline", rng=rng).x
        except Exception as exc:  # a failed check, counted
            self._fail("baseline re-draw", f"{type(exc).__name__}: {exc}")
            return
        self._compare("baseline re-draw of a Gibbs iteration", xb, x)

    def _compare(self, what: str, other: np.ndarray, ref: np.ndarray) -> None:
        diff = max_rel_diff(other, ref)
        self.cross_diff = max(self.cross_diff, diff)
        if not np.allclose(other, ref, rtol=TOL, atol=TOL):
            self._fail(what, f"differs from adaptive by {diff:.2e}")

    def _many_call(self, j: int) -> None:
        """One draw_many call for the fixed parameter set, timed per draw."""
        traced = self.tracer is not None and j % 2 == 0
        seed = self.seed * 1_000_003 + j

        def op(traced):
            return mf.draw_many(self.par, self.scheme, self.data, "adaptive", MANY_BATCH, seed=seed)

        dt, xs = self._timed("iter", op, traced)
        if xs is not None and all(self._check("iter", x) for x in xs):
            self._record("iter", dt / MANY_BATCH, traced)

    def _warm_up(self, backend: str) -> None:
        """Untimed first draw per backend; it is the cross-backend reference."""
        self.attempted += 1
        try:
            warm = mf.draw_latent(self.par, self.scheme, self.data, backend, rng=stream_rng(self.seed, "xb", 0))
            setattr(self, f"xb_{backend}", warm.x)
        except Exception as exc:  # a failed check, counted
            self._fail(f"{backend} warm-up", f"{type(exc).__name__}: {exc}")
        del self._caught[:]

    def _warm_draw(self, backend: str, j: int) -> None:
        """One draw_latent call on the reused, warm parameter set."""
        phase = f"draw.{backend}"
        rng = stream_rng(self.seed, "draw", j)
        traced = self.tracer is not None
        before = len(self._caught)

        def op(traced):
            return mf.draw_latent(self.par, self.scheme, self.data, backend, rng=rng)

        dt, d = self._timed(phase, op, traced)
        pinv = sum("pseudo-inverse" in str(w.message) for w in self._caught[before:])
        del self._caught[before:]
        self.fallbacks[backend][0] += pinv
        self.fallbacks[backend][1] += 1
        if traced and d is not None:
            self.tracer.count("edge.pinv_fallbacks", pinv)
            self.tracer.count("edge.companion_steps", d.stats.companion_steps)
        if d is not None and self._check(phase, d.x):
            self._record(phase, dt, traced)

    def _cross_backend(self) -> None:
        """Same-rng warm-up draws of every backend must agree within TOL."""
        ref = getattr(self, "xb_adaptive", None)
        for backend in BACKENDS[1:]:
            other = getattr(self, f"xb_{backend}", None)
            if ref is not None and other is not None:
                self._compare(f"{backend} same-rng draw", other, ref)

    # -- results --------------------------------------------------------
    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def scale(self) -> float:
        """The machine's speed index over the whole run."""
        return SpeedIndex.scale(self.samples["kernel"])

    def scaled(self, phase: str) -> list[float]:
        """The untraced samples of ``phase``, each multiplied by the speed
        index of the NEAREST kernel calls around it in time, except those
        longer than LONG_SAMPLE_S."""
        kernel = np.array(self.samples["kernel"])
        stamps = np.array(self.stamps["kernel"])
        out = []
        for dt, t in zip(self.samples[phase], self.stamps[phase]):
            if dt <= LONG_SAMPLE_S:
                dt *= SpeedIndex.scale(kernel[np.argsort(np.abs(stamps - t))[:NEAREST]])
            out.append(dt)
        return out

    def end_to_end(self, scaled: bool = True) -> dict:
        s = {p: self.scaled(p) if scaled else self.samples[p] for p in PHASES}
        out = {"setup_s": (_median(s["setup"]), "s")}
        out["iter_ms"] = (_median(s["iter"]) * 1e3, "ms")
        out[f"iter_ms.p{TAIL_PCT}"] = (_pct(s["iter"], TAIL_PCT) * 1e3, "ms")
        for backend in BACKENDS:
            out[f"draw_ms.{backend}"] = (_median(s[f"draw.{backend}"]) * 1e3, "ms")
        return out

    def phase_table(self, scale: float = 1.0) -> dict:
        """Per phase: operations, mean traced ms per draw, layer self ms per draw."""
        table = {}
        per_draw = MANY_BATCH if self.cell.primary == "many" else 1
        for phase in PHASES:
            ops = [i for i, r in enumerate(self.tracer.roots) if r[0] == phase]
            div = max(len(ops), 1) * (per_draw if phase == "iter" else 1)
            total, layers = 0.0, Counter()
            for i in ops:
                dur, self_s = self.tracer.layer_totals(i)
                total += dur
                layers.update(self_s)
            counts = Counter()
            first = ops[:COUNT_OPS]
            for i in first:
                counts.update(self.tracer.roots[i][2])
            cdiv = max(len(first), 1) * (per_draw if phase == "iter" else 1)
            f = 1.0 if ops and total / len(ops) > LONG_SAMPLE_S else scale
            table[phase] = {
                "ops": len(ops),
                "ms": total / div * 1e3 * f,
                "layers_ms": {k: v / div * 1e3 * f for k, v in sorted(layers.items())},
                "counts": {k: v / cdiv for k, v in sorted(counts.items())},
            }
        return table

    def per_layer(self, table: dict) -> dict:
        it = table["iter"]
        out = {}
        for layer, metric in LAYER_METRICS.items():
            out[metric] = (it["layers_ms"].get(layer, 0.0), "ms")
        out["other_ms"] = (it["ms"] - sum(v for v, _ in out.values()), "ms")
        out["trace.iter_ms"] = (it["ms"], "ms")
        untraced = self.samples["iter"]
        overhead = _mean(self.traced["iter"]) / _mean(untraced) - 1.0 if untraced else float("nan")
        out["trace.overhead"] = (overhead, "ratio")
        counts = it["counts"]
        for name in COUNT_METRICS:
            out[name] = (counts.get(name, 0.0), "count")
        obs = counts.get("kalman.obs_steps", 0.0)
        reuse = 1.0 - counts.get("kalman.factorizations", 0.0) / obs if obs else 0.0
        out["kalman.factor_reuse"] = (reuse, "ratio")
        for backend in ("baseline", "blocked"):
            out[f"edge.ms.{backend}"] = (table[f"draw.{backend}"]["layers_ms"].get(f"edge.{backend}", 0.0), "ms")
        base = table["draw.baseline"]["counts"]
        blocked = table["draw.blocked"]["counts"]
        out["edge.companion_steps"] = (base.get("edge.companion_steps", 0.0), "count")
        out["edge.pinv_fallbacks"] = (
            (base.get("edge.pinv_fallbacks", 0.0) + blocked.get("edge.pinv_fallbacks", 0.0)) / 2.0,
            "count",
        )
        setup = table["setup"]["layers_ms"]
        out["setup.kalman.lyapunov_ms"] = (setup.get("kalman.lyapunov", 0.0), "ms")
        out["setup.kalman.init_ms"] = (setup.get("kalman.init", 0.0), "ms")
        return out


def _median(xs: list[float]) -> float:
    return float(np.median(xs)) if xs else float("nan")


def _mean(xs: list[float]) -> float:
    return float(np.mean(xs)) if xs else float("nan")


def _pct(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else float("nan")
