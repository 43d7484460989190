"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <k> PASS`` line with the measured
quantity once its assertions hold, so a verbose run doubles as the release
report.  Tolerances are stated inline next to each assertion.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfsmooth
from mfsmooth import build_aggregation, intra_quarterly_average
from mfsmooth.adaptive import mult_count, run_adaptive
from mfsmooth.baseline import run_baseline
from mfsmooth.bench import BLAS_THREAD_VARS
from mfsmooth.blocked import run_blocked
from mfsmooth.oracle import oracle_joint
from mfsmooth.simsmooth import BACKENDS, draw_latent, draw_many, _rng_for
from mfsmooth.simulate import make_instance
from mfsmooth.systems import AdaptiveIndex

import test_systems
from test_model import random_params

BACKEND_NAMES = ("baseline", "blocked", "adaptive")


def _instance_grid():
    """51 small ragged-edge instances spanning the documented ranges: the
    nine (n, T, edge) cells at each (n_q, p), less the n = 4, n_q = 3 cell
    at each p, whose one monthly variable is below the grid's three."""
    specs = []
    seed = 0
    for n_q in (1, 3):
        for p in (3, 4, 6):  # the aggregation window spans 3 months, so p >= 3
            for n, T, edge in (
                (4, 24, 1), (6, 30, 2), (8, 36, 3),
                (10, 42, 1), (14, 48, 2), (16, 54, 3),
                (12, 60, 1), (18, 36, 2), (20, 48, 3),
            ):
                n_m = n - n_q
                if n_m < 3:
                    continue
                specs.append((n_m, n_q, p, T, T - edge, seed))
                seed += 1
    return specs


def test_criterion_1_cross_backend_identity():
    """Same-seed draws from all backends agree within 1e-8."""
    start = time.perf_counter()
    specs = _instance_grid()
    assert len(specs) >= 50
    worst = 0.0
    for n_m, n_q, p, T, t_b, seed in specs:
        inst = make_instance(n_m, n_q, p, T, t_b, np.random.default_rng(seed))
        draws = [
            draw_latent(inst.params, inst.scheme, inst.data, b, seed=seed).x
            for b in BACKEND_NAMES
        ]
        for other in draws[1:]:
            assert_allclose(other, draws[0], rtol=1e-8, atol=1e-8)
            scale = 1.0 + np.abs(draws[0])
            worst = max(worst, float(np.max(np.abs(other - draws[0]) / scale)))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 1 PASS: {len(specs)} instances, backends agree within 1e-8 "
        f"(max rel diff {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_oracle_equivalence():
    """Backend smoothed means match direct joint conditioning within 1e-8."""
    start = time.perf_counter()
    runners = {"baseline": run_baseline, "blocked": run_blocked, "adaptive": run_adaptive}
    specs = [
        (3, 1, 3, 20, 18, 3), (3, 1, 3, 25, 23, 4), (4, 1, 3, 30, 28, 5),
        (5, 1, 4, 24, 21, 6), (3, 2, 3, 28, 26, 7), (4, 2, 3, 24, 22, 8),
        (7, 1, 3, 25, 23, 9), (3, 3, 3, 30, 27, 10),
    ]
    worst = 0.0
    for n_m, n_q, p, T, t_b, seed in specs:
        assert T * (n_m + n_q) <= 200
        inst = make_instance(n_m, n_q, p, T, t_b, np.random.default_rng(seed))
        truth = oracle_joint(inst.params, inst.scheme, inst.data).mean
        for name, run in runners.items():
            x_hat = run(inst.params, inst.scheme, inst.data).x_hat
            assert_allclose(x_hat, truth, rtol=1e-8, atol=1e-8)
            worst = max(worst, float(np.max(np.abs(x_hat - truth) / (1.0 + np.abs(truth)))))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 2 PASS: {len(specs)} instances x {len(runners)} backends match "
        f"the joint oracle within 1e-8 (max rel diff {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_3_observation_and_aggregation_constraints():
    """Every draw reproduces observed data: monthly exactly, quarterly 1e-8."""
    checked = 0
    worst = 0.0
    for n_m, n_q, p, T, t_b, seed in _instance_grid()[::4]:
        inst = make_instance(n_m, n_q, p, T, t_b, np.random.default_rng(seed))
        scheme = inst.scheme
        p_q = len(scheme.weights)
        for backend in BACKEND_NAMES:
            for i in range(2):
                x = draw_latent(
                    inst.params, inst.scheme, inst.data, backend, rng=_rng_for(seed, i)
                ).x
                vals = inst.data.values
                mask_m = ~np.isnan(vals[:, :n_m])
                # observed monthly entries are reproduced bit for bit
                assert np.array_equal(x[:, :n_m][mask_m], vals[:, :n_m][mask_m])
                for t in range(T):
                    for j in inst.data.pattern.quarterly_rows(t):
                        window = x[max(t - p_q + 1, 0) : t + 1, n_m + j][::-1]
                        agg_val = scheme.weights[: len(window)] @ window
                        err = abs(agg_val - vals[t, n_m + j]) / (1.0 + abs(vals[t, n_m + j]))
                        assert err < 1e-8
                        worst = max(worst, float(err))
                checked += 1
    print(
        f"\nACCEPTANCE 3 PASS: {checked} draws reproduce observed monthly entries exactly "
        f"and quarterly aggregates within 1e-8 (max rel err {worst:.2e})"
    )


def test_criterion_4_multiplication_counts():
    """Documented operation-count formula values, exact integers."""
    assert mult_count(20, 80) == 4_096_000_000
    assert mult_count(14, 8) == 1_404_928
    print(
        "\nACCEPTANCE 4 PASS: mult_count(20,80) = 4,096,000,000 and "
        "mult_count(14,8) = 1,404,928 exactly"
    )


def test_criterion_5_golden_system_matrices():
    """Symbol-for-symbol system matrices for the 4-variable, p=3 example."""
    params = random_params(3, 1, 3, seed=12)
    agg = build_aggregation(intra_quarterly_average(), 1, 3)
    setup = (params, agg)

    bal = test_systems.TestBalancedRegime()
    bal.test_Z(setup)
    bal.test_C(setup)
    bal.test_T(setup)
    bal.test_D(setup)
    bal.test_G_and_H(setup)

    one = test_systems.TestOneMissingRegime()
    idx1 = AdaptiveIndex(
        np.array([2]), np.array([0, 1]), np.array([], dtype=int), np.array([0, 1, 2]), 3, 1
    )
    one.test_T(setup, idx1)
    one.test_D(setup, idx1)
    one.test_Z(setup, idx1)
    one.test_G_and_H(setup, idx1)

    two = test_systems.TestTwoMissingRegime()
    idx2 = AdaptiveIndex(
        np.array([1, 2]), np.array([0]), np.array([2]), np.array([0, 1]), 3, 1
    )
    two.test_T(setup, idx2)
    two.test_D(setup, idx2)
    two.test_Z(setup, idx2)
    two.test_C(setup, idx2)
    two.test_G_and_H(setup, idx2)
    print(
        "\nACCEPTANCE 5 PASS: golden system matrices reproduced exactly for the "
        "balanced, one-missing and two-missing regimes"
    )


# Criterion 6 is timed under the documented condition: one BLAS thread.  The
# thread count is fixed when numpy loads, so the timing runs in a child
# process whose environment sets it before the import.  Within each
# repetition the three backends run back to back, so a drift in machine
# speed lands on all three medians alike.
_CRITERION_6_CHILD = """
import json, os, time
import numpy as np
import mfsmooth
from mfsmooth.simsmooth import draw_latent, _rng_for
from mfsmooth.simulate import make_instance

backends = ("baseline", "blocked", "adaptive")
warmup, reps = 3, 20
results = {}
for p in (6, 12):
    inst = make_instance(119, 1, p, 500, 498, np.random.default_rng(0))
    times = {b: [] for b in backends}
    for i in range(warmup + reps):
        for backend in backends:
            rng = _rng_for(1, i)
            t0 = time.perf_counter()
            draw_latent(inst.params, inst.scheme, inst.data, backend, rng=rng)
            if i >= warmup:
                times[backend].append(time.perf_counter() - t0)
    results[p] = {b: float(np.median(t) * 1e3) for b, t in times.items()}
print(json.dumps({
    "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "mfsmooth_file": mfsmooth.__file__,
    "medians": results,
}))
"""


def _time_single_blas_thread():
    """Run the criterion-6 timing in a child with one BLAS thread and the
    same ``mfsmooth`` source as this process; return its JSON report."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mfsmooth.__file__)))
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CRITERION_6_CHILD],
        env=env, capture_output=True, text=True, timeout=1800,
    )
    assert proc.returncode == 0, f"timing child failed:\n{proc.stderr}"
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["openblas_threads"] == "1"
    assert os.path.realpath(report["mfsmooth_file"]) == os.path.realpath(mfsmooth.__file__)
    return {int(p): med for p, med in report["medians"].items()}


def test_criterion_6_performance_ordering():
    """At n=120, T=500, T_b=498: adaptive < blocked < baseline per draw,
    baseline/adaptive >= 2 at p=6 and >= 5 at p=12 (median of 20 draws
    after 3 warmup draws, one BLAS thread)."""
    start = time.perf_counter()
    results = _time_single_blas_thread()
    elapsed = time.perf_counter() - start
    for p, med in results.items():
        assert med["adaptive"] < med["blocked"] < med["baseline"]
    r6 = results[6]["baseline"] / results[6]["adaptive"]
    r12 = results[12]["baseline"] / results[12]["adaptive"]
    assert r6 >= 2.0
    assert r12 >= 5.0
    assert elapsed < 1800.0
    print(
        f"\nACCEPTANCE 6 PASS: median ms/draw ordered adaptive < blocked < baseline; "
        f"p=6 ratio {r6:.2f} >= 2, p=12 ratio {r12:.2f} >= 5 "
        f"(p=6: {results[6]['baseline']:.2f}/{results[6]['blocked']:.2f}/"
        f"{results[6]['adaptive']:.2f} ms, p=12: {results[12]['baseline']:.2f}/"
        f"{results[12]['blocked']:.2f}/{results[12]['adaptive']:.2f} ms, "
        f"one BLAS thread, {elapsed:.0f}s)"
    )


def test_criterion_7_degenerate_edge_reduction():
    """With a fully balanced sample every backend takes the same reduced
    path and draws are bitwise equal."""
    checked = 0
    for n_m, n_q, p, T, seed in ((4, 1, 3, 30, 0), (6, 2, 3, 24, 1), (9, 1, 4, 36, 2)):
        inst = make_instance(n_m, n_q, p, T, T, np.random.default_rng(seed))
        assert inst.data.pattern.balanced
        draws = []
        for backend in BACKEND_NAMES:
            d = draw_latent(inst.params, inst.scheme, inst.data, backend, seed=seed)
            assert d.stats.compact_steps == T
            assert d.stats.companion_steps == 0
            assert d.stats.adaptive_steps == 0
            draws.append(d.x)
        assert np.array_equal(draws[0], draws[1])
        assert np.array_equal(draws[0], draws[2])
        checked += 1
    print(
        f"\nACCEPTANCE 7 PASS: {checked} balanced instances, zero augmentation steps, "
        f"bitwise-equal draws across all backends"
    )


def test_criterion_8_monte_carlo_distribution():
    """2,000 draws: elementwise mean within 3 MC standard errors of the
    oracle conditional mean, diagonal variance within 10% relative."""
    start = time.perf_counter()
    inst = make_instance(2, 1, 3, 15, 13, np.random.default_rng(2))
    truth = oracle_joint(inst.params, inst.scheme, inst.data)
    n_draws = 2000
    draws = draw_many(inst.params, inst.scheme, inst.data, "adaptive", n_draws, seed=77)
    mean_hat = draws.mean(axis=0)
    var_hat = draws.var(axis=0, ddof=1)
    var_true = truth.var()
    live = var_true > 1e-10
    se = np.sqrt(var_true[live] / n_draws)
    z = np.abs(mean_hat[live] - truth.mean[live]) / se
    rel_var = np.abs(var_hat[live] - var_true[live]) / var_true[live]
    assert z.max() <= 3.0
    assert rel_var.max() <= 0.10
    # deterministic entries reproduce the conditional mean outright
    assert_allclose(mean_hat[~live], truth.mean[~live], atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 8 PASS: {n_draws} draws, max |z| {z.max():.2f} <= 3 MC standard "
        f"errors, max variance error {100 * rel_var.max():.1f}% <= 10% ({elapsed:.0f}s)"
    )
