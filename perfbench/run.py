"""Benchmark for mfsmooth: one workload per run, run from the repository root.

    python3 perfbench/run.py --workload gibbs-small --seed 1 --seconds 20 --trace 0

Prints a readable report and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  A full record (environment, samples and,
when traced, the span list) goes to ``perfbench/results/``.

The documented condition is one BLAS thread and one draw thread, set here
before numpy is imported.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MF_SMOOTH_THREADS", None)   # draw_many runs with its defaults

import argparse
import gc
import json
import math
import platform
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_package():
    src = ROOT / "src"
    if not (src / "mfsmooth" / "__init__.py").is_file():
        _fail(f"no package source at {src / 'mfsmooth'}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import mfsmooth

    if Path(mfsmooth.__file__).resolve().parent != (src / "mfsmooth").resolve():
        _fail(f"imported mfsmooth from {mfsmooth.__file__}, not from {src}")
    return mfsmooth


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "mfsmooth").glob("*.py"))
    )
    return {
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def _value(v: float):
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    mf = _import_package()
    import workloads
    from calibrate import REFERENCE_MS
    from layertrace import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    env = environment(args.seed)
    tracer = Tracer(mf) if args.trace else None
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer)
    gc.collect()
    run.execute()

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env}
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# inputs generated in {run.input_s:.2f} s (untimed)")
    scale = run.scale
    kernel_ms = statistics.median(run.samples["kernel"]) * 1e3
    print(f"# reference kernel: median {kernel_ms:.3f} ms of {len(run.samples['kernel'])} calls "
          f"(reference {REFERENCE_MS:g} ms), speed index {scale:.4f} over the run; each time below "
          f"is CPU time multiplied by the index of the {workloads.NEAREST} kernel calls nearest to it"
          + (" (per-layer times: by the run's index)" if args.trace else "")
          + f"; operations longer than {workloads.LONG_SAMPLE_S:g} s are not scaled")
    record["kernel_ms"], record["scale"] = kernel_ms, scale
    if args.trace:
        table = run.phase_table(scale)
        metrics = run.per_layer(table)
        record["phases"] = table
        record["spans"] = tracer.span_records()
        for phase, row in table.items():
            layers = "  ".join(f"{k}={v:.3f}" for k, v in row["layers_ms"].items())
            print(f"# traced {phase}: {row['ops']} ops, {row['ms']:.3f} ms per draw = {layers}")
            if row["counts"]:
                print(f"#   counts per draw: {json.dumps(row['counts'])}")
    else:
        metrics = run.end_to_end()
        raw = run.end_to_end(scaled=False)
        print("# unscaled CPU time: " + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in raw.items()))
        n = len(run.samples["iter"])
        beyond = n - math.ceil(n * workloads.TAIL_PCT / 100)
        print(f"# iter_ms samples {n} ({beyond} beyond p{workloads.TAIL_PCT}); "
              f"setup samples {len(run.samples['setup'])}; draw samples "
              + ", ".join(f"{b} {len(run.samples['draw.' + b])}" for b in workloads.BACKENDS))
    for name, (v, unit) in metrics.items():
        print(f"# {name:28s} {v:12.4f} {unit}")
    share = run.failed / run.attempted if run.attempted else float("nan")
    print(f"# fail_share {run.failed}/{run.attempted} = {share:.4f}")
    print("# pseudo-inverse fallbacks per timed draw: "
          + ", ".join(f"{b} {k}/{n}" for b, (k, n) in run.fallbacks.items()))
    print(f"# max cross-backend relative difference {run.cross_diff:.2e}")
    for line in run.errors:
        print(f"# FAIL {line}")

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": _value(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    record["samples"] = run.samples
    record["stamps"] = run.stamps
    record["errors"] = run.errors
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
