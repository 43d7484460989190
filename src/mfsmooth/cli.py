"""Command-line interface: simulate | smooth | bench | compare.

Exit codes: 0 success, 1 tolerance failure (compare), 2 usage or IO error.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click
import numpy as np

from . import bench as bench_mod
from . import dataio
from .errors import MfsmoothError
from .model import MixedFreqData
from .simsmooth import BACKENDS, _rng_for, draw_many
from .simulate import make_instance


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
def main() -> None:
    """Simulation smoothing for mixed-frequency VARs with ragged-edge data."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", default=".", show_default=True, type=click.Path())
def simulate(config_path: str, seed: int, out_dir: str) -> None:
    """Generate a random stable VAR instance and masked data files."""
    try:
        cfg = dataio.read_config(config_path)
        n_m = int(cfg["n_m"])
        n_q = int(cfg["n_q"])
        p = int(cfg["p"])
        T = int(cfg["T"])
        t_b = int(cfg.get("t_balanced", T - 2))
        recipe = cfg.get("recipe", "bracket")
        scheme = dataio.scheme_from_config(cfg)
    except (OSError, KeyError, ValueError, MfsmoothError) as exc:
        _fail(str(exc))
    try:
        inst = make_instance(n_m, n_q, p, T, t_b, _rng_for(seed, 0), scheme=scheme, recipe=recipe)
    except MfsmoothError as exc:
        _fail(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"m{i + 1}" for i in range(n_m)] + [f"q{j + 1}" for j in range(n_q)]
    dataio.write_data_csv(out / "data.csv", inst.data.values, names)
    dataio.save_params(out / "params.npz", inst.params)
    dataio.write_config(out / "instance.cfg", dict(cfg, seed=seed))
    click.echo(f"wrote {out / 'data.csv'}, {out / 'params.npz'}, {out / 'instance.cfg'}")


@main.command()
@click.argument("data_path", type=click.Path())
@click.argument("params_path", type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--backend", default="adaptive", show_default=True,
              type=click.Choice(sorted(BACKENDS)))
@click.option("--draws", default=1, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", default="draws.bin", show_default=True, type=click.Path())
def smooth(data_path, params_path, config_path, backend, draws, seed, out_path) -> None:
    """Produce a draw archive from a data CSV and a parameter bundle."""
    try:
        params = dataio.load_params(params_path)
        values, _names = dataio.read_data_csv(data_path)
        cfg = dataio.read_config(config_path) if config_path else {}
        scheme = dataio.scheme_from_config(cfg)
        data = MixedFreqData.from_values(values, params.n_m, params.n_q, min_balanced=params.p + 1)
    except (OSError, ValueError, MfsmoothError) as exc:
        _fail(str(exc))
    start = time.perf_counter()
    try:
        stack = draw_many(params, scheme, data, backend, draws, seed=seed)
    except MfsmoothError as exc:
        _fail(str(exc))
    elapsed = time.perf_counter() - start
    dataio.write_archive(out_path, stack, params.n_q)
    per = elapsed / draws * 1e3 if draws else 0.0
    click.echo(f"{draws} draw(s) with backend={backend} in {elapsed:.3f}s ({per:.2f} ms/draw)")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", default="bench.csv", show_default=True, type=click.Path())
def bench(config_path, seed, out_path) -> None:
    """Run a timing grid and emit a long-format CSV plus a relative-cost table."""
    try:
        cfg = dataio.read_config(config_path)
        ns = [int(v) for v in cfg.get("n_list", "20").split(",")]
        ps = [int(v) for v in cfg.get("p_list", "6").split(",")]
        n_q = int(cfg.get("n_q", 1))
        T = int(cfg.get("T", 500))
        t_b = int(cfg.get("t_balanced", T - 2))
        reps = int(cfg.get("reps", 20))
        warmup = int(cfg.get("warmup", 3))
        recipe = cfg.get("recipe", "bracket")
        backends = tuple(cfg.get("backends", "baseline,blocked,adaptive").split(","))
    except (OSError, KeyError, ValueError, MfsmoothError) as exc:
        _fail(str(exc))
    cells = [bench_mod.BenchCell(n, n_q, p, T, t_b) for n in ns for p in ps]
    try:
        rows = bench_mod.run_grid(cells, backends=backends, reps=reps, warmup=warmup,
                                  seed=seed, recipe=recipe)
    except MfsmoothError as exc:
        _fail(str(exc))
    bench_mod.write_bench_csv(out_path, rows)
    click.echo(f"wrote {out_path}")
    for row in bench_mod.relative_cost_table(rows):
        click.echo(
            f"n={row['n']} n_q={row['n_q']} p={row['p']} "
            f"adaptive/baseline={row['relative_cost']:.3f}"
        )


@main.command()
@click.argument("archive_a", type=click.Path())
@click.argument("archive_b", type=click.Path())
@click.option("--tol", default=1e-8, show_default=True, type=float)
def compare(archive_a, archive_b, tol) -> None:
    """Elementwise comparison of two draw archives."""
    if not (np.isfinite(tol) and tol >= 0):
        _fail(f"--tol must be finite and >= 0, got {tol}")
    try:
        a, ha = dataio.read_archive(archive_a)
        b, hb = dataio.read_archive(archive_b)
    except (OSError, MfsmoothError) as exc:
        _fail(str(exc))
    if a.shape != b.shape:
        _fail(f"shape mismatch: {a.shape} vs {b.shape}")
    if ha.n_q != hb.n_q:
        _fail(f"quarterly variable count mismatch: n_q = {ha.n_q} vs {hb.n_q}")
    if a.size == 0:
        click.echo("max relative difference: 0 (empty archives)")
        return
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        click.echo(f"non-finite entry at (draw, t, var)={where}")
        sys.exit(1)
    scale = np.maximum(np.abs(a), 1.0)
    rel = np.abs(a - b) / scale
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(rel)), rel.shape))
    click.echo(f"max relative difference: {rel.max():.3e} at (draw, t, var)={worst}")
    if rel.max() > tol:
        sys.exit(1)


if __name__ == "__main__":
    main()
