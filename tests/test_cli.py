import os

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from mfsmooth import VarParams
from mfsmooth.cli import main
from mfsmooth.dataio import (
    load_params,
    read_archive,
    read_data_csv,
    save_params,
    write_archive,
    write_config,
    write_data_csv,
)
from test_dataio import damaged_bundle


def run(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def simulate_instance(tmp_path, n_m=3, n_q=1, p=3, T=18, t_b=16, seed=0):
    cfg = tmp_path / "sim.cfg"
    write_config(cfg, {"n_m": n_m, "n_q": n_q, "p": p, "T": T, "t_balanced": t_b})
    res = run(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return tmp_path / "data.csv", tmp_path / "params.npz"


class TestSimulate:
    def test_writes_files(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        assert data.exists() and params.exists()
        assert (tmp_path / "instance.cfg").exists()

    def test_missing_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, {"n_m": 3})
        res = run(["simulate", "--config", str(cfg)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("t_b", [40, -1, -3])
    def test_t_balanced_outside_the_sample_exits_2(self, tmp_path, t_b):
        cfg = tmp_path / "sim.cfg"
        write_config(cfg, {"n_m": 4, "n_q": 1, "p": 3, "T": 30, "t_balanced": t_b})
        res = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert f"t_balanced = {t_b} is outside 0..T, T = 30" in res.output
        assert not (tmp_path / "instance.cfg").exists()

    def test_missing_config_exits_2(self, tmp_path):
        res = run(["simulate", "--config", str(tmp_path / "none.cfg")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("dims,message", [
        ({"n_m": 4, "n_q": 1, "p": 0}, "p=0"),
        ({"n_m": 4, "n_q": -1, "p": 3}, "n_m=4, n_q=-1"),
        ({"n_m": -1, "n_q": 2, "p": 3}, "n_m=-1, n_q=2"),
    ])
    def test_nonsense_dimensions_exit_2(self, tmp_path, dims, message):
        cfg = tmp_path / "sim.cfg"
        write_config(cfg, {**dims, "T": 20, "t_balanced": 18})
        res = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert message in res.output
        assert not (tmp_path / "instance.cfg").exists()

    def test_no_monthly_variable_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        write_config(cfg, {"n_m": 0, "n_q": 2, "p": 3, "T": 20, "t_balanced": 20})
        res = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "monthly variables, have 0" in res.output
        assert not (tmp_path / "instance.cfg").exists()


class TestSmooth:
    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, seed):
        data, params = simulate_instance(tmp_path)
        out = tmp_path / "draws.bin"
        res = run(["smooth", str(data), str(params), "--seed", seed, "--out", str(out)])
        assert res.exit_code == 2
        assert f"seed {seed} is outside 0..2**64-1" in res.output
        assert not out.exists()

    def test_pipeline_and_compare(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        out_a = tmp_path / "a.bin"
        out_b = tmp_path / "b.bin"
        res = run(["smooth", str(data), str(params), "--backend", "baseline",
                   "--draws", "3", "--seed", "5", "--out", str(out_a)])
        assert res.exit_code == 0, res.output
        assert "ms/draw" in res.output
        res = run(["smooth", str(data), str(params), "--backend", "adaptive",
                   "--draws", "3", "--seed", "5", "--out", str(out_b)])
        assert res.exit_code == 0, res.output
        res = run(["compare", str(out_a), str(out_b), "--tol", "1e-8"])
        assert res.exit_code == 0, res.output
        assert "max relative difference" in res.output

    def test_zero_draws(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        out = tmp_path / "empty.bin"
        res = run(["smooth", str(data), str(params), "--draws", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        draws, header = read_archive(out)
        assert draws.shape[0] == 0 and header.n_draws == 0

    def test_negative_draws_exits_2(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        res = run(["smooth", str(data), str(params), "--draws", "-1", "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "n_draws" in res.output

    def test_bundle_that_does_not_fit_its_dimensions_exits_2_naming_it(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        p = load_params(params_path)
        np.savez(params_path, n_m=4, n_q=1, p=3, intercept=p.intercept, lag_coeffs=p.lag_coeffs,
                 chol_cov=p.chol_cov)
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert f"{params_path}: intercept shape (4,) != (5,)" in res.output

    def test_short_time_varying_cov_exits_2(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        p = load_params(params_path)
        save_params(params_path, VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs,
                                           np.repeat(p.chol_cov, 17, axis=0)))
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "17 factors, the data 18 periods" in res.output

    def test_long_time_varying_cov_exits_2(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        p = load_params(params_path)
        save_params(params_path, VarParams(p.n_m, p.n_q, p.p, p.intercept, p.lag_coeffs,
                                           np.repeat(p.chol_cov, 19, axis=0)))
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "19 factors, the data 18 periods" in res.output

    def test_no_monthly_variable_exits_2(self, tmp_path):
        """Parameters with n_m = 0 on a quarterly-only data file: the data
        read for them has no monthly variable."""
        data, params_path = simulate_instance(tmp_path)
        p = load_params(params_path)
        save_params(params_path, VarParams(0, 1, p.p, p.intercept[-1:], p.lag_coeffs[:, -1:, -1:],
                                           p.chol_cov[:, -1:, -1:]))
        values, names = read_data_csv(data)
        write_data_csv(data, values[:, -1:], names[-1:])
        out = tmp_path / "x.bin"
        res = run(["smooth", str(data), str(params_path), "--out", str(out)])
        assert res.exit_code == 2
        assert "no monthly variable" in res.output
        assert not out.exists()

    def test_non_finite_weights_exit_2(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        cfg = tmp_path / "nan.cfg"
        write_config(cfg, {"aggregation": "custom", "weights": "nan"})
        res = run(["smooth", str(data), str(params), "--config", str(cfg), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "aggregation weights have non-finite entries" in res.output

    def test_custom_without_weights_exits_2(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        cfg = tmp_path / "custom.cfg"
        write_config(cfg, {"aggregation": "custom"})
        res = run(["smooth", str(data), str(params), "--config", str(cfg), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "'weights'" in res.output

    def test_params_without_chol_cov_exits_2(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        with np.load(params_path) as z:
            kept = {k: z[k] for k in z.files if k != "chol_cov"}
        np.savez(params_path, **kept)
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "lacks chol_cov" in res.output

    def test_truncated_params_exits_2(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        params_path.write_bytes(params_path.read_bytes()[:-30])
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert f"{params_path}: unreadable parameter bundle" in res.output

    @pytest.mark.parametrize("how", ["npy", "method", "encrypted", "offset"])
    def test_damaged_params_exits_2_naming_the_file(self, tmp_path, how):
        # an .npy array, an unsupported compression method, an encryption
        # flag and a central directory offset past the file's end
        # (``damaged_bundle``)
        data, params_path = simulate_instance(tmp_path)
        bad = damaged_bundle(params_path, how)
        res = run(["smooth", str(data), str(bad), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert f"error: {bad}: " in res.output

    def test_non_scalar_dimension_in_params_exits_2(self, tmp_path):
        data, params_path = simulate_instance(tmp_path)
        with np.load(params_path) as z:
            kept = {k: z[k] for k in z.files}
        np.savez(params_path, **dict(kept, n_m=np.array([3, 3])))
        res = run(["smooth", str(data), str(params_path), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert "n_m must be an integer scalar" in res.output

    def test_header_only_data_exits_2(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        data.write_text(data.read_text().splitlines()[0] + "\n")
        res = run(["smooth", str(data), str(params), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert f"{data}: no data rows" in res.output

    def test_non_numeric_cell_exits_2(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        lines = data.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "abc"
        lines[2] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        res = run(["smooth", str(data), str(params), "--out", str(tmp_path / "x.bin")])
        assert res.exit_code == 2
        assert f"{data}:3: column 'm2': not a number: 'abc'" in res.output

    def test_missing_data_file_exits_2(self, tmp_path):
        _, params = simulate_instance(tmp_path)
        res = run(["smooth", str(tmp_path / "none.csv"), str(params)])
        assert res.exit_code == 2

    def test_unknown_backend_is_usage_error(self, tmp_path):
        data, params = simulate_instance(tmp_path)
        res = CliRunner().invoke(main, ["smooth", str(data), str(params),
                                        "--backend", "fastest"])
        assert res.exit_code == 2


class TestCompare:
    def test_perturbed_archive_exits_1(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 6, 3))
        b = a.copy()
        b[1, 3, 1] += 1e-4
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, a, 1)
        write_archive(pb, b, 1)
        res = run(["compare", str(pa), str(pb), "--tol", "1e-8"])
        assert res.exit_code == 1

    def test_location_prints_plain_integers(self, tmp_path):
        a = np.zeros((2, 6, 3))
        b = a.copy()
        b[1, 3, 1] = 1e-4
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, a, 1)
        write_archive(pb, b, 1)
        res = run(["compare", str(pa), str(pb), "--tol", "1e-8"])
        assert "max relative difference: 1.000e-04 at (draw, t, var)=(1, 3, 1)" in res.output

    @pytest.mark.parametrize("both", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_exits_1(self, tmp_path, both, value):
        a = np.random.default_rng(0).normal(size=(2, 6, 3))
        b = a.copy()
        b[0, 4, 2] = value
        if both:
            a[0, 4, 2] = value
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, a, 1)
        write_archive(pb, b, 1)
        for args in ([str(pa), str(pb)], [str(pb), str(pa)]):
            res = run(["compare", *args, "--tol", "1e-8"])
            assert res.exit_code == 1
            assert "non-finite entry at (draw, t, var)=(0, 4, 2)" in res.output

    def test_loose_tolerance_passes(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 6, 3))
        b = a + 1e-12
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, a, 1)
        write_archive(pb, b, 1)
        res = run(["compare", str(pa), str(pb)])
        assert res.exit_code == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8", "-inf"])
    def test_invalid_tolerance_exits_2(self, tmp_path, tol):
        # 5.0 apart: no tolerance that is not finite and >= 0 may pass them
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, np.zeros((1, 4, 2)), 1)
        write_archive(pb, np.full((1, 4, 2), 5.0), 1)
        res = run(["compare", str(pa), str(pb), "--tol", tol])
        assert res.exit_code == 2
        assert "--tol must be finite and >= 0" in res.output

    def test_zero_tolerance_passes_equal_archives(self, tmp_path):
        pa = tmp_path / "a.bin"
        write_archive(pa, np.random.default_rng(0).normal(size=(2, 6, 3)), 1)
        assert run(["compare", str(pa), str(pa), "--tol", "0"]).exit_code == 0

    def test_quarterly_count_mismatch_exits_2(self, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, np.zeros((1, 4, 3)), 1)
        write_archive(pb, np.zeros((1, 4, 3)), 2)
        res = run(["compare", str(pa), str(pb)])
        assert res.exit_code == 2
        assert "n_q = 1 vs 2" in res.output

    def test_shape_mismatch_exits_2(self, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, np.zeros((1, 4, 2)), 1)
        write_archive(pb, np.zeros((2, 4, 2)), 1)
        res = run(["compare", str(pa), str(pb)])
        assert res.exit_code == 2

    def test_corrupt_archive_exits_2(self, tmp_path):
        pa = tmp_path / "a.bin"
        pa.write_bytes(b"not an archive at all......")
        pb = tmp_path / "b.bin"
        write_archive(pb, np.zeros((1, 4, 2)), 1)
        res = run(["compare", str(pa), str(pb)])
        assert res.exit_code == 2

    def test_truncated_archive_exits_2(self, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, np.zeros((1, 4, 2)), 1)
        write_archive(pb, np.zeros((1, 4, 2)), 1)
        pa.write_bytes(pa.read_bytes()[:-1])
        pb.write_bytes(pb.read_bytes()[:10])
        for args in ([str(pa), str(pb)], [str(pb), str(pb)]):
            res = run(["compare", *args])
            assert res.exit_code == 2
            assert "truncated archive" in res.output

    def test_trailing_bytes_exit_2(self, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_archive(pa, np.zeros((1, 4, 2)), 1)
        write_archive(pb, np.zeros((1, 4, 2)), 1)
        pa.write_bytes(pa.read_bytes() + b"junk")
        res = run(["compare", str(pa), str(pb)])
        assert res.exit_code == 2
        assert "4 bytes after the 64 payload bytes" in res.output


class TestBench:
    def test_tiny_grid(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        write_config(cfg, {
            "n_list": "8", "p_list": "3", "n_q": 1, "T": 24, "t_balanced": 22,
            "reps": 2, "warmup": 1,
        })
        out = tmp_path / "bench.csv"
        env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        res = run(["bench", "--config", str(cfg), "--out", str(out)], env=env)
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[0].split()
        assert "OPENBLAS_NUM_THREADS=1" in header
        assert "OMP_NUM_THREADS=unset" in header
        assert "MKL_NUM_THREADS=unset" in header
        keys = {tok.split("=", 1)[0]: tok.split("=", 1)[1] for tok in header[1:]}
        assert keys["cpus"] == str(os.cpu_count())
        assert keys["scipy"] == scipy.__version__
        assert keys["blas"] and keys["blas_version"]
        assert lines[1].split(",")[:3] == ["n", "n_q", "p"]
        assert len(lines) == 5  # header comment + columns + 3 backends
        assert "adaptive/baseline=" in res.output

    @pytest.mark.parametrize("override,message", [
        ({"backends": "adaptive,bogus"}, "unknown backend 'bogus'"),
        ({"p_list": "2"}, "lag order p=2 must be >= aggregation lag count p_q=3"),
        ({"n_list": "2"}, "missingness recipe needs 2 monthly variables, have 1"),
        ({"reps": 0}, "need reps >= 1 and warmup >= 0, got reps=0, warmup=0"),
        ({"reps": -1}, "need reps >= 1 and warmup >= 0, got reps=-1, warmup=0"),
        ({"warmup": -1}, "need reps >= 1 and warmup >= 0, got reps=1, warmup=-1"),
    ])
    def test_grid_the_config_cannot_run_exits_2(self, tmp_path, override, message):
        cfg = tmp_path / "bench.cfg"
        write_config(cfg, {
            "n_list": "8", "p_list": "3", "n_q": 1, "T": 24, "t_balanced": 22,
            "reps": 1, "warmup": 0, **override,
        })
        res = run(["bench", "--config", str(cfg), "--out", str(tmp_path / "bench.csv")])
        assert res.exit_code == 2
        assert message in res.output
