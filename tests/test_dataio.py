import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mfsmooth import ConfigurationError
from mfsmooth.dataio import (
    load_params,
    read_archive,
    read_config,
    read_data_csv,
    save_params,
    scheme_from_config,
    write_archive,
    write_config,
    write_data_csv,
)
from test_model import random_params


class TestDataCsv:
    def test_roundtrip_with_missing(self, tmp_path):
        path = tmp_path / "data.csv"
        values = np.array([[1.0, 2.5, np.nan], [np.nan, -0.125, 3.0]])
        write_data_csv(path, values, ["m1", "m2", "q1"])
        got, names = read_data_csv(path)
        assert names == ["m1", "m2", "q1"]
        assert_array_equal(np.isnan(got), np.isnan(values))
        assert_allclose(got[~np.isnan(got)], values[~np.isnan(values)], rtol=0)

    def test_values_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 4))
        write_data_csv(path, values, list("abcd"))
        got, _ = read_data_csv(path)
        assert_array_equal(got, values)

    def test_name_count_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_data_csv(tmp_path / "x.csv", np.zeros((2, 3)), ["a", "b"])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ConfigurationError, match="bad.csv:3"):
            read_data_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            read_data_csv(path)


class TestConfig:
    def test_roundtrip_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, {"n_m": 3, "aggregation": "intra_quarterly_average"})
        with open(path, "a") as fh:
            fh.write("# a comment\nseed = 7  # trailing\n")
        cfg = read_config(path)
        assert cfg == {"n_m": "3", "aggregation": "intra_quarterly_average", "seed": "7"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line without equals\n")
        with pytest.raises(ConfigurationError, match="bad.cfg:1"):
            read_config(path)

    def test_scheme_from_config(self):
        assert_array_equal(scheme_from_config({}).weights, np.full(3, 1.0 / 3.0))
        s = scheme_from_config({"aggregation": "skip_sampling"})
        assert s.p_q == 1
        c = scheme_from_config({"aggregation": "custom", "weights": "0.5, 0.25, 0.25"})
        assert_allclose(c.weights, [0.5, 0.25, 0.25])
        with pytest.raises(ConfigurationError):
            scheme_from_config({"aggregation": "monthly_sum"})


# where a bundle's zip records keep a field, and the bytes written there:
# the first central-directory entry's compression method, a method zipfile
# does not implement, and its flags, marked encrypted, and the end record's
# offset of the central directory, past the file's end
ZIP_FIELDS = {
    "method": (b"PK\x01\x02", 10, (99).to_bytes(2, "little")),
    "encrypted": (b"PK\x01\x02", 8, (1).to_bytes(2, "little")),
    "offset": (b"PK\x05\x06", 16, (0xFFFFFFF0).to_bytes(4, "little")),
}


def damaged_bundle(path, how):
    """A file that is no readable bundle, made from the bundle at ``path``:
    with ``how`` "npy" one array saved beside it as .npy, else the bundle
    with one ``ZIP_FIELDS`` field overwritten.  Returns its path."""
    if how == "npy":
        out = path.with_suffix(".npy")
        np.save(out, np.zeros(3))
        return out
    record, field, value = ZIP_FIELDS[how]
    raw = bytearray(path.read_bytes())
    at = raw.index(record) + field
    raw[at : at + len(value)] = value
    path.write_bytes(bytes(raw))
    return path


class TestParams:
    @pytest.mark.parametrize("how,message", [
        ("npy", "not a parameter bundle"),
        ("method", "unreadable parameter bundle"),
        ("encrypted", "unreadable parameter bundle"),
        ("offset", "unreadable parameter bundle"),
    ])
    def test_damaged_bundle_names_the_file(self, tmp_path, how, message):
        path = tmp_path / "params.npz"
        save_params(path, random_params(3, 1, 3, seed=5))
        bad = damaged_bundle(path, how)
        with pytest.raises(ConfigurationError, match=re.escape(f"{bad}: {message}")):
            load_params(bad)

    def test_arrays_that_do_not_fit_the_dimensions_name_the_file(self, tmp_path):
        path = tmp_path / "params.npz"
        params = random_params(3, 1, 3, seed=5)
        np.savez(path, n_m=4, n_q=1, p=3, intercept=params.intercept, lag_coeffs=params.lag_coeffs,
                 chol_cov=params.chol_cov)
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: intercept shape (4,) != (5,)")):
            load_params(path)

    def test_missing_file_raises_its_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "none.npz")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "params.npz"
        params = random_params(3, 2, 4, seed=5)
        save_params(path, params)
        got = load_params(path)
        assert (got.n_m, got.n_q, got.p) == (3, 2, 4)
        assert_array_equal(got.intercept, params.intercept)
        assert_array_equal(got.lag_coeffs, params.lag_coeffs)
        assert_array_equal(got.chol_cov, params.chol_cov)


class TestArchive:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "draws.bin"
        rng = np.random.default_rng(1)
        draws = rng.normal(size=(5, 9, 4))
        write_archive(path, draws, n_q=1)
        got, header = read_archive(path)
        assert_array_equal(got, draws)
        assert (header.n_draws, header.T, header.n, header.n_q) == (5, 9, 4, 1)

    def test_empty_stack(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_archive(path, np.empty((0, 9, 4)), n_q=1)
        got, header = read_archive(path)
        assert got.shape == (0, 9, 4)
        assert header.n_draws == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(ConfigurationError, match="not a draw archive"):
            read_archive(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "draws.bin"
        write_archive(path, np.zeros((2, 5, 3)), n_q=1)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigurationError, match="truncated archive, 232 of 240 payload bytes"):
            read_archive(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "draws.bin"
        path.write_bytes(b"MFSM" + bytes(7))
        with pytest.raises(ConfigurationError, match="truncated archive header"):
            read_archive(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "draws.bin"
        write_archive(path, np.zeros((1, 4, 2)), n_q=1)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ConfigurationError, match="16 bytes after the 64 payload bytes"):
            read_archive(path)

    def test_header_n_q_above_n(self, tmp_path):
        path = tmp_path / "draws.bin"
        write_archive(path, np.zeros((1, 4, 2)), n_q=1)
        raw = bytearray(path.read_bytes())
        raw[16:20] = (5).to_bytes(4, "little")   # the header's n_q field
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError, match="n_q = 5 quarterly variables of n = 2"):
            read_archive(path)

    def test_write_rejects_n_q_above_n(self, tmp_path):
        path = tmp_path / "draws.bin"
        with pytest.raises(ConfigurationError, match="n_q = 5 quarterly variables of n = 2"):
            write_archive(path, np.zeros((1, 4, 2)), n_q=5)
        assert not path.exists()

    def test_bad_shape(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_archive(tmp_path / "x.bin", np.zeros((3, 4)), n_q=1)
