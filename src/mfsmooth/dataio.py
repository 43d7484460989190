"""File formats: CSV data with empty-cell missing markers, key=value config
files, parameter bundles, and a small binary archive for draw stacks.
"""

from __future__ import annotations

import csv
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .model import AggregationScheme, VarParams, intra_quarterly_average, skip_sampling

__all__ = [
    "write_data_csv",
    "read_data_csv",
    "write_config",
    "read_config",
    "save_params",
    "load_params",
    "write_archive",
    "read_archive",
    "scheme_from_config",
]

ARCHIVE_MAGIC = b"MFSM"
ARCHIVE_VERSION = 1


def write_data_csv(path: str | Path, values: np.ndarray, names: list[str]) -> None:
    """Header row of variable names, one row per month, empty cells missing;
    quarterly columns last."""
    values = np.asarray(values, dtype=float)
    if values.shape[1] != len(names):
        raise ConfigurationError("number of names must match number of columns")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for row in values:
            w.writerow(["" if np.isnan(v) else repr(float(v)) for v in row])


def read_data_csv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            names = next(r)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty data file") from None
        rows = []
        for lineno, row in enumerate(r, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ConfigurationError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            rows.append([])
            for name, f in zip(names, row):
                try:
                    rows[-1].append(float(f.strip() or "nan"))
                except ValueError:
                    raise ConfigurationError(f"{path}:{lineno}: column {name!r}: not a number: {f!r}") from None
    if not rows:
        raise ConfigurationError(f"{path}: no data rows, only a header")
    return np.array(rows, dtype=float), names


def write_config(path: str | Path, config: dict) -> None:
    with open(path, "w") as fh:
        for k, v in config.items():
            fh.write(f"{k} = {v}\n")


def read_config(path: str | Path) -> dict:
    """key = value lines; '#' starts a comment; values kept as strings."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def scheme_from_config(config: dict) -> AggregationScheme:
    kind = config.get("aggregation", "intra_quarterly_average")
    if kind == "intra_quarterly_average":
        return intra_quarterly_average()
    if kind == "skip_sampling":
        return skip_sampling()
    if kind == "custom":
        if "weights" not in config:
            raise ConfigurationError("aggregation = custom needs a 'weights' entry")
        weights = [float(w) for w in config["weights"].split(",")]
        return AggregationScheme(weights)
    raise ConfigurationError(f"unknown aggregation scheme {kind!r}")


PARAMS_KEYS = ("n_m", "n_q", "p", "intercept", "lag_coeffs", "chol_cov")


def save_params(path: str | Path, params: VarParams) -> None:
    np.savez(path, **{k: getattr(params, k) for k in PARAMS_KEYS})


def load_params(path: str | Path) -> VarParams:
    """The bundle ``save_params`` writes.  A file that cannot be opened
    raises its ``OSError``; one that opens but is no readable bundle, or
    whose arrays do not fit its dimensions, a ``ConfigurationError`` naming
    it."""
    with open(path, "rb") as fh:
        try:
            bundle = np.load(fh)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise ConfigurationError(f"{path}: not a parameter bundle (.npz) but a single array")
            with bundle as z:
                missing = [k for k in PARAMS_KEYS if k not in z.files]
                if missing:
                    raise ConfigurationError(f"{path}: parameter bundle lacks {', '.join(missing)}")
                dims, arrays = [z[k] for k in PARAMS_KEYS[:3]], [z[k] for k in PARAMS_KEYS[3:]]
        # zipfile's RuntimeError (NotImplementedError among them) is a member
        # it cannot extract: an unknown compression method or an encryption flag
        except (zipfile.BadZipFile, RuntimeError, OSError, ValueError, EOFError) as exc:
            raise ConfigurationError(f"{path}: unreadable parameter bundle: {exc}") from None
    if bad := [k for k, d in zip(PARAMS_KEYS, dims) if d.ndim or d.dtype.kind not in "iu"]:
        raise ConfigurationError(f"{path}: {', '.join(bad)} must be an integer scalar")
    try:
        return VarParams(*(int(d) for d in dims), *arrays)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ArchiveHeader:
    T: int
    n: int
    n_q: int
    n_draws: int


def write_archive(path: str | Path, draws: np.ndarray, n_q: int) -> None:
    """Binary draw stack: magic, version, T, n, n_q, draw count (uint32 LE),
    then row-major little-endian float64 values."""
    draws = np.ascontiguousarray(draws, dtype="<f8")
    if draws.ndim != 3:
        raise ConfigurationError("draw archive expects an (n_draws, T, n) array")
    k, T, n = draws.shape
    if not 0 <= n_q <= n:
        raise ConfigurationError(f"draw archive: n_q = {n_q} quarterly variables of n = {n}")
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<IIIII", ARCHIVE_VERSION, T, n, n_q, k))
        fh.write(draws.tobytes())


def read_archive(path: str | Path) -> tuple[np.ndarray, ArchiveHeader]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != ARCHIVE_MAGIC:
            raise ConfigurationError(f"{path}: not a draw archive")
        header = fh.read(20)
        if len(header) != 20:
            raise ConfigurationError(f"{path}: truncated archive header")
        version, T, n, n_q, k = struct.unpack("<IIIII", header)
        if version != ARCHIVE_VERSION:
            raise ConfigurationError(f"{path}: unsupported archive version {version}")
        if n_q > n:
            raise ConfigurationError(f"{path}: header has n_q = {n_q} quarterly variables of n = {n}")
        size = 8 * k * T * n
        buf = fh.read(size)
        extra = len(fh.read())
    if len(buf) != size:
        raise ConfigurationError(f"{path}: truncated archive, {len(buf)} of {size} payload bytes")
    if extra:
        raise ConfigurationError(f"{path}: {extra} bytes after the {size} payload bytes")
    draws = np.frombuffer(buf, dtype="<f8").reshape(k, T, n).copy()
    return draws, ArchiveHeader(T, n, n_q, k)
