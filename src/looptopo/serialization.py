"""Shared on-disk helpers: checksums, canonical config hashing, flat arrays."""

import csv
import hashlib
import io
import json
import os

import numpy as np

from .errors import ChecksumError, ParseError, ValidationError


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    """Stable JSON encoding used for hashing and manifests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode())


def write_array_bin(arr: np.ndarray, path) -> dict:
    """Write a little-endian flat binary array; returns its manifest entry."""
    arr = np.ascontiguousarray(arr)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    data = le.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return {"file": os.path.basename(path), "dtype": le.dtype.str,
            "shape": list(arr.shape), "sha256": sha256_bytes(data)}


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def read_array_bin(path, entry: dict) -> np.ndarray:
    data = read_bytes(path)
    if sha256_bytes(data) != entry["sha256"]:
        raise ChecksumError(f"checksum mismatch for {path}")
    dtype = np.dtype(entry["dtype"])
    expected = int(np.prod(entry["shape"])) * dtype.itemsize
    if len(data) != expected:
        raise ChecksumError(f"{path}: expected {expected} bytes, found {len(data)}")
    return np.frombuffer(data, dtype=dtype).reshape(entry["shape"]).copy()


def write_matrix_csv(arr: np.ndarray, header, path) -> dict:
    """Text twin of write_array_bin; %.17g keeps float round trips exact."""
    arr = np.asarray(arr)
    rows2d = arr.reshape(arr.shape[0], -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if np.issubdtype(arr.dtype, np.integer):
            for row in rows2d:
                writer.writerow([str(int(v)) for v in row])
        else:
            for row in rows2d:
                writer.writerow([f"{v:.17g}" for v in row])
    return {"file": os.path.basename(path), "dtype": arr.dtype.str,
            "shape": list(arr.shape), "sha256": sha256_file(path),
            "header": list(header)}


def read_matrix_csv(path, entry: dict) -> np.ndarray:
    data = read_bytes(path)
    if sha256_bytes(data) != entry["sha256"]:
        raise ChecksumError(f"checksum mismatch for {path}")
    dtype = np.dtype(entry["dtype"])
    values = []
    reader = csv.reader(io.StringIO(data.decode(), newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError("empty CSV", path=path)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=path, line=lineno) from None
    arr = np.array(values, dtype=dtype)
    return arr.reshape(entry["shape"])


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    try:
        return json.loads(read_bytes(path))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad JSON: {exc}", path=path) from None
