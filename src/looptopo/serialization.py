"""Shared on-disk helpers, the one module that opens files and creates
directories: checksums, config objects and their hashes, the package's one
array codec, and its one CSV dialect.

An array is stored as raw bytes described by an entry with a numeric
``dtype`` string (``"<f8"``) and a ``shape`` list of sizes: one file per array
in a dataset, whose manifest entry adds ``file`` and ``sha256``, and back to
back after the header in a checkpoint. Both read through ``decode_array``.

Every CSV file the package writes or reads (frequency sets, parameter
tables, scatter and image exports, training histories, ``predict --input``)
follows one dialect:

- an optional first line ``# comment`` (run provenance), a header row, then
  one row per record; fields are separated by commas and lines end in
  ``\\n`` (``\\r\\n`` reads the same);
- integers are written as ``str(v)``, floats with 17 significant digits,
  which read back bit for bit, or with 10 in the exports meant for people
  (evaluation scatter, image);
- a reader skips blank rows and takes the first row as a header when any of
  its fields is not a number; every row must be as wide as the expected
  width (by default that of the first row), and a value that is not a
  number or is not finite is rejected with a ``ParseError`` naming the file
  and its physical line.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import numbers
import os

import numpy as np

from .errors import ChecksumError, ParseError, ValidationError


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    """Stable JSON encoding used for hashing and manifests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode())


def is_integer(v) -> bool:
    """An int (numpy integers included), not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """An int or a finite float (numpy scalars included), not a bool."""
    return is_integer(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                             and math.isfinite(v))


#: Accepted JSON values and their description, per config field type.
_FIELD_TYPES = {
    int: (is_integer, "an integer"),
    float: (is_finite_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, (list, tuple)), "a list"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def config_to_dict(cfg) -> dict:
    """The JSON object of the config dataclass ``cfg``, the inverse of
    ``config_from_dict``: tuples become lists, nothing else is converted."""
    return {f.name: list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v
            for f in dataclasses.fields(cfg)}


def config_from_dict(cls, d):
    """Build and validate the config dataclass ``cls`` from a JSON object.

    Refuses keys that are not fields of ``cls``, missing required fields and
    values of the wrong type (a float field takes any finite number, null
    only where the default is None). Lists become tuples for tuple fields;
    nothing else is converted, so valid input hashes as it did before.
    """
    name = cls.__name__
    if not isinstance(d, dict):
        raise ValidationError(f"{name}: expected a JSON object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValidationError(f"{name}: unknown keys {unknown}")
    missing = sorted(k for k, f in fields.items()
                     if k not in d and f.default is dataclasses.MISSING)
    if missing:
        raise ValidationError(f"{name}: missing keys {missing}")
    for key, value in d.items():
        field = fields[key]
        accepts, described = _FIELD_TYPES[field.type]
        if not (accepts(value) or (value is None and field.default is None)):
            raise ValidationError(f"{name}.{key} must be {described}, got {value!r}")
    cfg = cls(**{k: tuple(v) if fields[k].type is tuple else v for k, v in d.items()})
    cfg.validate()
    return cfg


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def write_bytes(path, data: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def check_output_files(*paths):
    """Refuse, before any work, output files in a missing directory or naming one."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"cannot write {path}: its directory does not exist")
        if os.path.isdir(path):
            raise ValidationError(f"cannot write {path}: it is a directory")


def make_dir(path):
    """Create the directory ``path`` and its parents; an existing one is fine."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {path}: {exc.strerror}") from None


def write_array_bin(arr: np.ndarray, path) -> dict:
    """Write a little-endian flat binary array; returns its manifest entry."""
    arr = np.ascontiguousarray(arr)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    data = le.tobytes()
    write_bytes(path, data)
    return {"file": os.path.basename(path), "dtype": le.dtype.str,
            "shape": list(arr.shape), "sha256": sha256_bytes(data)}


def decode_array(buf, entry, offset=0, path=None):
    """The array ``entry`` describes, copied out of ``buf`` from byte ``offset``.

    Returns (array, offset past its bytes). Raises ``ParseError`` naming
    ``path`` unless ``entry`` holds a numeric ``dtype`` string and a ``shape``
    list of sizes and ``buf`` holds the array's bytes.
    """
    try:
        dtype = np.dtype(entry["dtype"]) if isinstance(entry["dtype"], str) else None
        shape = entry["shape"]
    except (KeyError, TypeError, ValueError):  # not an object, a key missing, no dtype
        dtype = shape = None
    if (dtype is None or dtype.kind not in "biuf" or not isinstance(shape, list)
            or not all(is_integer(d) and d >= 0 for d in shape)):
        raise ParseError("an array entry must hold a numeric dtype string and a list "
                         "shape of sizes", path=path)
    count = math.prod(shape)
    end = offset + count * dtype.itemsize
    if end > len(buf):
        raise ParseError(f"array of shape {shape} needs {end - offset} bytes, "
                         f"{len(buf) - offset} left", path=path)
    return np.frombuffer(buf, dtype, count, offset).reshape(shape).copy(), end


def read_array_bin(path, entry: dict) -> np.ndarray:
    """The array a dataset manifest entry describes, read from ``path``."""
    data = read_bytes(path)
    if sha256_bytes(data) != entry["sha256"]:
        raise ChecksumError(f"checksum mismatch for {path}")
    arr, end = decode_array(data, entry, path=path)
    if end != len(data):
        raise ParseError(f"expected {end} bytes, found {len(data)}", path=path)
    return arr


def format_csv(header, rows, digits=17, comment=None) -> bytes:
    """The bytes of a CSV file: optional ``# comment`` line, header, rows.

    Integers are written as ``str``, every other value with ``digits``
    significant digits.
    """
    fmt = f"{{:.{digits}g}}".format
    out = io.StringIO()
    if comment:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(v) if isinstance(v, (int, np.integer)) else fmt(v) for v in row]
                     for row in rows)
    return out.getvalue().encode()


def parse_csv(data: bytes, path, width=None):
    """Parse CSV bytes -> (header or None, (rows, width) float array).

    ``path`` names the file in errors. Rows must be ``width`` wide, or as
    wide as the first row when ``width`` is None. Raises ``ParseError`` on
    text that is not UTF-8, on a bad row (with its line) and when there are
    no data rows.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         path=path) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rows = None, []
    try:
        for row in reader:
            line = reader.line_num
            if not row or (line == 1 and row[0].startswith("#")):
                continue
            width = width or len(row)
            if len(row) != width:
                raise ParseError(f"expected {width} values, got {len(row)}",
                                 path=path, line=line)
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                if header is None and not rows:
                    header = row
                    continue
                raise ParseError(f"bad number: {exc}", path=path, line=line) from None
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite value", path=path, line=line)
            rows.append(values)
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", path=path, line=reader.line_num) from None
    if not rows:
        raise ParseError("no data rows", path=path)
    return header, np.array(rows)


def write_json(obj, path):
    write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_json(path):
    try:
        return json.loads(read_bytes(path))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad JSON: {exc}", path=path) from None
