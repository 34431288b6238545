"""Shared on-disk helpers, the one module that opens files and creates
directories: checksums, config objects and their hashes, the package's one
array codec, and its one CSV dialect. A config class checks its own rules at
construction (``__post_init__``, through ``check_fields``), so a config that
exists is valid; ``config_from_dict`` adds only what JSON needs.

An array is stored as raw bytes described by an entry with a numeric
``dtype`` string (``"<f8"``) and a ``shape`` list of sizes: one file per array
in a dataset, whose manifest entry adds ``file`` and ``sha256``, and back to
back after the header in a checkpoint. Both read through ``decode_array``,
which returns a view of the bytes it is given (a copy only where the view
would be misaligned for its dtype). A checkpoint and a dataset's array file
are each read by ``read_aligned``, once, into one writable buffer that places
a chosen byte on a 64-byte boundary; the sha256 is checked over that buffer
before anything is decoded, and the arrays come back as aligned, writable
views of it. Both are written by ``write_bytes``, which writes several
buffers one after another, so their parts are never joined into one:
``write_array_bin`` hashes and writes the little-endian C-contiguous array's
own buffer, with no copy into bytes.

Every public function that takes an array turns it into one through
``float_array``, by one rule: the argument must be numeric (strings and
objects that are not numbers are refused), not ragged, and real (numpy would
drop an imaginary part with only a warning); ``width``, where given, is the
length its last axis must have, and ``ndim``, an int or a tuple of ints, the
number of axes it may have; and it comes back as ``dtype``, float64 by
default, a float array's own dtype with None, with no copy where it has that
dtype already. A broken rule is a ``ValidationError`` naming the argument; a
wrong width or rank reads ``expected {what}, got shape {shape}``, so ``what``
says the shape where the argument's name alone would not (``"(S, 7)
parameters"``). No function checks an argument's rank by hand after it.

Every public function that takes a table of parameter intervals (a sampling
config, checkpoint metadata, ``Task.clamp``, ``Task.invert``,
``evaluate_predictions``) checks it through ``check_intervals``, by one rule:
the table is a dict; each entry it is asked about that the table holds is a
list or tuple of two finite numbers lo <= hi; and, where the entries are
required, the table holds each one. ``check_interval`` holds a single interval
(``normalized_abs_error``'s) to the same pair rule. A broken rule is a
``ValidationError`` naming the table and the entry.

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
import stat

import numpy as np

from .errors import ChecksumError, ParseError, ValidationError


def sha256_bytes(data) -> str:
    """The hex sha256 of bytes or of a C-contiguous array's buffer."""
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    """Stable JSON encoding used for hashing and manifests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode())


def is_integer(v) -> bool:
    """An int (numpy integers included), not a bool."""
    # a plain int first: the abstract-class check costs 10x more, on every
    # shape size and config field a checkpoint load checks
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


#: The most float64 values one numpy array can hold. A config that would size
#: an array past it (split sizes, a layer's weights, a grid's pixels) is refused,
#: not left to end in numpy's error.
MAX_FLOATS = np.iinfo(np.intp).max // 8


def float_array(x, what, width=None, ndim=None, dtype=float):
    """``x``, the array argument named ``what``, as ``dtype`` by the one array
    rule (module docstring): ``width`` the length of its last axis, ``ndim``
    its number of axes, or a tuple of the numbers allowed. ``dtype`` None keeps
    a float dtype; an array that has its dtype already is returned, not copied."""
    try:
        a = np.asarray(x)
        if a.dtype.kind == "c":
            raise ValidationError(f"{what} must be real, got complex values {x!r:.60}")
        a = a.astype(dtype or (a.dtype if a.dtype.kind == "f" else float), copy=False)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric, got {x!r:.60}") from None
    if ((width is not None and a.shape[-1:] != (width,))
            or (ndim is not None and a.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)))):
        raise ValidationError(f"expected {what}, got shape {a.shape}")
    return a


def is_finite_number(v) -> bool:
    """An int or a finite float (numpy scalars included), not a bool."""
    if type(v) is float:  # a plain float first, as in is_integer
        return math.isfinite(v)
    return is_integer(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                             and math.isfinite(v))


def are_finite_numbers(values, n) -> bool:
    """A list or tuple of ``n`` finite numbers (``is_finite_number``)."""
    return (isinstance(values, (list, tuple)) and len(values) == n
            and all(map(is_finite_number, values)))


def check_interval(pair, what):
    """``pair`` as a (lo, hi) tuple by the intervals rule (module docstring);
    ``what`` names it in the error."""
    if not (are_finite_numbers(pair, 2) and pair[0] <= pair[1]):
        raise ValidationError(f"{what} must be a pair lo <= hi of finite numbers, "
                              f"got {pair!r:.60}")
    return tuple(pair)


def check_intervals(intervals, names, what="intervals", required=False):
    """The entries of the interval table ``intervals`` named in ``names``, as a
    dict of (lo, hi) tuples in the order of ``names``, by the intervals rule
    (module docstring); with ``required``, a name the table lacks is refused."""
    if not isinstance(intervals, dict):
        raise ValidationError(f"{what} must be a dict of (lo, hi) pairs, got {intervals!r:.60}")
    pairs = {}
    for name in names:
        if name in intervals:
            pairs[name] = check_interval(intervals[name], f"{what}: interval for {name}")
        elif required:
            raise ValidationError(f"{what} lack {name}, one of the required {', '.join(names)}")
    return pairs


#: Accepted values and their description, per config field type.
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


def check_fields(cfg, **minimums):
    """Refuse a field of the config dataclass ``cfg`` whose value does not have
    its declared type (a float field takes any finite number, a tuple field a
    list or tuple, stored as a tuple; null only where the default is None) or
    lies below its entry in ``minimums``. Only lists are converted (to tuples),
    so valid input hashes as it did before."""
    name = type(cfg).__name__
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        accepts, described = _FIELD_TYPES[field.type]
        if not (accepts(value) or (value is None and field.default is None)):
            raise ValidationError(f"{name}.{field.name} must be {described}, got {value!r}")
        if field.name in minimums and value < minimums[field.name]:
            raise ValidationError(f"{name}.{field.name} must be >= {minimums[field.name]}, "
                                  f"got {value}")
        if field.type is tuple:
            object.__setattr__(cfg, field.name, tuple(value))


def config_from_dict(cls, d):
    """Build the config dataclass ``cls`` from a JSON object.

    Refuses a value that is not an object, keys that are not fields of ``cls``
    and missing required fields. The type and value rules are the class's own:
    they run in its ``__post_init__``, so a config read from JSON meets the
    same rules as one built in Python.
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
    return cls(**d)


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


#: The boundary, in bytes, on which ``read_aligned`` places the byte it is asked to.
ALIGNMENT = 64


def read_aligned(path, prefix_size, aligned_at) -> np.ndarray:
    """The bytes of ``path``, read once into one writable uint8 array.

    ``aligned_at(prefix)``, given the file's first ``prefix_size`` bytes, names
    the byte of the file to place on an ``ALIGNMENT``-byte boundary; in a file
    shorter than that, byte 0 is placed there. The prefix is not yet verified,
    so its value sets only the padding before the file's first byte: the
    buffer is sized by the file, ``ALIGNMENT - 1`` bytes more. A pipe, which
    has no size to allocate by, is read whole first and then copied in.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                size = st.st_size
                head = fh.read(min(prefix_size, size))
            else:
                head = fh.readall()
                size = len(head)
            at = aligned_at(head[:prefix_size]) if len(head) >= prefix_size else 0
            raw = np.empty(size + ALIGNMENT - 1, np.uint8)
            start = -(raw.__array_interface__["data"][0] + at) % ALIGNMENT
            buf = raw[start:start + size]
            n = len(head)
            buf[:n] = np.frombuffer(head, np.uint8)
            while n < size and (got := fh.readinto(buf[n:])):
                n += got
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    return buf[:n]


def write_bytes(path, *chunks):
    """Write ``chunks``, bytes or C-contiguous arrays, one after another as the
    file ``path``, with no copy joining them."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    """Write a little-endian flat binary array; returns its manifest entry.

    The file and the checksum are taken from the buffer of the array itself
    (a copy only where it is not C-contiguous or not little-endian)."""
    arr = np.asarray(arr)
    le = np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))
    write_bytes(path, le)
    return {"file": os.path.basename(path), "dtype": le.dtype.str,
            "shape": list(le.shape), "sha256": sha256_bytes(le)}


def decode_array(buf, entry, offset=0, path=None):
    """The array ``entry`` describes, a view of ``buf`` from byte ``offset``,
    writable when ``buf`` is; a copy where that view would be misaligned for
    its dtype.

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
    arr = np.frombuffer(buf, dtype, count, offset).reshape(shape)
    return (arr if arr.flags.aligned else arr.copy()), end


def read_array_bin(path, entry: dict) -> np.ndarray:
    """The array a dataset manifest entry describes, read from ``path``.

    The file is read once into one aligned buffer (``read_aligned``), whose
    sha256 is checked before anything is decoded; the array returned is a
    writable view of that buffer."""
    buf = read_aligned(path, 0, lambda head: 0)
    if sha256_bytes(buf) != entry["sha256"]:
        raise ChecksumError(f"checksum mismatch for {path}")
    arr, end = decode_array(buf, entry, path=path)
    if end != len(buf):
        raise ParseError(f"expected {end} bytes, found {len(buf)}", path=path)
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


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_csv(data: bytes, path, width=None):
    """Parse CSV bytes -> (header or None, (rows, width) float array).

    ``path`` names the file in errors. Rows must be ``width`` wide, or as
    wide as the first row when ``width`` is None. The first row is a header
    when none of its fields is a number; a first row with some numbers and
    some not is a bad row. Raises ``ParseError`` on text that is not UTF-8, on
    a bad row (with its line and value) and when there are no data rows.
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
                if header is None and not rows and not any(map(_is_number, row)):
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
