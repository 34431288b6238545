"""Example-pair datasets: sampling, generation, splits, standardization, disk format.

The scenarios are the entries of the task table (``tasks.TASKS``): each gives
its parameters, draw intervals, default sizes and noise, and whether its data
are visibilities. Noisy visibilities carry white Gaussian noise of std
2 sqrt(flux).

Sampling happens in external units (angles in degrees, matching config files
and disk), which are converted to internal radians exactly once. A dataset
directory is a manifest.json plus flat little-endian binary arrays, checksummed;
the array files are written and read side by side, through ``pool.ordered_map``.

A dataset stores its parameters (in external units, and in memory also in
internal ones) and two data channels, clean and noisy; with noise off, the
noisy channel is the clean array itself, generated or loaded. Its splits are
derived from the config: the sizes lay out contiguous train, validation and
test rows in that order, so a split is a slice of rows and selecting it gives
a view. A dataset directory stores only what the config cannot derive:
``params.bin``, ``clean.bin`` and, with noise on, ``noisy.bin``.

A seed gives two random streams, one per purpose: stream 0 draws all the
parameters of a dataset in one call, stream 1 all of its noise in one call.
Stream 1 depends on nothing else, so it is drawn on the pool beside stream 0
and the forward model, through ``pool.ordered_map``; the bytes are the same on
any number of CPUs.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .errors import ChecksumError, FormatVersionError, ParseError, ValidationError
from .forward_model import (DEFAULT_BUILD, FrequencyConfig, FrequencySet,
                      LoopBuildConfig, add_noise, default_frequencies,
                      visibilities_closed_form_batch)
from .pool import ordered_map
from .serialization import (MAX_FLOATS, check_fields, check_intervals, config_from_dict,
                            config_hash, config_to_dict, float_array, make_dir,
                            read_array_bin, read_json, write_array_bin, write_json)
from .tasks import LOOP_PARAMS, get_task

DATASET_FORMAT_VERSION = 2

PARAM_ORDER = LOOP_PARAMS
TRAIN, VAL, TEST = 0, 1, 2

#: Rows per pass of ``apply_standardization`` and ``mlp.forward``; up to this
#: many rows, ``mlp.forward`` gives the same bytes as one unchunked pass.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class SamplingConfig:
    """What to draw and how much of it. Angles here are degrees. ``intervals``
    replaces some of the task's draw intervals; once built, it holds them all.
    ``circular_fraction`` is the share of eps = 0 draws, and must be 0 on a task
    that has none."""

    scenario: str
    n_train: int
    n_val: int
    n_test: int
    seed: int
    noise: bool
    circular_fraction: float
    intervals: dict = None

    @classmethod
    def default(cls, scenario, seed, /, **overrides):
        """The task's default split sizes, noise and circular fraction,
        updated by ``overrides``, which may set any field but scenario and seed."""
        task = get_task(scenario)
        clash = sorted({"scenario", "seed"} & set(overrides))
        if clash:
            raise ValidationError(f"SamplingConfig.default takes {clash} as arguments, "
                                  "not as overrides")
        n_train, n_val, n_test = task.split_sizes
        base = dict(scenario=scenario, n_train=n_train, n_val=n_val, n_test=n_test,
                    seed=seed, noise=task.noise, circular_fraction=task.circular_fraction)
        return config_from_dict(cls, {**base, **overrides})

    def __post_init__(self):
        check_fields(self, n_train=0, n_val=0, n_test=0, seed=0)
        task = get_task(self.scenario)
        if self.total < 1:
            raise ValidationError("dataset must contain at least one sample")
        if self.total > MAX_FLOATS:
            raise ValidationError(f"split sizes {self.n_train}/{self.n_val}/{self.n_test} "
                                  f"exceed the {MAX_FLOATS} samples a dataset may hold")
        if not (0.0 <= self.circular_fraction < 1.0):
            raise ValidationError(
                f"circular_fraction must be in [0, 1), got {self.circular_fraction}")
        if self.noise and not task.visibilities:
            raise ValidationError(f"the {self.scenario} scenario is noise-free")
        if self.circular_fraction and not task.collapses:
            raise ValidationError(f"circular_fraction must be 0 for the {self.scenario} "
                                  f"scenario, which has no eps = 0 draws, "
                                  f"got {self.circular_fraction}")
        overrides = self.intervals or {}
        for name in overrides:
            if name not in task.intervals:
                raise ValidationError(f"unknown interval name {name!r}")
        object.__setattr__(self, "intervals", {
            **task.intervals,
            **check_intervals(overrides, task.intervals, "SamplingConfig.intervals")})

    @property
    def total(self):
        return self.n_train + self.n_val + self.n_test

    def resolved_intervals(self):
        return dict(self.intervals)

    def to_dict(self):
        """``config_to_dict`` with the intervals as lists."""
        return {**config_to_dict(self),
                "intervals": {k: list(v) for k, v in self.intervals.items()}}

    from_dict = classmethod(config_from_dict)


def internal_intervals(cfg: SamplingConfig) -> dict:
    """Intervals in internal units (radians for angles)."""
    angles = get_task(cfg.scenario).angles
    return {name: (math.radians(lo), math.radians(hi)) if name in angles else (lo, hi)
            for name, (lo, hi) in cfg.intervals.items()}


def sample_params_external(cfg: SamplingConfig, rng, size=None) -> np.ndarray:
    """Parameter draws in external units (degrees for angles).

    Follows numpy's ``size`` convention: one (P,) row without ``size``,
    (size, P) rows with it. Where the task collapses, each row is an eps = 0
    draw with probability ``circular_fraction``, and then has
    eps = alpha = c = 0.
    """
    task = get_task(cfg.scenario)
    iv = cfg.intervals
    lows = np.array([iv[k][0] for k in task.params])
    highs = np.array([iv[k][1] for k in task.params])
    shape = None if size is None else (size, len(lows))
    if not task.collapses:
        return rng.uniform(lows, highs, shape)
    collapsed = rng.random(size) < cfg.circular_fraction
    draw = rng.uniform(lows, highs, shape)
    # eps, alpha and c are the last three loop parameters
    draw[..., 4:] = np.where(np.asarray(collapsed)[..., None], 0.0, draw[..., 4:])
    return draw


def to_internal_params(scenario, ext: np.ndarray) -> np.ndarray:
    """Degrees -> radians on the angle columns, in a float64 copy; other columns unchanged."""
    arr = float_array(ext, "parameters", width=len(get_task(scenario).params)).copy()
    for col in get_task(scenario).angle_columns:
        arr[..., col] = np.radians(arr[..., col])
    return arr


@dataclass
class Dataset:
    """In-memory dataset; params_disk is the serialization truth (degrees).

    Stored: the config, the parameters in both units and the two data
    channels (``noisy is clean`` with noise off). Derived from the config: the
    split of each row (``split``) and each split's rows (``mask``)."""

    config: SamplingConfig
    params_disk: np.ndarray        # (S, P), external units
    params: np.ndarray             # (S, P), internal units (radians)
    clean: np.ndarray              # (S, M), real-coded data
    noisy: np.ndarray              # (S, M)
    frequencies: FrequencySet = None
    build: LoopBuildConfig = None

    @property
    def n_samples(self):
        return self.params.shape[0]

    @property
    def data_dim(self):
        return self.clean.shape[1]

    @property
    def split(self):
        """(S,) int8: n_train rows of TRAIN, then n_val of VAL, then n_test of TEST."""
        cfg = self.config
        return np.repeat(np.array([TRAIN, VAL, TEST], np.int8),
                         (cfg.n_train, cfg.n_val, cfg.n_test))

    def mask(self, split):
        """The rows of ``split`` (TRAIN, VAL or TEST) as a ``slice``, so that
        indexing with it gives a view. The name is kept for perfbench."""
        cfg = self.config
        ends = (0, cfg.n_train, cfg.n_train + cfg.n_val, cfg.total)
        return slice(ends[split], ends[split + 1])

    def inputs(self, split=None):
        """Network inputs: the noisy channel (the clean one when noise is off),
        of all rows or of one split. A view: callers copy before writing."""
        return self.noisy if split is None else self.noisy[self.mask(split)]

    def manifest_dict(self):
        d = {"format_version": DATASET_FORMAT_VERSION, "kind": "dataset",
             "config": self.config.to_dict(),
             "angle_unit_on_disk": "degrees",
             "angle_columns": get_task(self.config.scenario).angle_columns}
        d["frequencies"] = None if self.frequencies is None else self.frequencies.uv.tolist()
        d["build"] = None if self.build is None else self.build.to_dict()
        return d


def generate_dataset(cfg: SamplingConfig, freqs: FrequencySet = None,
                     build: LoopBuildConfig = None, jobs: int = 1) -> Dataset:
    """Draw parameters and run the forward model; the splits come from ``cfg``.

    Fully determined by cfg: the seed keys one generator per purpose, and
    each draws the whole dataset in one vectorized call (all parameters
    from stream 0, all noise from stream 1). ``jobs`` has no effect; it is
    accepted so that existing callers (perfbench among them) keep working.
    The work it once spread is spread already: the closed-form kernel runs its
    row blocks on every CPU the process may use, with the same bytes on any
    number of them, and the noise is drawn on a pool thread while the calling
    thread draws the parameters and lays out the loops.
    """
    task = get_task(cfg.scenario)
    total = cfg.total
    params_rng, noise_rng = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(cfg.seed).spawn(2))
    if task.visibilities:
        if freqs is None:
            freqs = default_frequencies(FrequencyConfig())
        if build is None:
            build = DEFAULT_BUILD
    else:
        freqs = build = None

    def draw_and_model():  # stream 0 and the forward model
        ext = sample_params_external(cfg, params_rng, size=total)
        params = to_internal_params(cfg.scenario, ext)
        clean = (visibilities_closed_form_batch(params, freqs, build) if task.visibilities
                 else task.embed(params))
        return ext, params, clean

    if cfg.noise:  # stream 1 beside them: the bytes of one standard_normal(shape) call
        normals = np.empty((total, 2 * len(freqs)))
        (ext, params, clean), _ = ordered_map(
            lambda job: job(), (draw_and_model, lambda: noise_rng.standard_normal(out=normals)))
        noisy = add_noise(clean, params[:, 2:3], normals)
    else:
        ext, params, clean = draw_and_model()
        noisy = clean
    return Dataset(config=cfg, params_disk=ext, params=params, clean=clean,
                   noisy=noisy, frequencies=freqs, build=build)


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature affine normalization fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray


def fit_standardization(ds: Dataset, diag: Diagnostics | None = None) -> StandardizationStats:
    x = ds.inputs(TRAIN)
    if x.shape[0] == 0:
        raise ValidationError("cannot standardize: empty training split")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    # roundoff can leave a constant column with std ~ 1e-15 * |mean|
    zero = std <= 1e-12 * np.maximum(1.0, np.abs(mean))
    if np.any(zero):
        if diag is not None:
            diag.warn("zero_variance_feature",
                      f"features {np.flatnonzero(zero).tolist()} are constant; std set to 1",
                      int(zero.sum()))
        std = np.where(zero, 1.0, std)
        mean = np.where(zero, x[0], mean)  # exact center for constant columns
    return StandardizationStats(mean=mean, std=std)


def apply_standardization(stats: StandardizationStats, x, dtype=np.float64):
    """(x - mean) / std of (M,) or (rows, M) inputs, stored as ``dtype``.

    Computed in float64, ``EVAL_CHUNK`` rows at a time through one chunk
    buffer, each chunk rounded once into the ``dtype`` result: the bits of the
    float64 result cast to ``dtype``, with no float64 array of the result's
    size between. Input that is not numeric, is ragged or complex, or is not
    M wide raises ``ValidationError``.
    """
    width = stats.mean.shape[0]
    x = float_array(x, f"({width},) or (rows, {width}) inputs", width=width, ndim=(1, 2))
    out = np.empty(x.shape, dtype)
    rows, out_rows = x.reshape(-1, width), out.reshape(-1, width)
    buf = np.empty((min(len(rows), EVAL_CHUNK), width))
    for lo in range(0, len(rows), EVAL_CHUNK):
        chunk = np.subtract(rows[lo:lo + EVAL_CHUNK], stats.mean, out=buf[:len(rows) - lo])
        np.divide(chunk, stats.std, out=out_rows[lo:lo + EVAL_CHUNK])
    return out


def _array_names(cfg: SamplingConfig):
    """The arrays a dataset directory of ``cfg`` holds, one file each."""
    return ("params", "clean", "noisy") if cfg.noise else ("params", "clean")


def save_dataset(ds: Dataset, path):
    """Write a dataset directory: the manifest and the arrays of ``_array_names``."""
    make_dir(path)
    manifest = ds.manifest_dict()
    manifest["config_hash"] = config_hash(manifest["config"])
    arrays = {"params": ds.params_disk, "clean": ds.clean, "noisy": ds.noisy}
    names = _array_names(ds.config)
    manifest["arrays"] = dict(zip(names, ordered_map(
        lambda name: write_array_bin(arrays[name], os.path.join(path, f"{name}.bin")),
        names)))
    write_json(manifest, os.path.join(path, "manifest.json"))


def _read_array(path, entry, name, manifest_path):
    """One array of the dataset directory ``path``. Its manifest entry is checked
    here to name its file and checksum; read_array_bin checks its dtype and shape."""
    if not (isinstance(entry, dict)
            and all(isinstance(entry.get(k), str) for k in ("file", "sha256"))):
        raise ParseError(f"manifest entry arrays.{name} must be an object with string "
                         "file and sha256", path=manifest_path)
    return read_array_bin(os.path.join(path, entry["file"]), entry)


def load_dataset(path) -> Dataset:
    """Read a dataset directory. The manifest must list exactly the arrays of
    ``_array_names``; files it does not list are not read. An array file whose
    dtype or shape is not what the config implies is a ``ParseError`` naming
    it. With noise off, ``noisy`` is the clean array itself."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_path)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != DATASET_FORMAT_VERSION:  # a dataset is a function of its config
        raise FormatVersionError(
            f"dataset format version {version} is not supported (this build reads version "
            f"{DATASET_FORMAT_VERSION}): regenerate the dataset with `looptopo gen-dataset` "
            "from the config, frequencies and build in its manifest")
    try:
        if config_hash(manifest["config"]) != manifest["config_hash"]:
            raise ChecksumError(f"{manifest_path}: config does not match its config_hash")
        cfg = SamplingConfig.from_dict(manifest["config"])
        entries = manifest["arrays"]
    except KeyError as exc:
        raise ParseError(f"manifest lacks {exc}", path=manifest_path) from None
    if not isinstance(entries, dict):
        raise ParseError("manifest arrays must be an object", path=manifest_path)
    names = _array_names(cfg)
    odd = ([f"extra arrays.{name}" for name in entries if name not in names]
           + [f"missing arrays.{name}" for name in names if name not in entries])
    if odd:
        raise ParseError(f"manifest arrays must be exactly {', '.join(names)}, as the "
                         f"config implies: {', '.join(odd)}", path=manifest_path)
    arrays = dict(zip(names, ordered_map(
        lambda name: _read_array(path, entries[name], name, manifest_path), names)))
    freqs, build = manifest.get("frequencies"), manifest.get("build")
    task = get_task(cfg.scenario)
    if (freqs is not None, build is not None) != (task.visibilities, task.visibilities):
        raise ParseError("manifest frequencies and build must both be given for a "
                         "visibility dataset and both be null otherwise", path=manifest_path)
    freqs = FrequencySet(freqs) if task.visibilities else None
    width = 2 * len(freqs) if task.visibilities else task.embedded_dim
    for name in names:
        found = arrays[name].dtype, arrays[name].shape
        needs = np.dtype(np.float64), (cfg.total, len(task.params) if name == "params" else width)
        if found != needs:
            raise ParseError(f"holds {found[0]} {list(found[1])}, the config needs "
                             f"{needs[0]} {list(needs[1])}",
                             path=os.path.join(path, entries[name]["file"]))
    return Dataset(config=cfg,
                   params_disk=arrays["params"],
                   params=to_internal_params(cfg.scenario, arrays["params"]),
                   clean=arrays["clean"], noisy=arrays.get("noisy", arrays["clean"]),
                   frequencies=freqs,
                   build=LoopBuildConfig.from_dict(build) if task.visibilities else None)
