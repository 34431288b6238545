"""Example-pair datasets: sampling, generation, splits, standardization, disk format.

The scenarios are the entries of the task table (``tasks.TASKS``): each gives
its parameters, draw intervals, default sizes and noise, and whether its data
are visibilities. Noisy visibilities carry white Gaussian noise of std
2 sqrt(flux).

Sampling happens in external units (angles in degrees, matching config files
and disk), which are converted to internal radians exactly once. A dataset
directory is a manifest.json plus flat little-endian binary arrays, checksummed;
the array files are written and read side by side, through ``pool.ordered_map``.

A seed gives two random streams, one per purpose: stream 0 draws all the
parameters of a dataset in one call, stream 1 all of its noise in one call.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .errors import ChecksumError, FormatVersionError, ParseError, ValidationError
from .forward_model import (DEFAULT_BUILD, FrequencyConfig, FrequencySet,
                      LoopBuildConfig, add_noise, default_frequencies,
                      vis_to_reals, visibilities_closed_form_batch)
from .pool import ordered_map
from .serialization import (check_fields, config_from_dict, config_hash, config_to_dict,
                            is_finite_number, make_dir, read_array_bin, read_json,
                            write_array_bin, write_json)
from .tasks import LOOP_PARAMS, get_task

DATASET_FORMAT_VERSION = 1

PARAM_ORDER = LOOP_PARAMS
TRAIN, VAL, TEST = 0, 1, 2


@dataclass(frozen=True)
class SamplingConfig:
    """What to draw and how much of it. Angles here are degrees. ``intervals``
    replaces some of the task's draw intervals; once built, it holds them all."""

    scenario: str
    n_train: int
    n_val: int
    n_test: int
    seed: int
    noise: bool
    circular_fraction: float = 0.05
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
        if not (0.0 <= self.circular_fraction < 1.0):
            raise ValidationError(
                f"circular_fraction must be in [0, 1), got {self.circular_fraction}")
        if self.noise and not task.visibilities:
            raise ValidationError(f"the {self.scenario} scenario is noise-free")
        overrides = self.intervals or {}
        for name, v in overrides.items():
            if name not in task.intervals:
                raise ValidationError(f"unknown interval name {name!r}")
            if not (isinstance(v, (list, tuple)) and len(v) == 2
                    and all(map(is_finite_number, v)) and v[0] <= v[1]):
                raise ValidationError(f"interval for {name} must be a pair lo <= hi of "
                                      f"finite numbers, got {v!r}")
        object.__setattr__(self, "intervals", {
            **task.intervals, **{k: tuple(v) for k, v in overrides.items()}})

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
    """Degrees -> radians on the angle columns; other columns unchanged."""
    arr = np.array(ext, dtype=float, copy=True)
    for col in get_task(scenario).angle_columns:
        arr[..., col] = np.radians(arr[..., col])
    return arr


@dataclass
class Dataset:
    """In-memory dataset; params_disk is the serialization truth (degrees)."""

    config: SamplingConfig
    params_disk: np.ndarray        # (S, P), external units
    params: np.ndarray             # (S, P), internal units (radians)
    clean: np.ndarray              # (S, M), real-coded data
    noisy: np.ndarray              # (S, M)
    split: np.ndarray              # (S,), int8 in {TRAIN, VAL, TEST}
    frequencies: FrequencySet = None
    build: LoopBuildConfig = None

    @property
    def n_samples(self):
        return self.params.shape[0]

    @property
    def data_dim(self):
        return self.clean.shape[1]

    def mask(self, split):
        return self.split == split

    def inputs(self, split=None):
        """Network inputs: the noisy channel (== clean when noise is off)."""
        if split is None:
            return self.noisy
        return self.noisy[self.mask(split)]

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
    """Draw parameters, run the forward model, attach splits.

    Fully determined by cfg: the seed keys one generator per purpose, and
    each draws the whole dataset in one vectorized call (all parameters
    from stream 0, all noise from stream 1). ``jobs`` has no effect; it is
    accepted so that existing callers (perfbench among them) keep working.
    The work it once spread is spread already: the closed-form kernel runs its
    row chunks on every CPU the process may use, with the same bytes on any
    number of them, and the draws are one vectorized call each.
    """
    task = get_task(cfg.scenario)
    total = cfg.total
    params_rng, noise_rng = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(cfg.seed).spawn(2))
    ext = sample_params_external(cfg, params_rng, size=total)
    params = to_internal_params(cfg.scenario, ext)

    if task.visibilities:
        if freqs is None:
            freqs = default_frequencies(FrequencyConfig())
        if build is None:
            build = DEFAULT_BUILD
        clean = vis_to_reals(visibilities_closed_form_batch(params, freqs, build))
    else:
        freqs = build = None
        clean = task.embed(params)
    noisy = add_noise(clean, params[:, 2:3], noise_rng) if cfg.noise else clean.copy()

    split = np.empty(total, dtype=np.int8)
    split[:cfg.n_train] = TRAIN
    split[cfg.n_train:cfg.n_train + cfg.n_val] = VAL
    split[cfg.n_train + cfg.n_val:] = TEST
    return Dataset(config=cfg, params_disk=ext, params=params, clean=clean,
                   noisy=noisy, split=split, frequencies=freqs, build=build)


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


def apply_standardization(stats: StandardizationStats, x):
    return (np.asarray(x, dtype=float) - stats.mean) / stats.std


def save_dataset(ds: Dataset, path):
    """Write a dataset directory: the manifest and the four binary arrays."""
    make_dir(path)
    manifest = ds.manifest_dict()
    manifest["mode"] = "binary"
    manifest["config_hash"] = config_hash(manifest["config"])
    arrays = {"params": ds.params_disk, "clean": ds.clean, "noisy": ds.noisy,
              "split": ds.split}
    manifest["arrays"] = dict(zip(arrays, ordered_map(
        lambda name: write_array_bin(arrays[name], os.path.join(path, f"{name}.bin")),
        arrays)))
    write_json(manifest, os.path.join(path, "manifest.json"))


def _read_array(path, manifest, name, manifest_path):
    """One array of the dataset directory ``path``. Its manifest entry is checked
    here to name its file and checksum; read_array_bin checks its dtype and shape."""
    entries = manifest["arrays"]
    entry = entries.get(name) if isinstance(entries, dict) else None
    if not (isinstance(entry, dict)
            and all(isinstance(entry.get(k), str) for k in ("file", "sha256"))):
        raise ParseError(f"manifest entry arrays.{name} must be an object with string "
                         "file and sha256", path=manifest_path)
    return read_array_bin(os.path.join(path, entry["file"]), entry)


def load_dataset(path) -> Dataset:
    manifest_path = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_path)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise FormatVersionError(
            f"dataset format version {version} is not supported "
            f"(this build reads version {DATASET_FORMAT_VERSION})")
    mode = manifest.get("mode", "binary")
    if mode != "binary":
        raise FormatVersionError(f"dataset mode {mode!r} is not supported "
                                 "(this build reads binary datasets only)")
    try:
        if config_hash(manifest["config"]) != manifest["config_hash"]:
            raise ChecksumError(f"{manifest_path}: config does not match its config_hash")
        cfg = SamplingConfig.from_dict(manifest["config"])
        names = ("params", "clean", "noisy", "split")
        arrays = dict(zip(names, ordered_map(
            lambda name: _read_array(path, manifest, name, manifest_path), names)))
    except KeyError as exc:
        raise ParseError(f"manifest lacks {exc}", path=manifest_path) from None
    ext = arrays["params"]
    freqs, build = manifest.get("frequencies"), manifest.get("build")
    visibilities = get_task(cfg.scenario).visibilities
    if (freqs is not None, build is not None) != (visibilities, visibilities):
        raise ParseError("manifest frequencies and build must both be given for a "
                         "visibility dataset and both be null otherwise", path=manifest_path)
    return Dataset(config=cfg,
                   params_disk=ext,
                   params=to_internal_params(cfg.scenario, ext),
                   clean=arrays["clean"], noisy=arrays["noisy"],
                   split=arrays["split"].astype(np.int8).reshape(-1),
                   frequencies=FrequencySet(freqs) if visibilities else None,
                   build=LoopBuildConfig.from_dict(build) if visibilities else None)
