"""Example-pair datasets: sampling, generation, splits, standardization, disk format.

The scenarios are the entries of the task table (``tasks.TASKS``): each gives
its parameters, draw intervals, default sizes and noise, and whether its data
are visibilities. Noisy visibilities carry white Gaussian noise of std
2 sqrt(flux).

Sampling happens in external units (angles in degrees, matching config files
and disk), which are converted to internal radians exactly once. A dataset
directory is a manifest.json plus flat little-endian arrays, checksummed.

A seed gives two random streams, one per purpose: stream 0 draws all the
parameters of a dataset in one call, stream 1 all of its noise in one call.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .errors import FormatVersionError, ParseError, ValidationError
from .forward_model import (DEFAULT_BUILD, FrequencyConfig, FrequencySet,
                      LoopBuildConfig, add_noise, default_frequencies,
                      vis_to_reals, visibilities_closed_form_batch)
from .serialization import (config_hash, read_array_bin, read_json,
                            read_matrix_csv, write_array_bin, write_json,
                            write_matrix_csv)
from .tasks import LOOP_PARAMS, get_task

DATASET_FORMAT_VERSION = 1

PARAM_ORDER = LOOP_PARAMS
TRAIN, VAL, TEST = 0, 1, 2


@dataclass(frozen=True)
class SamplingConfig:
    """What to draw and how much of it. Angles here are degrees."""

    scenario: str
    n_train: int
    n_val: int
    n_test: int
    seed: int
    noise: bool
    circular_fraction: float = 0.05
    intervals: dict = None

    @classmethod
    def default(cls, scenario, seed, **overrides):
        task = get_task(scenario)
        n_train, n_val, n_test = task.split_sizes
        base = dict(scenario=scenario, n_train=n_train, n_val=n_val, n_test=n_test,
                    seed=seed, noise=task.noise,
                    circular_fraction=task.circular_fraction, intervals=None)
        base.update(overrides)
        cfg = cls(**base)
        cfg.validate()
        return cfg

    def validate(self):
        task = get_task(self.scenario)
        for name in ("n_train", "n_val", "n_test"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.total < 1:
            raise ValidationError("dataset must contain at least one sample")
        if not (0.0 <= self.circular_fraction < 1.0):
            raise ValidationError(
                f"circular_fraction must be in [0, 1), got {self.circular_fraction}")
        if self.noise and not task.visibilities:
            raise ValidationError(f"the {self.scenario} scenario is noise-free")
        for name, (lo, hi) in self.resolved_intervals().items():
            if lo > hi:
                raise ValidationError(f"interval for {name} is reversed: ({lo}, {hi})")

    @property
    def total(self):
        return self.n_train + self.n_val + self.n_test

    def resolved_intervals(self):
        base = dict(get_task(self.scenario).intervals)
        if self.intervals:
            unknown = set(self.intervals) - set(base)
            if unknown:
                raise ValidationError(f"unknown interval names {sorted(unknown)}")
            base.update({k: tuple(v) for k, v in self.intervals.items()})
        return base

    def to_dict(self):
        return {"scenario": self.scenario, "n_train": self.n_train,
                "n_val": self.n_val, "n_test": self.n_test, "seed": self.seed,
                "noise": self.noise, "circular_fraction": self.circular_fraction,
                "intervals": {k: list(v) for k, v in self.resolved_intervals().items()}}

    @classmethod
    def from_dict(cls, d):
        cfg = cls(scenario=d["scenario"], n_train=d["n_train"], n_val=d["n_val"],
                  n_test=d["n_test"], seed=d["seed"], noise=d["noise"],
                  circular_fraction=d.get("circular_fraction", 0.0),
                  intervals=d.get("intervals"))
        cfg.validate()
        return cfg


def internal_intervals(cfg: SamplingConfig) -> dict:
    """Intervals in internal units (radians for angles)."""
    angles = get_task(cfg.scenario).angles
    return {name: (math.radians(lo), math.radians(hi)) if name in angles else (lo, hi)
            for name, (lo, hi) in cfg.resolved_intervals().items()}


def sample_params_external(cfg: SamplingConfig, rng, size=None) -> np.ndarray:
    """Parameter draws in external units (degrees for angles).

    Follows numpy's ``size`` convention: one (P,) row without ``size``,
    (size, P) rows with it. Where the task collapses, each row is an eps = 0
    draw with probability ``circular_fraction``, and then has
    eps = alpha = c = 0.
    """
    task = get_task(cfg.scenario)
    iv = cfg.resolved_intervals()
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


def sample_params(cfg: SamplingConfig, rng):
    """One parameter draw in internal units (radians)."""
    return to_internal_params(cfg.scenario, sample_params_external(cfg, rng))


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
    accepted so that existing callers keep working, since one vectorized
    draw leaves nothing to share among workers.
    """
    cfg.validate()
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
        vis = visibilities_closed_form_batch(params, freqs, build)
        clean = vis_to_reals(vis)
    else:
        freqs = build = None
        clean = task.embed(params)
    if cfg.noise:
        noisy = vis_to_reals(add_noise(vis, params[:, 2:3], noise_rng))
    else:
        noisy = clean.copy()

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

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(mean=np.asarray(d["mean"], dtype=float),
                   std=np.asarray(d["std"], dtype=float))


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


def invert_standardization(stats: StandardizationStats, z):
    return np.asarray(z, dtype=float) * stats.std + stats.mean


def save_dataset(ds: Dataset, path, text=False):
    """Write a dataset directory; binary by default, CSV with text=True."""
    os.makedirs(path, exist_ok=True)
    manifest = ds.manifest_dict()
    manifest["mode"] = "text" if text else "binary"
    manifest["config_hash"] = config_hash(manifest["config"])

    arrays = {}
    if text:
        task = get_task(ds.config.scenario)
        m = ds.data_dim // 2
        data_header = ([f"re_{i+1}" for i in range(m)] + [f"im_{i+1}" for i in range(m)]
                       if task.visibilities else task.data_header)
        arrays["params"] = write_matrix_csv(ds.params_disk, task.disk_header,
                                            os.path.join(path, "params.csv"))
        arrays["clean"] = write_matrix_csv(ds.clean, data_header,
                                           os.path.join(path, "clean.csv"))
        arrays["noisy"] = write_matrix_csv(ds.noisy, data_header,
                                           os.path.join(path, "noisy.csv"))
        arrays["split"] = write_matrix_csv(ds.split.astype(np.int64), ["split"],
                                           os.path.join(path, "split.csv"))
    else:
        arrays["params"] = write_array_bin(ds.params_disk, os.path.join(path, "params.bin"))
        arrays["clean"] = write_array_bin(ds.clean, os.path.join(path, "clean.bin"))
        arrays["noisy"] = write_array_bin(ds.noisy, os.path.join(path, "noisy.bin"))
        arrays["split"] = write_array_bin(ds.split, os.path.join(path, "split.bin"))
    manifest["arrays"] = arrays
    write_json(manifest, os.path.join(path, "manifest.json"))


def load_dataset(path) -> Dataset:
    manifest_path = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_path)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise FormatVersionError(
            f"dataset format version {version} is not supported "
            f"(this build reads version {DATASET_FORMAT_VERSION})")
    read = read_matrix_csv if manifest.get("mode", "binary") == "text" else read_array_bin
    try:
        cfg = SamplingConfig.from_dict(manifest["config"])
        arrays = {name: read(os.path.join(path, entry["file"]), entry)
                  for name, entry in ((n, manifest["arrays"][n])
                                      for n in ("params", "clean", "noisy", "split"))}
    except KeyError as exc:
        raise ParseError(f"manifest lacks {exc}", path=manifest_path) from None
    ext = arrays["params"]
    freqs = manifest.get("frequencies")
    build = manifest.get("build")
    return Dataset(config=cfg,
                   params_disk=ext,
                   params=to_internal_params(cfg.scenario, ext),
                   clean=arrays["clean"], noisy=arrays["noisy"],
                   split=arrays["split"].astype(np.int8).reshape(-1),
                   frequencies=None if freqs is None else FrequencySet(np.array(freqs)),
                   build=None if build is None else LoopBuildConfig.from_dict(build))
