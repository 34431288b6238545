"""End-to-end inverse operators: a network plus the embedding machinery.

Two kinds per task. The *naive* operator trains the network to output the
parameters themselves and can only be continuous in the flat Euclidean sense,
so it is structurally wrong near the orientation seam. The *embedded*
operator trains against the image of the parameters under the task's
embedding and recovers them with the analytic inverse, which respects the
identification.

The tasks, with their embeddings, inverses and target transforms, are the
entries of ``tasks.TASKS``.
"""

import numpy as np

from .data import (TRAIN, VAL, Dataset,
                   apply_standardization, fit_standardization,
                   internal_intervals)
from .diagnostics import Diagnostics
from .errors import ValidationError
from .mlp import DTYPES, MlpConfig, MlpModel, TrainConfig, forward, init_mlp, train
from .serialization import config_hash, float_array, is_finite_number
from .tasks import KINDS, TASKS, get_task


def output_dim(kind, task):
    if kind not in KINDS:
        raise ValidationError(f"unknown regularizer kind {kind!r}")
    spec = get_task(task)
    return len(spec.free) if kind == "naive" else spec.embedded_dim


def build_targets(kind, task, params):
    """Training targets in natural units for an (S, P) parameter array."""
    spec = get_task(task)
    params = float_array(params, "parameters", width=len(spec.params))
    if kind == "naive":
        return params[:, spec.free_columns]
    return spec.embed(params)


def _target_transform(kind, spec, intervals, y_train):
    """Affine map applied to targets before training; inverted at prediction."""
    transform = spec.transforms.get(kind)
    if transform == "minmax":
        lo = np.array([intervals[k][0] for k in spec.free])
        hi = np.array([intervals[k][1] for k in spec.free])
        span = np.where(hi > lo, hi - lo, 1.0)
        return {"type": "minmax", "offset": lo.tolist(), "scale": span.tolist()}
    if transform == "zscore":
        mean, std = y_train.mean(axis=0), y_train.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return {"type": "zscore", "offset": mean.tolist(), "scale": std.tolist()}
    return None


def _apply_transform(tf, y):
    return y if tf is None else (y - np.asarray(tf["offset"])) / np.asarray(tf["scale"])


def _invert_transform(tf, y):
    """Undo ``_apply_transform`` on the float64 array ``y``, in place: the two
    roundings of ``y * scale + offset``."""
    if tf is not None:
        y *= np.asarray(tf["scale"])
        y += np.asarray(tf["offset"])
    return y


def _train_kind(kind, dataset: Dataset, nn_cfg, train_cfg, diag=None, init=None):
    task = dataset.config.scenario
    spec = get_task(task)
    out_dim = output_dim(kind, task)
    if nn_cfg is None:
        nn_cfg = MlpConfig(input_dim=dataset.data_dim, output_dim=out_dim)
    if nn_cfg.output_dim != out_dim:
        raise ValidationError(
            f"{kind}/{task} needs output_dim {out_dim}, config says {nn_cfg.output_dim}")
    if nn_cfg.input_dim != dataset.data_dim:
        raise ValidationError(
            f"dataset provides {dataset.data_dim} inputs, config says {nn_cfg.input_dim}")
    if init is not None and init.config != nn_cfg:
        raise ValidationError("the initial model's config differs from the network config")
    if train_cfg is None:
        train_cfg = TrainConfig()

    stats = fit_standardization(dataset, diag=diag)
    intervals = internal_intervals(dataset.config)

    y_train, y_val = (build_targets(kind, task, dataset.params[dataset.mask(split)])
                      for split in (TRAIN, VAL))
    tf = _target_transform(kind, spec, intervals, y_train)

    model = (init_mlp(nn_cfg) if init is None
             else MlpModel(nn_cfg, **init.map_parameters(np.copy)))
    model.stats = stats
    model.metadata = {"kind": kind, "task": task,
                      "embedding": spec.embedding if kind == "embedded" else "identity",
                      "target_transform": tf,
                      "intervals": {k: list(v) for k, v in intervals.items()},
                      "dataset_config_hash": config_hash(dataset.config.to_dict()),
                      "train_config": train_cfg.to_dict()}
    dt = DTYPES[nn_cfg.dtype]  # train then converts neither input
    model, history = train(model,
                           apply_standardization(stats, dataset.inputs(TRAIN), dt),
                           _apply_transform(tf, y_train),
                           apply_standardization(stats, dataset.inputs(VAL), dt),
                           _apply_transform(tf, y_val),
                           train_cfg)
    return model, history


def train_naive(dataset: Dataset, nn_cfg: MlpConfig = None,
                train_cfg: TrainConfig = None, diag=None, init: MlpModel = None):
    """Fit the direct parameter regressor. Returns (model, history). ``init``, when
    given, supplies the starting weights; all else is fitted afresh."""
    return _train_kind("naive", dataset, nn_cfg, train_cfg, diag=diag, init=init)


def train_embedded(dataset: Dataset, nn_cfg: MlpConfig = None,
                   train_cfg: TrainConfig = None, diag=None, init: MlpModel = None):
    """Fit the embedded-target regressor; see train_naive. Returns (model, history)."""
    return _train_kind("embedded", dataset, nn_cfg, train_cfg, diag=diag, init=init)


def _finite_numbers(values, n):
    return (isinstance(values, (list, tuple)) and len(values) == n
            and all(map(is_finite_number, values)))


def check_model_consistency(model: MlpModel):
    """Reject checkpoints whose declared kind/task disagrees with the head,
    checkpoints without the standardization stats that predict applies, and
    metadata whose intervals or target transform predict cannot apply."""
    kind = model.metadata.get("kind")
    task = model.metadata.get("task")
    try:
        expected = output_dim(kind, task)
    except ValidationError:
        raise ValidationError(
            f"checkpoint lacks a valid kind/task, got ({kind}, {task})") from None
    if model.config.output_dim != expected:
        raise ValidationError(
            f"{kind}/{task} checkpoint must have output_dim {expected}, "
            f"found {model.config.output_dim}")
    if model.stats is None:
        raise ValidationError("checkpoint has no standardization stats")
    intervals = model.metadata.get("intervals")
    for name in TASKS[task].params:
        pair = intervals.get(name) if isinstance(intervals, dict) else None
        if not (_finite_numbers(pair, 2) and pair[0] <= pair[1]):
            raise ValidationError(f"checkpoint metadata.intervals[{name!r}] must be a "
                                  f"finite pair [lo, hi] with lo <= hi, got {pair!r}")
    tf = model.metadata.get("target_transform", {})  # a missing key is refused
    if tf is not None and not (isinstance(tf, dict)
                               and _finite_numbers(tf.get("offset"), expected)
                               and _finite_numbers(tf.get("scale"), expected)
                               and 0 not in tf["scale"]):
        raise ValidationError("checkpoint metadata.target_transform must be null, or "
                              f"offset and scale lists of {expected} finite numbers, "
                              "no scale 0")
    return kind, task


def predict(model: MlpModel, v, diag: Diagnostics | None = None):
    """Raw data vectors -> parameter estimates.

    Naive models return the network output clamped into the training
    intervals (no angle wrapping: wrapping would smuggle in exactly the
    topology the naive baseline lacks). Embedded models route the output
    through the analytic inverse of their embedding. That inverse is not
    clamped: a curvature outside the training interval is returned as it
    is and counted in an ``out_of_domain`` event, where the naive operator
    would clamp it and record a ``clamped`` event.

    Accepts (M,) or (B, M); returns (P,) or (B, P) in internal units.
    Non-finite inputs, and inputs whose network output overflows, are rejected.

    The rows are standardized straight into the network's dtype, and the
    target transform is inverted in place on the network's output, once
    that is float64.
    """
    kind, task = check_model_consistency(model)
    v = float_array(v, "input")
    if not np.all(np.isfinite(v)):
        raise ValidationError("input holds non-finite values")
    single = v.ndim == 1
    batch = v[None, :] if single else v
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(forward(model, apply_standardization(
            model.stats, batch, DTYPES[model.config.dtype])), dtype=float)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise ValidationError(f"row {int(np.argmax(bad))}: input too large for the model")

    out = _invert_transform(model.metadata["target_transform"], out)
    intervals = model.metadata["intervals"]
    spec = TASKS[task]
    if kind == "naive":
        result = spec.clamp(out, intervals, diag)
    else:
        result = spec.invert(out, intervals, diag)
    return result[0] if single else result
