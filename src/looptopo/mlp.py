"""From-scratch multilayer perceptron: ReLU layers, dropout, MSE, backprop, Adam.

Shapes follow the row-batch convention: inputs are (rows, n_in), weight
matrices (n_in, n_out), so a layer computes relu(x @ W + b). Every layer,
the final affine map included, has a weight and a bias, and the gradients of
``loss_and_grad`` and the moments of ``AdamState`` mirror that layout:
{"weights": [...], "biases": [...]}.

Every pass runs one kernel, ``_forward_into``, which writes each layer into
the preallocated buffers of a ``Workspace`` with ``np.matmul(..., out=)``
and in-place bias, ReLU and dropout. ``forward`` runs it without dropout,
streaming its rows through one workspace in chunks of ``EVAL_CHUNK`` rows.
That eval workspace holds two activation buffers whatever the depth: layer i
writes into buffer i % 2 while it reads layer i - 1 from the other, as no
activation is kept for a backward pass. ``loss_and_grad`` runs the kernel
with the dropout masks it is given, on a workspace with one activation
buffer per layer, and writes the backward pass into it too. ``train``
draws each batch's masks from the epoch's generator (inverted dropout: a
mask scales the input of a hidden layer by 1/keep where kept, so
``forward`` needs no rescaling) and keeps one workspace for the whole fit,
whose masks and gradients the next batch overwrites. A unit is kept where
its 32-bit random word lies below round(keep * 2**32), clamped to
2**32 - 1.

A checkpoint is one file: magic, version, JSON header, the arrays back to
back, and a sha256 trailer. ``load_checkpoint`` reads it once into one
buffer whose array section starts on a 64-byte boundary, so a loaded
model's arrays are views into that one aligned buffer per file.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import EVAL_CHUNK, StandardizationStats
from .errors import (ChecksumError, FormatVersionError, ParseError,
                     TrainingDivergedError, ValidationError)
from .serialization import (MAX_FLOATS, check_fields, config_from_dict, config_to_dict,
                            decode_array, float_array, format_csv, is_integer, read_aligned,
                            write_bytes)

CHECKPOINT_MAGIC = b"LTMC"
CHECKPOINT_VERSION = 1

DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class MlpConfig:
    """The network's shape. ``final_bias`` has one valid value, true (every
    layer has a bias); it stays a field so that checkpoint headers and run
    config hashes, which list every field, keep their bytes."""

    input_dim: int = 60
    hidden_widths: tuple = (256, 256, 256, 256)
    output_dim: int = 7
    dropout_rate: float = 0.0
    final_bias: bool = True
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        check_fields(self, input_dim=1, output_dim=1, seed=0)
        widths = self.hidden_widths
        if not widths or not all(is_integer(w) and w >= 1 for w in widths):
            raise ValidationError("hidden_widths must be one or more integers >= 1, "
                                  f"got {list(widths)}")
        dims = [self.input_dim, *widths, self.output_dim]
        if any(a * b > MAX_FLOATS for a, b in zip(dims, dims[1:])):
            raise ValidationError(f"hidden_widths {list(widths)} give a layer of more than "
                                  f"the {MAX_FLOATS} weights one array may hold")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.dtype not in DTYPES:
            raise ValidationError(f"dtype must be one of {sorted(DTYPES)}")
        if self.final_bias is not True:
            raise ValidationError("final_bias must be true: every layer has a bias")

    to_dict = config_to_dict
    from_dict = classmethod(config_from_dict)


@dataclass
class MlpModel:
    config: MlpConfig
    weights: list                 # len(hidden) + 1 arrays, (n_in, n_out)
    biases: list                  # matching, (n_out,)
    stats: StandardizationStats = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_layers(self):
        return len(self.weights)

    def map_parameters(self, fn):
        """{"weights": [...], "biases": [...]}: ``fn`` of each parameter array."""
        return {"weights": list(map(fn, self.weights)), "biases": list(map(fn, self.biases))}


def init_mlp(cfg: MlpConfig) -> MlpModel:
    """He-normal weights (std sqrt(2 / fan_in)), zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    dt = DTYPES[cfg.dtype]
    dims = [cfg.input_dim, *cfg.hidden_widths, cfg.output_dim]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        w = rng.normal(0.0, math.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
        weights.append(w.astype(dt))
        biases.append(np.zeros(dims[i + 1], dtype=dt))
    return MlpModel(config=cfg, weights=weights, biases=biases)


class Workspace:
    """Buffers for passes of up to ``rows`` rows through one model, allocated once.

    ``x`` holds the (dropped-out) network input, ``acts[i]`` the post-ReLU
    output of hidden layer i, dropped out in place when it feeds a masked
    layer, and ``out`` the network output, which the backward pass turns
    into the loss gradient at the output. Without ``backward`` (an eval
    workspace) the activations live in two buffers of ``rows`` times the
    widest layer: ``acts[i]`` is a (rows, width) view of buffer i % 2, so
    each layer reads the one before from the other buffer, and only the
    output of the last hidden layer survives a pass. With ``backward``, each
    layer has a buffer of its own, and ``masks`` (None without dropout),
    ``deltas[i]`` (the loss gradient at the output of hidden layer i),
    ``grads`` (shaped like the model's parameters) and a column of ones for
    the bias gradients are kept as well. A pass of fewer rows uses the
    leading rows of each buffer.
    """

    def __init__(self, model: "MlpModel", rows: int, backward=False):
        cfg = model.config
        dt = DTYPES[cfg.dtype]
        widths = list(cfg.hidden_widths)
        self.rows = rows
        self.x = np.empty((rows, cfg.input_dim), dt)
        self.out = np.empty((rows, cfg.output_dim), dt)
        self.masks = None
        if not backward:
            pair = [np.empty(rows * max(widths), dt) for _ in range(min(2, len(widths)))]
            self.acts = [pair[i % 2][:rows * w].reshape(rows, w) for i, w in enumerate(widths)]
            return
        self.acts = [np.empty((rows, w), dt) for w in widths]
        if cfg.dropout_rate > 0.0:
            self.masks = [np.empty((rows, d), dt) for d in [cfg.input_dim, *widths[:-1]]]
        self.deltas = [np.empty((rows, w), dt) for w in widths]
        self.grads = model.map_parameters(np.empty_like)
        self.ones = np.ones(rows, dt)


def sample_dropout_masks(model: MlpModel, batch_size: int, rng, ws: Workspace = None):
    """Inverted-dropout masks for the input of each hidden layer of a batch of
    ``batch_size`` rows, as ``loss_and_grad`` applies them; None without dropout.

    One ``random_raw`` draw supplies a 32-bit word per unit; a unit is kept
    (value 1/keep) where its word is below round(keep * 2**32), clamped to
    2**32 - 1, and dropped (value 0) elsewhere. The masks are written into
    the leading rows of ``ws.masks`` when a workspace is given.
    """
    if not (is_integer(batch_size) and batch_size >= 0):
        raise ValidationError(f"batch_size must be a nonnegative integer, got {batch_size!r}")
    p = model.config.dropout_rate
    if p == 0.0:
        return None
    keep = 1.0 - p
    dt = DTYPES[model.config.dtype]
    if ws is None:
        dims = [model.config.input_dim, *model.config.hidden_widths[:-1]]
        masks = [np.empty((batch_size, d), dt) for d in dims]
    else:
        masks = [m[:batch_size] for m in ws.masks]
    threshold = np.uint32(min(round(keep * 2.0 ** 32), 2 ** 32 - 1))
    n_words = sum(m.size for m in masks)
    words = rng.bit_generator.random_raw((n_words + 1) // 2).view(np.uint32)
    start = 0
    for m in masks:
        np.less(words[start:start + m.size].reshape(m.shape), threshold, out=m)
        m *= dt(1) / dt(keep)
        start += m.size
    return masks


def _forward_into(model, x, ws, masks):
    """The network on the rows of ``x`` (of the model's dtype), written into
    the leading rows of ``ws``; ``masks``, of x's rows, drop out each hidden
    layer's input when given. Returns the view of ``ws.out`` holding the output."""
    n = x.shape[0]
    a = x
    if masks is not None:
        a = np.multiply(x, masks[0], out=ws.x[:n])
    n_hidden = model.n_layers - 1
    for i in range(n_hidden):
        a = np.matmul(a, model.weights[i], out=ws.acts[i][:n])
        a += model.biases[i]
        np.maximum(a, 0.0, out=a)
        if masks is not None and i + 1 < n_hidden:
            a *= masks[i + 1]
    out = np.matmul(a, model.weights[-1], out=ws.out[:n])
    out += model.biases[-1]
    return out


def forward(model: MlpModel, x):
    """The network on (rows, input_dim) inputs, assumed standardized already.

    No dropout is applied. The rows pass through one workspace in chunks of
    ``EVAL_CHUNK`` rows, so memory stays bounded and nothing is kept for a
    backward pass; up to ``EVAL_CHUNK`` rows run as a single pass.
    """
    n_in = model.config.input_dim
    x = float_array(x, f"(rows, {n_in}) inputs", width=n_in, ndim=2, dtype=None)
    rows = x.shape[0]
    ws = Workspace(model, min(rows, EVAL_CHUNK))
    out = np.empty((rows, model.config.output_dim), DTYPES[model.config.dtype])
    for lo in range(0, rows, EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, rows)
        chunk = ws.x[:hi - lo]
        chunk[...] = x[lo:hi]
        out[lo:hi] = _forward_into(model, chunk, ws, None)
    return out


def loss_and_grad(model: MlpModel, x, y, masks=None, ws: Workspace = None):
    """MSE loss and exact gradients of (rows, input_dim) inputs against
    (rows, output_dim) targets; ``masks``, as ``sample_dropout_masks`` draws
    them, drop out each hidden layer's input when given.

    Returns (loss, grads) with grads = {"weights": [...], "biases": [...]}
    mirroring the model arrays. The gradients live in ``ws.grads``: without
    ``ws`` a fresh workspace owns them; with one (``train`` passes its own)
    the next call on that workspace overwrites them.
    """
    cfg = model.config
    dt = DTYPES[cfg.dtype]
    x = float_array(x, f"(rows, {cfg.input_dim}) inputs", width=cfg.input_dim, ndim=2, dtype=dt)
    y = float_array(y, f"(rows, {cfg.output_dim}) targets", width=cfg.output_dim, ndim=2,
                    dtype=dt)
    batch = x.shape[0]
    if y.shape[0] != batch or batch == 0:
        raise ValidationError("batch inputs and targets must align and be non-empty")
    if masks is not None and [float_array(m, "dropout masks", dtype=dt).shape for m in masks] != [
            (batch, d) for d in [cfg.input_dim, *cfg.hidden_widths[:-1]]]:
        raise ValidationError("dropout masks must be one (rows, n_in) array per hidden layer")
    if ws is None:
        ws = Workspace(model, batch, backward=True)
    elif batch > ws.rows:
        raise ValidationError(f"a batch of {batch} rows exceeds the workspace's {ws.rows}")

    out = _forward_into(model, x, ws, masks)
    delta = np.subtract(out, y, out=out)
    loss = float(np.sum(delta * delta) / batch)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    delta *= 2.0 / batch

    g_w, g_b = ws.grads["weights"], ws.grads["biases"]
    ones = ws.ones[:batch]
    for i in range(model.n_layers - 1, -1, -1):
        if i > 0:
            a_in = ws.acts[i - 1][:batch]
        else:
            a_in = x if masks is None else ws.x[:batch]
        np.matmul(a_in.T, delta, out=g_w[i])
        np.matmul(ones, delta, out=g_b[i])
        if i > 0:
            upstream = np.matmul(delta, model.weights[i].T, out=ws.deltas[i - 1][:batch])
            if masks is not None and i < model.n_layers - 1:
                upstream *= masks[i]
            # a_in is the ReLU output, dropped out where masked: positive
            # exactly where the unit was both kept and active
            np.multiply(upstream, a_in > 0.0, out=upstream)
            delta = upstream
    return loss, ws.grads


@dataclass
class AdamState:
    """Adam's first and second moments, each shaped like ``loss_and_grad``'s
    grads, and the step counter. The hyperparameters come from ``TrainConfig``."""

    m: dict
    v: dict
    step: int = 0
    scratch: np.ndarray = field(default=None, repr=False)   # one buffer for every update

    @classmethod
    def for_model(cls, model: MlpModel):
        return cls(model.map_parameters(np.zeros_like), model.map_parameters(np.zeros_like))


def adam_step(state: AdamState, model: MlpModel, grads, cfg: "TrainConfig"):
    """One bias-corrected Adam update of ``model`` and ``state``, in place,
    with the learning rate, betas and eps of ``cfg``.

    lr / c1 * m / (sqrt(v / c2) + eps) is computed as
    (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)), through the
    state's scratch buffer, so no step allocates.
    """
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    root_corr2 = math.sqrt(1.0 - b2 ** state.step)
    step_size = cfg.learning_rate * root_corr2 / (1.0 - b1 ** state.step)
    eps = cfg.adam_eps * root_corr2
    if state.scratch is None:
        state.scratch = np.empty(max(w.size for w in model.weights), model.weights[0].dtype)
    for key, params in (("weights", model.weights), ("biases", model.biases)):
        for param, g, m, v in zip(params, grads[key], state.m[key], state.v[key]):
            tmp = state.scratch[:param.size].reshape(param.shape)
            m *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= step_size
            param -= tmp


@dataclass(frozen=True)
class TrainConfig:
    """How ``train`` fits a model. It is Adam's only source of hyperparameters:
    ``learning_rate``, ``beta1``, ``beta2`` and ``adam_eps`` (Kingma & Ba,
    arXiv:1412.6980), read by ``adam_step`` at every update."""

    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    patience: int = 20            # epochs without val improvement; 0 disables
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        check_fields(self, epochs=1, batch_size=1, patience=0, seed=0)
        if not (self.learning_rate > 0 and 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
                and self.adam_eps > 0):
            raise ValidationError("Adam: learning_rate, adam_eps > 0; beta1, beta2 in [0, 1)")

    to_dict = config_to_dict
    from_dict = classmethod(config_from_dict)


def eval_loss(model: MlpModel, x, y):
    """MSE of the network without dropout over a whole array."""
    nn = model.config
    x = float_array(x, f"(rows, {nn.input_dim}) inputs", width=nn.input_dim, ndim=2, dtype=None)
    y = float_array(y, f"(rows, {nn.output_dim}) targets", width=nn.output_dim, ndim=2,
                    dtype=DTYPES[nn.dtype])
    if len(x) != len(y) or len(y) == 0:
        raise ValidationError("inputs and targets must align and be non-empty")
    d = forward(model, x) - y
    return float(np.sum(d * d)) / len(y)


def train(model: MlpModel, x_train, y_train, x_val, y_val,
          cfg: TrainConfig) -> tuple:
    """Mini-batch Adam with early stopping on the validation loss.

    Each epoch's generator, keyed on (cfg.seed, epoch), shuffles the rows
    and then draws the dropout masks of each batch in turn, so a run is a
    pure function of its inputs. Returns (model, history) where the model
    carries the parameters of the best validation epoch and history is a
    list of dicts with epoch / train_loss / val_loss. One workspace serves
    every batch, masks included; the short last batch of an epoch uses its
    leading rows.
    """
    nn, dt = model.config, DTYPES[model.config.dtype]
    x_train, x_val = (float_array(x, f"(rows, {nn.input_dim}) {split} inputs",
                                  width=nn.input_dim, ndim=2, dtype=dt)
                      for x, split in ((x_train, "training"), (x_val, "validation")))
    y_train, y_val = (float_array(y, f"(rows, {nn.output_dim}) {split} targets",
                                  width=nn.output_dim, ndim=2, dtype=dt)
                      for y, split in ((y_train, "training"), (y_val, "validation")))
    if not (len(x_train) == len(y_train) > 0 and len(x_val) == len(y_val) > 0):
        raise ValidationError("splits must be non-empty, with one target row per input row")

    state = AdamState.for_model(model)
    history = []
    best_val, best_epoch = math.inf, -1
    best_params = model.map_parameters(np.copy)

    n = len(x_train)
    ws = Workspace(model, min(cfg.batch_size, n), backward=True)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(epoch,)))
        perm = rng.permutation(n)
        running = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            masks = sample_dropout_masks(model, len(idx), rng, ws)
            try:
                loss, grads = loss_and_grad(model, xb, yb, masks=masks, ws=ws)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, batch at {lo}: {exc}") from None
            adam_step(state, model, grads, cfg)
            running += loss * len(idx)
        train_loss = running / n
        val_loss = eval_loss(model, x_val, y_val)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"epoch {epoch}: non-finite validation loss")
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss})
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_params = model.map_parameters(np.copy)
        elif cfg.patience and epoch - best_epoch >= cfg.patience:
            break
    # fresh copies: keeping arrays allocated mid-fit fragments the heap over repeated fits
    model.weights = [w.copy() for w in best_params["weights"]]
    model.biases = [b.copy() for b in best_params["biases"]]
    model.metadata = dict(model.metadata,
                          best_epoch=best_epoch, best_val_loss=best_val,
                          epochs_run=len(history))
    return model, history


def save_history_csv(history, path):
    columns = ["epoch", "train_loss", "val_loss"]
    write_bytes(path, format_csv(columns, [[row[c] for c in columns] for row in history]))


def _header(cfg: MlpConfig, metadata, has_stats):
    """The JSON header of a checkpoint of ``cfg``. Its array entries list each
    layer's weights and bias, then the standardization stats, in file order."""
    dtype = np.dtype(DTYPES[cfg.dtype]).newbyteorder("<").str
    dims = [cfg.input_dim, *cfg.hidden_widths, cfg.output_dim]
    arrays = []
    for i in range(len(dims) - 1):
        arrays.append({"name": f"W{i}", "dtype": dtype, "shape": [dims[i], dims[i + 1]]})
        arrays.append({"name": f"b{i}", "dtype": dtype, "shape": [dims[i + 1]]})
    if has_stats:
        arrays += [{"name": name, "dtype": "<f8", "shape": [cfg.input_dim]}
                   for name in ("stats_mean", "stats_std")]
    return {"format_version": CHECKPOINT_VERSION, "config": cfg.to_dict(),
            "metadata": metadata, "has_stats": has_stats, "arrays": arrays}


def save_checkpoint(model: MlpModel, path):
    """Single-file binary checkpoint: magic, version, JSON header, raw
    little-endian arrays, sha256 trailer over everything before it."""
    has_stats = model.stats is not None
    header = _header(model.config, model.metadata, has_stats)
    arrays = [a for layer in zip(model.weights, model.biases) for a in layer]
    if has_stats:
        arrays += [model.stats.mean, model.stats.std]
    if [np.shape(a) for a in arrays] != [tuple(e["shape"]) for e in header["arrays"]]:
        raise ValidationError("the model's arrays do not have the shapes its config implies")
    header_bytes = json.dumps(header, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)),
             header_bytes]
    parts += [np.ascontiguousarray(a, dtype=e["dtype"])
              for a, e in zip(arrays, header["arrays"])]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    write_bytes(path, *parts, digest.digest())


def _arrays_start(prefix):
    """The offset of the array section, from a checkpoint's first 16 bytes."""
    return 16 + struct.unpack_from("<Q", prefix, 8)[0]


def load_checkpoint(path) -> MlpModel:
    """The model saved at ``path``. A header other than the one
    ``save_checkpoint`` writes for its config, or bytes past the arrays it
    lists, are a ``ParseError``.

    The file is read once into one buffer whose array section starts on a
    64-byte boundary, and its checksum is checked before anything else is
    read from it. The model's arrays are views into that buffer: aligned,
    C-contiguous and writable, and shared with no other load.
    """
    buf = read_aligned(path, 16, _arrays_start)
    if len(buf) < len(CHECKPOINT_MAGIC) + 4 + 8 + 32:
        raise ChecksumError(f"{path}: file truncated")
    body = buf[:-32]
    if hashlib.sha256(body).digest() != buf[-32:].tobytes():
        raise ChecksumError(f"{path}: checkpoint checksum mismatch")
    if body[:4].tobytes() != CHECKPOINT_MAGIC:
        raise FormatVersionError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<IQ", body, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatVersionError(
            f"{path}: checkpoint version {version} not supported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    offset = 16 + header_len
    try:
        header = json.loads(body[16:offset].tobytes())
        cfg = MlpConfig.from_dict(header["config"])
        metadata, has_stats = header["metadata"], header["has_stats"]
        if not (isinstance(metadata, dict) and isinstance(has_stats, bool)
                and header == _header(cfg, metadata, has_stats)):
            raise ValidationError("not the header of a checkpoint of its config")
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad checkpoint header: {exc}", path=path) from None
    named = {}
    for entry in header["arrays"]:
        named[entry["name"]], offset = decode_array(body, entry, offset, path)
    if offset != len(body):
        raise ParseError(f"{len(body) - offset} bytes past the arrays", path=path)
    n_layers = len(cfg.hidden_widths) + 1
    stats = (StandardizationStats(mean=named["stats_mean"], std=named["stats_std"])
             if has_stats else None)
    return MlpModel(config=cfg, weights=[named[f"W{i}"] for i in range(n_layers)],
                    biases=[named[f"b{i}"] for i in range(n_layers)], stats=stats,
                    metadata=metadata)
