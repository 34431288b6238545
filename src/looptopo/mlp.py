"""From-scratch multilayer perceptron: ReLU layers, dropout, MSE, backprop, Adam.

Shapes follow the row-batch convention: inputs are (batch, n_in), weight
matrices (n_in, n_out), so a layer computes relu(x @ W + b). Hidden layers
always carry biases; the final affine map has an optional one. Inverted
dropout multiplies the *input* of each hidden layer by mask / keep_prob in
training mode, so evaluation mode needs no rescaling.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import StandardizationStats
from .errors import (ChecksumError, FormatVersionError, TrainingDivergedError,
                     ValidationError)
from .serialization import read_bytes

CHECKPOINT_MAGIC = b"LTMC"
CHECKPOINT_VERSION = 1

DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int = 60
    hidden_widths: tuple = (256, 256, 256, 256)
    output_dim: int = 7
    dropout_rate: float = 0.0
    final_bias: bool = True
    seed: int = 0
    dtype: str = "float32"

    def validate(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValidationError("input_dim and output_dim must be >= 1")
        widths = tuple(int(w) for w in self.hidden_widths)
        if len(widths) < 1:
            raise ValidationError("at least one hidden layer is required")
        if any(w < 1 for w in widths):
            raise ValidationError(f"hidden widths must be >= 1, got {widths}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.dtype not in DTYPES:
            raise ValidationError(f"dtype must be one of {sorted(DTYPES)}")

    def to_dict(self):
        return {"input_dim": self.input_dim, "hidden_widths": list(self.hidden_widths),
                "output_dim": self.output_dim, "dropout_rate": self.dropout_rate,
                "final_bias": self.final_bias, "seed": self.seed, "dtype": self.dtype}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["hidden_widths"] = tuple(d["hidden_widths"])
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class MlpModel:
    config: MlpConfig
    weights: list                 # len(hidden) + 1 arrays, (n_in, n_out)
    biases: list                  # matching; final entry may be None
    stats: StandardizationStats = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_layers(self):
        return len(self.weights)

    def parameter_arrays(self):
        """Flat list of (name, array) in a fixed order."""
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"W{i}", w))
            if b is not None:
                out.append((f"b{i}", b))
        return out

    def copy_parameters(self):
        return ([w.copy() for w in self.weights],
                [None if b is None else b.copy() for b in self.biases])

    def set_parameters(self, weights, biases):
        self.weights = [w.copy() for w in weights]
        self.biases = [None if b is None else b.copy() for b in biases]


def init_mlp(cfg: MlpConfig) -> MlpModel:
    """He-normal weights (std sqrt(2 / fan_in)), zero biases, seeded."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dt = DTYPES[cfg.dtype]
    dims = [cfg.input_dim, *cfg.hidden_widths, cfg.output_dim]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(dims[i], dims[i + 1]))
        weights.append(w.astype(dt))
        is_final = i == len(dims) - 2
        if is_final and not cfg.final_bias:
            biases.append(None)
        else:
            biases.append(np.zeros(dims[i + 1], dtype=dt))
    return MlpModel(config=cfg, weights=weights, biases=biases)


def sample_dropout_masks(model: MlpModel, batch_size: int, rng):
    """Inverted-dropout masks for the input of each hidden layer."""
    p = model.config.dropout_rate
    if p == 0.0:
        return None
    keep = 1.0 - p
    dt = DTYPES[model.config.dtype]
    masks = []
    n_hidden = model.n_layers - 1
    dims = [model.config.input_dim, *model.config.hidden_widths]
    for i in range(n_hidden):
        m = (rng.random((batch_size, dims[i])) < keep).astype(dt) / dt(keep)
        masks.append(m)
    return masks


def _as_batch(x, dt):
    x = np.asarray(x, dtype=dt)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValidationError(f"inputs must be 1- or 2-D, got shape {x.shape}")


def forward(model: MlpModel, x, mode="eval", rng=None, masks=None):
    """Run the network. Inputs are assumed standardized already.

    mode='eval' is deterministic; mode='train' applies dropout before each
    hidden layer using ``masks`` (sampled from ``rng`` when absent).
    """
    out, _ = _forward_cached(model, x, mode=mode, rng=rng, masks=masks)
    return out


def _forward_cached(model, x, mode="eval", rng=None, masks=None):
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    dt = DTYPES[model.config.dtype]
    x, squeeze = _as_batch(x, dt)
    if x.shape[1] != model.config.input_dim:
        raise ValidationError(
            f"expected input dim {model.config.input_dim}, got {x.shape[1]}")
    if mode == "train" and model.config.dropout_rate > 0.0 and masks is None:
        if rng is None:
            raise ValidationError("train mode with dropout needs an rng or masks")
        masks = sample_dropout_masks(model, x.shape[0], rng)

    caches = []
    a = x
    n_hidden = model.n_layers - 1
    for i in range(n_hidden):
        a_in = a
        if masks is not None and mode == "train":
            a_in = a_in * masks[i]
        z = a_in @ model.weights[i] + model.biases[i]
        a = np.maximum(z, 0.0)
        caches.append((a_in, z))
    out = a @ model.weights[-1]
    if model.biases[-1] is not None:
        out = out + model.biases[-1]
    caches.append((a, None))
    if squeeze:
        return out[0], caches
    return out, caches


def loss_and_grad(model: MlpModel, x, y, mode="train", rng=None, masks=None):
    """MSE loss and exact gradients for the sampled dropout masks.

    Returns (loss, grads) with grads = {"weights": [...], "biases": [...]}
    mirroring the model arrays (None where there is no bias).
    """
    dt = DTYPES[model.config.dtype]
    x, _ = _as_batch(x, dt)
    y, _ = _as_batch(y, dt)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValidationError("batch inputs and targets must align and be non-empty")
    if mode == "train" and model.config.dropout_rate > 0.0 and masks is None:
        if rng is None:
            raise ValidationError("train mode with dropout needs an rng or masks")
        masks = sample_dropout_masks(model, x.shape[0], rng)

    out, caches = _forward_cached(model, x, mode=mode, masks=masks)
    batch = x.shape[0]
    diff = out - y
    loss = float(np.sum(diff * diff) / batch)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")

    g_w = [None] * model.n_layers
    g_b = [None] * model.n_layers
    delta = (2.0 / batch) * diff

    a_last = caches[-1][0]
    g_w[-1] = a_last.T @ delta
    if model.biases[-1] is not None:
        g_b[-1] = delta.sum(axis=0)
    upstream = delta @ model.weights[-1].T

    for i in range(model.n_layers - 2, -1, -1):
        a_in, z = caches[i]
        dz = upstream * (z > 0.0)
        g_w[i] = a_in.T @ dz
        g_b[i] = dz.sum(axis=0)
        if i > 0:
            upstream = dz @ model.weights[i].T
            if masks is not None and mode == "train":
                upstream = upstream * masks[i]
    return loss, {"weights": g_w, "biases": g_b}


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m_w: list
    v_w: list
    m_b: list
    v_b: list
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate=1e-3, beta1=0.9,
                  beta2=0.999, eps=1e-8):
        zw = [np.zeros_like(w) for w in model.weights]
        zb = [None if b is None else np.zeros_like(b) for b in model.biases]
        return cls(m_w=zw, v_w=[np.zeros_like(w) for w in model.weights],
                   m_b=zb, v_b=[None if b is None else np.zeros_like(b)
                                for b in model.biases],
                   learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, model: MlpModel, grads):
    """One bias-corrected Adam update, in place. Returns (model, state)."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    scale = state.learning_rate / corr1

    def update(param, g, m, v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        param -= scale * m / (np.sqrt(v / corr2) + state.eps)

    for i in range(model.n_layers):
        update(model.weights[i], grads["weights"][i], state.m_w[i], state.v_w[i])
        if model.biases[i] is not None and grads["biases"][i] is not None:
            update(model.biases[i], grads["biases"][i], state.m_b[i], state.v_b[i])
    return model, state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    patience: int = 20            # epochs without val improvement; 0 disables
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.patience < 0:
            raise ValidationError("patience must be >= 0")

    def to_dict(self):
        return {"epochs": self.epochs, "batch_size": self.batch_size,
                "learning_rate": self.learning_rate, "patience": self.patience,
                "seed": self.seed, "beta1": self.beta1, "beta2": self.beta2,
                "adam_eps": self.adam_eps}

    @classmethod
    def from_dict(cls, d):
        cfg = cls(**d)
        cfg.validate()
        return cfg


def eval_loss(model: MlpModel, x, y, chunk=8192):
    """Eval-mode MSE over a whole array, chunked to bound memory."""
    total = 0.0
    n = x.shape[0]
    for lo in range(0, n, chunk):
        out = forward(model, x[lo:lo + chunk], mode="eval")
        d = out - y[lo:lo + chunk]
        total += float(np.sum(d * d))
    return total / n


def train(model: MlpModel, x_train, y_train, x_val, y_val,
          cfg: TrainConfig) -> tuple:
    """Mini-batch Adam with early stopping on the validation loss.

    Shuffling and dropout masks derive from (cfg.seed, epoch), so a run is a
    pure function of its inputs. Returns (model, history) where the model
    carries the parameters of the best validation epoch and history is a
    list of dicts with epoch / train_loss / val_loss.
    """
    cfg.validate()
    dt = DTYPES[model.config.dtype]
    x_train = np.asarray(x_train, dtype=dt)
    y_train = np.asarray(y_train, dtype=dt)
    x_val = np.asarray(x_val, dtype=dt)
    y_val = np.asarray(y_val, dtype=dt)
    if len(x_train) == 0 or len(x_val) == 0:
        raise ValidationError("training and validation splits must be non-empty")

    state = AdamState.for_model(model, learning_rate=cfg.learning_rate,
                                beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
    history = []
    best_val = math.inf
    best_epoch = -1
    best_params = model.copy_parameters()

    n = len(x_train)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(epoch,)))
        perm = rng.permutation(n)
        running = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            try:
                loss, grads = loss_and_grad(model, x_train[idx], y_train[idx],
                                            mode="train", rng=rng)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, batch at {lo}: {exc}") from None
            adam_step(state, model, grads)
            running += loss * len(idx)
        train_loss = running / n
        val_loss = eval_loss(model, x_val, y_val)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"epoch {epoch}: non-finite validation loss")
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.copy_parameters()
        elif cfg.patience and epoch - best_epoch >= cfg.patience:
            break
    model.set_parameters(*best_params)
    model.metadata = dict(model.metadata,
                          best_epoch=best_epoch, best_val_loss=best_val,
                          epochs_run=len(history))
    return model, history


def save_history_csv(history, path):
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']:.17g},{row['val_loss']:.17g}\n")


def _header_dict(model: MlpModel):
    arrays = []
    for name, arr in model.parameter_arrays():
        arrays.append({"name": name, "dtype": arr.dtype.newbyteorder("<").str,
                       "shape": list(arr.shape)})
    stats = None
    if model.stats is not None:
        arrays.append({"name": "stats_mean", "dtype": "<f8",
                       "shape": list(model.stats.mean.shape)})
        arrays.append({"name": "stats_std", "dtype": "<f8",
                       "shape": list(model.stats.std.shape)})
        stats = True
    return {"format_version": CHECKPOINT_VERSION, "config": model.config.to_dict(),
            "metadata": model.metadata, "has_stats": bool(stats), "arrays": arrays}


def save_checkpoint(model: MlpModel, path):
    """Single-file binary checkpoint: magic, version, JSON header, raw
    little-endian arrays, sha256 trailer over everything before it."""
    header = _header_dict(model)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
               struct.pack("<Q", len(header_bytes)), header_bytes]
    named = dict(model.parameter_arrays())
    if model.stats is not None:
        named["stats_mean"] = model.stats.mean.astype(np.float64)
        named["stats_std"] = model.stats.std.astype(np.float64)
    for entry in header["arrays"]:
        arr = np.ascontiguousarray(named[entry["name"]])
        payload.append(arr.astype(np.dtype(entry["dtype"]), copy=False).tobytes())
    body = b"".join(payload)
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


def load_checkpoint(path) -> MlpModel:
    blob = read_bytes(path)
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 8 + 32:
        raise ChecksumError(f"{path}: file truncated")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError(f"{path}: checkpoint checksum mismatch")
    if body[:4] != CHECKPOINT_MAGIC:
        raise FormatVersionError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", body[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise FormatVersionError(
            f"{path}: checkpoint version {version} not supported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    header_len = struct.unpack("<Q", body[8:16])[0]
    header = json.loads(body[16:16 + header_len].decode())
    cfg = MlpConfig.from_dict(header["config"])

    offset = 16 + header_len
    named = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * dtype.itemsize
        chunk = body[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ChecksumError(f"{path}: array {entry['name']} truncated")
        named[entry["name"]] = np.frombuffer(chunk, dtype=dtype).reshape(
            entry["shape"]).copy()
        offset += nbytes

    dims = [cfg.input_dim, *cfg.hidden_widths, cfg.output_dim]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(named[f"W{i}"])
        key = f"b{i}"
        biases.append(named[key] if key in named else None)
    stats = None
    if header.get("has_stats"):
        stats = StandardizationStats(mean=named["stats_mean"], std=named["stats_std"])
    return MlpModel(config=cfg, weights=weights, biases=biases, stats=stats,
                    metadata=header.get("metadata", {}))
