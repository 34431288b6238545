"""The three benchmark workloads, all on the complete scenario.

gen    generate_dataset -> save_dataset -> load_dataset on 6k samples
       (4k/1k/1k); stresses the data, forward_model and serialization layers.
train  fixed-epoch fits of the embedded and then the naive head on a 20k/5k
       dataset; stresses mlp (forward, backward, dropout masks, Adam).
infer  batch predict + evaluate over a 20k test split, then single-row
       ``looptopo predict`` calls through cli.main; stresses the mlp forward
       path, gamma_g_inv and per-call checkpoint loading and parsing.

Each workload builds its inputs in ``setup``, exposes timed ``phases`` and
checks its own outputs in ``check``. ``setup`` runs again between timed
operations, so it only builds inputs; ``phases`` makes the per-run state.
Workloads call looptopo only through its public API and its CLI entry point.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import looptopo
import looptopo.cli
from looptopo.data import PARAM_ORDER, TEST

#: Sizes per mode. "full" is the benchmark; "tiny" exercises the same code
#: paths in seconds for the harness self-test.
SIZES = {
    "full": {
        "gen_split": (4000, 1000, 1000),
        "train_split": (20000, 5000, 0), "train_epochs": 2,
        "infer_split": (5000, 1000, 20000), "infer_cli_rows": 16,
        "infer_trace_cli_calls": 1000, "infer_trace_batches": 3, "infer_check_rows": 1000,
    },
    "tiny": {
        "gen_split": (400, 100, 100),
        "train_split": (400, 100, 0), "train_epochs": 3,
        "infer_split": (300, 100, 400), "infer_cli_rows": 4,
        "infer_trace_cli_calls": 20, "infer_trace_batches": 2, "infer_check_rows": 50,
    },
}

#: The paper's complete-task network, as in the acceptance test.
HIDDEN = (256,) * 6
DROPOUT = 0.1
BATCH = 256
LR = 1e-3


@dataclass
class Phase:
    """A timed loop over one operation. ``op(i)`` is timed; ``after(i, result)``
    runs untimed. ``share`` is the part of --seconds the phase gets and
    ``trace_reps`` the fixed count of operations in a traced run."""

    name: str
    op: Callable
    share: float
    trace_reps: int
    min_reps: int = 1
    cycle: int = 1
    after: Callable = None


def _sampling(seed, split):
    n_train, n_val, n_test = split
    return looptopo.SamplingConfig.default("complete", seed, n_train=n_train,
                                           n_val=n_val, n_test=n_test)


def _net(output_dim, seed):
    return looptopo.MlpConfig(input_dim=60, hidden_widths=HIDDEN, output_dim=output_dim,
                              dropout_rate=DROPOUT, seed=seed)


def _fit(epochs, seed):
    return looptopo.TrainConfig(epochs=epochs, batch_size=BATCH, learning_rate=LR,
                                patience=0, seed=seed)


def _pct_ms(times, q):
    return float(np.percentile(times, q)) * 1e3


def _rate(samples, times):
    """Samples per second that nine in ten operations reach or beat.

    The 90th percentile of operation time is the figure that repeats best
    from run to run on a shared machine, whose speed drifts over minutes.
    """
    return samples / float(np.percentile(times, 90))


class Workload:
    name = ""
    #: Traced functions this workload must call; zero calls is a gap.
    expected_spans = ()
    #: end-to-end metric name -> this workload's own name for it
    aliases = {}

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.failed_ops = 0

    def extras(self, times):
        """Per-layer values the workload measures itself rather than by span,
        as name -> (value, sample count)."""
        return {}


#: The data path; set-up of train and infer runs its first four (no disk I/O).
GEN_SPANS = ("data.sample_params_external", "forward_model.add_noise",
             "data.generate_dataset", "forward_model.visibilities_closed_form_batch",
             "data.save_dataset", "data.load_dataset",
             "serialization.write_array_bin", "serialization.read_array_bin")


def _digest(ds):
    return hashlib.sha256(ds.noisy.tobytes() + ds.params_disk.tobytes()).hexdigest()


class Gen(Workload):
    name = "gen"
    expected_spans = GEN_SPANS
    aliases = {"samples_per_s": "gen_samples_per_s", "op_p90_ms": "gen_roundtrip_p90_ms"}

    def _roundtrip(self, cfg):
        ds = looptopo.generate_dataset(cfg, jobs=1)
        looptopo.save_dataset(ds, self.out)
        return ds, looptopo.load_dataset(self.out)

    def setup(self):
        # the reference dataset that every timed round trip must reproduce
        self.out = os.path.join(self.workdir, "dataset")
        self.cfg = _sampling(self.seed, self.sizes["gen_split"])
        self.reference = _digest(looptopo.generate_dataset(self.cfg, jobs=1))

    def phases(self):
        self.digests = []
        self.last = None

        def after(i, result):
            self.last = result
            self.digests.append(_digest(result[0]))

        return [Phase("roundtrip", lambda i: self._roundtrip(self.cfg), 1.0,
                      trace_reps=5, after=after)]

    def check(self):
        ds, loaded = self.last
        intervals = self.cfg.resolved_intervals()
        ext = ds.params_disk
        in_range = all(np.all((ext[:, j] >= intervals[n][0]) & (ext[:, j] <= intervals[n][1]))
                       for j, n in enumerate(PARAM_ORDER))
        rows = np.random.default_rng(self.seed).choice(ds.n_samples, 16, replace=False)
        closed_form = all(
            np.allclose(looptopo.reals_to_vis(ds.clean[i]),
                        looptopo.visibilities_closed_form(ds.params[i], ds.frequencies, ds.build),
                        rtol=0.0, atol=1e-10 * ds.params[i, 2])
            for i in rows)
        round_trip = (loaded.config.to_dict() == ds.config.to_dict()
                      and all(np.array_equal(getattr(ds, a), getattr(loaded, a))
                              for a in ("params_disk", "params", "clean", "noisy", "split")))
        return [("params_in_intervals", in_range),
                ("batch_matches_scalar_closed_form", closed_form),
                ("save_load_identical", round_trip),
                ("same_seed_same_dataset", set(self.digests) == {self.reference})]

    def metrics(self, times):
        t = times["roundtrip"]
        n = self.cfg.total
        return {"gen_samples_per_s": (_rate(n, t), "1/s", len(t)),
                "gen_roundtrip_p50_ms": (_pct_ms(t, 50), "ms", len(t)),
                "gen_roundtrip_p90_ms": (_pct_ms(t, 90), "ms", len(t))}


class Train(Workload):
    name = "train"
    expected_spans = GEN_SPANS[:4] + (
        "mlp.loss_and_grad", "mlp.sample_dropout_masks", "mlp.adam_step", "mlp.train",
        "mlp.eval_loss", "mlp.forward", "data.fit_standardization",
        "data.apply_standardization", "regularizer.build_targets", "embeddings.gamma_g",
        "regularizer.train_embedded", "regularizer.train_naive")
    aliases = {"samples_per_s": "train_samples_per_s", "op_p90_ms": "train_fit_p90_ms"}
    KINDS = (("embedded", 8), ("naive", 7))

    def setup(self):
        self.ds = looptopo.generate_dataset(_sampling(self.seed, self.sizes["train_split"]))
        self.epochs = self.sizes["train_epochs"]

    def phases(self):
        self.histories = {kind: [] for kind, _ in self.KINDS}

        def op(i):
            kind, out_dim = self.KINDS[i % 2]
            trainer = getattr(looptopo, f"train_{kind}")  # looked up per call, for tracing
            _, history = trainer(self.ds, nn_cfg=_net(out_dim, self.seed),
                                 train_cfg=_fit(self.epochs, self.seed))
            return kind, history

        def after(i, result):
            self.histories[result[0]].append(result[1])

        # two repetitions of each fit, so that every run checks determinism
        return [Phase("fit", op, 1.0, trace_reps=2, min_reps=4, cycle=2, after=after)]

    def check(self):
        out = []
        for kind, runs in self.histories.items():
            first = runs[0]
            losses = [r[k] for r in first for k in ("train_loss", "val_loss")]
            out += [(f"{kind}_losses_finite", bool(np.all(np.isfinite(losses)))),
                    (f"{kind}_val_loss_decreases", first[-1]["val_loss"] < first[0]["val_loss"]),
                    (f"{kind}_same_seed_same_history", all(r == first for r in runs))]
        return out

    def metrics(self, times):
        t = times["fit"]
        return {"train_samples_per_s": (_rate(self.sizes["train_split"][0] * self.epochs, t),
                                        "1/s", len(t)),
                "train_fit_p50_ms": (_pct_ms(t, 50), "ms", len(t)),
                "train_fit_p90_ms": (_pct_ms(t, 90), "ms", len(t)),
                "val_loss_embedded": (self.histories["embedded"][0][-1]["val_loss"], "mse", 1),
                "val_loss_naive": (self.histories["naive"][0][-1]["val_loss"], "mse", 1)}


class Infer(Workload):
    name = "infer"
    expected_spans = GEN_SPANS[:4] + (
        "mlp.eval_loss", "mlp.forward", "embeddings.gamma_g_inv", "regularizer.predict",
        "data.apply_standardization", "analysis.evaluate_predictions", "mlp.load_checkpoint",
        "cli.cmd_predict", "data.fit_standardization", "regularizer.build_targets",
        "embeddings.gamma_g", "regularizer.train_embedded", "mlp.save_checkpoint")
    aliases = {"samples_per_s": "predict_batch_samples_per_s",
               "op_p90_ms": "predict_cli_p90_ms"}

    def setup(self):
        cfg = _sampling(self.seed, self.sizes["infer_split"])
        ds = looptopo.generate_dataset(cfg)
        model, _ = looptopo.train_embedded(ds, nn_cfg=_net(8, self.seed),
                                           train_cfg=_fit(1, self.seed))
        self.ckpt = os.path.join(self.workdir, "embedded.ckpt")
        looptopo.save_checkpoint(model, self.ckpt)
        self.model = looptopo.load_checkpoint(self.ckpt)
        self.x = ds.inputs(TEST)
        self.truth = ds.params[ds.mask(TEST)]
        self.intervals = looptopo.internal_intervals(cfg)
        rng = np.random.default_rng(self.seed)
        self.cli_rows = rng.choice(len(self.x), self.sizes["infer_cli_rows"], replace=False)
        self.row_files = []
        for k, i in enumerate(self.cli_rows):
            path = os.path.join(self.workdir, f"row{k}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(repr(float(v)) for v in self.x[i]) + "\n")
            self.row_files.append(path)

    def _predict_batch(self, i):
        pred = looptopo.predict(self.model, self.x, diag=looptopo.Diagnostics())
        report = looptopo.evaluate_predictions("complete", "embedded", self.truth, pred,
                                               self.intervals)
        return pred, report

    def _network(self, x):
        """The embedded model's network outputs for (M,) or (B, M) inputs, in
        embedding units (after the model's target transform), as predict
        computes them."""
        x = np.asarray(x, dtype=float)
        batch = x[None, :] if x.ndim == 1 else x
        out = np.asarray(looptopo.forward(
            self.model, looptopo.apply_standardization(self.model.stats, batch)), dtype=float)
        tf = self.model.metadata.get("target_transform")
        if tf is not None:
            out = out * np.asarray(tf["scale"]) + np.asarray(tf["offset"])
        return out[0] if x.ndim == 1 else out

    def _invert(self, out):
        """Parameters from one row of network outputs, as predict inverts it."""
        iv = self.model.metadata["intervals"]
        floors = (iv.get("flux", (1e-9,))[0], iv.get("sigma", (1e-9,))[0],
                  max(iv.get("eps", (0.0,))[0], 0.0))
        return looptopo.gamma_g_inv(out, floors=floors)

    def _cli(self, path):
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            return looptopo.cli.main(["predict", "--model", self.ckpt, "--input", path])

    def phases(self):
        self.sink = io.StringIO()
        self.last = None

        def after_batch(i, result):
            self.last = result

        def after_cli(i, rc):
            self.failed_ops += rc != 0
            self.sink.seek(0)
            self.sink.truncate()

        files = self.row_files
        return [Phase("batch", self._predict_batch, 1 / 2,
                      trace_reps=self.sizes["infer_trace_batches"], after=after_batch),
                Phase("cli", lambda i: self._cli(files[i % len(files)]), 1 / 2,
                      trace_reps=self.sizes["infer_trace_cli_calls"], after=after_cli)]

    def check(self):
        pred, report = self.last
        x_c, y_c, flux, sigma, eps, alpha, c = pred.T
        canonical = bool(np.all(np.isfinite(pred)) and np.all(flux > 0) and np.all(sigma > 0)
                         and np.all(eps >= 0) and np.all((alpha >= 0) & (alpha < np.pi))
                         and np.all((alpha[eps == 0] == 0) & (c[eps == 0] == 0)))

        # Batch and single-row predict differ only in the float32 network,
        # whose batched and single-row matmuls sum in different orders. The
        # inverse embedding after it projects off-strip outputs onto the
        # strip and is ill-conditioned near the strip's centre line, so it
        # can blow that rounding up without bound. So check the two stages
        # apart: the network outputs agree to float32 precision, and each
        # predict is the inverse of its own network outputs, row by row.
        rows = np.random.default_rng(self.seed + 1).choice(
            len(self.x), min(self.sizes["infer_check_rows"], len(self.x)), replace=False)
        single, warned = [], 0
        for i in rows:
            diag = looptopo.Diagnostics()
            single.append(looptopo.predict(self.model, self.x[i], diag=diag))
            warned += bool(diag)
        single = np.array(single)
        self.checked_rows = len(rows)
        self.warned_frac = warned / len(rows)
        net_batch = self._network(self.x)
        net_single = np.array([self._network(self.x[i]) for i in rows])
        net_scale = np.max(np.abs(net_batch), axis=0)
        net_agree = bool(np.all(np.abs(net_single - net_batch[rows]) <= 1e-5 * net_scale))
        scale = np.max(np.abs(pred), axis=0)
        row_wise = all(np.allclose(self._invert(net_batch[i]), pred[i], rtol=1e-9,
                                   atol=1e-12 * scale) for i in rows)
        own_inverse = all(np.allclose(self._invert(net_single[k]), single[k], rtol=1e-9,
                                      atol=1e-12 * scale) for k in range(len(rows)))

        cli_ok = True
        for path, i in zip(self.row_files, self.cli_rows):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = looptopo.cli.main(["predict", "--model", self.ckpt, "--input", path])
            expected = looptopo.predict(self.model, self.x[i])
            expected[5] = np.degrees(expected[5])
            cli_ok = cli_ok and rc == 0 and np.allclose(_parse_cli(out.getvalue()), expected,
                                                        rtol=1e-5, atol=1e-9)
        summaries_finite = all(np.isfinite(v) for s in report.summaries.values()
                               for v in s.values())
        return [("outputs_finite_canonical", canonical),
                ("batch_network_matches_single_row", net_agree),
                ("batch_predict_is_row_wise_inverse", row_wise),
                ("single_predict_is_inverse", own_inverse),
                ("cli_output_matches_predict", bool(cli_ok)),
                ("cli_calls_exit_0", self.failed_ops == 0),
                ("evaluate_summaries_finite", summaries_finite)]

    def metrics(self, times):
        n = len(self.x)
        b, c = times["batch"], times["cli"]
        return {"predict_batch_samples_per_s": (_rate(n, b), "1/s", len(b)),
                "predict_cli_p50_ms": (_pct_ms(c, 50), "ms", len(c)),
                "predict_cli_p90_ms": (_pct_ms(c, 90), "ms", len(c))}

    def extras(self, times):
        c = times["cli"]
        return {"cli.predict.p99_ms": (_pct_ms(c, 99), len(c)),
                "cli.predict.calls": (len(c), len(c)),
                "diagnostics.warned_frac": (self.warned_frac, self.checked_rows)}


def _parse_cli(text):
    """``sample 0: x_c=1.5 arcsec, ..., alpha=12 deg, c=0.01`` -> the 7 values."""
    fields = text.strip().splitlines()[0].split(": ", 1)[1].split(", ")
    return np.array([float(f.split("=", 1)[1].split()[0]) for f in fields])


WORKLOADS = {w.name: w for w in (Gen, Train, Infer)}
