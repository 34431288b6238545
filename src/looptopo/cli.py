"""Command-line entry point. All angles at this boundary are degrees.

A command's config is its own defaults, then the --config file over them, then
the flags over both. A flag that sets a config value has that key as its dest
(``--lr`` sets ``train.learning_rate``). The flags that are not config keys
are --seed (over the file's ``seed``), --width/--depth (they rewrite
``nn.hidden_widths``) and --theta (one CSV row).

One parser per process; ``main`` looks each handler up by subcommand name at call
time (``vis-forward`` -> ``cmd_vis_forward``), so module-level rebinding takes effect.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analysis, regularizer
from .data import (TEST, SamplingConfig, generate_dataset, internal_intervals,
                   load_dataset, save_dataset, to_internal_params)
from .diagnostics import Diagnostics
from .errors import LoopTopoError, ParseError, ValidationError
from .forward_model import (FrequencyConfig, GridSpec, LoopBuildConfig,
                      default_frequencies, eval_image, load_frequencies,
                      visibilities_closed_form_batch, visibilities_quadrature_oracle)
from .mlp import (MlpConfig, TrainConfig, load_checkpoint, save_checkpoint,
                  save_history_csv)
from .serialization import (check_output_files, config_hash, format_csv, is_integer,
                            make_dir, parse_csv, read_bytes, read_json, write_bytes,
                            write_json)
from .tasks import KINDS, LOOP_PARAMS, TASKS


_SECTIONS = ("dataset", "frequencies", "loop_build", "nn", "train", "pca")


def _read_config(args, **defaults):
    """The run's config, each layer over the one below: the command's
    ``defaults`` (section name -> dict), the --config file, then every flag
    whose dest names a ``section.key``. Each section is a fresh dict."""
    cfg = {} if args.config is None else read_json(args.config)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must contain a JSON object")
    unknown = sorted(set(cfg) - {"seed", *_SECTIONS})
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}")
    merged = dict(cfg)
    for name in _SECTIONS:
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ValidationError(f"config section {name!r} must be a JSON object")
        merged[name] = {**defaults.get(name, {}), **section}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            name, key = dest.split(".")
            merged[name][key] = value
    return merged


def _require_seed(args, cfg):
    """The master seed, from --seed or the config, under the rule of the
    config seeds, also where every seed it would default is set already."""
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValidationError("a seed is required (--seed or \"seed\" in the config)")
    if not is_integer(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def _sampling_config(cfg, seed):
    section = dict(cfg["dataset"])
    scenario = section.pop("scenario", None)
    if scenario is None:
        raise ValidationError("a scenario is required (--scenario or dataset.scenario)")
    declared_total = section.pop("n_samples", None)
    sampling = SamplingConfig.default(scenario, seed, **section)
    if declared_total is not None and declared_total != sampling.total:
        raise ValidationError(
            f"n_samples = {declared_total} does not match the split sizes "
            f"{sampling.n_train}/{sampling.n_val}/{sampling.n_test}")
    return sampling


def _frequencies(cfg):
    section = cfg["frequencies"]
    if "file" not in section:
        return default_frequencies(FrequencyConfig.from_dict(section))
    if len(section) > 1 or not isinstance(section["file"], str):
        raise ValidationError("frequencies: \"file\" takes a path and no other keys")
    return load_frequencies(section["file"])


def _nn_config(cfg, input_dim, out_dim, seed, width=None, depth=None):
    """The network config; ``width`` and ``depth`` (--width, --depth) rewrite
    ``nn.hidden_widths``."""
    section = {"seed": seed, **cfg["nn"], "input_dim": input_dim, "output_dim": out_dim}
    nn_cfg = MlpConfig.from_dict(section)
    if width is None and depth is None:
        return nn_cfg
    widths = nn_cfg.hidden_widths  # the config's, or MlpConfig's default
    if width is None and len(set(widths)) > 1:
        raise ValidationError(f"--depth repeats one width, but nn.hidden_widths is "
                              f"{list(widths)}: give --width too")
    section["hidden_widths"] = [widths[0] if width is None else width] * (
        len(widths) if depth is None else depth)
    return MlpConfig.from_dict(section)


def _emit_diagnostics(diag: Diagnostics):
    for line in diag.format_lines():
        print(f"warning: {line}", file=sys.stderr)


def cmd_gen_dataset(args):
    cfg = _read_config(args)
    seed = _require_seed(args, cfg)
    sampling = _sampling_config(cfg, seed)
    visibilities = TASKS[sampling.scenario].visibilities
    freqs = _frequencies(cfg) if visibilities else None
    build = LoopBuildConfig.from_dict(cfg["loop_build"]) if visibilities else None
    ds = generate_dataset(sampling, freqs=freqs, build=build)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args):
    history_path = args.history or os.path.splitext(args.out)[0] + "_history.csv"
    check_output_files(args.out, history_path)
    cfg = _read_config(args)
    seed = _require_seed(args, cfg)
    ds = load_dataset(args.dataset)
    out_dim = regularizer.output_dim(args.kind, ds.config.scenario)
    nn_cfg = _nn_config(cfg, ds.data_dim, out_dim, seed, args.width, args.depth)
    train_cfg = TrainConfig.from_dict({"seed": seed, **cfg["train"]})
    manifest = ds.manifest_dict()
    run_cfg = {"command": "train", "kind": args.kind, "nn": nn_cfg.to_dict(),
               "train": train_cfg.to_dict(),
               "dataset_config": ds.config.to_dict(),
               "frequencies": manifest["frequencies"], "build": manifest["build"]}
    run_hash = config_hash(run_cfg)

    init = None
    if args.resume:
        # resume keeps the stored weights only: a fresh optimizer, epochs from 0,
        # standardization and target transform refitted, the history rewritten
        init = load_checkpoint(args.out)
        stored = init.metadata.get("run_config_hash")
        if stored != run_hash:
            raise ValidationError(
                "refusing to resume: stored run config hash "
                f"{stored} != current {run_hash}")
    diag = Diagnostics()
    _, history = _fit_and_save(args.kind, ds, nn_cfg, train_cfg, args.out, history_path,
                               diag=diag, init=init, run_hash=run_hash)
    _emit_diagnostics(diag)
    print(f"wrote checkpoint {args.out} ({len(history)} epochs)", file=sys.stderr)
    return 0


def _fit_and_save(kind, ds, nn_cfg, train_cfg, out, history_path, diag=None,
                  init=None, run_hash=None):
    """Fit a ``kind`` model on ``ds``; write its checkpoint to ``out`` and its
    history to ``history_path``."""
    trainer = regularizer.train_naive if kind == "naive" else regularizer.train_embedded
    model, history = trainer(ds, nn_cfg=nn_cfg, train_cfg=train_cfg, diag=diag, init=init)
    if run_hash is not None:
        model.metadata["run_config_hash"] = run_hash
    save_checkpoint(model, out)
    save_history_csv(history, history_path)
    return model, history


def cmd_evaluate(args):
    ds = load_dataset(args.dataset)
    model = load_checkpoint(args.model)
    kind, task = regularizer.check_model_consistency(model)
    if task != ds.config.scenario:
        raise ValidationError(
            f"model was trained for the {task} task, dataset is {ds.config.scenario}")
    test = ds.mask(TEST)
    if not ds.config.n_test:
        raise ValidationError(f"{args.dataset}: the test split is empty")
    make_dir(args.out)

    diag = Diagnostics()
    pred = regularizer.predict(model, ds.inputs(TEST), diag=diag)
    spec = TASKS[task]
    truth = ds.params[test][:, spec.free_columns]
    report = analysis.evaluate_predictions(task, kind, truth, pred,
                                           internal_intervals(ds.config))
    header, rows = analysis.evaluation_scatter(task, truth, pred, ds.clean[test], report)
    analysis.export_scatter(rows, header, os.path.join(args.out, "scatter.csv"))
    boxplot = {m.name: analysis.boxplot_stats(report.per_param[m.name])
               for m in spec.metrics if m.error == "norm"}
    if boxplot:
        write_json(boxplot, os.path.join(args.out, "boxplot.json"))
    payload = report.to_json_dict()
    payload["config_hash"] = config_hash({"dataset": ds.config.to_dict(),
                                          "model_metadata": model.metadata})
    payload["diagnostics"] = diag.summary()
    write_json(payload, os.path.join(args.out, "report.json"))
    _emit_diagnostics(diag)
    return 0


def cmd_demo_circle(args):
    cfg = _read_config(args, dataset={"scenario": "circle"}, nn={"hidden_widths": [64] * 3},
                       train={"epochs": 100, "patience": 0})
    seed = _require_seed(args, cfg)
    sampling = _sampling_config(cfg, seed)
    if sampling.scenario != "circle":
        raise ValidationError(f"demo-circle runs the circle scenario, not {sampling.scenario}")
    nn_cfgs = {kind: _nn_config(cfg, 2, regularizer.output_dim(kind, "circle"), seed)
               for kind in KINDS}
    train_cfg = TrainConfig.from_dict({"seed": seed, **cfg["train"]})
    ds = generate_dataset(sampling)
    make_dir(args.out)
    models = {kind: _fit_and_save(kind, ds, nn_cfg, train_cfg,
                                  os.path.join(args.out, f"{kind}.ckpt"),
                                  os.path.join(args.out, f"{kind}_history.csv"))[0]
              for kind, nn_cfg in nn_cfgs.items()}

    # a dense uniform sweep, then a magnified look at the seam band; the seam
    # maxima are taken over every row within the band's half-width of the seam
    half_width = 0.05
    sweep = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
    edge = np.linspace(1e-4, half_width, 200)
    thetas = np.concatenate([sweep, edge, 2.0 * np.pi - edge])
    near = analysis.seam_distance("circle", thetas[:, None]) <= half_width
    assert near[sweep.size:].all(), "a band angle lies outside the seam band"
    points = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    preds = {k: regularizer.predict(m, points)[:, 0] for k, m in models.items()}
    header = ["theta_true_deg", "x", "y", "theta_naive_deg", "theta_embedded_deg",
              "naive_raw_error_rad", "embedded_circular_error_rad"]
    rows = np.column_stack([np.degrees(thetas), points, np.degrees(preds["naive"]),
                            np.degrees(preds["embedded"]), np.abs(preds["naive"] - thetas),
                            analysis.circular_error(preds["embedded"], thetas)])
    analysis.export_scatter(rows[:sweep.size], header, os.path.join(args.out, "scatter.csv"))
    summary = {
        "config_hash": config_hash({"dataset": sampling.to_dict(), "nn": cfg["nn"],
                                    "train": {**cfg["train"], "seed": train_cfg.seed}}),
        "naive_seam_max_raw_error_rad": float(np.max(rows[near, 5])),
        "embedded_seam_max_circular_error_rad": float(np.max(rows[near, 6])),
        "embedded_mean_circular_error_rad": float(np.mean(rows[:sweep.size, 6])),
        "naive_mean_circular_error_rad": float(np.mean(
            analysis.circular_error(preds["naive"][:sweep.size], sweep))),
    }
    write_json(summary, os.path.join(args.out, "seam_summary.json"))
    print(json.dumps(summary, indent=2), file=sys.stderr)
    return 0


def cmd_pca(args):
    cfg = _read_config(args)
    ds = load_dataset(args.dataset)
    if not TASKS[ds.config.scenario].visibilities:
        raise ValidationError("PCA export expects a visibility dataset")
    section = dict(cfg["pca"])
    k = section.pop("components", 3)
    if section:
        raise ValidationError(f"pca: unknown keys {sorted(section)}")
    model = analysis.pca_fit(ds.inputs(), k=k)
    coords = analysis.pca_project(model, ds.inputs())
    make_dir(args.out)
    header = [f"pc{i+1}" for i in range(k)] + ["alpha_deg", "c"]
    analysis.export_scatter(np.column_stack([coords, ds.params_disk[:, 5:7]]), header,
                            os.path.join(args.out, "projections.csv"))
    write_json({"explained_variance_ratio": model.explained_variance_ratio.tolist(),
                "singular_values": model.singular_values.tolist(),
                "config_hash": config_hash(ds.config.to_dict())},
               os.path.join(args.out, "variance.json"))
    return 0


def _full_params(spec, pred, intervals):
    """Full parameter rows: the predicted free parameters, and the pinned ones
    at the middle of their (degenerate) intervals."""
    full = np.tile([0.5 * (intervals[n][0] + intervals[n][1]) for n in spec.params],
                   (pred.shape[0], 1))
    full[:, spec.free_columns] = pred
    return full


def cmd_predict(args):
    check_output_files(args.out, args.render)
    if args.render:
        try:
            GridSpec.centered(1.0, args.render_n)
        except ValidationError as exc:
            raise ValidationError(f"--render-n {args.render_n}: {exc}") from None
    model = load_checkpoint(args.model)
    kind, task = regularizer.check_model_consistency(model)
    spec = TASKS[task]
    if args.render and spec.params != LOOP_PARAMS:
        raise ValidationError("--render needs a loop-parameter model")
    _, x = parse_csv(read_bytes(args.input), args.input, width=model.config.input_dim)
    diag = Diagnostics()
    pred = _full_params(spec, regularizer.predict(model, x, diag=diag),
                        model.metadata["intervals"])

    printable = pred.copy()
    printable[:, spec.angle_columns] = np.degrees(printable[:, spec.angle_columns])
    for i, row in enumerate(printable):
        fields = ", ".join(f"{n}={v:.6g}{(' ' + u) if u else ''}"
                           for n, v, u in zip(spec.params, row, spec.units))
        print(f"sample {i}: {fields}")
    if args.out:
        run_hash = config_hash({"command": "predict",
                                "model": model.metadata.get("run_config_hash"),
                                "model_kind": kind, "model_task": task})
        analysis.export_scatter(printable, spec.header, args.out,
                                comment=f"config_hash: {run_hash}")
    if args.render:
        x_c, y_c, _, sigma, _, _, _ = pred[0]
        grid = GridSpec.centered(abs(x_c) + abs(y_c) + 8.0 * sigma, args.render_n)
        xs, ys = np.meshgrid(grid.xs(), grid.ys())
        pixels = np.column_stack([xs.ravel(), ys.ravel(), eval_image(pred[0], grid).ravel()])
        write_bytes(args.render, format_csv(["x", "y", "value"], pixels, digits=10))
    _emit_diagnostics(diag)
    return 0


def cmd_vis_forward(args):
    cfg = _read_config(args)
    header, rows = parse_csv(args.theta.encode(), "--theta", width=len(LOOP_PARAMS))
    if header is not None or len(rows) != 1:
        raise ParseError(f"expected one row of {len(LOOP_PARAMS)} numbers", path="--theta")
    ext = rows[0].tolist()
    theta = to_internal_params("complete", ext)
    freqs = _frequencies(cfg)
    build = LoopBuildConfig.from_dict(cfg["loop_build"])
    diag = Diagnostics()
    if args.oracle:
        vis = visibilities_quadrature_oracle(theta, freqs, cfg=build, diag=diag)
        re, im = vis.real, vis.imag
    else:
        row = visibilities_closed_form_batch(theta[None], freqs, build)[0]
        re, im = row[:len(freqs)], row[len(freqs):]

    header, rows = ["u", "v", "re", "im"], np.column_stack([freqs.uv, re, im])
    if args.out:
        run_hash = config_hash({"command": "vis-forward", "theta": ext,
                                "oracle": bool(args.oracle),
                                "frequencies": freqs.uv.tolist(),
                                "build": build.to_dict()})
        write_bytes(args.out, format_csv(header, rows, comment=f"config_hash: {run_hash}"))
    else:
        sys.stdout.write(format_csv(header, rows).decode())
    _emit_diagnostics(diag)
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="looptopo",
                                     description="Topology-aware parametric inversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out_required=True):
        p.add_argument("--config", help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, help="master seed (required here or in config)")
        if out_required:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen-dataset", help="generate and write a dataset directory")
    common(p)
    p.add_argument("--scenario", dest="dataset.scenario", choices=list(TASKS))
    p.add_argument("--n-train", type=int, dest="dataset.n_train")
    p.add_argument("--n-val", type=int, dest="dataset.n_val")
    p.add_argument("--n-test", type=int, dest="dataset.n_test")

    p = sub.add_parser("train", help="train a naive or embedded model")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--history", help="history CSV path (default: next to checkpoint)")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--lr", type=float, dest="train.learning_rate")
    p.add_argument("--patience", type=int, dest="train.patience")
    p.add_argument("--width", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--dropout", type=float, dest="nn.dropout_rate")
    p.add_argument("--resume", action="store_true",
                   help="start from the weights in --out (same run config); fresh "
                        "optimizer, epochs from 0, history rewritten")

    p = sub.add_parser("evaluate", help="run a checkpoint over a dataset's test split")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)

    p = sub.add_parser("demo-circle", help="end-to-end circle example: the naive model "
                       "breaks at the seam theta = 0 ~ 360 deg, the embedded one need not")
    common(p)
    p.add_argument("--epochs", type=int, dest="train.epochs")

    p = sub.add_parser("pca", help="project a visibility dataset on principal axes")
    common(p, seed=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--components", type=int, dest="pca.components")

    p = sub.add_parser("predict", help="apply a checkpoint to visibilities from a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CSV of real-coded visibility rows (re_1..re_n, im_1..im_n): "
                        "an optional header, then rows of the model's input_dim numbers")
    p.add_argument("--out", help="optional CSV of predicted parameters")
    p.add_argument("--render", help="write an image CSV of the first prediction")
    p.add_argument("--render-n", type=int, default=128, dest="render_n")

    p = sub.add_parser("vis-forward", help="visibilities of a given parameter vector")
    common(p, seed=False, out_required=False)
    p.add_argument("--theta", required=True,
                   help=",".join(TASKS["complete"].header))
    p.add_argument("--out", help="output CSV (stdout when omitted)")
    p.add_argument("--oracle", action="store_true",
                   help="use the quadrature oracle instead of the closed form")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except LoopTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
