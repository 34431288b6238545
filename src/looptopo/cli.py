"""Command-line entry point. All angles at this boundary are degrees."""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis, regularizer
from .data import (TEST, SamplingConfig, generate_dataset,
                   internal_intervals, load_dataset, save_dataset)
from .diagnostics import Diagnostics
from .embeddings import LoopParams
from .errors import LoopTopoError, ParseError, ValidationError
from .forward_model import (DEFAULT_BUILD, FrequencyConfig, GridSpec, LoopBuildConfig,
                      default_frequencies, eval_image, load_frequencies,
                      save_image_csv, visibilities_closed_form,
                      visibilities_quadrature_oracle)
from .mlp import (MlpConfig, TrainConfig, load_checkpoint, save_checkpoint,
                  save_history_csv)
from .serialization import config_hash, read_json, write_json
from .tasks import LOOP_PARAMS, TASKS


def _read_config(path):
    if path is None:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must contain a JSON object")
    return cfg


def _require_seed(args, cfg):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValidationError("a seed is required (--seed or \"seed\" in the config)")
    return int(seed)


def _sampling_config(args, cfg, seed):
    section = dict(cfg.get("dataset", {}))
    scenario = getattr(args, "scenario", None) or section.pop("scenario", None)
    if scenario is None:
        raise ValidationError("a scenario is required (--scenario or dataset.scenario)")
    declared_total = section.pop("n_samples", None)
    for name in ("n_train", "n_val", "n_test"):
        override = getattr(args, name, None)
        if override is not None:
            section[name] = override
    sampling = SamplingConfig.default(scenario, seed, **section)
    if declared_total is not None and declared_total != sampling.total:
        raise ValidationError(
            f"n_samples = {declared_total} does not match the split sizes "
            f"{sampling.n_train}/{sampling.n_val}/{sampling.n_test}")
    return sampling


def _frequencies(cfg):
    section = cfg.get("frequencies")
    if section is None:
        return default_frequencies(FrequencyConfig())
    if "file" in section:
        return load_frequencies(section["file"])
    return default_frequencies(FrequencyConfig.from_dict(section))


def _build_config(cfg):
    section = cfg.get("loop_build")
    if section is None:
        return DEFAULT_BUILD
    return LoopBuildConfig.from_dict(section)


def _nn_config(args, cfg, input_dim, out_dim, seed):
    section = dict(cfg.get("nn", {}))
    if getattr(args, "width", None) is not None and getattr(args, "depth", None) is not None:
        section["hidden_widths"] = [args.width] * args.depth
    elif getattr(args, "width", None) is not None or getattr(args, "depth", None) is not None:
        width = args.width if args.width is not None else 256
        depth = args.depth if args.depth is not None else 4
        section["hidden_widths"] = [width] * depth
    if getattr(args, "dropout", None) is not None:
        section["dropout_rate"] = args.dropout
    section.setdefault("hidden_widths", [256, 256, 256, 256])
    section["input_dim"] = input_dim
    section["output_dim"] = out_dim
    section.setdefault("seed", seed)
    return MlpConfig.from_dict(section)


def _train_config(args, cfg, seed):
    section = dict(cfg.get("train", {}))
    for cli_name, key in (("epochs", "epochs"), ("batch_size", "batch_size"),
                          ("lr", "learning_rate"), ("patience", "patience")):
        override = getattr(args, cli_name, None)
        if override is not None:
            section[key] = override
    section.setdefault("seed", seed)
    return TrainConfig.from_dict(section)


def _emit_diagnostics(diag: Diagnostics):
    for line in diag.format_lines():
        print(f"warning: {line}", file=sys.stderr)


def cmd_gen_dataset(args):
    cfg = _read_config(args.config)
    seed = _require_seed(args, cfg)
    sampling = _sampling_config(args, cfg, seed)
    visibilities = TASKS[sampling.scenario].visibilities
    freqs = _frequencies(cfg) if visibilities else None
    build = _build_config(cfg) if visibilities else None
    ds = generate_dataset(sampling, freqs=freqs, build=build)
    save_dataset(ds, args.out, text=args.text)
    print(f"wrote {ds.n_samples} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args):
    cfg = _read_config(args.config)
    seed = _require_seed(args, cfg)
    ds = load_dataset(args.dataset)
    task = ds.config.scenario
    out_dim = regularizer.output_dim(args.kind, task)
    nn_cfg = _nn_config(args, cfg, ds.data_dim, out_dim, seed)
    train_cfg = _train_config(args, cfg, seed)
    run_cfg = {"command": "train", "kind": args.kind, "nn": nn_cfg.to_dict(),
               "train": train_cfg.to_dict(),
               "dataset_config": ds.config.to_dict()}
    run_hash = config_hash(run_cfg)

    diag = Diagnostics()
    if args.resume:
        if not os.path.exists(args.out):
            raise ValidationError(f"--resume given but {args.out} does not exist")
        previous = load_checkpoint(args.out)
        stored = previous.metadata.get("run_config_hash")
        if stored != run_hash:
            raise ValidationError(
                "refusing to resume: stored run config hash "
                f"{stored} != current {run_hash}")
        # continue from the stored weights with a fresh optimizer
        model, history = _resume_training(previous, ds, train_cfg, args.kind)
    else:
        trainer = regularizer.train_naive if args.kind == "naive" else regularizer.train_embedded
        model, history = trainer(ds, nn_cfg=nn_cfg, train_cfg=train_cfg, diag=diag)
    model.metadata["run_config_hash"] = run_hash
    save_checkpoint(model, args.out)
    history_path = args.history or (os.path.splitext(args.out)[0] + "_history.csv")
    save_history_csv(history, history_path)
    _emit_diagnostics(diag)
    print(f"wrote checkpoint {args.out} ({len(history)} epochs)", file=sys.stderr)
    return 0


def _resume_training(model, ds, train_cfg, kind):
    from .data import TRAIN, VAL, apply_standardization
    from .mlp import train as train_loop
    from .regularizer import _apply_transform, build_targets

    task = ds.config.scenario
    x_all = apply_standardization(model.stats, ds.inputs())
    y_raw = build_targets(kind, task, ds.params)
    y_all = _apply_transform(model.metadata.get("target_transform"), y_raw)
    return train_loop(model, x_all[ds.mask(TRAIN)], y_all[ds.mask(TRAIN)],
                      x_all[ds.mask(VAL)], y_all[ds.mask(VAL)], train_cfg)


def cmd_evaluate(args):
    ds = load_dataset(args.dataset)
    model = load_checkpoint(args.model)
    kind, task = regularizer.check_model_consistency(model)
    if task != ds.config.scenario:
        raise ValidationError(
            f"model was trained for the {task} task, dataset is {ds.config.scenario}")
    os.makedirs(args.out, exist_ok=True)

    diag = Diagnostics()
    mask = ds.mask(TEST)
    pred = regularizer.predict(model, ds.inputs(TEST), diag=diag)
    spec = TASKS[task]
    truth = ds.params[mask][:, spec.free_columns]
    report = analysis.evaluate_predictions(task, kind, truth, pred,
                                           internal_intervals(ds.config))
    header, rows = analysis.evaluation_scatter(task, truth, pred, ds.clean[mask], report)
    analysis.export_scatter(rows.tolist(), header, os.path.join(args.out, "scatter.csv"))
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
    cfg = _read_config(args.config)
    seed = _require_seed(args, cfg)
    section = dict(cfg.get("dataset", {}))
    sampling = SamplingConfig.default("circle", seed, **section)
    ds = generate_dataset(sampling)
    os.makedirs(args.out, exist_ok=True)

    nn_section = dict(cfg.get("nn", {}))
    nn_section.setdefault("hidden_widths", [64, 64, 64])
    train_section = dict(cfg.get("train", {}))
    if args.epochs is not None:
        train_section["epochs"] = args.epochs
    train_section.setdefault("epochs", 100)
    train_section.setdefault("patience", 0)
    train_section.setdefault("seed", seed)

    models = {}
    for kind in ("naive", "embedded"):
        nn_cfg = MlpConfig.from_dict({**nn_section, "input_dim": 2,
                                      "output_dim": regularizer.output_dim(kind, "circle"),
                                      "seed": seed})
        train_cfg = TrainConfig.from_dict(train_section)
        trainer = regularizer.train_naive if kind == "naive" else regularizer.train_embedded
        model, history = trainer(ds, nn_cfg=nn_cfg, train_cfg=train_cfg)
        save_checkpoint(model, os.path.join(args.out, f"{kind}.ckpt"))
        save_history_csv(history, os.path.join(args.out, f"{kind}_history.csv"))
        models[kind] = model

    # dense uniform sweep plus a magnified look at the seam
    thetas = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
    points = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    preds = {k: regularizer.predict(m, points)[:, 0] for k, m in models.items()}
    header = ["theta_true_deg", "x", "y", "theta_naive_deg", "theta_embedded_deg",
              "naive_raw_error_rad", "embedded_circular_error_rad"]
    rows = [[math.degrees(t), p[0], p[1],
             math.degrees(preds["naive"][i]), math.degrees(preds["embedded"][i]),
             abs(float(preds["naive"][i] - t)),
             float(analysis.circular_error(preds["embedded"][i], t))]
            for i, (t, p) in enumerate(zip(thetas, points))]
    analysis.export_scatter([[float(v) for v in r] for r in rows], header,
                            os.path.join(args.out, "scatter.csv"))

    band = np.concatenate([np.linspace(1e-4, 0.05, 200),
                           2.0 * np.pi - np.linspace(1e-4, 0.05, 200)])
    band_pts = np.stack([np.cos(band), np.sin(band)], axis=1)
    naive_band = regularizer.predict(models["naive"], band_pts)[:, 0]
    embedded_band = regularizer.predict(models["embedded"], band_pts)[:, 0]
    summary = {
        "config_hash": config_hash({"dataset": sampling.to_dict(), "nn": nn_section,
                                    "train": train_section}),
        "naive_seam_max_raw_error_rad": float(np.max(np.abs(naive_band - band))),
        "embedded_seam_max_circular_error_rad":
            float(np.max(analysis.circular_error(embedded_band, band))),
        "embedded_mean_circular_error_rad":
            float(np.mean(analysis.circular_error(preds["embedded"], thetas))),
        "naive_mean_circular_error_rad":
            float(np.mean(analysis.circular_error(preds["naive"], thetas))),
    }
    write_json(summary, os.path.join(args.out, "seam_summary.json"))
    print(json.dumps(summary, indent=2), file=sys.stderr)
    return 0


def cmd_pca(args):
    cfg = _read_config(args.config)
    ds = load_dataset(args.dataset)
    if not TASKS[ds.config.scenario].visibilities:
        raise ValidationError("PCA export expects a visibility dataset")
    k = args.components if args.components is not None else cfg.get("pca", {}).get("components", 3)
    model = analysis.pca_fit(ds.inputs(), k=k)
    coords = analysis.pca_project(model, ds.inputs())
    os.makedirs(args.out, exist_ok=True)
    header = [f"pc{i+1}" for i in range(k)] + ["alpha_deg", "c"]
    rows = [[*coords[i], ds.params_disk[i, 5], ds.params_disk[i, 6]]
            for i in range(ds.n_samples)]
    analysis.export_scatter([[float(v) for v in r] for r in rows], header,
                            os.path.join(args.out, "projections.csv"))
    write_json({"explained_variance_ratio": model.explained_variance_ratio.tolist(),
                "singular_values": model.singular_values.tolist(),
                "config_hash": config_hash(ds.config.to_dict())},
               os.path.join(args.out, "variance.json"))
    return 0


def _read_vis_csv(path, expect_dim):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if lineno == 1 and any(not _is_number(v) for v in row):
                continue  # optional header
            if len(row) != expect_dim:
                raise ParseError(f"expected {expect_dim} values, got {len(row)}",
                                 path=path, line=lineno)
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=path, line=lineno) from None
            if not all(math.isfinite(v) for v in values):
                raise ParseError("non-finite value", path=path, line=lineno)
            rows.append(values)
    if not rows:
        raise ParseError("no data rows", path=path)
    return np.array(rows)


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _full_params(spec, pred, intervals):
    """Full parameter rows: the predicted free parameters, and the pinned ones
    at the middle of their (degenerate) intervals."""
    full = np.tile([0.5 * (intervals[n][0] + intervals[n][1]) for n in spec.params],
                   (pred.shape[0], 1))
    full[:, spec.free_columns] = pred
    return full


def cmd_predict(args):
    model = load_checkpoint(args.model)
    kind, task = regularizer.check_model_consistency(model)
    spec = TASKS[task]
    x = _read_vis_csv(args.input, model.config.input_dim)
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
        analysis.export_scatter(printable.tolist(), spec.header, args.out,
                                comment=f"config_hash: {run_hash}")
    if args.render:
        if spec.params != LOOP_PARAMS:
            raise ValidationError("--render needs a loop-parameter model")
        theta = LoopParams.from_array(pred[0])
        half = abs(theta.x_c) + abs(theta.y_c) + 8.0 * theta.sigma
        grid = GridSpec.centered(half, args.render_n)
        img = eval_image(theta, grid)
        save_image_csv(img, grid, args.render)
    _emit_diagnostics(diag)
    return 0


def cmd_vis_forward(args):
    cfg = _read_config(args.config)
    values = [v.strip() for v in args.theta.split(",")]
    if len(values) != len(LOOP_PARAMS):
        raise ValidationError(f"--theta needs {len(LOOP_PARAMS)} comma-separated values, "
                              f"got {len(values)}")
    try:
        ext = [float(v) for v in values]
    except ValueError as exc:
        raise ValidationError(f"bad --theta value: {exc}") from None
    theta = LoopParams(x_c=ext[0], y_c=ext[1], flux=ext[2], sigma=ext[3],
                       eps=ext[4], alpha=math.radians(ext[5]), c=ext[6])
    theta.validate()
    freqs = _frequencies(cfg)
    build = _build_config(cfg)
    diag = Diagnostics()
    if args.oracle:
        vis = visibilities_quadrature_oracle(theta, freqs, cfg=build, diag=diag)
    else:
        vis = visibilities_closed_form(theta, freqs, cfg=build)

    lines = ["u,v,re,im"]
    for (u, v), z in zip(freqs.uv, vis):
        lines.append(f"{u:.17g},{v:.17g},{z.real:.17g},{z.imag:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        run_hash = config_hash({"command": "vis-forward", "theta": ext,
                                "oracle": bool(args.oracle),
                                "frequencies": freqs.uv.tolist(),
                                "build": build.to_dict()})
        with open(args.out, "w") as fh:
            fh.write(f"# config_hash: {run_hash}\n")
            fh.write(text)
    else:
        print(text, end="")
    _emit_diagnostics(diag)
    return 0


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
    p.add_argument("--scenario", choices=list(TASKS))
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--n-val", type=int, dest="n_val")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--text", action="store_true", help="CSV arrays instead of binary")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a naive or embedded model")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["naive", "embedded"], required=True)
    p.add_argument("--history", help="history CSV path (default: next to checkpoint)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run a checkpoint over a dataset's test split")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo-circle", help="end-to-end circle example with both models")
    common(p)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_demo_circle)

    p = sub.add_parser("pca", help="project a visibility dataset on principal axes")
    common(p, seed=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--components", type=int)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("predict", help="apply a checkpoint to visibilities from a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="CSV of real-coded visibility rows")
    p.add_argument("--out", help="optional CSV of predicted parameters")
    p.add_argument("--render", help="write an image CSV of the first prediction")
    p.add_argument("--render-n", type=int, default=128, dest="render_n")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("vis-forward", help="visibilities of a given parameter vector")
    common(p, seed=False, out_required=False)
    p.add_argument("--theta", required=True,
                   help=",".join(TASKS["complete"].header))
    p.add_argument("--out", help="output CSV (stdout when omitted)")
    p.add_argument("--oracle", action="store_true",
                   help="use the quadrature oracle instead of the closed form")
    p.set_defaults(func=cmd_vis_forward)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LoopTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
