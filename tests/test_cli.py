import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptopo import cli
from looptopo.cli import build_parser, main
from looptopo.data import load_dataset
from looptopo.errors import LoopTopoError, ParseError
from looptopo.mlp import load_checkpoint, save_checkpoint
from looptopo.serialization import write_array_bin


def run(argv):
    return main([str(a) for a in argv])


def read_csv_header(path):
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                return line.strip().split(",")
    return []


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset + trained checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert run(["gen-dataset", "--scenario", "simple", "--seed", "21",
                "--n-train", 150, "--n-val", 40, "--n-test", 40,
                "--out", ds]) == 0
    emb = root / "emb.ckpt"
    assert run(["train", "--dataset", ds, "--kind", "embedded", "--seed", "21",
                "--width", 24, "--depth", 2, "--epochs", 8, "--out", emb]) == 0
    return {"root": root, "ds": ds, "emb": emb}


class TestGenDataset:
    def test_writes_manifest_with_hash(self, workspace):
        manifest = json.loads((workspace["ds"] / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["config"]["n_train"] == 150

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            assert run(["gen-dataset", "--scenario", "circle", "--seed", "5",
                        "--n-train", 80, "--n-val", 20, "--n-test", 20,
                        "--out", tmp_path / name]) == 0
        for fname in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                   (tmp_path / "b" / fname).read_bytes()

    def test_missing_seed_fails(self, tmp_path, capsys):
        assert run(["gen-dataset", "--scenario", "circle",
                    "--out", tmp_path / "x"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_inconsistent_split_config_fails(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "dataset": {
            "scenario": "circle", "n_samples": 999,
            "n_train": 10, "n_val": 5, "n_test": 5}}))
        assert run(["gen-dataset", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n-train", "--n-val", "--n-test"])
    def test_split_size_past_numpy_is_an_error(self, tmp_path, capsys, flag):
        # past numpy's maximum dimension: refused by the config, before any draw
        assert run(["gen-dataset", "--seed", 0, "--scenario", "circle",
                    flag, 99999999999999999999, "--out", tmp_path / "d"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: split sizes ") and err.count("\n") == 1
        assert "99999999999999999999" in err and not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, sizes", [
    ("train", ["--width", "99999999999999999999", "--depth", "1"]),
    ("train", ["--width", "576460752303423488", "--depth", "1"]),
    ("train", ["--width", "16", "--depth", "99999999999999999999"]),
    ("predict", ["--render-n", "99999999999999999999"]),
    ("predict", ["--render-n", "576460752303423488"]),
    ("gen-dataset", ["--n-test", "576460752303423488"])])
def test_size_no_machine_holds_is_an_error(workspace, tmp_path, capsys, command, sizes):
    # every size here is refused without allocating: past the values one array
    # may hold, or (the split) an allocation of 4 EiB, which fails at once
    vis_path = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
    given = {"train": ["--dataset", workspace["ds"], "--kind", "embedded", "--seed", 7,
                       "--epochs", 1, "--out", tmp_path / "b.ckpt"],
             "predict": ["--model", workspace["emb"], "--input", vis_path,
                         "--render", tmp_path / "img.csv"],
             "gen-dataset": ["--seed", 0, "--scenario", "circle", "--out", tmp_path / "d"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *given[command], *sizes]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["v.csv"]


@pytest.mark.parametrize("command, section, key", [
    ("gen-dataset", "frequencies", "r_max"), ("gen-dataset", "loop_build", "span_factor"),
    ("train", "train", "learning_rate")])
def test_config_number_past_the_float_range_is_an_error(workspace, tmp_path, capsys,
                                                        command, section, key):
    # a 401-digit JSON integer in a float field is refused by its config, by name
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, section: {key: 10 ** 400}}))
    given = {"gen-dataset": ["--scenario", "simple", "--n-train", 20, "--n-val", 5,
                             "--n-test", 5, "--out", tmp_path / "d"],
             "train": ["--dataset", workspace["ds"], "--kind", "naive", "--epochs", 1,
                       "--out", tmp_path / "m.ckpt"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", path, *given[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f".{key} must be a finite number" in err
    assert err.count("\n") == 1 and os.listdir(tmp_path) == ["c.json"]


class TestTrain:
    def test_checkpoint_and_history_written(self, workspace):
        assert workspace["emb"].exists()
        history = workspace["root"] / "emb_history.csv"
        assert history.exists()
        lines = history.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) - 1 <= 8

    def test_checkpoint_has_expected_head(self, workspace):
        from looptopo.mlp import load_checkpoint
        model = load_checkpoint(workspace["emb"])
        assert model.config.output_dim == 3
        assert model.metadata["kind"] == "embedded"
        assert model.metadata["run_config_hash"]

    def test_deterministic_checkpoints(self, workspace, tmp_path):
        args = ["train", "--dataset", workspace["ds"], "--kind", "naive",
                "--seed", "4", "--width", 16, "--depth", 1, "--epochs", 3]
        for name in ("m1.ckpt", "m2.ckpt"):
            assert run(args + ["--out", tmp_path / name,
                               "--history", tmp_path / (name + ".csv")]) == 0
        assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    @pytest.mark.parametrize("widths, flags, trained", [
        ([64, 64], ["--depth", 3], (64, 64, 64)),
        ([64, 64], ["--width", 32], (32, 32)),
        ([128, 64], ["--width", 16], (16, 16)),
        ([128, 64], ["--width", 8, "--depth", 3], (8, 8, 8)),
        (None, ["--depth", 1], (256,)),  # MlpConfig's default widths
        (None, ["--width", 8], (8, 8, 8, 8))])
    def test_width_or_depth_alone_keeps_the_other(self, workspace, tmp_path, widths, flags,
                                                  trained):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nn": {} if widths is None else {"hidden_widths": widths}}))
        out = tmp_path / "m.ckpt"
        assert run(["train", "--dataset", workspace["ds"], "--kind", "naive", "--seed", 4,
                    "--config", cfg, *flags, "--epochs", 1, "--out", out]) == 0
        from looptopo.mlp import load_checkpoint
        assert load_checkpoint(out).config.hidden_widths == trained

    def test_depth_alone_on_unequal_widths_is_refused(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nn": {"hidden_widths": [128, 64]}}))
        out = tmp_path / "m.ckpt"
        assert run(["train", "--dataset", workspace["ds"], "--kind", "naive", "--seed", 4,
                    "--config", cfg, "--depth", 3, "--epochs", 1, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --depth repeats one width, but nn.hidden_widths is [128, 64]")
        assert not out.exists()

    def test_resume_requires_matching_config(self, workspace, tmp_path, capsys):
        out = tmp_path / "r.ckpt"
        base = ["train", "--dataset", workspace["ds"], "--kind", "embedded",
                "--seed", "4", "--width", 16, "--depth", 1, "--out", out]
        assert run(base + ["--epochs", 2]) == 0
        # same config resumes fine
        assert run(base + ["--epochs", 2, "--resume"]) == 0
        # changed architecture is refused
        assert run(["train", "--dataset", workspace["ds"], "--kind", "embedded",
                    "--seed", "4", "--width", 24, "--depth", 1, "--out", out,
                    "--epochs", 2, "--resume"]) == 1
        assert "refusing to resume" in capsys.readouterr().err

    def test_resume_refuses_a_dataset_with_other_frequencies(self, workspace, tmp_path,
                                                              capsys):
        # same sampling config and frequency count, other (u, v) points
        manifest = json.loads((workspace["ds"] / "manifest.json").read_text())
        freq_path = tmp_path / "f.csv"
        freq_path.write_text("u,v\n" + "".join(f"{1.1 * u!r},{1.1 * v!r}\n"
                                               for u, v in manifest["frequencies"]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"frequencies": {"file": str(freq_path)}}))
        other = tmp_path / "other_ds"
        assert run(["gen-dataset", "--scenario", "simple", "--seed", "21", "--config", cfg,
                    "--n-train", 150, "--n-val", 40, "--n-test", 40, "--out", other]) == 0
        out = tmp_path / "r.ckpt"
        base = ["--kind", "naive", "--seed", "4", "--width", 8, "--depth", 1,
                "--epochs", 1, "--out", out]
        assert run(["train", "--dataset", workspace["ds"], *base]) == 0
        capsys.readouterr()
        assert run(["train", "--dataset", other, *base, "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "refusing to resume" in err

    def test_resume_is_a_fit_from_the_stored_weights(self, workspace, tmp_path):
        from looptopo import regularizer
        from looptopo.data import load_dataset
        from looptopo.mlp import TrainConfig, load_checkpoint, save_checkpoint, \
            save_history_csv
        out = tmp_path / "r.ckpt"
        base = ["train", "--dataset", workspace["ds"], "--kind", "naive", "--seed", "4",
                "--width", 16, "--depth", 2, "--dropout", 0.1, "--epochs", 2, "--out", out]
        assert run(base) == 0
        first = load_checkpoint(out)
        assert run(base + ["--resume"]) == 0
        model, history = regularizer.train_naive(
            load_dataset(workspace["ds"]), nn_cfg=first.config,
            train_cfg=TrainConfig.from_dict(first.metadata["train_config"]), init=first)
        model.metadata["run_config_hash"] = first.metadata["run_config_hash"]
        save_checkpoint(model, tmp_path / "api.ckpt")
        save_history_csv(history, tmp_path / "api_history.csv")
        assert (tmp_path / "api.ckpt").read_bytes() == out.read_bytes()
        assert (tmp_path / "api_history.csv").read_bytes() == \
            (tmp_path / "r_history.csv").read_bytes()
        # the resumed run trained on from the first run's weights
        assert not np.array_equal(model.weights[0], first.weights[0])

    def test_resume_without_checkpoint_fails(self, workspace, tmp_path):
        assert run(["train", "--dataset", workspace["ds"], "--kind", "naive",
                    "--seed", "4", "--out", tmp_path / "missing.ckpt",
                    "--epochs", 2, "--resume"]) == 1


class TestEvaluate:
    def test_report_and_scatter(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--dataset", workspace["ds"],
                    "--model", workspace["emb"], "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "moebius" in report["summaries"]
        assert "q75" in report["summaries"]["moebius"]
        assert report["config_hash"]
        header = read_csv_header(out / "scatter.csv")
        assert "moebius_error" in header
        with open(out / "scatter.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 40

    def test_task_mismatch_rejected(self, workspace, tmp_path, capsys):
        circle_ds = tmp_path / "cds"
        assert run(["gen-dataset", "--scenario", "circle", "--seed", "5",
                    "--n-train", 30, "--n-val", 10, "--n-test", 10,
                    "--out", circle_ds]) == 0
        assert run(["evaluate", "--dataset", circle_ds,
                    "--model", workspace["emb"],
                    "--out", tmp_path / "e"]) == 1

    def test_empty_test_split_rejected_before_any_output(self, workspace, tmp_path, capsys):
        ds, out = tmp_path / "ds", tmp_path / "e"
        assert run(["gen-dataset", "--scenario", "simple", "--seed", "5",
                    "--n-train", 30, "--n-val", 10, "--n-test", 0, "--out", ds]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--dataset", ds, "--model", workspace["emb"],
                    "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "test split is empty" in captured.err
        assert not out.exists()


class TestPca:
    def test_projection_export(self, workspace, tmp_path):
        out = tmp_path / "pca"
        assert run(["pca", "--dataset", workspace["ds"], "--out", out]) == 0
        assert read_csv_header(out / "projections.csv") == \
            ["pc1", "pc2", "pc3", "alpha_deg", "c"]
        variance = json.loads((out / "variance.json").read_text())
        ratios = variance["explained_variance_ratio"]
        assert len(ratios) == 3 and ratios == sorted(ratios, reverse=True)

    def test_k_too_large_fails(self, workspace, tmp_path):
        assert run(["pca", "--dataset", workspace["ds"],
                    "--components", 61, "--out", tmp_path / "p"]) == 1

    def test_circle_dataset_rejected(self, tmp_path):
        circle_ds = tmp_path / "cds"
        assert run(["gen-dataset", "--scenario", "circle", "--seed", "5",
                    "--n-train", 30, "--n-val", 10, "--n-test", 10,
                    "--out", circle_ds]) == 0
        assert run(["pca", "--dataset", circle_ds,
                    "--out", tmp_path / "p"]) == 1


class TestPredict:
    def test_params_from_visibility_csv(self, workspace, tmp_path, capsys):
        from looptopo.data import load_dataset
        ds = load_dataset(workspace["ds"])
        vis_path = tmp_path / "v.csv"
        np.savetxt(vis_path, ds.clean[:3], delimiter=",")
        out_path = tmp_path / "pred.csv"
        assert run(["predict", "--model", workspace["emb"], "--input", vis_path,
                    "--out", out_path]) == 0
        printed = capsys.readouterr().out
        assert printed.count("sample") == 3
        assert "alpha" in printed and "deg" in printed
        header = read_csv_header(out_path)
        assert header == ["x_c", "y_c", "flux", "sigma", "eps", "alpha_deg", "c"]

    def test_malformed_input_reports_position(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(["0.0"] * 60) + "\n" + ",".join(["x"] * 60) + "\n")
        assert run(["predict", "--model", workspace["emb"], "--input", bad]) == 1
        assert "bad.csv:2" in capsys.readouterr().err  # the non-numeric row

    def test_typo_in_a_headerless_first_row_is_an_error(self, workspace, tmp_path, capsys):
        # numbers and one word are a bad first data row, not a header to skip
        bad = _written(tmp_path / "typo.csv", (",".join(["1.0"] * 59 + ["x"]) + "\n"
                                                + ",".join(["1.0"] * 60) + "\n").encode())
        out_path = tmp_path / "pred.csv"
        assert run(["predict", "--model", workspace["emb"], "--input", bad,
                    "--out", out_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert f"{bad}:1" in captured.err and "'x'" in captured.err
        assert not out_path.exists()

    def test_wrong_arity_rejected(self, workspace, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("1.0,2.0,3.0\n")
        assert run(["predict", "--model", workspace["emb"], "--input", bad]) == 1

    def test_render_writes_image(self, workspace, tmp_path):
        from looptopo.data import load_dataset
        ds = load_dataset(workspace["ds"])
        vis_path = tmp_path / "v.csv"
        np.savetxt(vis_path, ds.clean[:1], delimiter=",")
        img_path = tmp_path / "img.csv"
        assert run(["predict", "--model", workspace["emb"], "--input", vis_path,
                    "--render", img_path, "--render-n", 32]) == 0
        assert read_csv_header(img_path) == ["x", "y", "value"]

    @pytest.mark.parametrize("render_n", [-3, 0, 1])
    def test_render_n_below_two_rejected_before_any_output(self, workspace, tmp_path,
                                                          capsys, render_n):
        vis_path = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
        out_path, img_path = tmp_path / "pred.csv", tmp_path / "img.csv"
        assert run(["predict", "--model", workspace["emb"], "--input", vis_path,
                    "--out", out_path, "--render", img_path, "--render-n", render_n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--render-n" in captured.err
        assert not out_path.exists() and not img_path.exists()

    def test_render_n_unused_without_render(self, workspace, tmp_path):
        vis_path = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
        assert run(["predict", "--model", workspace["emb"], "--input", vis_path,
                    "--render-n", 1]) == 0

    def test_render_of_non_loop_model_rejected_before_any_output(self, tmp_path, capsys):
        ds, model = tmp_path / "cds", tmp_path / "c.ckpt"
        assert run(["gen-dataset", "--scenario", "circle", "--seed", "5",
                    "--n-train", 30, "--n-val", 10, "--n-test", 10, "--out", ds]) == 0
        assert run(["train", "--dataset", ds, "--kind", "naive", "--seed", "5",
                    "--width", 8, "--depth", 1, "--epochs", 1, "--out", model]) == 0
        vis_path = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
        out_path, img_path = tmp_path / "pred.csv", tmp_path / "img.csv"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--input", vis_path,
                    "--out", out_path, "--render", img_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "loop-parameter model" in captured.err
        assert not out_path.exists() and not img_path.exists()

    def test_non_finite_value_rejected(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text(",".join(["1.0"] * 59 + ["nan"]) + "\n")
        assert run(["predict", "--model", workspace["emb"], "--input", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"{bad}:1" in captured.err

    @pytest.mark.parametrize("scale", [1e300, 1e40])
    def test_input_too_large_for_the_model_rejected_before_any_output(
            self, workspace, tmp_path, capsys, scale):
        from looptopo.data import load_dataset
        vis_path, out_path = tmp_path / "v.csv", tmp_path / "pred.csv"
        np.savetxt(vis_path, load_dataset(workspace["ds"]).clean[:3] * scale, delimiter=",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert run(["predict", "--model", workspace["emb"], "--input", vis_path,
                        "--out", out_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 0: input too large for the model\n"
        assert not out_path.exists()

    def test_render_complete_model_in_radians(self, tmp_path):
        from looptopo.data import load_dataset
        from looptopo.forward_model import GridSpec, eval_image
        from looptopo.mlp import load_checkpoint
        from looptopo.regularizer import predict
        ds_path, ckpt = tmp_path / "ds", tmp_path / "m.ckpt"
        assert run(["gen-dataset", "--scenario", "complete", "--seed", "3",
                    "--n-train", 60, "--n-val", 20, "--n-test", 20, "--out", ds_path]) == 0
        assert run(["train", "--dataset", ds_path, "--kind", "naive", "--seed", "3",
                    "--width", 8, "--depth", 1, "--epochs", 1, "--out", ckpt]) == 0
        row = load_dataset(ds_path).clean[:1]
        vis_path, img_path = tmp_path / "v.csv", tmp_path / "img.csv"
        np.savetxt(vis_path, row, delimiter=",")
        assert run(["predict", "--model", ckpt, "--input", vis_path,
                    "--render", img_path, "--render-n", 16]) == 0
        theta = predict(load_checkpoint(ckpt), row)[0]
        x_c, y_c, _, sigma, _, _, _ = theta
        grid = GridSpec.centered(abs(x_c) + abs(y_c) + 8.0 * sigma, 16)
        written = np.loadtxt(img_path, delimiter=",", skiprows=1)[:, 2]
        np.testing.assert_allclose(written, eval_image(theta, grid).ravel(),
                                   rtol=1e-9, atol=1e-12)


def _manifest_edited(workspace, tmp_path, edit):
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    manifest = ds / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    return ["evaluate", "--dataset", ds, "--model", workspace["emb"], "--out", tmp_path / "e"]


def _written(path, data):
    path.write_bytes(data)
    return path


def _vis_forward_with_frequencies(path):
    cfg = path.parent / "c.json"
    cfg.write_text(json.dumps({"frequencies": {"file": str(path)}}))
    return ["vis-forward", "--theta", "0,0,1000,8,5,0,0.05", "--config", cfg]


def _with_array_entry(text, name, key, value):
    manifest = json.loads(text)
    if key is None:
        manifest["arrays"][name] = value
    else:
        manifest["arrays"][name][key] = value
    return json.dumps(manifest)


def _with_manifest_key(text, key, value):
    return json.dumps({**json.loads(text), key: value})


NOT_UTF8 = b"\xff\xfe0.1,0.2\n"

UNREADABLE_INPUTS = {
    "missing_checkpoint": lambda ws, tmp: [
        "predict", "--model", tmp / "missing.ckpt", "--input", tmp / "v.csv"],
    "missing_predict_input": lambda ws, tmp: [
        "predict", "--model", ws["emb"], "--input", tmp / "missing.csv"],
    "non_utf8_predict_input": lambda ws, tmp: [
        "predict", "--model", ws["emb"], "--input", _written(tmp / "v.csv", NOT_UTF8)],
    "missing_frequency_file": lambda ws, tmp: _vis_forward_with_frequencies(
        tmp / "missing.csv"),
    "non_utf8_frequency_file": lambda ws, tmp: _vis_forward_with_frequencies(
        _written(tmp / "f.csv", b"u,v\n" + NOT_UTF8)),
    "missing_dataset": lambda ws, tmp: [
        "evaluate", "--dataset", tmp / "missing_dir", "--model", ws["emb"],
        "--out", tmp / "e"],
    "truncated_manifest": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: text[:len(text) // 2]),
    "missing_array_file": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: text.replace("clean.bin", "gone.bin")),
    "manifest_without_arrays": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != "arrays"})),
    "array_entry_the_config_does_not_imply": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "noisy", None,
                                                json.loads(text)["arrays"]["clean"])),
    "format_1_manifest": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_manifest_key(text, "format_version", 1)),
    "edited_manifest_config": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: text.replace('"n_test": 40', '"n_test": 41')),
    "manifest_arrays_not_an_object": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: json.dumps({**json.loads(text), "arrays": [1, 2]})),
    "array_entry_not_an_object": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "params", None, 5)),
    "array_file_not_a_string": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "clean", "file", 5)),
    "array_dtype_not_a_string": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "clean", "dtype", 8)),
    "array_dtype_unknown": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "clean", "dtype", "bogus")),
    "array_sha256_not_a_string": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "params", "sha256", ["ab"])),
    "array_shape_not_a_list": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_array_entry(text, "params", "shape", 5)),
    "frequencies_a_string": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_manifest_key(text, "frequencies", "x")),
    "frequencies_not_numbers": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_manifest_key(text, "frequencies", [["a", "b"]])),
    "frequencies_an_object": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_manifest_key(text, "frequencies", {"u": 1})),
    "frequencies_null_on_visibilities": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: _with_manifest_key(text, "frequencies", None)),
}


OUT_IS_A_FILE = {
    "gen-dataset": lambda ws: ["gen-dataset", "--scenario", "circle", "--seed", "1",
                               "--n-train", 10, "--n-val", 5, "--n-test", 5],
    "evaluate": lambda ws: ["evaluate", "--dataset", ws["ds"], "--model", ws["emb"]],
    "demo-circle": lambda ws: ["demo-circle", "--seed", "1", "--epochs", 1],
    "pca": lambda ws: ["pca", "--dataset", ws["ds"]],
}


@pytest.mark.parametrize("command", sorted(OUT_IS_A_FILE))
def test_out_naming_a_file_is_an_error(workspace, tmp_path, capsys, command):
    afile = _written(tmp_path / "afile", b"not a directory\n")
    assert run(OUT_IS_A_FILE[command](workspace) + ["--out", afile]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert afile.read_bytes() == b"not a directory\n"


def _train_args(ws):
    return ["train", "--dataset", ws["ds"], "--kind", "naive", "--seed", 1, "--width", 8,
            "--depth", 1, "--epochs", 1]


#: Output files of each command, checked before its work: a path that cannot be
#: written would otherwise fail after a full training run, or after other outputs.
OUT_FILES = {
    "train --out": lambda ws, tmp, bad: [*_train_args(ws), "--out", bad],
    "train --history": lambda ws, tmp, bad: [*_train_args(ws), "--out", tmp / "m.ckpt",
                                             "--history", bad],
    "predict --out": lambda ws, tmp, bad: [
        "predict", "--model", ws["emb"], "--input", tmp / "v.csv", "--out", bad],
    "predict --render": lambda ws, tmp, bad: [
        "predict", "--model", ws["emb"], "--input", tmp / "v.csv", "--out", tmp / "p.csv",
        "--render", bad],
    "vis-forward --out": lambda ws, tmp, bad: [
        "vis-forward", "--theta", "0,0,1000,8,5,0,0.05", "--out", bad],
    # --out can be written, but the history's default path next to it cannot
    "train default history": lambda ws, tmp, bad: [*_train_args(ws), "--out", tmp / "m.ckpt"],
}


@pytest.mark.parametrize("case, bad", [
    *((case, bad) for case in sorted(OUT_FILES) if case != "train default history"
      for bad in ("missing/out.csv", "adir")),
    ("train default history", "m_history.csv")])
def test_unwritable_out_file_is_refused_before_any_work(workspace, tmp_path, capsys,
                                                        monkeypatch, case, bad):
    def work(*args):
        raise AssertionError("the work began before the output check")
    monkeypatch.setattr(cli, "load_dataset", work)  # train's first step
    monkeypatch.setattr(cli, "load_checkpoint", work)  # predict's
    (tmp_path / "adir").mkdir()
    (tmp_path / "m_history.csv").mkdir()
    _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
    before = sorted(tmp_path.rglob("*"))
    assert run(OUT_FILES[case](workspace, tmp_path, tmp_path / bad)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path / bad}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_an_error(workspace, tmp_path, capsys, case):
    assert run(UNREADABLE_INPUTS[case](workspace, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error:")


#: Arrays of a 600-row dataset (400 train, 100 val, 100 test) replaced by ones
#: that disagree with its config, and the file the refusal names.
DISAGREEING_ARRAYS = {
    "rows_cut": ("clean.bin", lambda ds: {"clean": ds.clean[:500]}),
    "params_six_wide": ("params.bin", lambda ds: {"params": ds.params_disk[:, :6]}),
}


@pytest.fixture(scope="module")
def dataset_600(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds600") / "ds"
    assert run(["gen-dataset", "--scenario", "simple", "--seed", "3", "--n-train", 400,
                "--n-val", 100, "--n-test", 100, "--out", path]) == 0
    return path


@pytest.mark.parametrize("case", sorted(DISAGREEING_ARRAYS))
def test_arrays_that_disagree_with_the_config_are_refused(workspace, dataset_600, tmp_path,
                                                          capsys, case):
    # each file is re-signed in the manifest, so only the config check can refuse it
    file, edit = DISAGREEING_ARRAYS[case]
    ds = shutil.copytree(dataset_600, tmp_path / "ds")
    manifest = json.loads((ds / "manifest.json").read_text())
    for name, arr in edit(load_dataset(ds)).items():
        manifest["arrays"][name] = write_array_bin(arr, ds / f"{name}.bin")
    (ds / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError) as raised:
        load_dataset(ds)
    assert raised.value.path == str(ds / file)
    for argv in ([*_train_args({"ds": ds}), "--out", tmp_path / "m.ckpt"],
                 ["evaluate", "--dataset", ds, "--model", workspace["emb"],
                  "--out", tmp_path / "e"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and file in err and "Traceback" not in err


def test_checkpoint_without_stats_is_an_error(workspace, tmp_path, capsys):
    model = load_checkpoint(workspace["emb"])
    model.stats = None
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    vis = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
    for argv in (["predict", "--model", path, "--input", vis],
                 ["evaluate", "--dataset", workspace["ds"], "--model", path,
                  "--out", tmp_path / "e"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "standardization" in err


def resigned(blob, edit):
    """The checkpoint ``blob`` with its JSON header passed through ``edit``,
    which changes the dict in place, and its checksum recomputed."""
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode()
    body = blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len:-32]
    return body + hashlib.sha256(body).digest()


def _entry(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


#: Header edits that a valid checksum used to let through: a traceback or a
#: silent load at worst.
HEADER_EDITS = {
    "config_missing": lambda h: h.pop("config"),
    "arrays_not_a_list": lambda h: h.update(arrays={e["name"]: e for e in h["arrays"]}),
    "b1_dropped": lambda h: h["arrays"].remove(_entry(h, "b1")),
    "W0_shape_transposed": lambda h: _entry(h, "W0")["shape"].reverse(),
    "W0_dtype_float64": lambda h: _entry(h, "W0").update(dtype="<f8"),
    "has_stats_false": lambda h: h.update(has_stats=False),
    "config_width_changed": lambda h: h["config"].update(hidden_widths=[24, 23]),
    # a network without a final bias
    "final_bias_false_last_bias_dropped": lambda h: (
        h["config"].update(final_bias=False),
        h["arrays"].remove([e for e in h["arrays"] if e["name"].startswith("b")][-1])),
}


class TestCheckpointHeader:
    @pytest.fixture(scope="class")
    def blob(self, workspace):
        blob = workspace["emb"].read_bytes()
        assert resigned(blob, lambda h: None) == blob
        return blob

    @pytest.mark.parametrize("case", sorted(HEADER_EDITS))
    def test_edited_header_is_a_parse_error(self, workspace, tmp_path, capsys, blob, case):
        # the message, not the path: tmp_path is named after this test
        path = _written(tmp_path / "m.ckpt", resigned(blob, HEADER_EDITS[case]))
        with pytest.raises(ParseError, match="^bad checkpoint header: "):
            load_checkpoint(path)
        assert run(["predict", "--model", path, "--input", tmp_path / "v.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_trailing_bytes_are_a_parse_error(self, tmp_path, blob):
        body = blob[:-32] + bytes(8)
        path = _written(tmp_path / "m.ckpt", body + hashlib.sha256(body).digest())
        with pytest.raises(ParseError, match="past the arrays"):
            load_checkpoint(path)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_resigned_header_edit_is_rejected(self, workspace, blob, data):
        def edit(h):
            arrays = h["arrays"]
            entry = data.draw(st.sampled_from(arrays))
            what = data.draw(st.sampled_from(
                ["drop key", "drop entry key", "shape", "drop array", "add array"]))
            if what == "drop key":
                h.pop(data.draw(st.sampled_from(sorted(h))))
            elif what == "drop entry key":
                entry.pop(data.draw(st.sampled_from(sorted(entry))))
            elif what == "shape":
                shape = entry["shape"]
                i = data.draw(st.integers(0, len(shape) - 1))
                shape[i] = data.draw(st.integers(0, 100).filter(lambda n: n != shape[i]))
            elif what == "drop array":
                arrays.remove(entry)
            else:
                name = data.draw(st.sampled_from([e["name"] for e in arrays] + ["W9", "x"]))
                arrays.insert(data.draw(st.integers(0, len(arrays))), {**entry, "name": name})

        path = workspace["root"] / "edited.ckpt"
        path.write_bytes(resigned(blob, edit))
        with pytest.raises(LoopTopoError):
            load_checkpoint(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["predict", "--model", path, "--input", workspace["root"] / "v.csv"]) == 1
        assert err.getvalue().startswith("error:")


#: Metadata edits under a valid checksum that predict cannot apply. The
#: workspace model is an embedded simple model: 3 outputs, no target transform.
METADATA_EDITS = {
    "intervals_dropped": lambda h: h["metadata"].pop("intervals"),
    "intervals_a_number": lambda h: h["metadata"].update(intervals=5),
    "interval_a_string": lambda h: h["metadata"]["intervals"].update(c="x"),
    "interval_lo_above_hi": lambda h: h["metadata"]["intervals"].update(c=[0.05, -0.05]),
    "offset_a_string": lambda h: h["metadata"].update(
        target_transform={"type": "zscore", "offset": ["a", 0, 0], "scale": [1, 1, 1]}),
    "scale_too_short": lambda h: h["metadata"].update(
        target_transform={"type": "zscore", "offset": [0, 0, 0], "scale": [1, 1]}),
    "scale_zero": lambda h: h["metadata"].update(
        target_transform={"type": "zscore", "offset": [0, 0, 0], "scale": [1, 0, 1]}),
    "target_transform_dropped": lambda h: h["metadata"].pop("target_transform"),
}


@pytest.mark.parametrize("case", sorted(METADATA_EDITS))
def test_malformed_checkpoint_metadata_is_an_error(workspace, tmp_path, capsys, case):
    blob = workspace["emb"].read_bytes()
    path = _written(tmp_path / "m.ckpt", resigned(blob, METADATA_EDITS[case]))
    vis = _written(tmp_path / "v.csv", (",".join(["1.0"] * 60) + "\n").encode())
    for argv, out in ((["predict", "--model", path, "--input", vis], tmp_path / "p.csv"),
                      (["evaluate", "--dataset", workspace["ds"], "--model", path],
                       tmp_path / "e")):
        assert run([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint metadata.") and "Traceback" not in err
        assert not out.exists()


BAD_CONFIGS = {
    "dataset unknown key": ({"dataset": {"bogus": 1}}, "gen-dataset"),
    "dataset wrong type": ({"dataset": {"n_train": "ten"}}, "gen-dataset"),
    "dataset seed": ({"dataset": {"seed": 2}}, "gen-dataset"),
    "dataset interval": ({"dataset": {"intervals": {"flux": [1000]}}}, "gen-dataset"),
    "nn unknown key": ({"nn": {"bogus": 1}}, "train"),
    "nn widths": ({"nn": {"hidden_widths": ["wide"]}}, "train"),
    "nn final_bias false": ({"nn": {"final_bias": False}}, "train"),
    "nn seed negative": ({"nn": {"seed": -1}}, "train"),
    "train unknown key": ({"train": {"bogus": 1}}, "train"),
    "train wrong type": ({"train": {"learning_rate": "fast"}}, "train"),
    "train beta1 one": ({"train": {"beta1": 1.0}}, "train"),  # 1 - beta1 ** t is 0
    "train beta2 one": ({"train": {"beta2": 1.0}}, "train"),
    "train adam_eps zero": ({"train": {"adam_eps": 0.0}}, "train"),
    "train seed negative": ({"train": {"seed": -1}}, "train"),
    "loop_build unknown key": ({"loop_build": {"bogus": 1}}, "vis-forward"),
    "frequencies unknown key": ({"frequencies": {"bogus": 1}}, "vis-forward"),
    "frequencies file and keys": ({"frequencies": {"file": "f.csv", "n_radii": 2}},
                                  "vis-forward"),
    "pca wrong type": ({"pca": {"components": "3"}}, "pca"),
    "pca unknown key": ({"pca": {"bogus": 1}}, "pca"),
    "section not an object": ({"nn": [16, 16]}, "train"),
    # every command that reads --config refuses it, also where it does not use the section
    "unused section not an object, gen-dataset": ({"train": [1]}, "gen-dataset"),
    "unused section not an object, train": ({"pca": 5}, "train"),
    "unused section not an object, demo-circle": ({"loop_build": None}, "demo-circle"),
    "unused section not an object, pca": ({"dataset": "simple"}, "pca"),
    "unused section not an object, vis-forward": ({"nn": [16]}, "vis-forward"),
    "seed wrong type": ({"seed": "one"}, "gen-dataset"),
    "seed negative": ({"seed": -1}, "gen-dataset"),
    # the top-level seed only defaults nn.seed and train.seed, both set here
    "seed wrong type, inner seeds set": ({"seed": "one", "nn": {"seed": 1},
                                          "train": {"seed": 1}}, "train"),
    "seed negative, inner seeds set": ({"seed": -1, "nn": {"seed": 1},
                                        "train": {"seed": 1}}, "train"),
    "unknown top-level key": ({"trian": {"epochs": 50}}, "train"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_an_error(workspace, tmp_path, capsys, case):
    cfg, command = BAD_CONFIGS[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, **cfg}))
    argv = {"gen-dataset": ["--scenario", "simple", "--out", tmp_path / "ds"],
            "train": ["--dataset", workspace["ds"], "--kind", "naive", "--epochs", 1,
                      "--out", tmp_path / "m.ckpt"],
            "vis-forward": ["--theta", "0,0,1000,8,5,0,0.05"],
            "pca": ["--dataset", workspace["ds"], "--out", tmp_path / "p"],
            "demo-circle": ["--out", tmp_path / "d"]}[command]
    assert run([command, "--config", path, *argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


#: Each flag that sets a config key: (command, flag, key, file value, flag value).
#: A file value of None leaves the key to the command's default.
FLAG_KEYS = {
    "--scenario": ("gen-dataset", "--scenario", "dataset.scenario", "circle", "simple"),
    "--n-train": ("gen-dataset", "--n-train", "dataset.n_train", 30, 20),
    "--n-val": ("gen-dataset", "--n-val", "dataset.n_val", 6, 4),
    "--n-test": ("gen-dataset", "--n-test", "dataset.n_test", 7, 3),
    "--epochs": ("train", "--epochs", "train.epochs", 2, 1),
    "--batch-size": ("train", "--batch-size", "train.batch_size", 16, 64),
    "--lr": ("train", "--lr", "train.learning_rate", 0.002, 0.005),
    "--patience": ("train", "--patience", "train.patience", 3, 0),
    "--dropout": ("train", "--dropout", "nn.dropout_rate", 0.1, 0.2),
    "--components": ("pca", "--components", "pca.components", 2, 4),
    "demo-circle --epochs": ("demo-circle", "--epochs", "train.epochs", 2, 1),
    "demo-circle --epochs over the default": ("demo-circle", "--epochs", "train.epochs",
                                              None, 1),
}


def _effective(command, key, out):
    """The value of config ``key`` that the ``command`` run writing ``out`` used."""
    section, name = key.split(".")
    if command == "gen-dataset":
        return json.loads((out / "manifest.json").read_text())["config"][name]
    if command == "pca":
        return len(json.loads((out / "variance.json").read_text())["singular_values"])
    model = load_checkpoint(out / "naive.ckpt" if command == "demo-circle" else out)
    used = {"train": model.metadata["train_config"], "nn": model.config.to_dict()}
    return used[section][name]


@pytest.mark.parametrize("with_flag", [False, True])
@pytest.mark.parametrize("case", sorted(FLAG_KEYS))
def test_flag_overrides_its_config_key(workspace, tmp_path, case, with_flag):
    command, flag, key, file_value, flag_value = FLAG_KEYS[case]
    section, name = key.split(".")
    cfg = {"seed": 3, "dataset": {"scenario": "circle", "n_train": 20, "n_val": 5,
                                  "n_test": 5},
           "nn": {"hidden_widths": [4]}, "pca": {},
           "train": {} if command == "demo-circle" else {"epochs": 1}}
    if file_value is not None:
        cfg[section][name] = file_value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / ("m.ckpt" if command == "train" else "out")
    argv = {"gen-dataset": [], "demo-circle": [], "pca": ["--dataset", workspace["ds"]],
            "train": ["--dataset", workspace["ds"], "--kind", "naive"]}[command]
    if with_flag:
        argv += [flag, flag_value]
    assert run([command, "--config", path, *argv, "--out", out]) == 0
    expected = flag_value if with_flag else 100 if file_value is None else file_value
    assert _effective(command, key, out) == expected


def test_help_names_the_config_key_of_each_flag(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--lr TRAIN.LEARNING_RATE" in help_text
    assert "--dropout NN.DROPOUT_RATE" in help_text


REMOVED_OPTIONS = {
    "gen-dataset --text": (["gen-dataset", "--scenario", "circle", "--seed", "1",
                            "--out", "ds"], ["--text"]),
    "gen-dataset --jobs": (["gen-dataset", "--scenario", "circle", "--seed", "1",
                            "--out", "ds"], ["--jobs", "2"]),
    "evaluate --seed": (["evaluate", "--dataset", "ds", "--model", "m.ckpt",
                         "--out", "e"], ["--seed", "1"]),
    "evaluate --config": (["evaluate", "--dataset", "ds", "--model", "m.ckpt",
                           "--out", "e"], ["--config", "c.json"]),
    "predict --seed": (["predict", "--model", "m.ckpt", "--input", "v.csv"],
                       ["--seed", "1"]),
    "predict --config": (["predict", "--model", "m.ckpt", "--input", "v.csv"],
                         ["--config", "c.json"]),
    "pca --seed": (["pca", "--dataset", "ds", "--out", "p"], ["--seed", "1"]),
    "vis-forward --seed": (["vis-forward", "--theta", "0,0,1000,8,0,0,0"],
                           ["--seed", "1"]),
}


@pytest.mark.parametrize("case", sorted(REMOVED_OPTIONS))
def test_removed_option_rejected(case):
    argv, removed = REMOVED_OPTIONS[case]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + removed)


class TestOneParserPerProcess:
    @pytest.fixture
    def vis_path(self, workspace, tmp_path):
        from looptopo.data import load_dataset
        path = tmp_path / "v.csv"
        np.savetxt(path, load_dataset(workspace["ds"]).clean[:2], delimiter=",")
        return path

    def test_handler_is_looked_up_at_call_time(self, workspace, vis_path, monkeypatch):
        argv = ["predict", "--model", workspace["emb"], "--input", vis_path]
        assert run(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_predict", lambda args: calls.append(args.input) or 7)
        assert run(argv) == 7
        assert calls == [str(vis_path)]

    def test_calls_in_one_process_match_fresh_parsers(self, workspace, vis_path, tmp_path,
                                                      capsys, monkeypatch):
        pred, img, img_default = tmp_path / "pred.csv", tmp_path / "img.csv", tmp_path / "d.csv"
        predict = ["predict", "--model", workspace["emb"], "--input", vis_path]
        calls = [["predict", "--model", workspace["emb"]],
                 predict + ["--out", pred],
                 predict + ["--render", img, "--render-n", 16],
                 predict,
                 predict + ["--render", img_default]]

        def outcome(argv):
            for path in (pred, img, img_default):
                path.unlink(missing_ok=True)
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            return rc, captured.out, captured.err, {
                p.name: p.read_bytes() for p in (pred, img, img_default) if p.exists()}

        prog_of_each_parser = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            prog_of_each_parser.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert prog_of_each_parser.count("looptopo") == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [rc for rc, *_ in shared] == [2, 0, 0, 0, 0]
        assert [sorted(files) for *_, files in shared] == [[], ["pred.csv"], ["img.csv"], [],
                                                           ["d.csv"]]
        rows = len(shared[-1][3]["d.csv"].splitlines()) - 1
        assert rows == 128 * 128


class TestVisForward:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_frequency_is_refused(self, tmp_path, capsys):
        # u^2 overflows; unguarded, that is a RuntimeWarning and a visibility of 0
        freq_file = _written(tmp_path / "f.csv", b"u,v\n0.01,0.02\n1e300,0\n")
        out = tmp_path / "vis.csv"
        assert run([*_vis_forward_with_frequencies(freq_file), "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: frequency row 1: u^2 + v^2 is not finite")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_is_refused(self, tmp_path, capsys):
        # 2 pi x_c u overflows where the envelope is about 1e-99 of the flux, not 0;
        # unguarded, that is a RuntimeWarning and nan visibilities
        freq_file = _written(tmp_path / "f.csv", b"u,v\n1,0\n")
        out = tmp_path / "vis.csv"
        argv = _vis_forward_with_frequencies(freq_file)
        argv[argv.index("--theta") + 1] = "1e308,0,1000,8,5,30,0.05"
        assert run([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: row 0: a phase or the envelope is out of floating-point range")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta, u", [("1e308,0,1000,8,5,30,0.05", "10"),
                                          ("0,0,1000,1e77,1e77,0,0", "1e154")])
    def test_overflow_under_a_zero_envelope_writes_zeros(self, tmp_path, theta, u):
        # the centre phase, then the phase along the axis, overflow where the
        # envelope underflows to 0: the visibility is 0
        freq_file = _written(tmp_path / "f.csv", f"u,v\n{u},0\n".encode())
        out = tmp_path / "vis.csv"
        argv = _vis_forward_with_frequencies(freq_file)
        argv[argv.index("--theta") + 1] = theta
        assert run([*argv, "--out", out]) == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        assert rows[0] == "u,v,re,im"
        assert [float(x) for x in rows[1].split(",")[2:]] == [0.0, 0.0]

    def test_zero_frequency_equals_flux(self, tmp_path):
        freq_file = tmp_path / "f.csv"
        freq_file.write_text("u,v\n0.0,0.0\n0.01,0.02\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1,
                                   "frequencies": {"file": str(freq_file)}}))
        out = tmp_path / "vis.csv"
        assert run(["vis-forward", "--config", cfg,
                    "--theta", "0,0,1000,8,5,0,0.05", "--out", out]) == 0
        rows = [r for r in out.read_text().strip().split("\n")
                if not r.startswith("#")]
        assert rows[0] == "u,v,re,im"
        assert out.read_text().startswith("# config_hash: ")
        first = [float(v) for v in rows[1].split(",")]
        assert abs(first[2] - 1000.0) < 1e-9 * 1000
        assert abs(first[3]) < 1e-9

    def test_oracle_agrees_with_closed_form(self, tmp_path):
        out_cf = tmp_path / "cf.csv"
        out_q = tmp_path / "q.csv"
        theta = "0,0,1000,8,3,40,0.02"
        assert run(["vis-forward", "--theta", theta,
                    "--out", out_cf]) == 0
        assert run(["vis-forward", "--theta", theta,
                    "--oracle", "--out", out_q]) == 0
        cf = np.loadtxt(out_cf, delimiter=",", skiprows=2)
        q = np.loadtxt(out_q, delimiter=",", skiprows=2)
        scale = np.abs(cf[:, 2] + 1j * cf[:, 3]).max()
        err = np.abs((cf[:, 2] - q[:, 2]) + 1j * (cf[:, 3] - q[:, 3]))
        assert err.max() / scale < 1e-5

    def test_eps_zero_matches_gaussian(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["vis-forward", "--theta", "0,0,1000,8,0,0,0",
                    "--out", out]) == 0
        import math
        from looptopo.forward_model import default_frequencies, fwhm_to_std
        fs = default_frequencies()
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        s = fwhm_to_std(8.0)
        expected = 1000 * np.exp(-2 * math.pi ** 2 * s ** 2 * (fs.u ** 2 + fs.v ** 2))
        np.testing.assert_allclose(data[:, 2], expected, atol=1e-9 * 1000)

    def test_writes_the_batch_kernel_row(self, tmp_path):
        from looptopo.forward_model import (default_frequencies, reals_to_vis,
                                            visibilities_closed_form_batch)
        out = tmp_path / "vis.csv"
        assert run(["vis-forward", "--theta", "3,-2,1200,10,3,140,-0.03",
                    "--out", out]) == 0
        theta = np.array([3, -2, 1200, 10, 3, np.radians(140.0), -0.03])
        expected = reals_to_vis(
            visibilities_closed_form_batch(theta[None], default_frequencies())[0])
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        np.testing.assert_array_equal(data[:, 2], expected.real)
        np.testing.assert_array_equal(data[:, 3], expected.imag)

    def test_writes_the_dataset_rows(self, tmp_path):
        # a dataset row's external parameters give back its clean bytes
        ds_dir = tmp_path / "ds"
        assert run(["gen-dataset", "--scenario", "complete", "--seed", 5, "--n-train", 2000,
                    "--n-val", 500, "--n-test", 500, "--out", ds_dir]) == 0
        ds = load_dataset(ds_dir)
        for i in range(0, 3000, 250):
            theta = ",".join(repr(float(v)) for v in ds.params_disk[i])
            assert run(["vis-forward", f"--theta={theta}", "--out", tmp_path / "v.csv"]) == 0
            data = np.loadtxt(tmp_path / "v.csv", delimiter=",", skiprows=2)
            np.testing.assert_array_equal(np.concatenate([data[:, 2], data[:, 3]]),
                                          ds.clean[i])

    @pytest.mark.parametrize("c", ["1e20", "1e30", "1e308"])
    def test_huge_curvature_is_finite(self, tmp_path, c):
        assert run(["vis-forward", "--theta", f"0,0,1000,8,5,30,{c}",
                    "--out", tmp_path / "v.csv"]) == 0
        assert np.all(np.isfinite(np.loadtxt(tmp_path / "v.csv", delimiter=",", skiprows=2)))

    @pytest.mark.parametrize("theta", ["0,0,1000,1e200,1e200,30,0",
                                       "0,0,1000,1e-310,5,30,1e308",
                                       "0,0,1000,8,1e300,30,0.05",
                                       "0,0,1000,1e200,1e200,30,0.05",
                                       "0,0,1000,1e-170,0,0,0"])
    def test_layout_out_of_range_is_an_error(self, tmp_path, capsys, theta):
        # finite parameters whose loop layout overflows or underflows into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["vis-forward", f"--theta={theta}", "--out", tmp_path / "v.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: row 0: ")
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("theta", ["0,0,1,1e-300,0,30,0.05", "0,0,1,1e308,0,30,0.05"])
    def test_oracle_density_out_of_range_is_an_error(self, tmp_path, capsys, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["vis-forward", "--oracle", f"--theta={theta}",
                        "--out", tmp_path / "v.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: row 0: ")
        assert not (tmp_path / "v.csv").exists()

    def test_bad_theta_rejected(self, capsys):
        assert run(["vis-forward", "--theta", "1,2,3"]) == 1
        assert "7" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["0,0,1000,8,5,30", "0,0,1000,eight,5,30,0.05",
                                       "0,0,1000,nan,5,30,0.05",
                                       "0,0,1000,8,5,30,0.05\n0,0,1000,8,5,30,0.05"])
    def test_theta_is_one_row_of_seven_numbers(self, tmp_path, capsys, theta):
        assert run(["vis-forward", f"--theta={theta}", "--out", tmp_path / "v.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(--theta" in err
        assert not (tmp_path / "v.csv").exists()

    def test_bad_number_in_theta_is_named(self, capsys):
        # a typo makes the row a bad row, not a header over no data rows
        assert run(["vis-forward", "--theta", "0,0,x,8,5,30,0.05"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad number") and "'x'" in err and "(--theta:1)" in err


class TestDemoCircle:
    def test_tiny_demo_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 13,
            "dataset": {"n_train": 300, "n_val": 80, "n_test": 80},
            "nn": {"hidden_widths": [24, 24]},
            "train": {"epochs": 6, "batch_size": 32, "learning_rate": 0.003}}))
        out = tmp_path / "demo"
        assert run(["demo-circle", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "seam_summary.json").read_text())
        assert {"naive_seam_max_raw_error_rad", "embedded_mean_circular_error_rad",
                "config_hash"} <= set(summary)
        header = read_csv_header(out / "scatter.csv")
        assert "theta_naive_deg" in header and "theta_embedded_deg" in header
        with open(out / "scatter.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 2000
        assert (out / "naive.ckpt").exists() and (out / "embedded.ckpt").exists()

    def test_demo_deterministic(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 13,
            "dataset": {"n_train": 120, "n_val": 40, "n_test": 40},
            "nn": {"hidden_widths": [16]},
            "train": {"epochs": 3, "batch_size": 32}}))
        for name in ("d1", "d2"):
            assert run(["demo-circle", "--config", cfg, "--out", tmp_path / name]) == 0
        assert (tmp_path / "d1" / "seam_summary.json").read_bytes() == \
               (tmp_path / "d2" / "seam_summary.json").read_bytes()
        assert (tmp_path / "d1" / "scatter.csv").read_bytes() == \
               (tmp_path / "d2" / "scatter.csv").read_bytes()

    @staticmethod
    def _demo(tmp_path, name, **sections):
        cfg = tmp_path / f"{name}.json"
        dataset = {"n_train": 40, "n_val": 10, "n_test": 10, **sections.pop("dataset", {})}
        cfg.write_text(json.dumps({"seed": 3, "dataset": dataset,
                                   "nn": {"hidden_widths": [8], **sections.pop("nn", {})}}))
        return run(["demo-circle", "--config", cfg, "--epochs", 1, "--out", tmp_path / name])

    def test_scenario_circle_accepted(self, tmp_path):
        assert self._demo(tmp_path, "d", dataset={"scenario": "circle"}) == 0

    def test_n_samples_accepted(self, tmp_path, capsys):
        assert self._demo(tmp_path, "d", dataset={"n_samples": 60}) == 0
        assert self._demo(tmp_path, "e", dataset={"n_samples": 61}) == 1
        assert "n_samples" in capsys.readouterr().err

    def test_nn_seed_honoured(self, tmp_path):
        for seed in (5, 9):
            assert self._demo(tmp_path, f"s{seed}", nn={"seed": seed}) == 0
        assert (tmp_path / "s5" / "naive.ckpt").read_bytes() != \
               (tmp_path / "s9" / "naive.ckpt").read_bytes()

    def test_other_scenario_rejected(self, tmp_path, capsys):
        assert self._demo(tmp_path, "d", dataset={"scenario": "simple"}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "circle" in err
        assert not (tmp_path / "d").exists()
