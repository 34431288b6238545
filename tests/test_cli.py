import json
import os
import shutil

import numpy as np
import pytest

from looptopo.cli import build_parser, main


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

    def test_text_mode(self, tmp_path):
        assert run(["gen-dataset", "--scenario", "circle", "--seed", "5",
                    "--n-train", 30, "--n-val", 10, "--n-test", 10,
                    "--text", "--out", tmp_path / "t"]) == 0
        assert (tmp_path / "t" / "params.csv").exists()

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
        assert "line" in capsys.readouterr().err or True

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

    def test_non_finite_value_rejected(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text(",".join(["1.0"] * 59 + ["nan"]) + "\n")
        assert run(["predict", "--model", workspace["emb"], "--input", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"{bad}:1" in captured.err

    def test_render_complete_model_in_radians(self, tmp_path):
        from looptopo.data import load_dataset
        from looptopo.embeddings import LoopParams
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
        theta = LoopParams.from_array(predict(load_checkpoint(ckpt), row)[0])
        grid = GridSpec.centered(abs(theta.x_c) + abs(theta.y_c) + 8.0 * theta.sigma, 16)
        written = np.loadtxt(img_path, delimiter=",", skiprows=1)[:, 2]
        np.testing.assert_allclose(written, eval_image(theta, grid).ravel(),
                                   rtol=1e-9, atol=1e-12)


def _manifest_edited(workspace, tmp_path, edit):
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    manifest = ds / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    return ["evaluate", "--dataset", ds, "--model", workspace["emb"], "--out", tmp_path / "e"]


UNREADABLE_INPUTS = {
    "missing_checkpoint": lambda ws, tmp: [
        "predict", "--model", tmp / "missing.ckpt", "--input", tmp / "v.csv"],
    "missing_dataset": lambda ws, tmp: [
        "evaluate", "--dataset", tmp / "missing_dir", "--model", ws["emb"],
        "--out", tmp / "e"],
    "truncated_manifest": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: text[:len(text) // 2]),
    "missing_array_file": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: text.replace("noisy.bin", "gone.bin")),
    "manifest_without_arrays": lambda ws, tmp: _manifest_edited(
        ws, tmp, lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != "arrays"})),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_an_error(workspace, tmp_path, capsys, case):
    assert run(UNREADABLE_INPUTS[case](workspace, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error:")


REMOVED_OPTIONS = {
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


class TestVisForward:
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

    def test_bad_theta_rejected(self, capsys):
        assert run(["vis-forward", "--theta", "1,2,3"]) == 1
        assert "7" in capsys.readouterr().err


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
