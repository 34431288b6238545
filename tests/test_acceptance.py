"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The two scenario trainings take about two minutes each;
the whole module finishes in 255-280 s on 2 cores.
"""


import json
import math
import os
import time

import numpy as np
import pytest

from looptopo.analysis import (nearest_rank_quantile, normalized_abs_error, pca_fit,
                               seam_distance)
from looptopo.cli import main as cli_main
from looptopo.data import (TEST, SamplingConfig, generate_dataset,
                           internal_intervals)
from looptopo.embeddings import (EPS_TOL, gamma, gamma_g,
                                 gamma_g_inv, gamma_inv, moebius_distance)
from looptopo.forward_model import (FrequencySet, default_frequencies,
                                    visibilities_closed_form,
                                    visibilities_quadrature_oracle)
from looptopo.mlp import (MlpConfig, TrainConfig, init_mlp, loss_and_grad)
from looptopo.regularizer import predict, train_embedded, train_naive

PI = math.pi
FREQS = default_frequencies()


def report(name, ok, detail, started):
    line = f"{'PASS' if ok else 'FAIL'}: {name}: {detail} ({time.time() - started:.1f}s)"
    print("\n" + line, flush=True)
    assert ok, line


def random_complete_params(rng, n):
    thetas = np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                       rng.uniform(500, 5000, n), rng.uniform(4, 20, n),
                       rng.uniform(0.0, 5, n), rng.uniform(0, PI, n),
                       rng.uniform(-0.05, 0.05, n)], axis=1)
    circ = thetas[:, 4] < 0.05
    thetas[circ, 4:7] = 0.0
    return thetas


def test_forward_model_oracle_equivalence():
    # 20 random loops: closed form vs 1024^2 trapezoid quadrature with 10
    # sigma padding; per-visibility error measured against the data-vector
    # scale max_j |V_j| (individual |V_j| underflow at high sigma * r)
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for theta in random_complete_params(rng, 20):
        cf = visibilities_closed_form(theta, FREQS)
        q = visibilities_quadrature_oracle(theta, FREQS)
        worst = max(worst, float(np.max(np.abs(cf - q)) / np.max(np.abs(cf))))
    elapsed = time.time() - started
    report("forward-model oracle equivalence",
           worst < 1e-5 and elapsed < 120,
           f"max relative error {worst:.2e} (tol 1e-5)", started)


def test_flux_shift_rotation_invariants():
    started = time.time()
    rng = np.random.default_rng(77)
    zero = FrequencySet(np.array([[0.0, 0.0]]))

    flux_worst = 0.0
    for theta in random_complete_params(rng, 100):
        flux = theta[2]
        v0 = visibilities_closed_form(theta, zero)[0]
        flux_worst = max(flux_worst, abs(v0 - flux) / flux)

    shift_worst = 0.0
    for theta in random_complete_params(rng, 100):
        dx, dy = rng.uniform(-20, 20, 2)
        shifted = theta.copy()
        shifted[0] += dx
        shifted[1] += dy
        v = visibilities_closed_form(theta, FREQS)
        vs = visibilities_closed_form(shifted, FREQS)
        phase = np.exp(2j * PI * (dx * FREQS.u + dy * FREQS.v))
        shift_worst = max(shift_worst,
                          float(np.max(np.abs(vs - v * phase)) / theta[2]))

    rot_worst = 0.0
    for theta in random_complete_params(rng, 100):
        theta[0] = theta[1] = 0.0  # rotation acts about the source center
        if theta[4] == 0.0:
            theta[4], theta[5], theta[6] = 2.0, 1.0, 0.01
        a0 = rng.uniform(0, PI)
        alpha2, c2 = theta[5] + a0, theta[6]
        if alpha2 >= PI:
            alpha2, c2 = alpha2 - PI, -c2
        rotated = theta.copy()
        rotated[5], rotated[6] = alpha2, c2
        rot = np.array([[math.cos(-a0), -math.sin(-a0)],
                        [math.sin(-a0), math.cos(-a0)]])
        v_rot = visibilities_closed_form(rotated, FREQS)
        v_ref = visibilities_closed_form(theta, FrequencySet(FREQS.uv @ rot.T))
        rot_worst = max(rot_worst, float(np.max(np.abs(v_rot - v_ref)) / theta[2]))

    ok = flux_worst <= 1e-9 and shift_worst <= 1e-12 and rot_worst <= 1e-10
    report("flux/shift/rotation invariants", ok,
           f"flux {flux_worst:.2e} (1e-9), shift {shift_worst:.2e} (1e-12), "
           f"rotation {rot_worst:.2e} (1e-10)", started)


def test_embedding_round_trips():
    started = time.time()
    a = np.linspace(0, PI, 1801, endpoint=False)
    c = np.linspace(-0.05, 0.05, 101)
    A, C = np.meshgrid(a, c, indexing="ij")
    ai, ci = gamma_inv(gamma(A, C))
    grid_err = max(float(np.max(np.abs(ai - A))), float(np.max(np.abs(ci - C))))

    rng = np.random.default_rng(5)
    n = 1000
    thetas = np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                       rng.uniform(500, 5000, n), rng.uniform(4, 20, n),
                       rng.uniform(2 * EPS_TOL, 5, n), rng.uniform(0, PI, n),
                       rng.uniform(-0.05, 0.05, n)], axis=1)
    g_err = float(np.max(np.abs(gamma_g_inv(gamma_g(thetas)) - thetas)))

    seam_err = max(float(np.linalg.norm(gamma(PI - 1e-6, cc) - gamma(0.0, -cc)))
                   for cc in (-0.05, 0.0, 0.05))

    ok = grid_err < 1e-9 and g_err < 1e-9 and seam_err < 1e-5
    report("embedding round trips", ok,
           f"grid {grid_err:.2e} (1e-9), gamma_g {g_err:.2e} (1e-9), "
           f"seam {seam_err:.2e} (1e-5)", started)


def test_gradient_correctness():
    # backprop vs double-precision central differences on 20 random nets
    started = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        widths = tuple(int(w) for w in rng.integers(8, 24, size=rng.integers(1, 4)))
        cfg = MlpConfig(input_dim=int(rng.integers(4, 12)), hidden_widths=widths,
                        output_dim=int(rng.integers(2, 6)), dtype="float64",
                        seed=seed)
        model = init_mlp(cfg)
        x = rng.normal(size=(8, cfg.input_dim))
        y = rng.normal(size=(8, cfg.output_dim))
        _, grads = loss_and_grad(model, x, y)
        h = 1e-5
        for li in range(model.n_layers):
            flat = model.weights[li].reshape(-1)
            for k in np.linspace(0, flat.size - 1, 5).astype(int):
                orig = flat[k]
                flat[k] = orig + h
                lp, _ = loss_and_grad(model, x, y)
                flat[k] = orig - h
                lm, _ = loss_and_grad(model, x, y)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                bp = grads["weights"][li].reshape(-1)[k]
                worst = max(worst, abs(fd - bp) / max(abs(fd) + abs(bp), 1e-8))
    elapsed = time.time() - started
    report("gradient correctness", worst < 1e-5 and elapsed < 60,
           f"max relative deviation {worst:.2e} (tol 1e-5)", started)


def test_circle_demo(tmp_path):
    # the naive regressor must break at the seam while the embedded one
    # stays accurate everywhere
    started = time.time()
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps({
        "seed": 1301, "dataset": {"n_train": 5000, "n_val": 1000, "n_test": 1000},
        "nn": {"hidden_widths": [64, 64, 64]},
        "train": {"epochs": 60, "batch_size": 64, "learning_rate": 3e-3, "patience": 0}}))
    assert cli_main(["demo-circle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "seam_summary.json").read_text())
    naive_max = summary["naive_seam_max_raw_error_rad"]
    embedded_mean = summary["embedded_mean_circular_error_rad"]

    elapsed = time.time() - started
    ok = naive_max > PI / 2 and embedded_mean < 0.02 and elapsed < 300
    report("circle demo seam behavior", ok,
           f"naive seam max raw error {naive_max:.3f} rad (> pi/2), "
           f"embedded mean circular error {embedded_mean:.4f} rad (< 0.02)",
           started)


@pytest.mark.slow
def test_simple_scenario():
    started = time.time()
    cfg = SamplingConfig.default("simple", 101, n_train=20000, n_val=5000,
                                 n_test=5000)
    ds = generate_dataset(cfg)

    emb_cfg = MlpConfig(input_dim=60, hidden_widths=(256,) * 4, output_dim=3,
                        seed=7)
    emb, _ = train_embedded(ds, nn_cfg=emb_cfg,
                            train_cfg=TrainConfig(epochs=100, batch_size=128,
                                                  learning_rate=1e-3,
                                                  patience=15, seed=7))
    nai_cfg = MlpConfig(input_dim=60, hidden_widths=(256,) * 4, output_dim=2,
                        seed=7)
    nai, _ = train_naive(ds, nn_cfg=nai_cfg,
                         train_cfg=TrainConfig(epochs=150, batch_size=128,
                                               learning_rate=1e-3,
                                               patience=15, seed=7))

    truth = ds.params[ds.mask(TEST)][:, 5:7]
    x = ds.inputs(TEST)
    pred_emb = predict(emb, x)
    pred_nai = predict(nai, x)

    q95_all = nearest_rank_quantile(moebius_distance(pred_emb, truth), 0.95)

    band = seam_distance("simple", truth) <= np.radians(2.0)
    naive_band_max = float(np.max(np.abs(pred_nai[band][:, 0] - truth[band][:, 0])))
    emb_band_q95 = nearest_rank_quantile(moebius_distance(pred_emb[band], truth[band]),
                                         0.95)

    elapsed = time.time() - started
    ok = (q95_all < 0.1 and naive_band_max >= 5.0 * emb_band_q95
          and elapsed < 1800)
    report("simple scenario", ok,
           f"embedded moebius q95 {q95_all:.4f} (< 0.1); naive seam-band max "
           f"{naive_band_max:.3f} rad vs 5 x embedded band q95 "
           f"{5 * emb_band_q95:.4f} ({band.sum()} band samples)", started)


@pytest.mark.slow
def test_complete_scenario():
    started = time.time()
    cfg = SamplingConfig.default("complete", 202, n_train=40000, n_val=10000,
                                 n_test=10000)
    ds = generate_dataset(cfg)
    nn_cfg = MlpConfig(input_dim=60, hidden_widths=(256,) * 6, output_dim=8,
                       dropout_rate=0.1, seed=7)
    model, _ = train_embedded(ds, nn_cfg=nn_cfg,
                              train_cfg=TrainConfig(epochs=120, batch_size=256,
                                                    learning_rate=1e-3,
                                                    patience=20, seed=7))
    truth = ds.params[ds.mask(TEST)]
    pred = predict(model, ds.inputs(TEST))
    iv = internal_intervals(ds.config)
    q75 = {name: nearest_rank_quantile(
        normalized_abs_error(pred[:, j], truth[:, j], iv[name]), 0.75)
        for j, name in enumerate(("x_c", "y_c", "flux", "sigma", "eps"))}

    elapsed = time.time() - started
    ok = (q75["x_c"] < 0.15 and q75["y_c"] < 0.15 and q75["flux"] < 0.15
          and q75["sigma"] < 0.25 and q75["eps"] < 0.25 and elapsed < 7200)
    report("complete scenario", ok,
           "q75 normalized errors " +
           ", ".join(f"{k}={v:.3f}" for k, v in q75.items()) +
           " (x_c/y_c/flux < 0.15, sigma/eps < 0.25)", started)


def test_pca_sanity(tmp_path):
    started = time.time()
    cfg = SamplingConfig.default("simple", 404, n_train=5000, n_val=1, n_test=1)
    ds = generate_dataset(cfg)
    model = pca_fit(ds.inputs(), k=3)
    gram = model.axes @ model.axes.T
    ortho = float(np.max(np.abs(gram - np.eye(3))))
    ratios = model.explained_variance_ratio
    monotone = bool(np.all(np.diff(ratios) <= 1e-15))

    out = tmp_path / "pca"
    ds_dir = tmp_path / "ds"
    from looptopo.data import save_dataset
    save_dataset(ds, ds_dir)
    assert cli_main(["pca", "--dataset", str(ds_dir),
                     "--out", str(out)]) == 0
    with open(out / "projections.csv") as fh:
        header = fh.readline().strip().split(",")
        n_rows = sum(1 for _ in fh)

    elapsed = time.time() - started
    ok = (ortho < 1e-10 and monotone
          and header == ["pc1", "pc2", "pc3", "alpha_deg", "c"]
          and n_rows == ds.n_samples and elapsed < 60)
    report("PCA sanity", ok,
           f"orthonormality {ortho:.1e} (1e-10), ratios non-increasing "
           f"{monotone}, header {header}", started)


def test_determinism(tmp_path):
    started = time.time()
    ds_args = ["gen-dataset", "--scenario", "simple", "--seed", "31",
               "--n-train", "200", "--n-val", "50", "--n-test", "50"]
    for name in ("d1", "d2"):
        assert cli_main(ds_args + ["--out", str(tmp_path / name)]) == 0
    ds_same = all((tmp_path / "d1" / f).read_bytes() ==
                  (tmp_path / "d2" / f).read_bytes()
                  for f in os.listdir(tmp_path / "d1"))

    train_args = ["train", "--dataset", str(tmp_path / "d1"), "--kind",
                  "embedded", "--seed", "31", "--width", "32", "--depth", "2",
                  "--epochs", "4"]
    for name in ("m1", "m2"):
        assert cli_main(train_args + ["--out", str(tmp_path / f"{name}.ckpt"),
                                      "--history",
                                      str(tmp_path / f"{name}.csv")]) == 0
    train_same = ((tmp_path / "m1.ckpt").read_bytes() ==
                  (tmp_path / "m2.ckpt").read_bytes() and
                  (tmp_path / "m1.csv").read_bytes() ==
                  (tmp_path / "m2.csv").read_bytes())

    report("determinism", ds_same and train_same,
           f"dataset bytes identical {ds_same}, "
           f"checkpoint+history bytes identical {train_same}", started)
