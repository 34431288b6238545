import math
import tracemalloc
import warnings

import numpy as np
import pytest

from looptopo.data import (TEST, SamplingConfig, generate_dataset,
                           internal_intervals)
from looptopo.diagnostics import Diagnostics
from looptopo.embeddings import gamma, gamma_g
from looptopo.errors import ValidationError
from looptopo.mlp import (MlpConfig, TrainConfig, init_mlp, load_checkpoint,
                          save_checkpoint)
from looptopo.regularizer import (build_targets, check_model_consistency,
                                  output_dim, predict, train_embedded,
                                  train_naive)

PI = math.pi


def tiny_dataset(scenario, seed=9):
    cfg = SamplingConfig.default(scenario, seed, n_train=150, n_val=40, n_test=40)
    return generate_dataset(cfg)


def tiny_nn(dataset, kind):
    task = dataset.config.scenario
    return MlpConfig(input_dim=dataset.data_dim, hidden_widths=(24, 24),
                     output_dim=output_dim(kind, task), seed=1)


TINY_TRAIN = TrainConfig(epochs=15, batch_size=32, learning_rate=3e-3,
                         patience=0, seed=1)


class TestOutputDims:
    @pytest.mark.parametrize("kind,task,dim", [
        ("naive", "circle", 1), ("naive", "simple", 2), ("naive", "complete", 7),
        ("embedded", "circle", 2), ("embedded", "simple", 3),
        ("embedded", "complete", 8)])
    def test_table(self, kind, task, dim):
        assert output_dim(kind, task) == dim

    def test_unknown_combination(self):
        with pytest.raises(ValidationError):
            output_dim("naive", "torus")


class TestTargets:
    def test_circle_targets(self):
        ds = tiny_dataset("circle")
        naive = build_targets("naive", "circle", ds.params)
        embedded = build_targets("embedded", "circle", ds.params)
        np.testing.assert_array_equal(naive[:, 0], ds.params[:, 0])
        np.testing.assert_allclose(embedded,
                                   np.stack([np.cos(ds.params[:, 0]),
                                             np.sin(ds.params[:, 0])], axis=1))

    def test_simple_targets(self):
        ds = tiny_dataset("simple")
        naive = build_targets("naive", "simple", ds.params)
        embedded = build_targets("embedded", "simple", ds.params)
        np.testing.assert_array_equal(naive, ds.params[:, 5:7])
        np.testing.assert_allclose(embedded, gamma(ds.params[:, 5], ds.params[:, 6]))

    def test_complete_targets(self):
        ds = tiny_dataset("complete")
        embedded = build_targets("embedded", "complete", ds.params)
        np.testing.assert_allclose(embedded, gamma_g(ds.params))
        assert embedded.shape == (ds.n_samples, 8)

    @pytest.mark.parametrize("kind", ["naive", "embedded"])
    def test_parameters_that_are_not_real_numbers_refused(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad, rule in (([[1.0] * 7, [1.0]], "numeric"), ([["a"] * 7], "numeric"),
                              (np.ones((2, 7)) + 1j, "real")):
                with pytest.raises(ValidationError, match=f"parameters must be {rule}"):
                    build_targets(kind, "complete", bad)


class TestTrainedModels:
    def test_embedded_circle_learns(self):
        ds = tiny_dataset("circle")
        model, history = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                        train_cfg=TINY_TRAIN)
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert model.metadata["kind"] == "embedded"
        assert model.metadata["task"] == "circle"
        assert model.metadata["embedding"] == "circle"
        pred = predict(model, ds.inputs(TEST))
        assert pred.shape == (40, 1)
        assert np.all(pred >= 0) and np.all(pred < 2 * PI)

    def test_naive_model_metadata_and_clamping(self):
        ds = tiny_dataset("simple")
        model, _ = train_naive(ds, nn_cfg=tiny_nn(ds, "naive"),
                               train_cfg=TINY_TRAIN)
        assert model.metadata["embedding"] == "identity"
        diag = Diagnostics()
        wild = np.random.default_rng(0).normal(scale=1e4, size=(20, 60))
        pred = predict(model, wild, diag=diag)
        iv = internal_intervals(ds.config)
        assert np.all(pred[:, 0] >= iv["alpha"][0])
        assert np.all(pred[:, 0] < iv["alpha"][1])
        assert np.all(pred[:, 1] >= iv["c"][0]) and np.all(pred[:, 1] <= iv["c"][1])

    def test_embedded_complete_pipeline(self):
        ds = tiny_dataset("complete")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        tf = model.metadata["target_transform"]
        assert tf["type"] == "zscore" and len(tf["scale"]) == 8
        pred = predict(model, ds.inputs(TEST))
        assert pred.shape == (40, 7)
        assert np.all(pred[:, 2] > 0)          # flux
        assert np.all(pred[:, 3] > 0)          # sigma
        assert np.all(pred[:, 4] >= 0)         # eps
        assert np.all((pred[:, 5] >= 0) & (pred[:, 5] < PI))

    def test_naive_complete_minmax_round_trip(self):
        ds = tiny_dataset("complete")
        model, _ = train_naive(ds, nn_cfg=tiny_nn(ds, "naive"),
                               train_cfg=TINY_TRAIN)
        tf = model.metadata["target_transform"]
        assert tf["type"] == "minmax"
        pred = predict(model, ds.inputs(TEST))
        iv = internal_intervals(ds.config)
        for j, name in enumerate(("x_c", "y_c", "flux", "sigma", "eps", "alpha", "c")):
            lo, hi = iv[name]
            assert np.all(pred[:, j] >= lo) and np.all(pred[:, j] <= hi)

    def test_output_dim_mismatch_rejected(self):
        ds = tiny_dataset("circle")
        bad = MlpConfig(input_dim=2, hidden_widths=(8,), output_dim=3, seed=0)
        with pytest.raises(ValidationError):
            train_embedded(ds, nn_cfg=bad, train_cfg=TINY_TRAIN)

    @pytest.mark.parametrize("trainer", [train_naive, train_embedded])
    def test_init_supplies_starting_weights(self, trainer):
        ds = tiny_dataset("simple")
        kind = "naive" if trainer is train_naive else "embedded"
        nn_cfg = tiny_nn(ds, kind)
        still = TrainConfig(epochs=2, batch_size=32, learning_rate=1e-12, patience=0, seed=1)
        start, _ = trainer(ds, nn_cfg=nn_cfg, train_cfg=TINY_TRAIN)
        fresh, _ = trainer(ds, nn_cfg=nn_cfg, train_cfg=still)
        resumed, _ = trainer(ds, nn_cfg=nn_cfg, train_cfg=still, init=start)
        for ref, model in ((init_mlp(nn_cfg), fresh), (start, resumed)):
            for a, b in zip(ref.weights + ref.biases, model.weights + model.biases):
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-6)
        # the trained weights are far from init_mlp's, so the check tells them apart
        assert np.abs(start.weights[0] - init_mlp(nn_cfg).weights[0]).max() > 1e-3

    def test_init_with_other_config_rejected(self):
        ds = tiny_dataset("circle")
        other = init_mlp(MlpConfig(input_dim=2, hidden_widths=(8,), output_dim=2, seed=5))
        with pytest.raises(ValidationError):
            train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"), train_cfg=TINY_TRAIN,
                           init=other)

    def test_input_dim_mismatch_rejected(self):
        ds = tiny_dataset("circle")
        bad = MlpConfig(input_dim=60, hidden_widths=(8,), output_dim=2, seed=0)
        with pytest.raises(ValidationError):
            train_embedded(ds, nn_cfg=bad, train_cfg=TINY_TRAIN)


class TestPredictTotality:
    def test_embedded_complete_total_on_any_finite_input(self):
        ds = tiny_dataset("complete")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        rng = np.random.default_rng(1)
        extremes = np.vstack([rng.normal(scale=s, size=(10, 60))
                              for s in (0.0, 1.0, 1e6, 1e12)])
        diag = Diagnostics()
        pred = predict(model, extremes, diag=diag)
        assert np.all(np.isfinite(pred))
        assert np.all(pred[:, 2] > 0) and np.all(pred[:, 3] > 0)
        assert np.all(pred[:, 4] >= 0)

    def test_single_vector_round_trip(self):
        ds = tiny_dataset("simple")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        single = predict(model, ds.inputs(TEST)[0])
        batch = predict(model, ds.inputs(TEST)[:1])
        np.testing.assert_array_equal(single, batch[0])

    def test_non_finite_input_rejected(self):
        ds = tiny_dataset("simple")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        row = ds.inputs(TEST)[0].copy()
        row[3] = np.inf
        with pytest.raises(ValidationError):
            predict(model, row)
        # not numeric, or ragged: refused before numpy's conversion fails
        for bad in (["a"] * 60, [[1.0] * 60, [1.0] * 59]):
            with pytest.raises(ValidationError, match="input must be numeric"):
                predict(model, bad)
        # nor answered as the real part of complex rows, with only a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (row + 5j, ds.inputs(TEST)[:3] + 0j, [*row[:59], 1j]):
                with pytest.raises(ValidationError, match="input must be real"):
                    predict(model, bad)

    @pytest.mark.parametrize("kind", ["naive", "embedded"])
    def test_input_too_large_for_the_network_rejected(self, kind):
        # finite, but standardized past float32's range: the network's cast
        # overflows and its matmul turns the row into NaN
        ds = tiny_dataset("complete")
        trainer = train_naive if kind == "naive" else train_embedded
        model, _ = trainer(ds, nn_cfg=tiny_nn(ds, kind), train_cfg=TINY_TRAIN)
        for scale, row in ((1e300, 2), (1e40, 0)):
            x = ds.inputs(TEST)[:4].copy()
            x[row] *= scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=f"row {row}: input too large"):
                    predict(model, x)
                with pytest.raises(ValidationError, match="row 0: input too large"):
                    predict(model, x[row])
                assert np.all(np.isfinite(predict(model, np.delete(x, row, axis=0))))


class TestPredictMemory:
    def test_batch_predict_allocates_little_beyond_its_output(self):
        # a 6x256 float32 net on 20k rows: the rows standardized straight into
        # float32 (240 B a row), two activation buffers and the outputs; a
        # float64 standardized copy alone would be 480 B a row
        ds = tiny_dataset("complete")
        model, _ = train_embedded(
            ds, nn_cfg=MlpConfig(input_dim=60, hidden_widths=(256,) * 6, output_dim=8),
            train_cfg=TrainConfig(epochs=1, batch_size=64, seed=1))
        rows = 20000
        x = model.stats.mean + model.stats.std * np.random.default_rng(0).normal(size=(rows, 60))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = predict(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, 7) and np.all(np.isfinite(out))
        assert (peak - base - out.nbytes) / rows < 450


class TestConsistency:
    def test_kind_task_enforced_on_load(self, tmp_path):
        ds = tiny_dataset("circle")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        model.metadata["task"] = "complete"  # now inconsistent with head dim 2
        path = tmp_path / "bad.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        with pytest.raises(ValidationError):
            check_model_consistency(loaded)

    def test_missing_metadata_rejected(self):
        ds = tiny_dataset("circle")
        model, _ = train_embedded(ds, nn_cfg=tiny_nn(ds, "embedded"),
                                  train_cfg=TINY_TRAIN)
        model.metadata = {}
        with pytest.raises(ValidationError):
            predict(model, np.zeros(2))
