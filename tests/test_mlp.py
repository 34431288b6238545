
import os
import struct
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from looptopo.data import StandardizationStats
from looptopo.errors import (ChecksumError, FormatVersionError, LoopTopoError,
                             TrainingDivergedError, ValidationError)
from looptopo.mlp import (EVAL_CHUNK, AdamState, MlpConfig, TrainConfig, Workspace,
                          adam_step, eval_loss, forward, init_mlp,
                          load_checkpoint, loss_and_grad,
                          sample_dropout_masks, save_checkpoint,
                          save_history_csv, train)


def tiny_model(seed=0, dtype="float64", **kw):
    cfg = MlpConfig(input_dim=kw.pop("input_dim", 8),
                    hidden_widths=kw.pop("hidden_widths", (16, 16)),
                    output_dim=kw.pop("output_dim", 4),
                    seed=seed, dtype=dtype, **kw)
    return init_mlp(cfg)


def reference_forward(model, x, masks=None):
    """The network over all rows at once, one fresh array per layer: the
    unchunked algorithm the chunked ``forward`` must reproduce. ``masks``,
    when given, multiply the input of each hidden layer (inverted dropout)."""
    a = np.asarray(x, dtype=model.weights[0].dtype)
    for i, (w, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
        if masks is not None:
            a = a * masks[i]
        a = np.maximum(a @ w + b, 0.0)
    return a @ model.weights[-1] + model.biases[-1]


def copy_grads(grads):
    return {k: [g.copy() for g in v] for k, v in grads.items()}


def assert_grads_equal(a, b):
    for key in ("weights", "biases"):
        for ga, gb in zip(a[key], b[key]):
            np.testing.assert_array_equal(ga, gb)


class TestInit:
    def test_seed_determinism(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_he_scaling(self):
        # std of a 256 x 256 layer should sit within 5% of sqrt(2/256)
        cfg = MlpConfig(input_dim=256, hidden_widths=(256,), output_dim=1,
                        seed=0, dtype="float64")
        m = init_mlp(cfg)
        measured = m.weights[0].std()
        assert abs(measured - 0.08838834764831845) / 0.08838834764831845 < 0.05

    def test_biases_zero(self):
        m = tiny_model()
        assert len(m.biases) == m.n_layers
        for w, b in zip(m.weights, m.biases):
            assert b.shape == w.shape[1:] and np.all(b == 0)

    def test_zero_hidden_layers_rejected(self):
        with pytest.raises(ValidationError):
            init_mlp(MlpConfig(input_dim=4, hidden_widths=(), output_dim=2))

    def test_bad_dropout_rejected(self):
        with pytest.raises(ValidationError):
            init_mlp(MlpConfig(hidden_widths=(8,), dropout_rate=1.0))

    def test_final_bias_false_rejected(self):
        # every layer has a bias; the field keeps its one value for the bytes
        # of checkpoint headers and config hashes
        with pytest.raises(ValidationError, match="final_bias"):
            init_mlp(MlpConfig(input_dim=4, hidden_widths=(8,), output_dim=2,
                               final_bias=False))


class TestForward:
    def test_zero_weights_give_final_bias(self):
        m = tiny_model()
        for w in m.weights:
            w[:] = 0.0
        m.biases[-1][:] = [1.0, -2.0, 3.0, 4.0]
        np.testing.assert_array_equal(forward(m, np.ones((1, 8)))[0], [1.0, -2.0, 3.0, 4.0])

    def test_no_dropout_train_equals_eval(self):
        # without dropout the masks a training step draws are None, and its
        # pass reproduces forward bit for bit: the loss against forward is 0
        m = tiny_model()
        x = np.random.default_rng(1).normal(size=(5, 8))
        masks = sample_dropout_masks(m, 5, np.random.default_rng(0))
        assert masks is None
        assert loss_and_grad(m, x, forward(m, x), masks)[0] == 0.0

    def test_dead_unit_contributes_nothing(self):
        m = tiny_model(seed=2)
        x = np.random.default_rng(2).normal(size=8)
        pre = x @ m.weights[0] + m.biases[0]
        dead = int(np.argmin(pre))
        assert pre[dead] < 0
        base = forward(m, x[None])
        # rewiring a dead unit downstream cannot change the output
        m.weights[1][dead, :] *= 100.0
        np.testing.assert_array_equal(forward(m, x[None]), base)
        # a sign-flipped duplicate with zero downstream weight is inert too
        m2 = tiny_model(seed=2)
        w0 = np.concatenate([m2.weights[0], -m2.weights[0][:, dead:dead + 1]], axis=1)
        b0 = np.concatenate([m2.biases[0], [-m2.biases[0][dead]]])
        w1 = np.concatenate([m2.weights[1], np.zeros((1, 16))], axis=0)
        m2.weights[0], m2.biases[0], m2.weights[1] = w0, b0, w1
        m2.config = MlpConfig(input_dim=8, hidden_widths=(17, 16), output_dim=4,
                              seed=2, dtype="float64")
        np.testing.assert_array_equal(forward(m2, x[None]), base)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            forward(tiny_model(), np.ones((1, 9)))

    @pytest.mark.parametrize("shape", [(8,), (2, 1, 8), (1, 2, 8)])
    def test_inputs_not_rows_rejected(self, shape):
        with pytest.raises(ValidationError, match="rows"):
            forward(tiny_model(), np.ones(shape))
        with pytest.raises(ValidationError, match="rows"):
            loss_and_grad(tiny_model(), np.ones(shape), np.ones((shape[0], 4)))

    @pytest.mark.parametrize("rows, shape", [(1, (4,)), (5, (5, 1)), (5, (5, 3)),
                                             (5, (5, 5)), (5, (5, 4, 1))])
    def test_targets_not_rows_of_output_dim_rejected(self, rows, shape):
        # (5, 1) targets used to broadcast against the 4 outputs into a loss
        x = np.random.default_rng(0).normal(size=(rows, 8))
        with pytest.raises(ValidationError, match="targets must be"):
            loss_and_grad(tiny_model(), x, np.zeros(shape))

    def test_masks_of_other_shapes_rejected(self):
        m = tiny_model(dropout_rate=0.5)
        x, y = np.ones((5, 8)), np.ones((5, 4))
        masks = sample_dropout_masks(m, 6, np.random.default_rng(0))
        for bad in (masks, [mk[:5] for mk in masks[:1]], [mk[:5, :3] for mk in masks]):
            with pytest.raises(ValidationError, match="masks"):
                loss_and_grad(m, x, y, bad)

    def test_dropout_expectation_matches_eval(self):
        # positive weights + positive inputs keep every unit active for every
        # mask, so inverted dropout is exactly mean-preserving; 1e4 draws
        # leave only Monte-Carlo noise
        cfg = MlpConfig(input_dim=6, hidden_widths=(16, 16), output_dim=2,
                        dropout_rate=0.1, dtype="float64", seed=7)
        m = init_mlp(cfg)
        for i in range(m.n_layers):
            m.weights[i] = np.abs(m.weights[i])
        x = np.abs(np.random.default_rng(0).normal(size=(1, 6)))
        reference = forward(m, x)[0]
        n = 10000
        masks = sample_dropout_masks(m, n, np.random.default_rng(42))
        total = reference_forward(m, np.repeat(x, n, axis=0), masks).sum(axis=0)
        np.testing.assert_allclose(total / n, reference, rtol=0.01)

    def test_dropout_masks_shapes(self):
        cfg = MlpConfig(input_dim=6, hidden_widths=(16, 8), output_dim=2,
                        dropout_rate=0.5, seed=0)
        m = init_mlp(cfg)
        masks = sample_dropout_masks(m, 4, np.random.default_rng(0))
        assert [mk.shape for mk in masks] == [(4, 6), (4, 16)]


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           dims=st.tuples(st.integers(1, 12), st.integers(1, 8)),
           rows=st.integers(1, 3000), dtype=st.sampled_from(["float32", "float64"]),
           seed=st.integers(0, 2 ** 16))
    @example(widths=[7, 5], dims=(3, 2), rows=2 * EVAL_CHUNK + 1, dtype="float32", seed=1)
    @example(widths=[9, 40, 3, 25, 1, 12], dims=(5, 3), rows=EVAL_CHUNK + 7,
             dtype="float32", seed=2)  # alternating views of unequal widths
    def test_chunked_eval_matches_unchunked_reference(self, widths, dims, rows, dtype, seed):
        m = init_mlp(MlpConfig(input_dim=dims[0], hidden_widths=tuple(widths),
                               output_dim=dims[1], seed=seed, dtype=dtype))
        rng = np.random.default_rng(seed)
        for b in m.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(rows, dims[0]))
        got, ref = forward(m, x), reference_forward(m, x)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        if rows <= EVAL_CHUNK:
            np.testing.assert_array_equal(got, ref)
        else:
            # another row blocking in the matmuls: the sums round differently
            eps = np.finfo(ref.dtype).eps
            np.testing.assert_allclose(got, ref, rtol=64 * eps,
                                       atol=64 * eps * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("widths", [(5,), (8, 3), (4, 16, 2), (30, 7, 30, 1, 12, 9)])
    def test_eval_workspace_holds_two_activation_buffers(self, widths):
        m = init_mlp(MlpConfig(input_dim=6, hidden_widths=widths, output_dim=2))
        ws = Workspace(m, 10)
        assert [a.shape for a in ws.acts] == [(10, w) for w in widths]
        for i, a in enumerate(ws.acts):
            for j, b in enumerate(ws.acts):
                assert np.shares_memory(a, b) == (i % 2 == j % 2)
        buffers = {a.base.ctypes.data: a.base.nbytes for a in ws.acts}
        assert list(buffers.values()) == [10 * max(widths) * 4] * min(2, len(widths))
        # a backward pass reads every layer's activation: one buffer each
        train_ws = Workspace(m, 10, backward=True)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(train_ws.acts)
                       for b in train_ws.acts[i + 1:])

    def test_reused_workspace_matches_fresh_calls(self):
        m = init_mlp(MlpConfig(input_dim=12, hidden_widths=(32, 24, 16), output_dim=5,
                               dropout_rate=0.2, seed=11))
        data = np.random.default_rng(11)
        batches = [(data.normal(size=(n, 12)), data.normal(size=(n, 5)))
                   for n in (256, 52, 256)]
        ws = Workspace(m, 256, backward=True)
        reused_rng, fresh_rng = np.random.default_rng(5), np.random.default_rng(5)
        for x, y in batches:
            loss_ws, grads_ws = loss_and_grad(
                m, x, y, sample_dropout_masks(m, len(x), reused_rng, ws), ws=ws)
            loss, grads = loss_and_grad(m, x, y, sample_dropout_masks(m, len(x), fresh_rng))
            assert loss_ws == loss
            assert grads_ws is ws.grads
            assert_grads_equal(grads_ws, grads)
        with pytest.raises(ValidationError):
            loss_and_grad(m, *[np.zeros((257, k)) for k in (12, 5)], ws=ws)

    def test_returned_gradients_survive_a_second_call(self):
        m = tiny_model(seed=12, dtype="float32", dropout_rate=0.1)
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(16, 8)), rng.normal(size=(16, 4))
        _, first = loss_and_grad(m, x, y, sample_dropout_masks(m, 16, rng))
        kept = copy_grads(first)
        loss_and_grad(m, 2 * x, -y, sample_dropout_masks(m, 16, rng))
        assert_grads_equal(first, kept)


class TestDropoutMasks:
    @staticmethod
    def _masks(p, rows=2000, dtype="float32", seed=0):
        m = init_mlp(MlpConfig(input_dim=10, hidden_widths=(30, 20), output_dim=2,
                               dropout_rate=p, dtype=dtype, seed=0))
        return sample_dropout_masks(m, rows, np.random.default_rng(seed))

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_kept_fraction_is_binomial(self, p):
        masks = self._masks(p)
        units = sum(mk.size for mk in masks)
        kept = sum(int(np.count_nonzero(mk)) for mk in masks)
        sigma = np.sqrt(units * p * (1 - p))
        assert abs(kept - units * (1 - p)) < 5 * sigma

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_mask_values_are_zero_or_inverse_keep(self, p, dtype):
        dt = np.dtype(dtype).type
        for mk in self._masks(p, rows=300, dtype=dtype):
            assert mk.dtype == dt
            assert set(np.unique(mk).tolist()) == {0.0, float(dt(1) / dt(1.0 - p))}

    def test_tiny_rate_keeps_every_unit(self):
        # round(keep * 2**32) is 2**32 here, one past the largest uint32: the
        # threshold must be clamped
        assert round((1.0 - 1e-12) * 2.0 ** 32) == 2 ** 32
        for mk in self._masks(1e-12):
            assert np.all(mk == 1.0)


class TestGradients:
    def test_zero_loss_zero_gradients_at_fit(self):
        m = tiny_model(seed=4)
        x = np.random.default_rng(4).normal(size=(6, 8))
        y = forward(m, x)
        loss, grads = loss_and_grad(m, x, y)
        assert loss == 0.0
        for g in grads["weights"] + grads["biases"]:
            assert np.all(g == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_agreement(self, seed):
        m = tiny_model(seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 4))
        _, grads = loss_and_grad(m, x, y)
        h = 1e-5
        for li in range(m.n_layers):
            w = m.weights[li]
            flat = w.reshape(-1)
            probe = np.linspace(0, flat.size - 1, 7).astype(int)
            for k in probe:
                orig = flat[k]
                flat[k] = orig + h
                lp, _ = loss_and_grad(m, x, y)
                flat[k] = orig - h
                lm, _ = loss_and_grad(m, x, y)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                bp = grads["weights"][li].reshape(-1)[k]
                assert abs(fd - bp) / max(abs(fd) + abs(bp), 1e-8) < 1e-5

    def test_gradients_exact_for_fixed_dropout_mask(self):
        cfg = MlpConfig(input_dim=8, hidden_widths=(16, 16), output_dim=4,
                        dropout_rate=0.3, dtype="float64", seed=5)
        m = init_mlp(cfg)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 4))
        masks = sample_dropout_masks(m, 8, np.random.default_rng(9))
        _, grads = loss_and_grad(m, x, y, masks=masks)
        h = 1e-5
        w = m.weights[1]
        for k in (0, 37, 100):
            orig = w.reshape(-1)[k]
            w.reshape(-1)[k] = orig + h
            lp, _ = loss_and_grad(m, x, y, masks=masks)
            w.reshape(-1)[k] = orig - h
            lm, _ = loss_and_grad(m, x, y, masks=masks)
            w.reshape(-1)[k] = orig
            fd = (lp - lm) / (2 * h)
            bp = grads["weights"][1].reshape(-1)[k]
            assert abs(fd - bp) / max(abs(fd) + abs(bp), 1e-8) < 1e-5

    def test_duplicated_batch_invariance(self):
        m = tiny_model(seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 8))
        y = rng.normal(size=(1, 4))
        l1, g1 = loss_and_grad(m, x, y)
        lk, gk = loss_and_grad(m, np.repeat(x, 5, axis=0), np.repeat(y, 5, axis=0))
        assert abs(l1 - lk) < 1e-12
        for a, b in zip(g1["weights"], gk["weights"]):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            loss_and_grad(tiny_model(), np.zeros((0, 8)), np.zeros((0, 4)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        m = tiny_model()
        x = np.full((2, 8), 1e200)
        y = np.zeros((2, 4))
        m.weights[0][:] = 1e200
        with pytest.raises(TrainingDivergedError):
            loss_and_grad(m, x, y)


class TestAdam:
    def test_moments_mirror_the_gradients(self):
        m = tiny_model()
        st = AdamState.for_model(m)
        _, grads = loss_and_grad(m, np.ones((3, 8)), np.zeros((3, 4)))
        for moments in (st.m, st.v):
            assert moments.keys() == grads.keys()
            for key in grads:
                assert [a.shape for a in moments[key]] == [g.shape for g in grads[key]]
                assert all(np.all(a == 0) for a in moments[key])

    def test_zero_gradient_no_change(self):
        m = tiny_model()
        st = AdamState.for_model(m)
        zero = {"weights": [np.zeros_like(w) for w in m.weights],
                "biases": [np.zeros_like(b) for b in m.biases]}
        before = [w.copy() for w in m.weights]
        adam_step(st, m, zero, TrainConfig())
        for w0, w1 in zip(before, m.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_first_step_magnitude(self):
        # m-hat / sqrt(v-hat) = sign(g) after one step, so |step| ~ lr
        m = tiny_model()
        st = AdamState.for_model(m)
        grads = {"weights": [np.ones_like(w) for w in m.weights],
                 "biases": [np.zeros_like(b) for b in m.biases]}
        before = m.weights[0].copy()
        adam_step(st, m, grads, TrainConfig(learning_rate=1e-3))
        step = np.abs(m.weights[0] - before)
        np.testing.assert_allclose(step, 1e-3 / (1 + 1e-8), rtol=1e-10)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(learning_rate=1e-2),
        TrainConfig(learning_rate=1e-2, beta1=0.8, beta2=0.99, adam_eps=1e-6)])
    def test_matches_textbook_update(self, cfg):
        m = tiny_model(seed=13)
        st = AdamState.for_model(m)
        params = [p.copy() for p in m.weights + m.biases]
        mom = [np.zeros_like(p) for p in params]
        vel = [np.zeros_like(p) for p in params]
        b1, b2 = cfg.beta1, cfg.beta2
        rng = np.random.default_rng(13)
        for t in range(1, 6):
            grads = {"weights": [rng.normal(size=w.shape) for w in m.weights],
                     "biases": [rng.normal(size=b.shape) for b in m.biases]}
            adam_step(st, m, grads, cfg)
            for k, g in enumerate(grads["weights"] + grads["biases"]):
                mom[k] = b1 * mom[k] + (1 - b1) * g
                vel[k] = b2 * vel[k] + (1 - b2) * g * g
                m_hat = mom[k] / (1 - b1 ** t)
                v_hat = vel[k] / (1 - b2 ** t)
                params[k] = params[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat)
                                                                     + cfg.adam_eps)
        for p, ref in zip(m.weights + m.biases, params):
            np.testing.assert_allclose(p, ref, rtol=1e-12, atol=0)

    def test_trajectory_determinism(self):
        runs = []
        for _ in range(2):
            m = tiny_model(seed=8)
            st = AdamState.for_model(m)
            rng = np.random.default_rng(8)
            x = rng.normal(size=(16, 8))
            y = rng.normal(size=(16, 4))
            for _ in range(5):
                _, g = loss_and_grad(m, x, y)
                adam_step(st, m, g, TrainConfig())
            runs.append([w.copy() for w in m.weights])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)


class TestTrain:
    def _linear_task(self):
        rng = np.random.default_rng(3)
        a = 0.3 * rng.normal(size=(6, 2))
        x = rng.normal(size=(600, 6))
        return x[:500], x[:500] @ a, x[500:], x[500:] @ a

    def test_linear_task_reaches_small_mse(self):
        xt, yt, xv, yv = self._linear_task()
        m = init_mlp(MlpConfig(input_dim=6, hidden_widths=(32,), output_dim=2,
                               dtype="float64", seed=0))
        m, hist = train(m, xt, yt, xv, yv,
                        TrainConfig(epochs=200, batch_size=25, learning_rate=1e-2,
                                    patience=0, seed=0))
        assert hist[-1]["train_loss"] < 1e-4

    def test_history_and_early_stopping_contract(self):
        xt, yt, xv, yv = self._linear_task()
        m = init_mlp(MlpConfig(input_dim=6, hidden_widths=(16,), output_dim=2,
                               dtype="float64", seed=1))
        cfg = TrainConfig(epochs=80, batch_size=50, learning_rate=1e-2,
                          patience=5, seed=1)
        m, hist = train(m, xt, yt, xv, yv, cfg)
        assert len(hist) <= cfg.epochs
        best = int(np.argmin([h["val_loss"] for h in hist]))
        assert len(hist) - 1 - best <= cfg.patience

    def test_returns_best_validation_parameters(self):
        xt, yt, xv, yv = self._linear_task()
        m = init_mlp(MlpConfig(input_dim=6, hidden_widths=(16,), output_dim=2,
                               dtype="float64", seed=2))
        m, hist = train(m, xt, yt, xv, yv,
                        TrainConfig(epochs=30, batch_size=50, learning_rate=1e-2,
                                    patience=0, seed=2))
        best_val = min(h["val_loss"] for h in hist)
        assert abs(eval_loss(m, xv, yv) - best_val) < 1e-12

    def test_training_decreases_loss(self):
        xt, yt, xv, yv = self._linear_task()
        m = init_mlp(MlpConfig(input_dim=6, hidden_widths=(16,), output_dim=2,
                               dtype="float64", seed=3))
        m, hist = train(m, xt, yt, xv, yv,
                        TrainConfig(epochs=20, batch_size=50, learning_rate=1e-2,
                                    patience=0, seed=3))
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_bit_identical_histories(self):
        xt, yt, xv, yv = self._linear_task()
        hists = []
        for _ in range(2):
            m = init_mlp(MlpConfig(input_dim=6, hidden_widths=(16,), output_dim=2,
                                   seed=4, dropout_rate=0.2))
            _, hist = train(m, xt, yt, xv, yv,
                            TrainConfig(epochs=10, batch_size=64,
                                        learning_rate=1e-3, patience=0, seed=4))
            hists.append(hist)
        assert hists[0] == hists[1]

    def test_history_csv(self, tmp_path):
        hist = [{"epoch": 0, "train_loss": 1.5, "val_loss": 2.5},
                {"epoch": 1, "train_loss": 0.5, "val_loss": 1.25}]
        path = tmp_path / "h.csv"
        save_history_csv(hist, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3


class TestLipschitzContinuity:
    def test_spectral_norm_product_bounds_perturbations(self):
        # eval-mode network is Lipschitz with constant prod ||W_l||_2
        m = tiny_model(seed=9)
        lip = 1.0
        for w in m.weights:
            lip *= np.linalg.svd(w, compute_uv=False)[0]
        rng = np.random.default_rng(9)
        x = rng.normal(size=8)
        base = forward(m, x[None])[0]
        for _ in range(100):
            delta = rng.normal(size=8) * 10 ** rng.uniform(-6, 0)
            out = forward(m, (x + delta)[None])[0]
            assert np.linalg.norm(out - base) <= lip * np.linalg.norm(delta) + 1e-12


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = tiny_model(seed=10, dtype="float32")
        m.stats = StandardizationStats(mean=np.arange(8.0), std=np.full(8, 2.0))
        m.metadata = {"kind": "naive", "task": "simple"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        m2 = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(100, 8))
        np.testing.assert_array_equal(forward(m, x), forward(m2, x))
        np.testing.assert_array_equal(m.stats.mean, m2.stats.mean)
        assert m2.metadata["kind"] == "naive"
        assert m2.config == m.config

    def test_truncated_file_rejected(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises((ChecksumError, FormatVersionError)):
            load_checkpoint(path)

    def test_corrupted_byte_rejected(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    @staticmethod
    def _load_damaged(damage):
        """Save a small model with stats and metadata, pass the file's bytes
        through ``damage``, and load the result."""
        m = tiny_model(seed=2, dtype="float32")
        m.stats = StandardizationStats(mean=np.arange(8.0), std=np.full(8, 2.0))
        m.metadata = {"kind": "naive", "task": "simple"}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            save_checkpoint(m, path)
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(damage(data))
            load_checkpoint(path)

    @settings(max_examples=100, deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    def test_any_byte_flip_rejected(self, where, mask):
        def flip(data):
            blob = bytearray(data)
            blob[int(where * len(blob))] ^= mask
            return bytes(blob)
        with pytest.raises(LoopTopoError):
            self._load_damaged(flip)

    @settings(max_examples=100, deadline=None)
    @given(keep=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_truncation_rejected(self, keep):
        with pytest.raises(LoopTopoError):
            self._load_damaged(lambda data: data[:int(keep * len(data))])

    def test_future_version_rejected(self, tmp_path):
        import hashlib
        import struct
        m = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())[:-32]
        blob[4:8] = struct.pack("<I", 42)
        body = bytes(blob)
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatVersionError):
            load_checkpoint(path)

    def test_config_echo_dimensions(self, tmp_path):
        m = init_mlp(MlpConfig(input_dim=60, hidden_widths=(32,), output_dim=3,
                               seed=0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        assert load_checkpoint(path).config.output_dim == 3


def padded_model(pad, dtype, hidden_widths=(16, 16)):
    """A small model with stats whose checkpoint header is ``pad`` bytes longer
    than at pad 0. Its output_dim of 3 makes the count of float32 values odd,
    which leaves the float64 stats after them off an 8-byte boundary."""
    m = tiny_model(seed=7, dtype=dtype, output_dim=3, hidden_widths=hidden_widths)
    m.stats = StandardizationStats(mean=np.arange(8.0), std=np.full(8, 2.0))
    m.metadata = {"pad": "x" * pad}
    return m


def model_arrays(m):
    return [a for layer in zip(m.weights, m.biases) for a in layer] + [m.stats.mean,
                                                                       m.stats.std]


class TestCheckpointBuffer:
    """A loaded model's arrays are views into one buffer per file, placed so
    that the array section starts on a 64-byte boundary."""

    def test_pads_cover_every_header_length_residue(self, tmp_path):
        residues = set()
        for pad in range(64):
            save_checkpoint(padded_model(pad, "float32"), tmp_path / "m.ckpt")
            residues.add(struct.unpack_from("<Q", (tmp_path / "m.ckpt").read_bytes(), 8)[0] % 64)
        assert residues == set(range(64))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("pad", range(64))
    def test_loaded_arrays_are_aligned_writable_views(self, tmp_path, pad, dtype):
        m = padded_model(pad, dtype)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        arrays = model_arrays(loaded)
        for a in arrays:
            assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
        # the weights and biases lie back to back from a 64-byte boundary
        address = arrays[0].__array_interface__["data"][0]
        assert address % 64 == 0
        for a in arrays[:-2]:
            assert a.__array_interface__["data"][0] == address
            address += a.nbytes
        x = np.random.default_rng(pad).normal(size=(5, 8))
        np.testing.assert_array_equal(forward(loaded, x), forward(m, x))

        before = [a.copy() for a in arrays]
        for k, a in enumerate(arrays):
            a[...] = k + 1
        for k, a in enumerate(arrays):
            assert np.all(a == k + 1), "a later write reached an earlier array"
        for a, b in zip(model_arrays(load_checkpoint(path)), before):
            np.testing.assert_array_equal(a, b)

    def test_read_from_a_pipe(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(padded_model(5, "float32"), path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "wb") as fh:
                fh.write(path.read_bytes())
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        loaded = load_checkpoint(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        for a, b in zip(model_arrays(loaded), model_arrays(load_checkpoint(path))):
            assert a.flags.aligned and a.flags.writeable
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field", [0, "size", 2 ** 63, 2 ** 64 - 1])
    def test_header_length_field_sizes_no_allocation(self, tmp_path, field):
        # a 1 MB middle layer: an allocation of the field's value when it is
        # the file size would show in the peak
        path = tmp_path / "m.ckpt"
        save_checkpoint(padded_model(0, "float32", hidden_widths=(512, 512)), path)
        blob = bytearray(path.read_bytes())
        blob[8:16] = struct.pack("<Q", len(blob) if field == "size" else field)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(blob)
