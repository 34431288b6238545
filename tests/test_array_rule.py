"""The one array rule, over every public function that takes an array.

Each array argument in turn is given complex values, strings, a ragged list
and, where its last axis has a fixed width, one column fewer; each must raise
a ``ValidationError`` that names the argument, with numpy's warnings made
errors, so that no argument is answered as its real part.
"""

import os
import re
import warnings

import numpy as np
import pytest

import looptopo
from looptopo import analysis, data, embeddings, forward_model as fm, mlp, regularizer
from looptopo.errors import ValidationError
from looptopo.tasks import TASKS

PI = np.pi
ROW = np.array([0.0, 0.0, 1000.0, 8.0, 5.0, 0.5, 0.01])  # one loop, internal units
ROWS = np.stack([ROW, ROW])
FREQS = fm.FrequencySet(np.array([[0.01, 0.02], [0.03, -0.01]]))
GRID = fm.GridSpec.centered(20.0, 8)
STATS = data.StandardizationStats(mean=np.zeros(3), std=np.ones(3))


def _net(**kw):
    return mlp.init_mlp(mlp.MlpConfig(input_dim=8, hidden_widths=(5, 5), output_dim=4,
                                      dtype="float32", **kw))


NET, DROPPED = _net(), _net(dropout_rate=0.5)
X, Y = np.ones((6, 8)), np.zeros((6, 4))
MASKS = mlp.sample_dropout_masks(DROPPED, 6, np.random.default_rng(0))
FIT = mlp.TrainConfig(epochs=1, batch_size=4)


def _predictor():
    model = mlp.init_mlp(mlp.MlpConfig(input_dim=60, hidden_widths=(4,), output_dim=3))
    model.stats = data.StandardizationStats(mean=np.zeros(60), std=np.ones(60))
    model.metadata = {"kind": "embedded", "task": "simple", "target_transform": None,
                      "intervals": {k: list(v) for k, v in TASKS["simple"].intervals.items()}}
    return model


PREDICTOR = _predictor()
INTERVALS = {"theta": (0.0, 2 * PI)}


def _scatter(truth=np.zeros((2, 1)), pred=np.zeros((2, 1)), inputs=np.ones((2, 2))):
    report = analysis.evaluate_predictions("circle", "embedded", np.zeros((2, 1)),
                                           np.zeros((2, 1)), INTERVALS)
    return analysis.evaluation_scatter("circle", truth, pred, inputs, report)


def _noise(x=np.zeros((2, 4)), flux=np.full((2, 1), 1000.0), normals=None):
    return fm.add_noise(x, flux, np.zeros((2, 4)) if normals is None else normals)


#: name -> (call with the argument, a valid value of it, the name its errors
#: give it, whether its last axis has a fixed width)
ENTRIES = {
    # the package namespace
    "looptopo.evaluate_predictions truth": (
        lambda a: looptopo.evaluate_predictions("circle", "naive", a, np.zeros((2, 1)),
                                                INTERVALS), np.zeros((2, 1)), "truth", True),
    "looptopo.evaluate_predictions pred": (
        lambda a: looptopo.evaluate_predictions("circle", "naive", np.zeros((2, 1)), a,
                                                INTERVALS), np.zeros((2, 1)), "pred", True),
    "looptopo.apply_standardization": (
        lambda a: looptopo.apply_standardization(STATS, a), np.ones((2, 3)), "inputs", True),
    "looptopo.gamma_g_inv": (looptopo.gamma_g_inv, np.ones((2, 8)), "8-vectors", True),
    "looptopo.reals_to_vis": (looptopo.reals_to_vis, np.ones((2, 4)),
                              "real-coded visibilities", True),
    "looptopo.visibilities_closed_form": (
        lambda a: looptopo.visibilities_closed_form(a, FREQS), ROW, "parameters", True),
    "looptopo.forward": (lambda a: looptopo.forward(NET, a), X, "inputs", True),
    "looptopo.predict": (lambda a: looptopo.predict(PREDICTOR, a), np.ones((2, 60)),
                         "input", True),
    # embeddings
    "validate_param_rows": (embeddings.validate_param_rows, ROWS, "parameters", True),
    "gamma alpha": (lambda a: embeddings.gamma(a, 0.01), np.ones(3), "alpha", False),
    "gamma c": (lambda a: embeddings.gamma(0.5, a), np.ones(3), "c", False),
    "gamma_inv": (embeddings.gamma_inv, np.ones((2, 3)), "3-space points", True),
    "gamma_g": (embeddings.gamma_g, ROWS, "7-parameter vectors", True),
    "scaled_strip": (embeddings.scaled_strip, ROWS, "7-parameter vectors", True),
    "circle_embed": (embeddings.circle_embed, np.ones(3), "theta", False),
    "circle_inv": (embeddings.circle_inv, np.ones((2, 2)), "2-space points", True),
    "moebius_distance a": (lambda a: embeddings.moebius_distance(a, [0.5, 0.01]),
                           np.ones((2, 2)), "(alpha, c) pairs", True),
    "moebius_distance b": (lambda a: embeddings.moebius_distance([0.5, 0.01], a),
                           np.ones((2, 2)), "(alpha, c) pairs", True),
    # mlp
    "loss_and_grad x": (lambda a: mlp.loss_and_grad(NET, a, Y), X, "inputs", True),
    "loss_and_grad y": (lambda a: mlp.loss_and_grad(NET, X, a), Y, "targets", True),
    "loss_and_grad masks": (lambda a: mlp.loss_and_grad(DROPPED, X, Y, [a, *MASKS[1:]]),
                            MASKS[0], "dropout masks", True),
    "train x_train": (lambda a: mlp.train(_net(), a, Y, X, Y, FIT), X,
                      "training inputs", True),
    "train y_train": (lambda a: mlp.train(_net(), X, a, X, Y, FIT), Y,
                      "training targets", True),
    "train x_val": (lambda a: mlp.train(_net(), X, Y, a, Y, FIT), X,
                    "validation inputs", True),
    "train y_val": (lambda a: mlp.train(_net(), X, Y, X, a, FIT), Y,
                    "validation targets", True),
    "eval_loss x": (lambda a: mlp.eval_loss(NET, a, Y), X, "inputs", True),
    "eval_loss y": (lambda a: mlp.eval_loss(NET, X, a), Y, "targets", True),
    # data
    "to_internal_params": (lambda a: data.to_internal_params("complete", a), ROWS,
                           "parameters", True),
    # forward_model
    "fwhm_to_std": (fm.fwhm_to_std, np.ones(3), "sigma", False),
    "FrequencySet": (fm.FrequencySet, np.ones((2, 2)), "uv", True),
    "build_loop_components": (fm.build_loop_components, ROW, "parameters", True),
    "visibilities_closed_form_batch": (lambda a: fm.visibilities_closed_form_batch(a, FREQS),
                                       ROWS, "parameters", True),
    "eval_image": (lambda a: fm.eval_image(a, GRID), ROW, "parameters", True),
    "visibilities_quadrature_oracle": (
        lambda a: fm.visibilities_quadrature_oracle(a, FREQS, GRID), ROW, "parameters", True),
    "add_noise x": (lambda a: _noise(x=a), np.zeros((2, 4)), "real-coded visibilities",
                    False),
    "add_noise flux": (lambda a: _noise(flux=a), np.full((2, 1), 1000.0), "flux", True),
    "add_noise normals": (lambda a: _noise(normals=a), np.zeros((2, 4)), "normals", True),
    # analysis
    "normalized_abs_error pred": (lambda a: analysis.normalized_abs_error(a, 0.0, (0, 1)),
                                  np.ones(3), "pred", False),
    "normalized_abs_error truth": (lambda a: analysis.normalized_abs_error(0.0, a, (0, 1)),
                                   np.ones(3), "truth", False),
    "circular_error pred": (lambda a: analysis.circular_error(a, 0.0), np.ones(3), "pred",
                            False),
    "circular_error truth": (lambda a: analysis.circular_error(0.0, a), np.ones(3), "truth",
                             False),
    "moebius_error_scaled pred": (lambda a: analysis.moebius_error_scaled(a, ROWS), ROWS,
                                  "7-parameter vectors", True),
    "moebius_error_scaled truth": (lambda a: analysis.moebius_error_scaled(ROWS, a), ROWS,
                                   "7-parameter vectors", True),
    "nearest_rank_quantile": (lambda a: analysis.nearest_rank_quantile(a, 0.5), np.ones(3),
                              "values", False),
    "quantile_summary": (analysis.quantile_summary, np.ones(3), "values", False),
    "pca_fit": (lambda a: analysis.pca_fit(a, k=1), np.eye(3), "samples", False),
    "pca_project": (lambda a: analysis.pca_project(analysis.pca_fit(np.eye(3), k=1), a),
                    np.ones((2, 3)), "samples", True),
    "seam_distance": (lambda a: analysis.seam_distance("simple", a), np.ones((2, 2)),
                      "params", True),
    "evaluation_scatter truth": (lambda a: _scatter(truth=a), np.zeros((2, 1)), "truth",
                                 True),
    "evaluation_scatter pred": (lambda a: _scatter(pred=a), np.zeros((2, 1)), "pred", True),
    "evaluation_scatter inputs": (lambda a: _scatter(inputs=a), np.ones((2, 2)), "inputs",
                                  True),
    "export_scatter": (lambda a: analysis.export_scatter(a, ["a", "b"], os.devnull),
                       np.ones((2, 2)), "rows", True),
    # regularizer
    "build_targets": (lambda a: regularizer.build_targets("naive", "complete", a), ROWS,
                      "parameters", True),
    # the task table
    **{f"Task.clamp {name}": (lambda a, t=task: t.clamp(a, {}),
                              np.ones((2, len(task.free))), "naive outputs", True)
       for name, task in TASKS.items()},
    **{f"Task.embed {name}": (task.embed, np.ones((2, len(task.params))), "parameters", True)
       for name, task in TASKS.items()},
    **{f"Task.invert {name}": (lambda a, t=TASKS[name]: t.invert(a, t.intervals, None),
                               np.ones((2, TASKS[name].embedded_dim)), what, True)
       for name, what in (("circle", "2-space points"), ("simple", "3-space points"),
                          ("complete", "8-vectors"))},
}


def _bad_values(good, fixed_width):
    """Complex, strings, ragged and, with a fixed width, one column fewer."""
    good = np.asarray(good)
    yield good + 1j
    yield [[1.0, 2j]]
    yield np.full(good.shape, "a")
    yield [[1.0, 2.0], [1.0]]
    if fixed_width:
        yield good[..., :-1]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_array_argument_follows_the_rule(entry):
    call, good, what, fixed_width = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)  # the valid call the cases below break
        for bad in _bad_values(good, fixed_width):
            with pytest.raises(ValidationError, match=re.escape(what)):
                call(bad)


@pytest.mark.parametrize("call, what", [
    (lambda: embeddings.validate_param_rows(ROW), r"\(S, 7\) parameters"),  # a row, not rows
    (lambda: TASKS["complete"].embed(ROW), r"\(S, 7\) parameters"),
    (lambda: analysis.evaluate_predictions("simple", "naive", np.zeros((2, 2)),
                                           np.zeros((2, 2)), intervals=[]), "intervals"),
])
def test_an_argument_of_the_wrong_shape_or_kind_is_named(call, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=what):
            call()


def test_task_embed_takes_a_nested_list():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(TASKS["circle"].embed([[0.5]]),
                                      embeddings.circle_embed(np.array([0.5])))
