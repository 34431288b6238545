"""The one array rule, over every public function that takes an array.

Each array argument in turn is given complex values, strings, a ragged list,
where its last axis has a fixed width, one column fewer and, where its number
of axes is pinned, one axis fewer and one more than it may have; each must
raise a ``ValidationError`` that names the argument, with numpy's warnings
made errors, so that no argument is answered as its real part or ends in
numpy's own error. The other arguments that such a function refuses (interval
tables, quantile levels, floors, batch sizes) are named the same way.
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
#: give it, whether its last axis has a fixed width, the numbers of axes it may
#: have or None where any number will do)
ENTRIES = {
    # the package namespace
    "looptopo.evaluate_predictions truth": (
        lambda a: looptopo.evaluate_predictions("circle", "naive", a, np.zeros((2, 1)),
                                                INTERVALS), np.zeros((2, 1)), "truth", True, (2,)),
    "looptopo.evaluate_predictions pred": (
        lambda a: looptopo.evaluate_predictions("circle", "naive", np.zeros((2, 1)), a,
                                                INTERVALS), np.zeros((2, 1)), "pred", True, (2,)),
    "looptopo.apply_standardization": (
        lambda a: looptopo.apply_standardization(STATS, a), np.ones((2, 3)),
        "(3,) or (rows, 3) inputs", True, (1, 2)),
    "looptopo.gamma_g_inv": (looptopo.gamma_g_inv, np.ones((2, 8)), "8-vectors", True, None),
    "looptopo.reals_to_vis": (looptopo.reals_to_vis, np.ones((2, 4)),
                              "real-coded visibilities", True, (1, 2)),
    "looptopo.visibilities_closed_form": (
        lambda a: looptopo.visibilities_closed_form(a, FREQS), ROW, "parameters", True, (1,)),
    "looptopo.forward": (lambda a: looptopo.forward(NET, a), X, "(rows, 8) inputs", True, (2,)),
    "looptopo.predict": (lambda a: looptopo.predict(PREDICTOR, a), np.ones((2, 60)),
                         "input", True, (1, 2)),
    # embeddings
    "validate_param_rows": (embeddings.validate_param_rows, ROWS, "(S, 7) parameters", True,
                            (2,)),
    "gamma alpha": (lambda a: embeddings.gamma(a, 0.01), np.ones(3), "alpha", False, None),
    "gamma c": (lambda a: embeddings.gamma(0.5, a), np.ones(3), "c", False, None),
    "gamma_inv": (embeddings.gamma_inv, np.ones((2, 3)), "3-space points", True, None),
    "gamma_g": (embeddings.gamma_g, ROWS, "7-parameter vectors", True, None),
    "scaled_strip": (embeddings.scaled_strip, ROWS, "7-parameter vectors", True, None),
    "circle_embed": (embeddings.circle_embed, np.ones(3), "theta", False, None),
    "circle_inv": (embeddings.circle_inv, np.ones((2, 2)), "2-space points", True, None),
    "moebius_distance a": (lambda a: embeddings.moebius_distance(a, [0.5, 0.01]),
                           np.ones((2, 2)), "(alpha, c) pairs", True, None),
    "moebius_distance b": (lambda a: embeddings.moebius_distance([0.5, 0.01], a),
                           np.ones((2, 2)), "(alpha, c) pairs", True, None),
    # mlp
    "loss_and_grad x": (lambda a: mlp.loss_and_grad(NET, a, Y), X, "(rows, 8) inputs", True,
                        (2,)),
    "loss_and_grad y": (lambda a: mlp.loss_and_grad(NET, X, a), Y, "(rows, 4) targets", True,
                        (2,)),
    "loss_and_grad masks": (lambda a: mlp.loss_and_grad(DROPPED, X, Y, [a, *MASKS[1:]]),
                            MASKS[0], "dropout masks", True, (2,)),
    "train x_train": (lambda a: mlp.train(_net(), a, Y, X, Y, FIT), X,
                      "(rows, 8) training inputs", True, (2,)),
    "train y_train": (lambda a: mlp.train(_net(), X, a, X, Y, FIT), Y,
                      "(rows, 4) training targets", True, (2,)),
    "train x_val": (lambda a: mlp.train(_net(), X, Y, a, Y, FIT), X,
                    "(rows, 8) validation inputs", True, (2,)),
    "train y_val": (lambda a: mlp.train(_net(), X, Y, X, a, FIT), Y,
                    "(rows, 4) validation targets", True, (2,)),
    "eval_loss x": (lambda a: mlp.eval_loss(NET, a, Y), X, "(rows, 8) inputs", True, (2,)),
    "eval_loss y": (lambda a: mlp.eval_loss(NET, X, a), Y, "(rows, 4) targets", True, (2,)),
    # data
    "to_internal_params": (lambda a: data.to_internal_params("complete", a), ROWS,
                           "parameters", True, None),
    # forward_model
    "fwhm_to_std": (fm.fwhm_to_std, np.ones(3), "sigma", False, None),
    "FrequencySet": (fm.FrequencySet, np.ones((2, 2)), "(n, 2) uv", True, (2,)),
    "build_loop_components": (fm.build_loop_components, ROW, "7 parameters", True, (1,)),
    "visibilities_closed_form_batch": (lambda a: fm.visibilities_closed_form_batch(a, FREQS),
                                       ROWS, "parameters", True, (2,)),
    "eval_image": (lambda a: fm.eval_image(a, GRID), ROW, "parameters", True, (1,)),
    "visibilities_quadrature_oracle": (
        lambda a: fm.visibilities_quadrature_oracle(a, FREQS, GRID), ROW, "parameters", True,
        (1,)),
    "add_noise x": (lambda a: _noise(x=a), np.zeros((2, 4)), "real-coded visibilities",
                    False, None),
    "add_noise flux": (lambda a: _noise(flux=a), np.full((2, 1), 1000.0), "flux", True,
                       (0, 2)),
    "add_noise normals": (lambda a: _noise(normals=a), np.zeros((2, 4)), "normals", True,
                          (2,)),
    # analysis
    "normalized_abs_error pred": (lambda a: analysis.normalized_abs_error(a, 0.0, (0, 1)),
                                  np.ones(3), "pred", False, None),
    "normalized_abs_error truth": (lambda a: analysis.normalized_abs_error(0.0, a, (0, 1)),
                                   np.ones(3), "truth", False, None),
    "circular_error pred": (lambda a: analysis.circular_error(a, 0.0), np.ones(3), "pred",
                            False, None),
    "circular_error truth": (lambda a: analysis.circular_error(0.0, a), np.ones(3), "truth",
                             False, None),
    "moebius_error_scaled pred": (lambda a: analysis.moebius_error_scaled(a, ROWS), ROWS,
                                  "7-parameter vectors", True, None),
    "moebius_error_scaled truth": (lambda a: analysis.moebius_error_scaled(ROWS, a), ROWS,
                                   "7-parameter vectors", True, None),
    "nearest_rank_quantile": (lambda a: analysis.nearest_rank_quantile(a, 0.5), np.ones(3),
                              "values", False, None),
    "quantile_summary": (analysis.quantile_summary, np.ones(3), "values", False, None),
    "pca_fit": (lambda a: analysis.pca_fit(a, k=1), np.eye(3), "(n, d) samples", False, (2,)),
    "pca_project": (lambda a: analysis.pca_project(analysis.pca_fit(np.eye(3), k=1), a),
                    np.ones((2, 3)), "samples", True, None),
    "seam_distance": (lambda a: analysis.seam_distance("simple", a), np.ones((2, 2)),
                      "params", True, (2,)),
    "evaluation_scatter truth": (lambda a: _scatter(truth=a), np.zeros((2, 1)), "truth",
                                 True, (2,)),
    "evaluation_scatter pred": (lambda a: _scatter(pred=a), np.zeros((2, 1)), "pred", True,
                                (2,)),
    "evaluation_scatter inputs": (lambda a: _scatter(inputs=a), np.ones((2, 2)), "inputs",
                                  True, (2,)),
    "export_scatter": (lambda a: analysis.export_scatter(a, ["a", "b"], os.devnull),
                       np.ones((2, 2)), "rows", True, (2,)),
    # regularizer
    "build_targets": (lambda a: regularizer.build_targets("naive", "complete", a), ROWS,
                      "parameters", True, (2,)),
    # the task table
    **{f"Task.clamp {name}": (lambda a, t=task: t.clamp(a, {}),
                              np.ones((2, len(task.free))), "naive outputs", True, (2,))
       for name, task in TASKS.items()},
    **{f"Task.embed {name}": (task.embed, np.ones((2, len(task.params))),
                              f"(S, {len(task.params)}) parameters", True, (2,))
       for name, task in TASKS.items()},
    **{f"Task.invert {name}": (lambda a, t=task: t.invert(a, t.intervals, None),
                               np.ones((2, task.embedded_dim)), "embedded outputs", True, (2,))
       for name, task in TASKS.items()},
}


def _bad_values(good, fixed_width, ranks):
    """Complex, strings, ragged, with a fixed width one column fewer, and with
    pinned ranks the rank below the fewest axes allowed and the rank above the
    most, where they are refused (and not below 0)."""
    good = np.asarray(good)
    yield good + 1j
    yield [[1.0, 2j]]
    yield np.full(good.shape, "a")
    yield [[1.0, 2.0], [1.0]]
    if fixed_width:
        yield good[..., :-1]
    if ranks:
        for rank in range(max(min(ranks) - 1, 0), max(ranks) + 2):
            if rank not in ranks:
                yield (good[(0,) * (good.ndim - rank)] if rank < good.ndim
                       else good[(None,) * (rank - good.ndim)])


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_array_argument_follows_the_rule(entry):
    call, good, what, fixed_width, ranks = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)  # the valid call the cases below break
        for bad in _bad_values(good, fixed_width, ranks):
            with pytest.raises(ValidationError, match=re.escape(what)):
                call(bad)


#: name -> (a call with an argument that is not an array, or not one of the
#: rule's, refused; a pattern that names the argument)
REFUSALS = {
    "evaluate_predictions intervals a list": (
        lambda: analysis.evaluate_predictions("simple", "naive", np.zeros((2, 2)),
                                              np.zeros((2, 2)), intervals=[]),
        "intervals must be a dict"),
    "evaluate_predictions intervals entry a number": (
        lambda: analysis.evaluate_predictions("complete", "embedded", ROWS, ROWS,
                                              {**TASKS["complete"].intervals, "x_c": 1}),
        "interval for x_c must be a pair lo <= hi"),
    "normalized_abs_error interval None": (
        lambda: analysis.normalized_abs_error(1.0, 1.0, None), "interval must be a pair"),
    "normalized_abs_error interval of one": (
        lambda: analysis.normalized_abs_error(1.0, 1.0, (0,)), "interval must be a pair"),
    "normalized_abs_error interval of strings": (
        lambda: analysis.normalized_abs_error(1.0, 1.0, ("a", "b")), "interval must be a pair"),
    "Task.clamp intervals None": (
        lambda: TASKS["simple"].clamp(np.ones((2, 2)), None), "intervals must be a dict"),
    "Task.clamp interval a number": (
        lambda: TASKS["simple"].clamp(np.ones((2, 2)), {"alpha": 5}),
        "interval for alpha must be a pair lo <= hi"),
    "Task.invert intervals None": (
        lambda: TASKS["simple"].invert(np.ones((2, 3)), None, None), "intervals must be a dict"),
    "Task.invert interval reversed": (
        lambda: TASKS["complete"].invert(np.ones((2, 8)), {"flux": (2.0, 1.0)}),
        "interval for flux must be a pair lo <= hi"),
    "evaluation_scatter inputs of another row count": (
        lambda: _scatter(inputs=np.ones((3, 2))), "inputs and the report must have one row"),
    "evaluation_scatter truth of another row count": (
        lambda: _scatter(truth=np.zeros((3, 1)), pred=np.zeros((3, 1))),
        "truth, pred, inputs and the report must have one row"),
    "nearest_rank_quantile q None": (
        lambda: analysis.nearest_rank_quantile(np.ones(3), None), "quantile level q"),
    "nearest_rank_quantile q a string": (
        lambda: analysis.nearest_rank_quantile(np.ones(3), "a"), "quantile level q"),
    "gamma_g_inv floors of one": (
        lambda: embeddings.gamma_g_inv(np.ones((2, 8)), floors=(1,)), "floors must be"),
    "sample_dropout_masks batch_size negative": (
        lambda: mlp.sample_dropout_masks(DROPPED, -1, np.random.default_rng(0)),
        "batch_size must be"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_an_argument_of_the_wrong_shape_or_kind_is_named(case):
    call, what = REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=what):
            call()


def test_task_embed_takes_a_nested_list():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(TASKS["circle"].embed([[0.5]]),
                                      embeddings.circle_embed(np.array([0.5])))
