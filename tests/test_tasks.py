"""Table-driven checks: every task x kind of the task table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptopo.analysis import evaluate_predictions, evaluation_scatter
from looptopo.data import SamplingConfig, internal_intervals
from looptopo.diagnostics import Diagnostics
from looptopo.embeddings import EPS_TOL, gamma
from looptopo.regularizer import build_targets, output_dim
from looptopo.tasks import KINDS, TASKS

CASES = [(task, kind) for task in TASKS for kind in KINDS]


def intervals(task):
    return internal_intervals(SamplingConfig.default(task, 0))


def canonical_params(task):
    """One parameter vector of the task's canonical domain, internal units.

    Angles lie in their half-open interval. Where eps = 0 draws exist, they
    carry alpha = c = 0, and the other draws keep eps >= EPS_TOL, the
    smallest eccentricity whose strip factor the inverse reads.
    """
    spec = TASKS[task]
    iv = intervals(task)

    def param(name):
        lo, hi = iv[name]
        return st.just(lo) if lo == hi else st.floats(lo, hi, exclude_max=name in spec.angles)

    draw = st.tuples(*(param(n) for n in spec.params)).map(np.array)
    if not spec.collapses:
        return draw
    eps = spec.params.index("eps")
    zeroed = [spec.params.index(n) for n in ("eps", "alpha", "c")]

    def collapse(p):
        p = p.copy()
        p[zeroed] = 0.0
        return p

    return st.one_of(draw.map(collapse), draw.filter(lambda p: p[eps] >= EPS_TOL))


@pytest.mark.parametrize("task,kind", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_entry_round_trip(task, kind, data):
    spec = TASKS[task]
    iv = intervals(task)
    params = np.array(data.draw(st.lists(canonical_params(task), min_size=1, max_size=16)))
    truth = params[:, spec.free_columns]

    targets = build_targets(kind, task, params)
    assert targets.shape == (len(params), output_dim(kind, task))

    if kind == "naive":
        back = spec.clamp(targets, iv)
        np.testing.assert_array_equal(back, truth)
    else:
        back = spec.invert(targets, iv, None)
    assert back.shape == truth.shape

    # scored by the task's own metrics; raw angle errors ignore the
    # identification, and normalized errors are scored as absolute ones
    report = evaluate_predictions(task, kind, truth, back, iv)
    for m in spec.metrics:
        err = report.per_param[m.name]
        if m.error == "norm":
            lo, hi = iv[m.param]
            err = err * (hi - lo)
        if m.error != "raw":
            assert np.max(err) <= 1e-9, m.name

    header, rows = evaluation_scatter(task, truth, back,
                                      build_targets("embedded", task, params), report)
    assert rows.shape == (len(params), len(header))


def test_embedded_curvature_outside_interval_is_reported():
    diag = Diagnostics()
    back = TASKS["simple"].invert([[0.5, 0, 0.3]], intervals("simple"), diag)
    assert back[0, 1] == 0.3  # reported, not clamped
    assert diag.count("out_of_domain") == 1


def test_collapsed_rows_are_not_out_of_domain():
    # an interval without c = 0 would flag the collapsed rows if they counted
    iv = {**intervals("complete"), "c": (0.01, 0.05)}
    live = [0, 0, 1000, 8, 2, *(2 * gamma(0.4, 0.3))]
    collapsed = [0, 0, 1000, 8, EPS_TOL / 2, 1, 1, 1]
    diag = Diagnostics()
    back = TASKS["complete"].invert(np.array([live, collapsed]), iv, diag)
    assert back[1, 6] == 0.0
    assert diag.count("out_of_domain") == 1
