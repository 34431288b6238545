"""Evaluation metrics, percentile statistics, PCA projection, CSV exports.

The paper's claim lives at the seam: the point where a task's angle meets its
own identification, theta at 0 ~ 2 pi on the circle and alpha at 0 ~ pi on the
Moebius strip. There a naive operator, which regresses the angle itself, must
break, and an embedded one need not. ``seam_distance`` is the one definition of
how near a row lies to it.
"""

from dataclasses import dataclass, field

import numpy as np

from .embeddings import moebius_distance, scaled_strip
from .errors import ValidationError
from .serialization import float_array, format_csv, is_integer, write_bytes
from .tasks import get_task

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def normalized_abs_error(pred, truth, interval):
    """|pred - truth| divided by the interval length."""
    lo, hi = interval
    if not hi > lo:
        raise ValidationError(f"interval must have positive length, got ({lo}, {hi})")
    return np.abs(float_array(pred, "pred") - float_array(truth, "truth")) / (hi - lo)


def circular_error(pred, truth):
    """Shortest angular distance on the circle, range [0, pi]."""
    d = np.abs(float_array(pred, "pred") - float_array(truth, "truth")) % (2 * np.pi)
    return np.minimum(d, 2 * np.pi - d)


def moebius_error_scaled(pred_params, truth_params):
    """Complete-task orientation/curvature error in eccentricity-scaled
    strip coordinates: || eps_p * gamma(a_p, c_p) - eps_t * gamma(a_t, c_t) ||.

    Collapsed shapes (both eps near 0) score near zero regardless of angles,
    matching the rotation invariance of circular sources.
    """
    return np.linalg.norm(scaled_strip(pred_params) - scaled_strip(truth_params), axis=-1)


def _sorted(values):
    """The values, flattened and sorted; an empty array is refused."""
    a = np.sort(float_array(values, "values").ravel())
    if a.size == 0:
        raise ValidationError("quantile of an empty array")
    return a


def _rank(a, q):
    """Nearest-rank quantile of the sorted, nonempty ``a``."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile level must be in [0, 1], got {q}")
    if q == 0.0:
        return float(a[0])
    rank = int(np.ceil(q * a.size))
    return float(a[min(rank, a.size) - 1])


def nearest_rank_quantile(values, q):
    """Nearest-rank quantile: smallest x with #{v <= x} >= q * n."""
    return _rank(_sorted(values), q)


def quantile_summary(values):
    """min / max / mean / count and the ``QUANTILE_LEVELS``, from one sort."""
    values = float_array(values, "values")
    a = _sorted(values)
    out = {"min": float(np.min(a)), "max": float(np.max(a)),
           "mean": float(np.mean(values)), "count": int(a.size)}
    for q in QUANTILE_LEVELS:
        out[f"q{int(round(q * 100)):02d}"] = _rank(a, q)
    return out


@dataclass(frozen=True)
class PcaModel:
    """Top-k principal axes of a feature matrix."""

    mean: np.ndarray                    # (d,)
    axes: np.ndarray                    # (k, d), orthonormal rows
    singular_values: np.ndarray         # (k,)
    explained_variance_ratio: np.ndarray  # (k,), non-increasing


def pca_fit(x, k=3) -> PcaModel:
    """Principal axes via the d x d covariance eigendecomposition.

    The feature dimension is small (60), which makes the covariance route
    cheap and exact. Axis signs follow a fixed convention: the entry of
    largest magnitude in each axis is made positive.
    """
    x = float_array(x, "samples")
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-D sample matrix, got shape {x.shape}")
    n, d = x.shape
    if not is_integer(k) or not 1 <= k <= d:
        raise ValidationError(f"k must be an integer in [1, {d}], got {k!r}")
    if n < k:
        raise ValidationError(f"need at least {k} samples, got {n}")
    mean = x.mean(axis=0)
    y = x - mean
    denom = max(n - 1, 1)
    cov = y.T @ y / denom
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    axes = evecs[:, order].T[:k]
    for row in axes:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    total = evals.sum()
    ratios = evals[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(mean=mean, axes=axes,
                    singular_values=np.sqrt(evals[:k] * denom),
                    explained_variance_ratio=ratios)


def pca_project(model: PcaModel, v):
    """Coordinates of v along the principal axes; accepts (d,) or (n, d)."""
    return (float_array(v, "samples", width=model.mean.shape[0]) - model.mean) @ model.axes.T


@dataclass
class MetricReport:
    """Per-parameter error arrays with quantile summaries."""

    task: str
    kind: str
    n_samples: int
    per_param: dict = field(default_factory=dict)   # name -> error array
    summaries: dict = field(default_factory=dict)   # name -> quantile dict
    extra: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {"task": self.task, "kind": self.kind, "n_samples": self.n_samples,
                "summaries": self.summaries, "extra": self.extra}


#: Error functions of the task table's metrics: (pred, truth, interval) ->
#: per-sample errors, on one parameter column or on whole rows.
_ERRORS = {"raw": lambda p, t, iv: np.abs(p - t),
           "circular": lambda p, t, iv: circular_error(p, t),
           "norm": lambda p, t, iv: normalized_abs_error(p, t, iv),
           "moebius": lambda p, t, iv: moebius_distance(p, t),
           "moebius_scaled": lambda p, t, iv: moebius_error_scaled(p, t)}


def _free_columns(spec, arr, what):
    """The columns of the task's free parameters: the last ones of the rows ``what``."""
    arr = float_array(arr, what)
    if arr.ndim != 2 or arr.shape[1] < len(spec.free):
        raise ValidationError(f"expected {what} rows of at least the {len(spec.free)} free "
                              f"parameters, got shape {arr.shape}")
    return arr[:, arr.shape[1] - len(spec.free):]


def seam_distance(task, params):
    """Each row's angular distance in radians to the task's seam, in [0, period / 2]:
    the angle is the one in ``Task.angles``, its period the length of its interval
    (2 pi for theta, pi for alpha). Rows are as ``evaluate_predictions`` takes
    them; collapsed complete rows (eps = 0, alpha = 0) read 0."""
    spec = get_task(task)
    (angle,) = spec.angles
    lo, hi = np.radians(spec.intervals[angle])
    col = _free_columns(spec, params, "params")[:, spec.free.index(angle)]
    d = (col - lo) % (hi - lo)
    return np.minimum(d, hi - lo - d)


def evaluate_predictions(task, kind, truth, pred, intervals) -> MetricReport:
    """Error report for matched truth/prediction parameter arrays.

    The last columns of both hold the task's free parameters; the metrics
    are those of the task's entry in ``tasks.TASKS``.
    """
    spec = get_task(task)
    if not isinstance(intervals, dict):
        raise ValidationError(f"intervals must be a dict of (lo, hi) pairs, got {intervals!r:.60}")
    truth, pred = float_array(truth, "truth"), float_array(pred, "pred")
    if truth.shape != pred.shape:
        raise ValidationError(f"shape mismatch: truth {truth.shape}, pred {pred.shape}")
    truth, pred = _free_columns(spec, truth, "truth"), _free_columns(spec, pred, "pred")
    if not truth.size:
        raise ValidationError("no rows to evaluate")
    report = MetricReport(task=task, kind=kind, n_samples=truth.shape[0])
    for m in spec.metrics:
        p, t = pred, truth
        if m.param is not None:
            j = spec.free.index(m.param)
            p, t = pred[:, j], truth[:, j]
        if m.error == "norm" and m.param not in intervals:
            raise ValidationError(f"intervals lack {m.param}, which the {m.name} error "
                                  "is normalized by")
        report.per_param[m.name] = _ERRORS[m.error](p, t, intervals.get(m.param))
    for name, arr in report.per_param.items():
        report.summaries[name] = quantile_summary(arr)
    return report


def evaluation_scatter(task, truth, pred, inputs, report):
    """Header and (S, W) rows of the per-sample evaluation scatter.

    Columns: the true free parameters, the inputs when the task's data are
    not visibilities, the predicted free parameters, then one column per
    metric of ``report``. Columns named ``*_deg`` hold degrees.
    """
    spec = get_task(task)

    def params(tag, arr, what):
        return [(f"{n}_{tag}_deg" if n in spec.angles else f"{n}_{tag}", col)
                for n, col in zip(spec.free, _free_columns(spec, arr, what).T)]

    columns = params("true", truth, "truth")
    if not spec.visibilities:
        columns += zip(spec.data_header,
                       float_array(inputs, "inputs", width=len(spec.data_header)).T)
    columns += params("pred", pred, "pred")
    columns += [(m.header, report.per_param[m.name]) for m in spec.metrics]
    header = [h for h, _ in columns]
    rows = np.column_stack([np.degrees(c) if h.endswith("_deg") else c for h, c in columns])
    return header, rows


def export_scatter(rows, header, path, comment=None):
    """Write per-sample records with a stable header; floats as %.10g.

    An optional leading '#' comment line carries run provenance without
    disturbing numeric readers.
    """
    rows = float_array(rows, "rows", width=len(header))
    write_bytes(path, format_csv(header, rows, digits=10, comment=comment))
