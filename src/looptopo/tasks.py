"""The task table: one entry per inverse problem, each with its parameter space.

  circle    the angle theta on S^1, from the point (cos theta, sin theta)
  simple    (alpha, c) on the Moebius strip, from noise-free visibilities;
            the other loop parameters are pinned
  complete  all seven loop parameters, from noisy visibilities; (alpha, c)
            live on the Moebius strip scaled by eps, which collapses to a
            point at eps = 0

An entry says how a task's data are drawn and stored, which outputs its
naive and embedded operators train against, how their outputs map back to
parameters, and how the errors are scored and written out. Data, training,
evaluation and the CLI read the entry instead of branching on the name, so a
new workload is one more entry.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .embeddings import (C_MAX_DEFAULT, C_MIN_DEFAULT, EPS_TOL, circle_embed,
                         circle_inv, gamma, gamma_g, gamma_g_inv, gamma_inv)
from .errors import ValidationError
from .serialization import check_intervals, float_array

KINDS = ("naive", "embedded")

#: The 7 parameters of a loop, the columns of every (7,) row and (S, 7) array:
#:   x_c, y_c   center, arcsec
#:   flux       total integral of the shape, positive
#:   sigma      FWHM of the circular components, arcsec, positive
#:   eps        eccentricity, >= 0 (0 collapses the loop to one Gaussian)
#:   alpha      orientation, radians in [0, pi) (degrees at the CLI and on disk)
#:   c          curvature of the supporting parabola y = c x^2
SCALE_PARAMS = ("x_c", "y_c", "flux", "sigma", "eps")
LOOP_PARAMS = SCALE_PARAMS + ("alpha", "c")
LOOP_UNITS = ("arcsec", "arcsec", "counts", "arcsec", "", "deg", "")


class Metric(NamedTuple):
    """An error function applied to the column of ``param`` (to whole rows
    when None), and its column in the evaluate scatter CSV."""

    error: str
    param: str | None
    header: str

    @property
    def name(self):
        return self.error if self.param is None else f"{self.param}_{self.error}"


@dataclass(frozen=True)
class Task:
    """One inverse problem: its parameters, data, operators and scoring."""

    name: str
    params: tuple            # columns of a params array
    units: tuple             # per param, at the CLI and disk boundary; "deg" marks an angle
    free: tuple              # the params the operators recover; naive clamping uses these
    intervals: dict          # draw ranges, external units; they also normalize the
                             # error metrics; a degenerate interval pins its param
    split_sizes: tuple       # default train / val / test sizes
    noise: bool              # default of SamplingConfig.noise
    circular_fraction: float  # default share of eps = 0 draws
    collapses: bool          # eps = 0 draws exist, with alpha = c = 0
    data_header: tuple       # None: the data are real-coded visibilities;
                             # otherwise they are the embedded point itself
    embedding: str           # id of the embedded kind's map, stored in checkpoints
    embedded_dim: int
    embed_rows: Callable     # (S, P) float params -> (S, embedded_dim); call ``embed``
    invert_rows: Callable    # (S, embedded_dim) floats, intervals, diag -> (S, len(free)),
                             # total; call ``invert``
    transforms: dict         # kind -> "minmax" or "zscore" target transform
    metrics: tuple           # of Metric

    @property
    def visibilities(self):
        return self.data_header is None

    @property
    def angles(self):
        return tuple(n for n, u in zip(self.params, self.units) if u == "deg")

    @property
    def angle_columns(self):
        return [self.params.index(n) for n in self.angles]

    @property
    def free_columns(self):
        return [self.params.index(n) for n in self.free]

    @property
    def header(self):
        """Predicted-parameter CSV columns."""
        return [f"{n}_deg" if u == "deg" else n for n, u in zip(self.params, self.units)]

    def embed(self, params):
        """The embedded operator's targets: (S, P) parameters -> (S, embedded_dim)."""
        n = len(self.params)
        return self.embed_rows(float_array(params, f"(S, {n}) parameters", width=n, ndim=2))

    def invert(self, out, intervals, diag=None):
        """The embedded operator's outputs, (S, embedded_dim) -> (S, len(free)) parameters."""
        out = float_array(out, "embedded outputs", width=self.embedded_dim, ndim=2)
        return self.invert_rows(out, check_intervals(intervals, self.params), diag)

    def clamp(self, out, intervals, diag=None):
        """Naive outputs, (S, len(free)), clamped into the parameter intervals,
        angles into their half-open interval; a parameter without an interval
        is left as it is."""
        clamped = float_array(out, "naive outputs", width=len(self.free), ndim=2).copy()
        intervals = check_intervals(intervals, self.free)
        total = 0
        for j, name in enumerate(self.free):
            lo, hi = intervals.get(name, (-np.inf, np.inf))
            if name in self.angles:
                hi = np.nextafter(hi, lo)
            col = clamped[:, j]
            bad = (col < lo) | (col > hi)
            total += int(bad.sum())
            np.clip(col, lo, hi, out=col)
        if total and diag is not None:
            diag.warn("clamped", "naive outputs outside the parameter intervals", total)
        return clamped


# The embeddings are called through this module's globals at call time, so
# that wrapping them (as a tracer does) reaches every call.

def _report_out_of_domain(c, intervals, diag):
    """Count, without clamping, the curvatures outside the c interval."""
    lo, hi = intervals.get("c", (-np.inf, np.inf))
    n = int(np.count_nonzero((c < lo) | (c > hi)))
    if n and diag is not None:
        diag.warn("out_of_domain", "embedded curvatures outside the c interval, "
                  "returned unclamped", n)


def _strip_inv(out, intervals, diag):
    result = np.stack(gamma_inv(out, diag=diag), axis=1)
    _report_out_of_domain(result[:, 1], intervals, diag)
    return result


def _collapsing_strip_inv(out, intervals, diag):
    floors = (intervals.get("flux", (1e-9,))[0],
              intervals.get("sigma", (1e-9,))[0],
              max(intervals.get("eps", (0.0,))[0], 0.0))
    result = gamma_g_inv(out, floors=floors, diag=diag)
    # collapsed rows carry c = 0 by construction, whatever the interval
    live = out[:, 4] >= EPS_TOL
    _report_out_of_domain(result[live, 6], intervals, diag)
    return result


_ALPHA_C = {"alpha": (0.0, 180.0), "c": (C_MIN_DEFAULT, C_MAX_DEFAULT)}

TASKS = {t.name: t for t in (
    Task(name="circle", params=("theta",), units=("deg",), free=("theta",),
         intervals={"theta": (0.0, 360.0)}, split_sizes=(5000, 1000, 1000),
         noise=False, circular_fraction=0.0, collapses=False, data_header=("x", "y"),
         embedding="circle", embedded_dim=2,
         embed_rows=lambda params: circle_embed(params[:, 0]),
         invert_rows=lambda out, intervals, diag: circle_inv(out, diag=diag)[:, None],
         transforms={},
         metrics=(Metric("circular", "theta", "circular_error_rad"),
                  Metric("raw", "theta", "raw_error_rad"))),
    Task(name="simple", params=LOOP_PARAMS, units=LOOP_UNITS, free=("alpha", "c"),
         intervals={"x_c": (0.0, 0.0), "y_c": (0.0, 0.0), "flux": (1000.0, 1000.0),
                    "sigma": (8.0, 8.0), "eps": (5.0, 5.0), **_ALPHA_C},
         split_sizes=(30000, 10000, 10000),
         noise=False, circular_fraction=0.0, collapses=False, data_header=None,
         embedding="moebius3", embedded_dim=3,
         embed_rows=lambda params: gamma(params[:, 5], params[:, 6]),
         invert_rows=_strip_inv, transforms={},
         metrics=(Metric("moebius", None, "moebius_error"),
                  Metric("raw", "alpha", "alpha_err_deg"),
                  Metric("raw", "c", "c_err"))),
    Task(name="complete", params=LOOP_PARAMS, units=LOOP_UNITS, free=LOOP_PARAMS,
         intervals={"x_c": (-50.0, 50.0), "y_c": (-50.0, 50.0),
                    "flux": (500.0, 5000.0), "sigma": (4.0, 20.0), "eps": (0.0, 5.0),
                    **_ALPHA_C},
         split_sizes=(60000, 20000, 20000),
         noise=True, circular_fraction=0.05, collapses=True, data_header=None,
         embedding="moebius8", embedded_dim=8,
         embed_rows=lambda params: gamma_g(params),
         invert_rows=_collapsing_strip_inv,
         # the embedded targets mix scales from ~0.05 (curvature strip
         # coordinates) to ~5000 (flux); standardizing them keeps Adam's
         # bounded per-step movement from starving the small components
         transforms={"naive": "minmax", "embedded": "zscore"},
         metrics=(*(Metric("norm", n, f"{n}_norm_err") for n in SCALE_PARAMS),
                  Metric("moebius_scaled", None, "moebius_error"))),
)}


def get_task(name) -> Task:
    try:
        return TASKS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name read from a file
        raise ValidationError(f"unknown task {name!r}") from None
