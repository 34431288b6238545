"""Analytic embeddings of the loop-parameter space and their robust inverses.

The orientation/curvature pair (alpha, c) of an eccentric loop lives on a
Moebius strip: the shapes at (alpha=0, c) and (alpha=pi, -c) are identical.
``gamma`` maps the pair onto the standard strip in 3-space so that identified
pairs land on the same point; ``gamma_g`` extends the map to the full
7-parameter vector, scaling the strip factor by the eccentricity so that
circular shapes (eps = 0) collapse to a well-defined point.

All angles are radians here, alpha in [0, pi). Degree conversion happens at
CLI and file boundaries only.
"""

import numpy as np
from dataclasses import dataclass

from .diagnostics import Diagnostics
from .errors import ValidationError

C_MIN_DEFAULT = -0.05
C_MAX_DEFAULT = 0.05

#: Below this eccentricity the strip factor of an 8-vector is treated as
#: collapsed: network outputs never hit exactly zero, and dividing the strip
#: coordinates by a tiny eps would amplify noise without bound.
EPS_TOL = 1e-3

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MoebiusCoords:
    """Orientation angle (radians, [0, pi)) and curvature of a loop."""

    alpha: float
    c: float

    def validate(self, c_min=C_MIN_DEFAULT, c_max=C_MAX_DEFAULT):
        if not (0.0 <= self.alpha < np.pi):
            raise ValidationError(f"alpha must be in [0, pi), got {self.alpha}")
        if not (c_min <= self.c <= c_max):
            raise ValidationError(f"c must be in [{c_min}, {c_max}], got {self.c}")

    def as_array(self):
        return np.array([self.alpha, self.c])


@dataclass(frozen=True)
class CircleParam:
    """Angle on the unit circle, radians in [0, 2*pi)."""

    theta: float

    def validate(self):
        if not (0.0 <= self.theta < TWO_PI):
            raise ValidationError(f"theta must be in [0, 2pi), got {self.theta}")


@dataclass(frozen=True)
class LoopParams:
    """The 7 parameters of a loop-shaped source.

    x_c, y_c   center, arcsec
    flux       total integral of the shape, positive
    sigma      FWHM of the circular components, arcsec, positive
    eps        eccentricity, >= 0 (0 collapses the loop to one Gaussian)
    alpha      orientation, radians in [0, pi)
    c          curvature of the supporting parabola y = c x^2
    """

    x_c: float
    y_c: float
    flux: float
    sigma: float
    eps: float
    alpha: float
    c: float

    def as_array(self):
        return np.array([self.x_c, self.y_c, self.flux, self.sigma,
                         self.eps, self.alpha, self.c])

    @classmethod
    def from_array(cls, a):
        a = np.asarray(a, dtype=float)
        if a.shape != (7,):
            raise ValidationError(f"expected 7 parameters, got shape {a.shape}")
        return cls(*(float(v) for v in a))

    def validate(self, canonical=False):
        """Physical checks always; canonical adds the sampling-domain rules.

        Forward evaluation accepts any finite rotation angle; the canonical
        domain (alpha in [0, pi), alpha = c = 0 when eps = 0) is enforced
        where parameters act as inverse-problem unknowns.
        """
        a = self.as_array()
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"non-finite parameter in {a}")
        if self.flux <= 0:
            raise ValidationError(f"flux must be positive, got {self.flux}")
        if self.sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.eps < 0:
            raise ValidationError(f"eps must be nonnegative, got {self.eps}")
        if canonical:
            if not (0.0 <= self.alpha < np.pi):
                raise ValidationError(f"alpha must be in [0, pi), got {self.alpha}")
            if self.eps == 0.0 and (self.alpha != 0.0 or self.c != 0.0):
                raise ValidationError(
                    "circular shapes (eps = 0) must carry alpha = 0 and c = 0")


def _coords(x):
    """Accept MoebiusCoords, pairs, or (..., 2) arrays."""
    if isinstance(x, MoebiusCoords):
        return x.as_array()
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != 2:
        raise ValidationError(f"expected (alpha, c) pairs, got shape {a.shape}")
    return a


def _params_array(theta):
    if isinstance(theta, LoopParams):
        return theta.as_array()
    a = np.asarray(theta, dtype=float)
    if a.shape[-1] != 7:
        raise ValidationError(f"expected 7-parameter vectors, got shape {a.shape}")
    return a


def gamma(alpha, c):
    """Map (alpha, c) onto the Moebius strip in 3-space.

        gamma(alpha, c) = ((1 + c sin a) cos 2a, (1 + c sin a) sin 2a, c cos a)

    The half-turn (2*alpha goes once around while the fiber flips) realizes
    the identification (0, c) ~ (pi, -c). Broadcasts over array inputs;
    returns shape broadcast(alpha, c) + (3,).
    """
    alpha = np.asarray(alpha, dtype=float)
    c = np.asarray(c, dtype=float)
    radial = 1.0 + c * np.sin(alpha)
    return np.stack([radial * np.cos(2.0 * alpha),
                     radial * np.sin(2.0 * alpha),
                     c * np.cos(alpha)], axis=-1)


def gamma_inv(p, diag: Diagnostics | None = None):
    """Recover (alpha, c) from a 3-space point, robustly off the strip.

    alpha is arctan2(y, x) brought into [0, 2pi) and halved. The curvature
    uses the orthogonal-projection form

        c = z cos(alpha) + (sqrt(x^2 + y^2) - 1) sin(alpha)

    which coincides with z / cos(alpha) on the strip but stays finite at
    alpha = pi/2, where the plain quotient has a pole for off-strip inputs
    (network outputs land near, not on, the strip).

    (x, y) = (0, 0) leaves the angle undefined; alpha = 0 is returned and a
    ``degenerate_direction`` event is recorded when a Diagnostics is given.
    Returns (alpha, c) as floats for a single point, arrays for batches.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValidationError(f"expected 3-space points, got shape {p.shape}")
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    degenerate = (x == 0.0) & (y == 0.0)
    n_deg = int(np.count_nonzero(degenerate))
    if n_deg and diag is not None:
        diag.warn("degenerate_direction",
                  "(x, y) = (0, 0): angle undefined, alpha set to 0", n_deg)
    angle = np.arctan2(y, x)
    angle = np.where(angle < 0.0, angle + TWO_PI, angle)
    alpha = np.where(degenerate, 0.0, 0.5 * angle)
    r = np.hypot(x, y)
    c = z * np.cos(alpha) + (r - 1.0) * np.sin(alpha)
    if p.ndim == 1:
        return float(alpha), float(c)
    return alpha, c


def gamma_g(theta):
    """Embed full parameter vectors: (x_c, y_c, flux, sigma, eps, eps*gamma(alpha, c)).

    Accepts LoopParams or (..., 7) arrays, returns (..., 8).
    """
    a = _params_array(theta)
    eps = a[..., 4]
    t = eps[..., None] * gamma(a[..., 5], a[..., 6])
    return np.concatenate([a[..., :5], t], axis=-1)


def gamma_g_inv(p, eps_tol=EPS_TOL, floors=None, diag: Diagnostics | None = None):
    """Invert the 8-vector embedding into parameter vectors, totally.

    When the predicted eccentricity (component 5) is below ``eps_tol`` the
    strip factor is treated as collapsed and alpha = c = 0 is returned;
    otherwise the last three components are divided by it and fed to
    ``gamma_inv``. Negative flux / sigma / eps are clamped to ``floors``
    (defaults: tiny positive, tiny positive, 0) with a ``clamped`` event.

    Accepts (..., 8) arrays, returns (..., 7).
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 8:
        raise ValidationError(f"expected 8-vectors, got shape {p.shape}")
    if floors is None:
        floors = (1e-9, 1e-9, 0.0)
    flux_floor, sigma_floor, eps_floor = floors

    flat = p.reshape(-1, 8)
    s = flat[:, :5].copy()
    t = flat[:, 5:8]
    eps = s[:, 4]

    alpha = np.zeros(len(flat))
    c = np.zeros(len(flat))
    live = eps >= eps_tol
    if np.any(live):
        a_live, c_live = gamma_inv(t[live] / eps[live, None], diag=diag)
        alpha[live] = np.atleast_1d(a_live)
        c[live] = np.atleast_1d(c_live)

    # flux and sigma must end up strictly positive, eps nonnegative
    for col, floor, name, strict in ((2, flux_floor, "flux", True),
                                     (3, sigma_floor, "sigma", True),
                                     (4, eps_floor, "eps", False)):
        bad = (s[:, col] <= 0.0) if strict else (s[:, col] < 0.0)
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            s[bad, col] = floor
            if diag is not None:
                diag.warn("clamped", f"non-positive {name} raised to {floor}", n_bad)

    out = np.concatenate([s, alpha[:, None], c[:, None]], axis=1)
    return out.reshape(p.shape[:-1] + (7,))


def circle_embed(theta):
    """theta -> (cos theta, sin theta); broadcasts, returns (..., 2)."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def circle_inv(p, diag: Diagnostics | None = None):
    """2-space point -> angle in [0, 2pi); radially invariant.

    The zero vector has no direction: returns 0 with a warning event.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise ValidationError(f"expected 2-space points, got shape {p.shape}")
    x, y = p[..., 0], p[..., 1]
    degenerate = (x == 0.0) & (y == 0.0)
    n_deg = int(np.count_nonzero(degenerate))
    if n_deg and diag is not None:
        diag.warn("degenerate_direction",
                  "(x, y) = (0, 0): angle undefined, theta set to 0", n_deg)
    angle = np.arctan2(y, x)
    angle = np.where(angle < 0.0, angle + TWO_PI, angle)
    angle = np.where(degenerate, 0.0, angle)
    if p.ndim == 1:
        return float(angle)
    return angle


def moebius_distance(a, b):
    """Distance between (alpha, c) pairs measured on the embedded strip.

    By construction zero exactly when the two pairs map to the same shape,
    including the seam identification (0, c) ~ (pi, -c).
    """
    aa = _coords(a)
    bb = _coords(b)
    d = np.linalg.norm(gamma(aa[..., 0], aa[..., 1]) - gamma(bb[..., 0], bb[..., 1]),
                       axis=-1)
    if aa.ndim == 1 and bb.ndim == 1:
        return float(d)
    return d
