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

from .diagnostics import Diagnostics
from .errors import ValidationError
from .serialization import float_array

C_MIN_DEFAULT = -0.05
C_MAX_DEFAULT = 0.05

#: Below this eccentricity the strip factor of an 8-vector is treated as
#: collapsed: network outputs never hit exactly zero, and dividing the strip
#: coordinates by a tiny eps would amplify noise without bound.
EPS_TOL = 1e-3

TWO_PI = 2.0 * np.pi


def validate_param_rows(thetas):
    """The parameter rules: every value finite, flux > 0, sigma > 0, eps >= 0.

    thetas must be (S, 7), or ``ValidationError`` names its shape; the first row
    that breaks a rule raises ``ValidationError`` naming the row and the rule.
    """
    thetas = float_array(thetas, "parameters")
    if thetas.ndim != 2 or thetas.shape[1] != 7:
        raise ValidationError(f"expected (S, 7) parameters, got shape {thetas.shape}")
    rules = (("parameters must be finite", ~np.isfinite(thetas).all(axis=1)),
             ("flux must be positive", thetas[:, 2] <= 0),
             ("sigma must be positive", thetas[:, 3] <= 0),
             ("eps must be nonnegative", thetas[:, 4] < 0))
    bad = np.logical_or.reduce([mask for _, mask in rules])
    if bad.any():
        i = int(np.argmax(bad))
        rule = next(name for name, mask in rules if mask[i])
        raise ValidationError(f"row {i}: {rule}, got {thetas[i].tolist()}")


def _direction(x, y, name, diag):
    """The angle of (x, y) in [0, 2pi). (0, 0) has none: 0 is returned, and a
    ``degenerate_direction`` event is recorded when a Diagnostics is given."""
    degenerate = (x == 0.0) & (y == 0.0)
    n_deg = int(np.count_nonzero(degenerate))
    if n_deg and diag is not None:
        diag.warn("degenerate_direction",
                  f"(x, y) = (0, 0): angle undefined, {name} set to 0", n_deg)
    angle = np.arctan2(y, x)
    return np.where(degenerate, 0.0, np.where(angle < 0.0, angle + TWO_PI, angle))


def gamma(alpha, c):
    """Map (alpha, c) onto the Moebius strip in 3-space.

        gamma(alpha, c) = ((1 + c sin a) cos 2a, (1 + c sin a) sin 2a, c cos a)

    The half-turn (2*alpha goes once around while the fiber flips) realizes
    the identification (0, c) ~ (pi, -c). Broadcasts over array inputs;
    returns shape broadcast(alpha, c) + (3,).
    """
    alpha, c = float_array(alpha, "alpha"), float_array(c, "c")
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
    p = float_array(p, "3-space points", width=3)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    alpha = 0.5 * _direction(x, y, "alpha", diag)
    r = np.hypot(x, y)
    c = z * np.cos(alpha) + (r - 1.0) * np.sin(alpha)
    if p.ndim == 1:
        return float(alpha), float(c)
    return alpha, c


def gamma_g(theta):
    """Embed full parameter vectors: (x_c, y_c, flux, sigma, eps, eps*gamma(alpha, c)).

    Accepts (..., 7) arrays, returns (..., 8).
    """
    a = float_array(theta, "7-parameter vectors", width=7)
    return np.concatenate([a[..., :5], scaled_strip(a)], axis=-1)


def scaled_strip(theta):
    """eps * gamma(alpha, c), the last three components of ``gamma_g``, of
    (..., 7) parameter vectors; returns (..., 3)."""
    a = float_array(theta, "7-parameter vectors", width=7)
    return a[..., 4:5] * gamma(a[..., 5], a[..., 6])


def gamma_g_inv(p, floors=None, diag: Diagnostics | None = None):
    """Invert the 8-vector embedding into parameter vectors, totally.

    When the predicted eccentricity (component 5) is below ``EPS_TOL`` the
    strip factor is treated as collapsed and alpha = c = 0 is returned;
    otherwise the last three components are divided by it and fed to
    ``gamma_inv``. Negative flux / sigma / eps are clamped to ``floors``
    (defaults: tiny positive, tiny positive, 0) with a ``clamped`` event.

    Accepts (..., 8) arrays, returns (..., 7).
    """
    p = float_array(p, "8-vectors", width=8)
    if floors is None:
        floors = (1e-9, 1e-9, 0.0)
    flux_floor, sigma_floor, eps_floor = floors

    flat = p.reshape(-1, 8)
    out = np.zeros((len(flat), 7))  # the result, filled column block by block
    s, alpha, c = out[:, :5], out[:, 5], out[:, 6]
    s[...] = flat[:, :5]
    eps = flat[:, 4]

    live = eps >= EPS_TOL
    if np.any(live):
        alpha[live], c[live] = gamma_inv(flat[live, 5:8] / eps[live, None], diag=diag)

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

    return out.reshape(p.shape[:-1] + (7,))


def circle_embed(theta):
    """theta -> (cos theta, sin theta); broadcasts, returns (..., 2)."""
    theta = float_array(theta, "theta")
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def circle_inv(p, diag: Diagnostics | None = None):
    """2-space point -> angle in [0, 2pi); radially invariant.

    The zero vector has no direction: returns 0 with a warning event.
    """
    p = float_array(p, "2-space points", width=2)
    angle = _direction(p[..., 0], p[..., 1], "theta", diag)
    if p.ndim == 1:
        return float(angle)
    return angle


def moebius_distance(a, b):
    """Distance between (alpha, c) pairs measured on the embedded strip.

    By construction zero exactly when the two pairs map to the same shape,
    including the seam identification (0, c) ~ (pi, -c).
    """
    aa, bb = (float_array(x, "(alpha, c) pairs", width=2) for x in (a, b))
    d = np.linalg.norm(gamma(aa[..., 0], aa[..., 1]) - gamma(bb[..., 0], bb[..., 1]),
                       axis=-1)
    if aa.ndim == 1 and bb.ndim == 1:
        return float(d)
    return d
