"""Loop-shape forward model: image-plane evaluation and Fourier visibilities.

A loop is a weighted superposition of identical circular Gaussians whose
centers sit on the parabola y = c x^2 (rotated by alpha, translated to the
source center). Visibilities are samples of the 2-D Fourier transform with
the astronomical plus-sign convention

    V(u, v) = integral phi(x, y) exp(+2 pi i (x u + y v)) dx dy

so a unit-mass circular Gaussian of std s at (x0, y0) contributes
exp(2 pi i (x0 u + y0 v)) * exp(-2 pi^2 s^2 (u^2 + v^2)).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .embeddings import LoopParams, _params_array
from .errors import ParseError, ValidationError

#: FWHM of a Gaussian = 2 sqrt(2 ln 2) times its standard deviation.
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

EXPONENT_MODES = ("fwhm", "verbatim")


def fwhm_to_std(sigma):
    """Standard deviation of a Gaussian whose FWHM is sigma."""
    return sigma / FWHM_FACTOR


@dataclass(frozen=True)
class LoopBuildConfig:
    """Geometry constants for assembling a loop from Gaussian components.

    n_components  number of Gaussians (odd; one sits at the vertex)
    span_factor   half arc-length of the loop = span_factor * eps * sigma
    exponent_mode 'fwhm' treats sigma as the FWHM of each component;
                  'verbatim' reproduces the exp(-r^2 / (2 sigma)) variant
                  (audit aid; breaks flux normalization on purpose)
    """

    n_components: int = 11
    span_factor: float = 0.5
    exponent_mode: str = "fwhm"

    def validate(self):
        if self.n_components < 1 or self.n_components % 2 == 0:
            raise ValidationError(
                f"n_components must be odd and >= 1, got {self.n_components}")
        if self.span_factor <= 0:
            raise ValidationError(f"span_factor must be positive, got {self.span_factor}")
        if self.exponent_mode not in EXPONENT_MODES:
            raise ValidationError(f"exponent_mode must be one of {EXPONENT_MODES}")

    def to_dict(self):
        return {"n_components": self.n_components, "span_factor": self.span_factor,
                "exponent_mode": self.exponent_mode}

    @classmethod
    def from_dict(cls, d):
        cfg = cls(**d)
        cfg.validate()
        return cfg


DEFAULT_BUILD = LoopBuildConfig()


@dataclass(frozen=True)
class FrequencyConfig:
    """Deterministic (u, v) sampling pattern: a few points per ring.

    Radii are geometrically spaced; each ring carries ``per_radius`` points
    spread evenly in angle, with the whole ring rotated by
    ``ring_rotation_deg`` degrees per ring index.
    """

    n_radii: int = 10
    per_radius: int = 3
    r_min: float = 1.0 / 180.0
    r_max: float = 1.0 / 7.0
    ring_rotation_deg: float = 40.0

    def validate(self):
        if self.n_radii < 1 or self.per_radius < 1:
            raise ValidationError("n_radii and per_radius must be >= 1")
        if not (0 < self.r_min <= self.r_max):
            raise ValidationError(f"need 0 < r_min <= r_max, got {self.r_min}, {self.r_max}")

    def to_dict(self):
        return {"n_radii": self.n_radii, "per_radius": self.per_radius,
                "r_min": self.r_min, "r_max": self.r_max,
                "ring_rotation_deg": self.ring_rotation_deg}

    @classmethod
    def from_dict(cls, d):
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class FrequencySet:
    """Sampled spatial frequencies, arcsec^-1. ``uv`` has shape (n, 2)."""

    uv: np.ndarray

    def __post_init__(self):
        uv = np.asarray(self.uv, dtype=float)
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise ValidationError(f"uv must be (n, 2), got shape {uv.shape}")
        if uv.shape[0] < 1:
            raise ValidationError("frequency set is empty")
        if not np.all(np.isfinite(uv)):
            raise ValidationError("non-finite frequency entries")
        object.__setattr__(self, "uv", uv)

    def __len__(self):
        return self.uv.shape[0]

    @property
    def u(self):
        return self.uv[:, 0]

    @property
    def v(self):
        return self.uv[:, 1]


def default_frequencies(cfg: FrequencyConfig = FrequencyConfig()) -> FrequencySet:
    """Build the deterministic default sampling (30 points for the defaults)."""
    cfg.validate()
    if cfg.n_radii == 1:
        radii = np.array([cfg.r_min])
    else:
        ratio = cfg.r_max / cfg.r_min
        radii = cfg.r_min * ratio ** (np.arange(cfg.n_radii) / (cfg.n_radii - 1))
    pts = []
    for i, r in enumerate(radii):
        base = math.radians(cfg.ring_rotation_deg) * i
        for k in range(cfg.per_radius):
            a = base + 2.0 * math.pi * k / cfg.per_radius
            pts.append((r * math.cos(a), r * math.sin(a)))
    return FrequencySet(np.array(pts))


def save_frequencies(freqs: FrequencySet, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v"])
        for u, v in freqs.uv:
            writer.writerow([f"{u:.17g}", f"{v:.17g}"])


def load_frequencies(path) -> FrequencySet:
    """Parse a u,v CSV; raises ParseError with the offending line number."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty frequency file", path=path)
        if [h.strip().lower() for h in header] != ["u", "v"]:
            raise ParseError(f"expected header 'u,v', got {header!r}", path=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 columns, got {len(row)}", path=path, line=lineno)
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=path, line=lineno) from None
    if not rows:
        raise ParseError("frequency file has no data rows", path=path)
    return FrequencySet(np.array(rows))


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation grid; pixel centers at linspace of the bounds."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 256
    ny: int = 256

    def validate(self):
        if self.nx < 2 or self.ny < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValidationError("grid bounds must be increasing")

    @classmethod
    def centered(cls, half_width, n=256):
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.ny)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self):
        return (self.y_max - self.y_min) / (self.ny - 1)


@dataclass(frozen=True)
class LoopGeometry:
    """Resolved component layout of one loop."""

    centers: np.ndarray          # (n, 2), sky frame
    weights: np.ndarray          # (n,), sums to 1
    comp_std: float              # std of each circular Gaussian
    params: LoopParams


def build_loop_components(theta, cfg: LoopBuildConfig = DEFAULT_BUILD) -> LoopGeometry:
    """Place the Gaussian components of one loop.

    Components sit at equal arc-length steps on y = c x^2 in the loop frame,
    symmetric about the vertex, out to half arc-span L = span_factor * eps *
    sigma on each side. Weights fall off with arc distance d from the vertex
    as exp(-d^2 / (2 (L/2 + s)^2)) and are normalized to sum to one. The
    configuration is rotated by alpha about the vertex and moved to the
    center. eps = 0 returns the single circular component.
    """
    if not isinstance(theta, LoopParams):
        theta = LoopParams.from_array(_params_array(theta))
    theta.validate()
    cfg.validate()

    s = fwhm_to_std(theta.sigma)
    if theta.eps == 0.0 or cfg.n_components == 1:
        return LoopGeometry(centers=np.array([[theta.x_c, theta.y_c]]),
                            weights=np.array([1.0]), comp_std=s, params=theta)

    half = (cfg.n_components - 1) // 2
    span = cfg.span_factor * theta.eps * theta.sigma
    d_pos = np.arange(1, half + 1) * (span / half)
    x_pos = _batch_x_at_arc(d_pos[None, :], np.array([theta.c]))[0]

    # mirror the positive side so the layout is exactly symmetric
    xs = np.concatenate([-x_pos[::-1], [0.0], x_pos])
    arc = np.concatenate([-d_pos[::-1], [0.0], d_pos])
    local = np.stack([xs, theta.c * xs * xs], axis=1)

    width = 0.5 * span + s
    w = np.exp(-arc * arc / (2.0 * width * width))
    w = w / w.sum()

    cos_a, sin_a = math.cos(theta.alpha), math.sin(theta.alpha)
    rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    centers = local @ rot.T + np.array([theta.x_c, theta.y_c])
    return LoopGeometry(centers=centers, weights=w, comp_std=s, params=theta)


def _mode_amp_env(flux, sigma, comp_std, uv2, mode):
    """Amplitude and Fourier envelope for the configured exponent mode."""
    if mode == "fwhm":
        return flux, np.exp(-2.0 * math.pi ** 2 * comp_std ** 2 * uv2)
    # verbatim: exp(-r^2 / (2 sigma)) components, variance sigma, mass 2*pi*sigma
    return flux / sigma, np.exp(-2.0 * math.pi ** 2 * sigma * uv2)


def visibilities_closed_form(theta, freqs: FrequencySet,
                             cfg: LoopBuildConfig = DEFAULT_BUILD) -> np.ndarray:
    """Analytic visibilities of one loop at the given frequencies (complex)."""
    geo = build_loop_components(theta, cfg)
    u, v = freqs.u, freqs.v
    phase = np.exp(2j * math.pi * (geo.centers[:, 0:1] * u[None, :]
                                   + geo.centers[:, 1:2] * v[None, :]))
    shape_sum = geo.weights @ phase
    amp, env = _mode_amp_env(geo.params.flux, geo.params.sigma, geo.comp_std,
                             u * u + v * v, cfg.exponent_mode)
    return amp * shape_sum * env


def visibilities_closed_form_batch(thetas, freqs: FrequencySet,
                                   cfg: LoopBuildConfig = DEFAULT_BUILD,
                                   chunk=2048) -> np.ndarray:
    """Vectorized closed form over an (S, 7) parameter array -> (S, n) complex.

    Uses the same component layout as the scalar path; for eps = 0 every
    component degenerates to the center with uniform weights, which sums to
    the identical single-Gaussian value.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != 7:
        raise ValidationError(f"expected (S, 7) parameters, got {thetas.shape}")
    cfg.validate()
    if cfg.n_components == 1:
        half = 0
    else:
        half = (cfg.n_components - 1) // 2
    u, v = freqs.u, freqs.v
    uv2 = u * u + v * v
    out = np.empty((thetas.shape[0], len(freqs)), dtype=complex)

    for lo in range(0, thetas.shape[0], chunk):
        t = thetas[lo:lo + chunk]
        x_c, y_c, flux, sigma, eps, alpha, c = (t[:, i] for i in range(7))
        s = fwhm_to_std(sigma)
        span = cfg.span_factor * eps * sigma

        if half:
            d_pos = (span / half)[:, None] * np.arange(1, half + 1)[None, :]
            x_pos = _batch_x_at_arc(d_pos, c)
            xs = np.concatenate([-x_pos[:, ::-1], np.zeros((len(t), 1)), x_pos], axis=1)
            arc = np.concatenate([-d_pos[:, ::-1], np.zeros((len(t), 1)), d_pos], axis=1)
        else:
            xs = np.zeros((len(t), 1))
            arc = np.zeros((len(t), 1))
        ys = c[:, None] * xs * xs

        width = 0.5 * span + s
        w = np.exp(-arc * arc / (2.0 * width * width)[:, None])
        w /= w.sum(axis=1, keepdims=True)

        cx = np.cos(alpha)[:, None] * xs - np.sin(alpha)[:, None] * ys + x_c[:, None]
        cy = np.sin(alpha)[:, None] * xs + np.cos(alpha)[:, None] * ys + y_c[:, None]

        phase = np.exp(2j * math.pi * (cx[:, :, None] * u[None, None, :]
                                       + cy[:, :, None] * v[None, None, :]))
        shape_sum = np.einsum("sk,skj->sj", w, phase)
        if cfg.exponent_mode == "fwhm":
            env = np.exp(-2.0 * math.pi ** 2 * (s * s)[:, None] * uv2[None, :])
            out[lo:lo + chunk] = flux[:, None] * shape_sum * env
        else:
            env = np.exp(-2.0 * math.pi ** 2 * sigma[:, None] * uv2[None, :])
            out[lo:lo + chunk] = (flux / sigma)[:, None] * shape_sum * env
    return out


def _batch_x_at_arc(s, c, max_iter=60, tol=1e-13):
    """Invert the arc length of y = c x^2 row by row: x >= 0 with arclen(x) = s.

    s is (S, k) and nonnegative, c is (S,). Newton from x = s converges
    monotonically (the arc length is increasing and convex for x > 0 and
    arclen(x) >= x).
    """
    c = np.asarray(c, dtype=float)[:, None]
    x = np.asarray(s, dtype=float).copy()
    straight = (c == 0.0)
    for _ in range(max_iter):
        u = 2.0 * c * x
        grad = np.sqrt(1.0 + u * u)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = 0.5 * (x * grad + np.where(straight, 2.0 * x, np.arcsinh(u) / (2.0 * c))) - s
        f = np.where(straight, x - s, f)
        step = f / grad
        x = x - step
        if np.max(np.abs(step)) < tol * max(1.0, float(np.max(np.abs(x)))):
            break
    return x


def eval_image(theta, grid: GridSpec, cfg: LoopBuildConfig = DEFAULT_BUILD) -> np.ndarray:
    """Pixel values of the loop on a grid; array shape (ny, nx).

    img[i, j] = phi(xs[j], ys[i]). In fwhm mode the Riemann sum times the
    pixel area approximates the flux.
    """
    grid.validate()
    geo = build_loop_components(theta, cfg)
    xs, ys = grid.xs(), grid.ys()
    img = np.zeros((grid.ny, grid.nx))
    if cfg.exponent_mode == "fwhm":
        two_var = 2.0 * geo.comp_std ** 2
        norm = geo.params.flux / (2.0 * math.pi * geo.comp_std ** 2)
    else:
        two_var = 2.0 * geo.params.sigma
        norm = geo.params.flux / (2.0 * math.pi * geo.params.sigma ** 2)
    for (cx, cy), w in zip(geo.centers, geo.weights):
        dx2 = (xs - cx) ** 2
        dy2 = (ys - cy) ** 2
        img += (w * norm) * np.exp(-(dy2[:, None] + dx2[None, :]) / two_var)
    return img


def quadrature_grid_for(theta, cfg: LoopBuildConfig = DEFAULT_BUILD,
                        pad_sigmas=10.0, n=1024) -> GridSpec:
    """Grid covering the component bounding box plus pad_sigmas * sigma."""
    geo = build_loop_components(theta, cfg)
    pad = pad_sigmas * geo.params.sigma
    return GridSpec(float(geo.centers[:, 0].min() - pad),
                    float(geo.centers[:, 0].max() + pad),
                    float(geo.centers[:, 1].min() - pad),
                    float(geo.centers[:, 1].max() + pad), n, n)


def visibilities_quadrature_oracle(theta, freqs: FrequencySet, grid: GridSpec = None,
                                   cfg: LoopBuildConfig = DEFAULT_BUILD,
                                   diag: Diagnostics | None = None) -> np.ndarray:
    """Trapezoid-rule Fourier transform of the rendered image. Test oracle.

    Independent of the closed form: integrates eval_image numerically. The
    separable phase exp(2 pi i (xu + yv)) factorizes, so each frequency costs
    one bilinear form in the image.
    """
    if grid is None:
        grid = quadrature_grid_for(theta, cfg)
    grid.validate()
    geo = build_loop_components(theta, cfg)
    step = max(grid.dx, grid.dy)
    if step > geo.comp_std / 2.0 and diag is not None:
        diag.warn("coarse_grid",
                  f"grid step {step:.3g} exceeds half the component std "
                  f"{geo.comp_std:.3g}; quadrature may be inaccurate")
    img = eval_image(theta, grid, cfg)
    xs, ys = grid.xs(), grid.ys()
    wx = np.full(grid.nx, grid.dx)
    wx[0] = wx[-1] = 0.5 * grid.dx
    wy = np.full(grid.ny, grid.dy)
    wy[0] = wy[-1] = 0.5 * grid.dy

    out = np.empty(len(freqs), dtype=complex)
    for j, (u, v) in enumerate(freqs.uv):
        ax = wx * np.exp(2j * math.pi * xs * u)
        ay = wy * np.exp(2j * math.pi * ys * v)
        out[j] = ay @ img @ ax
    return out


def vis_to_reals(v) -> np.ndarray:
    """Complex visibilities -> real vector (re_1..re_n, im_1..im_n)."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag], axis=-1)


def reals_to_vis(x) -> np.ndarray:
    """Inverse of vis_to_reals."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n % 2:
        raise ValidationError(f"real-coded visibilities must have even length, got {n}")
    h = n // 2
    return x[..., :h] + 1j * x[..., h:]


def add_noise(v, flux, rng) -> np.ndarray:
    """Add white Gaussian noise of std 2 sqrt(flux) to each real component.

    ``v`` is one (n,) visibility vector or (S, n) rows of them. ``flux`` is
    a scalar, or an (S, 1) column giving each row its own flux; an (S,)
    vector is refused, because it would broadcast along the data columns.
    Deterministic given the generator state; one normal draw per component,
    row after row, in (re..., im...) order.
    """
    flux = np.asarray(flux, dtype=float)
    x = vis_to_reals(v)
    if flux.ndim and flux.shape != x.shape[:-1] + (1,):
        raise ValidationError(
            f"flux must be a scalar or a column of shape {x.shape[:-1] + (1,)}, "
            f"got shape {flux.shape}")
    if not np.all(flux > 0):
        raise ValidationError(f"flux must be positive, got {flux.min()}")
    x += rng.normal(0.0, 2.0 * np.sqrt(flux), size=x.shape)
    return reals_to_vis(x)


def save_image_csv(img, grid: GridSpec, path):
    """Flat CSV dump: x, y, value per row."""
    xs, ys = grid.xs(), grid.ys()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                writer.writerow([f"{x:.10g}", f"{y:.10g}", f"{img[i, j]:.10g}"])

