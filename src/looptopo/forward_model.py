"""Loop-shape forward model: image-plane evaluation and Fourier visibilities.

One loop is a (7,) row in internal units, columns as in ``tasks.LOOP_PARAMS``
(alpha in radians); many loops are an (S, 7) array. The batch kernel takes
arrays; ``build_loop_components``, ``visibilities_closed_form``, ``eval_image``
and ``visibilities_quadrature_oracle`` take one row.

A loop is a weighted superposition of identical circular Gaussians whose
centers sit on the parabola y = c x^2 (rotated by alpha, translated to the
source center). Visibilities are samples of the 2-D Fourier transform with
the astronomical plus-sign convention

    V(u, v) = integral phi(x, y) exp(+2 pi i (x u + y v)) dx dy

so a unit-mass circular Gaussian of std s at (x0, y0) contributes
exp(2 pi i (x0 u + y0 v)) * exp(-2 pi^2 s^2 (u^2 + v^2)).

The components come in mirror pairs about the vertex: in the loop frame
x_{-k} = -x_k, y_{-k} = y_k = c x_k^2 and w_{-k} = w_k. With the frequency
components along and across the loop axis

    p = u cos(alpha) + v sin(alpha),    q = -u sin(alpha) + v cos(alpha)

and phi = 2 pi (x_c u + y_c v), the weighted sum of component phases is

    exp(i phi) [w_0 + 2 sum_{k=1..h} w_k cos(2 pi x_k p) exp(2 pi i y_k q)]

which ``visibilities_closed_form_batch`` evaluates in real arithmetic and
returns real-coded: each row holds the n real parts and then the n imaginary
parts (re_1..re_n, im_1..im_n), the layout a dataset stores and ``add_noise``
takes; ``reals_to_vis`` turns such rows back into complex values. It
takes every cosine and sine from one tangent of the half angle
(``_cos_sin``): with t = tan(theta / 2),

    cos(theta) = (1 - t^2) / (1 + t^2),    sin(theta) = 2 t / (1 + t^2)

so the pair of exp(i phi) and of each exp(2 pi i y_k q) costs one tangent,
and so does each cos(2 pi x_k p), which ``_cos`` takes by the same formula
without its sine. numpy 2.4 runs float64 cos and sin as
scalar loops but vectorizes tan on AVX-512 (about 8x faster per entry on a
Xeon), so a tangent and seven arithmetic passes cost less than one cos.

Each decision of the model is made in one place. ``_loop_half`` is the one
layout: it places the positive half of the components (x_k, w_k) for rows of
parameters, for the batch kernel and for ``build_loop_components`` (and
through it ``eval_image`` and the quadrature oracle). ``_component_mass_var``
is the one exponent-mode formula: the mass and variance of a component, from
which both closed forms take their envelope and ``eval_image`` its
normalization. The parameter rules are ``embeddings.validate_param_rows``. The
batch kernel has one range rule, on its result: an entry that overflowed (any phase,
or the envelope exponent) is 0 where its envelope is 0, as is the visibility, and
otherwise refuses its row. The scalar ``visibilities_closed_form`` sums one complex
phase per component and is the reference the batch kernel is tested against; the
two agree to rounding, not bit for bit.

The batch kernel lays out the loops on the calling thread: ``_loop_half``
checks the range of every row's layout in one pass, so a row it refuses is
named ahead of any that the arc-length solve refuses, then solves the layout
in pieces of ``_LAYOUT_PIECE`` rows. The kernel then sums the visibilities in
blocks of ``CLOSED_FORM_CHUNK`` rows on every CPU the process may use, through
``pool.ordered_map``, which keeps their order: the refused row is the first,
and the bytes of the result are the same on any number of CPUs. A block does
its work on (rows, n) arrays once: the frequencies along and across the axis,
the centre phase, the envelope, the final combination and the range rule. Its
pair sums, over (h, n, rows) arrays, run in sub-blocks of ``_PAIR_ROWS`` rows.
Every array of a block is held rows last, so numpy runs its inner loops over
the rows rather than the n frequencies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .embeddings import validate_param_rows
from .errors import ParseError, ValidationError
from .pool import ordered_map
from .serialization import (MAX_FLOATS, check_fields, config_from_dict, config_to_dict, float_array,
                            parse_csv, read_bytes)

#: FWHM of a Gaussian = 2 sqrt(2 ln 2) times its standard deviation.
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

EXPONENT_MODES = ("fwhm", "verbatim")

#: Rows per pooled block of ``visibilities_closed_form_batch``, the unit ``ordered_map``
#: hands out; a row's result is the same at any size. A block does its (rows, n) work
#: once: at 256 rows its ~30 numpy calls on such small arrays were dominated by call
#: overhead and by the GIL passing between the pool's threads.
CLOSED_FORM_CHUNK = 1024
#: Rows per sub-block of a block's (h, n, rows) pair sums; a row's result is the same at
#: any size. At 256 rows each (5, 30, rows) float64 temporary is 300 kB, and the few alive
#: at once stay in a 2 MB L2 cache; 2048 rows spill them and make the kernel ~1.3x slower.
_PAIR_ROWS = 256
#: Rows per piece of ``_loop_half``'s layout; a row's layout is the same at any size.
#: Solved for the whole batch at once, the arc-length Newton held ~750 B of
#: temporaries a row; a 1,024-row piece holds under 1 MB. Smaller pieces cost more
#: calls: a layout inside each 256-row kernel block made the kernel slower, as its
#: many small numpy calls contend for the GIL. For the same reason the pieces run
#: on the calling thread: mapped over the pool they were no faster, as during
#: ``generate_dataset`` the pool's helper is drawing the noise, and which pieces
#: it took depended on when it came free.
_LAYOUT_PIECE = 1024
#: Newton on the arc length: the relative step that freezes an entry, and the cap.
_ARC_TOL, _ARC_MAX_ITER = 1e-13, 60


def fwhm_to_std(sigma):
    """Standard deviation of a Gaussian whose FWHM is sigma."""
    return float_array(sigma, "sigma") / FWHM_FACTOR


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

    def __post_init__(self):
        check_fields(self, n_components=1)
        if self.n_components % 2 == 0:
            raise ValidationError(f"n_components must be odd, got {self.n_components}")
        if self.span_factor <= 0:
            raise ValidationError(f"span_factor must be positive, got {self.span_factor}")
        if self.exponent_mode not in EXPONENT_MODES:
            raise ValidationError(f"exponent_mode must be one of {EXPONENT_MODES}")

    to_dict = config_to_dict
    from_dict = classmethod(config_from_dict)


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

    def __post_init__(self):
        check_fields(self, n_radii=1, per_radius=1)
        if not (0 < self.r_min <= self.r_max):
            raise ValidationError(f"need 0 < r_min <= r_max, got {self.r_min}, {self.r_max}")

    from_dict = classmethod(config_from_dict)


@dataclass(frozen=True)
class FrequencySet:
    """Sampled spatial frequencies, arcsec^-1. ``uv`` has shape (n, 2).

    Every row's u^2 + v^2 must be finite (so every entry is), as the kernel's
    Gaussian envelope takes it.
    """

    uv: np.ndarray

    def __post_init__(self):
        uv = float_array(self.uv, "(n, 2) uv", width=2, ndim=2)
        if uv.shape[0] < 1:
            raise ValidationError("frequency set is empty")
        with np.errstate(over="ignore"):  # rows that overflow are refused below
            bad = ~np.isfinite(uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1])
        if bad.any():
            raise ValidationError(f"frequency row {np.argmax(bad)}: u^2 + v^2 is not finite")
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


def load_frequencies(path) -> FrequencySet:
    """Parse a u,v CSV; raises ParseError with the offending line number."""
    header, uv = parse_csv(read_bytes(path), path, width=2)
    if header is None or [h.strip().lower() for h in header] != ["u", "v"]:
        raise ParseError(f"expected header 'u,v', got {header!r}", path=path, line=1)
    return FrequencySet(uv)


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation grid; pixel centers at linspace of the bounds."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 256
    ny: int = 256

    def __post_init__(self):
        check_fields(self, nx=2, ny=2)
        if self.nx * self.ny > MAX_FLOATS:
            raise ValidationError(f"a grid of {self.nx} x {self.ny} pixels exceeds the "
                                  f"{MAX_FLOATS} values one array may hold")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValidationError("grid bounds must be increasing")
        if not (self.x_max - self.x_min < math.inf and self.y_max - self.y_min < math.inf):
            raise ValidationError("grid bounds must span a finite width and height")

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


def build_loop_components(theta, cfg: LoopBuildConfig = DEFAULT_BUILD):
    """Place the Gaussian components of one loop, a (7,) row.

    The positive half comes from ``_loop_half``; it is mirrored about the
    vertex, the weights are normalized to sum to one, and the configuration
    is rotated by alpha about the vertex and moved to the center. eps = 0
    returns the single circular component. Returns (centers, weights): the
    (n, 2) sky-frame centers and the (n,) weights.
    """
    theta = float_array(theta, "7 parameters", width=7, ndim=1)
    validate_param_rows(theta[None])

    x_c, y_c, _, _, eps, alpha, c = theta
    if eps == 0.0 or cfg.n_components == 1:
        return np.array([[x_c, y_c]]), np.array([1.0])

    x_pos, w_pos = (a[0] for a in _loop_half(theta[None], cfg))
    # mirror the positive side so the layout is exactly symmetric
    xs = np.concatenate([-x_pos[::-1], [0.0], x_pos])
    w = np.concatenate([w_pos[::-1], [1.0], w_pos])
    w = w / w.sum()
    local = np.stack([xs, c * xs * xs], axis=1)

    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    return local @ rot.T + np.array([x_c, y_c]), w


def _loop_half(thetas, cfg: LoopBuildConfig):
    """The positive half of the loop layout of (S, 7) rows, in the loop frame.

    Components sit at equal arc-length steps d_k = k L / h (k = 1..h, h the
    number of pairs) on y = c x^2, out to the half arc-span
    L = span_factor * eps * sigma. Their weights, relative to the vertex's 1,
    fall off as exp(-d^2 / (2 (L/2 + s)^2)) with s the component std.
    Returns the x positions and the weights, both (S, h); needs h >= 1.

    One range check over all rows comes first: a row whose d_h^2 overflows or
    whose 2 (L/2 + s)^2 is not a normal float (NaN or digitless weights)
    raises ``ValidationError`` naming it, ahead of any row the arc-length
    Newton would refuse. The steps, the weights and the Newton solve then run
    ``_LAYOUT_PIECE`` rows at a time, in order, each piece writing its rows of
    the two results, so no temporary spans every row; the first piece's
    refusal is raised. Every entry is solved on its own, so the result does not
    depend on the piece size.
    """
    half = (cfg.n_components - 1) // 2
    sigma, eps, c = thetas[:, 3], thetas[:, 4], thetas[:, 6]
    with np.errstate(over="ignore"):  # rows that overflow are refused below
        span = cfg.span_factor * eps * sigma
        last = (span / half) * half  # d_h, with the bits of the steps' last column
        width = 0.5 * span + fwhm_to_std(sigma)
        two_var = 2.0 * width * width
        bad = ~((two_var >= 2.0 ** -1022) & (two_var < np.inf) & (last * last < np.inf))
    if bad.any():
        raise ValidationError(f"row {np.argmax(bad)}: sigma and eps put the loop "
                              "layout out of floating-point range")
    x_pos, w = np.empty((len(thetas), half)), np.empty((len(thetas), half))
    for lo in range(0, len(thetas), _LAYOUT_PIECE):
        rows = slice(lo, lo + _LAYOUT_PIECE)
        d_pos = (span[rows] / half)[:, None] * np.arange(1, half + 1)
        np.exp(-d_pos * d_pos / two_var[rows, None], out=w[rows])
        x_pos[rows] = _batch_x_at_arc(d_pos, c[rows], first_row=lo)
    return x_pos, w


def _component_mass_var(flux, sigma, mode):
    """Mass and variance of each circular Gaussian component in ``mode``.

    'fwhm': sigma is the FWHM, so the variance is fwhm_to_std(sigma)^2 and the
    components carry the flux. 'verbatim': exp(-r^2 / (2 sigma)) components
    scaled to the peak flux / (2 pi sigma^2), so the variance is sigma and the
    mass flux / sigma.
    """
    if mode == "fwhm":
        return flux, fwhm_to_std(sigma) ** 2
    return flux / sigma, sigma


def visibilities_closed_form(theta, freqs: FrequencySet,
                             cfg: LoopBuildConfig = DEFAULT_BUILD) -> np.ndarray:
    """Analytic visibilities of one loop at the given frequencies (complex).

    The reference definition, for the tests and perfbench: a plain weighted
    sum of one complex phase per component. The program computes
    visibilities with ``visibilities_closed_form_batch``.
    """
    theta = float_array(theta, "parameters")
    centers, weights = build_loop_components(theta, cfg)
    _, _, flux, sigma, _, _, _ = theta
    u, v = freqs.u, freqs.v
    phase = np.exp(2j * math.pi * (centers[:, 0:1] * u[None, :]
                                   + centers[:, 1:2] * v[None, :]))
    shape_sum = weights @ phase
    mass, var = _component_mass_var(flux, sigma, cfg.exponent_mode)
    return mass * shape_sum * np.exp(-2.0 * math.pi ** 2 * var * (u * u + v * v))


def visibilities_closed_form_batch(thetas, freqs: FrequencySet,
                                   cfg: LoopBuildConfig = DEFAULT_BUILD) -> np.ndarray:
    """Vectorized closed form over an (S, 7) parameter array -> (S, 2n) real-coded rows.

    Row i holds the real parts of its n visibilities and then their imaginary
    parts (re_1..re_n, im_1..im_n), the layout a dataset stores; each block
    writes its rows in place, with no complex array between.

    The layout of ``_loop_half``, summed in mirrored pairs (see the module
    docstring), on two levels of blocks. A pooled block of ``CLOSED_FORM_CHUNK``
    rows computes its (rows, n) arrays once: the frequencies p and q along and
    across the axis, then, after its pair sums, the centre phase, the envelope,
    the final combination and the range rule. The pair sums run on
    (half, n, rows) arrays ``_PAIR_ROWS`` rows at a time, and each sub-block
    overwrites its rows of p and q with its real and imaginary sums once it has
    used them. A block holds every array rows last, (n, rows) and (half, n, rows),
    so an outer product runs numpy's inner loop over the rows, not the n
    frequencies, and writes its visibilities into its rows of the result only at
    the end. ``_pair_sum`` adds the pairs in the order ``np.einsum`` takes over the
    same arrays rows first. Each (row, frequency)
    costs 2 h + 1 tangents and no cos or sin: h along the axis, through the
    cos-only ``_cos``, h across it and one for the centre phase, through
    ``_cos_sin``; 11 at 11 components, where cos and sin take 17. Rows are
    checked by ``validate_param_rows`` and ``_loop_half``, each block's result by
    the range rule (finite entries stay as computed); the first refused row
    raises ``ValidationError``. The layout comes first, on the calling thread: its
    range check over all rows, then its pieces, writing the (S, h) positions and
    weights. The blocks then run on the CPUs through ``ordered_map``, each taking
    its y = c x^2 from its rows of the positions; a block's refusal is raised only
    when no earlier block refuses, so the row named and the bytes of the result
    are those of one piece, then one block, after another. The result
    agrees with ``visibilities_closed_form`` to rounding (a few 1e-15 of the
    flux), not bit for bit: the sums run in another order and the phases go
    through ``_cos_sin``. A row's result does not depend on its batch:
    ``_batch_x_at_arc`` solves each entry on its own, and all else is elementwise
    or a sum within the row.
    """
    thetas = float_array(thetas, "parameters")
    validate_param_rows(thetas)
    half = (cfg.n_components - 1) // 2
    u, v = freqs.u, freqs.v
    uv2 = u * u + v * v
    two_pi = 2.0 * math.pi
    n = len(freqs)
    out = np.empty((thetas.shape[0], 2 * n))
    if half:
        x_pos, w = _loop_half(thetas, cfg)
        w0 = 1.0 / (1.0 + 2.0 * w.sum(axis=1))
        w *= 2.0 * w0[:, None]  # each pair carries twice its weight

    def fill_block(lo):  # rows lo.. of out, or refuses the first bad one
        rows = slice(lo, lo + CLOSED_FORM_CHUNK)
        x_c, y_c, flux, sigma, _, alpha, c = thetas[rows].T
        block = out[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # settled or refused below
            if half:
                # the frequency along the loop axis and across it, which each sub-block
                # overwrites with its pair sums once it has used them
                cos_a, sin_a = np.cos(alpha), np.sin(alpha)
                pair_re = u[:, None] * cos_a
                pair_re += v[:, None] * sin_a
                pair_im = v[:, None] * cos_a
                pair_im -= u[:, None] * sin_a
                x_rows, w_rows, w0_rows = x_pos[rows], w[rows], w0[rows]
                for at in range(0, len(c), _PAIR_ROWS):  # the pair sums
                    sub = slice(at, at + _PAIR_ROWS)
                    x, w_sub = (np.ascontiguousarray(a[sub].T) for a in (x_rows, w_rows))
                    y = c[sub] * x * x  # c x^2 first: 2 pi c may overflow
                    along = _cos((two_pi * x)[:, None, :] * pair_re[:, sub])
                    cos_across, sin_across = _cos_sin((two_pi * y)[:, None, :] * pair_im[:, sub])
                    cos_across *= along
                    sin_across *= along
                    re_sub = _pair_sum(w_sub, cos_across, out=pair_re[:, sub])
                    np.add(w0_rows[sub], re_sub, out=re_sub)
                    _pair_sum(w_sub, sin_across, out=pair_im[:, sub])
                    del along, cos_across, sin_across  # before the next sub-block's
            else:
                pair_re, pair_im = 1.0, 0.0
            phi = u[:, None] * x_c
            phi += v[:, None] * y_c
            cos_phi, sin_phi = _cos_sin(np.multiply(phi, two_pi, out=phi))
            # (pair_re + i pair_im) exp(i phi) times the envelope, each product over an
            # array it is the last use of, written into the block's rows of the result
            im = pair_re * sin_phi
            im += pair_im * cos_phi
            re = np.multiply(cos_phi, pair_re, out=cos_phi)
            re -= np.multiply(sin_phi, pair_im, out=sin_phi)
            mass, var = _component_mass_var(flux, sigma, cfg.exponent_mode)
            scale = np.exp(np.multiply(-2.0 * math.pi ** 2 * var, uv2[:, None], out=sin_phi),
                           out=sin_phi)
            scale *= mass
            np.multiply(scale, re, out=block[:, :n].T)
            np.multiply(scale, im, out=block[:, n:].T)
        bad = ~np.isfinite(block)
        if bad.any():  # the range rule: 0 under a zero envelope, else the row is refused
            block[bad] = 0.0
            bad = (bad[:, :n] | bad[:, n:]) & (scale.T != 0.0)
            if bad.any():
                raise ValidationError(f"row {lo + np.argmax(bad.any(axis=1))}: a phase or "
                                      "the envelope is out of floating-point range")

    ordered_map(fill_block, range(0, thetas.shape[0], CLOSED_FORM_CHUNK))
    return out


def _pair_sum(w, terms, out):
    """w[k] terms[k] summed over k: (h, rows) weights, (h, n, rows) terms, (n, rows) ``out``.

    The bits are those of ``np.einsum("sk,skj->sj")`` over the same arrays held rows
    first. At two or more frequencies einsum adds k by k from 0 in either layout. At one
    frequency it sums in the order of a dot product: rows first at any number of rows,
    rows last only at a single row. So one frequency is summed rows first, and a row's
    bits do not depend on its batch.
    """
    if terms.shape[1] > 1:
        return np.einsum("ks,kjs->js", w, terms, out=out)
    out[0] = np.einsum("sk,skj->sj", np.ascontiguousarray(w.T),
                       np.ascontiguousarray(terms.transpose(2, 0, 1)))[:, 0]
    return out


def _cos_sin(theta):
    """cos and sin of the float array ``theta``, from one tangent of its half angle.

    With t = tan(theta / 2), cos = (1 - t^2) / (1 + t^2) and sin = 2 t / (1 + t^2),
    within 4e-16 of ``np.cos`` and ``np.sin``. |t| stays below ~1e19 for any
    finite theta, so t^2 cannot overflow. ``theta`` is overwritten: it is
    returned as the sine.
    """
    t, cos, denom = _half_angle(theta, np.empty_like(theta))
    np.multiply(t, 2.0, out=t)
    return cos, np.divide(t, denom, out=t)


def _cos(theta):
    """The cosine of ``_cos_sin``, bit for bit, without its sine: ``theta`` is
    overwritten and returned as the cosine."""
    return _half_angle(theta, theta)[1]


def _half_angle(theta, cos):
    """t = tan(theta / 2) over ``theta``, then (1 - t^2) / (1 + t^2) into ``cos``.

    Returns t, cos and 1 + t^2; where ``cos`` is ``theta``, t is gone.
    """
    t = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
    np.square(t, out=cos)
    denom = cos + 1.0
    np.subtract(1.0, cos, out=cos)
    return t, np.divide(cos, denom, out=cos), denom


def _batch_x_at_arc(s, c, first_row=0):
    """Invert the arc length of y = c x^2 entry by entry: x >= 0 with arclen(x) = s.

    s is (S, k), nonnegative, and c is (S,). Newton runs on each entry alone
    until its step is at most ``_ARC_TOL`` x, so x depends on (s, c) only; at
    ``_ARC_MAX_ITER`` steps a moving entry raises naming its row, counted from
    ``first_row``.
    arclen(x) >= max(x, |c| x^2), as the integrand sqrt(1 + 4 c^2 t^2) is at
    least max(1, 2 |c| t): the start min(s, sqrt(s / |c|)) lies at or right of
    the root, and Newton on the increasing, convex arc length descends from it.
    Where |c| s <= 2^-27 the root s (1 - 2/3 (c s)^2 + ...) rounds to s, so
    x = s without a step: c = 0, s = 0, and no |c| x in the subnormal range.
    """
    k = s.shape[1]
    s, c = s.ravel(), np.repeat(np.abs(c), k)
    root_s, root_c = np.sqrt(s), np.sqrt(c)  # root_c * root_s = sqrt(|c| s) cannot overflow
    x = s.copy()
    todo = np.flatnonzero(root_c * root_s > 2.0 ** -13.5)  # |c| s > 2^-27
    s_todo, c_todo = s[todo], c[todo]  # the moving entries, kept compact
    x_todo = np.minimum(s_todo, root_s[todo] / root_c[todo])
    for _ in range(_ARC_MAX_ITER):
        u = 2.0 * (c_todo * x_todo)
        grad = np.hypot(1.0, u)
        arclen = 0.5 * (x_todo * grad + np.arcsinh(u) / c_todo / 2.0)  # free of overflow
        step = (arclen - s_todo) / grad
        x_todo -= step
        done = np.abs(step) <= _ARC_TOL * x_todo
        x[todo[done]] = x_todo[done]
        moving = ~done
        todo, x_todo, s_todo, c_todo = (a[moving] for a in (todo, x_todo, s_todo, c_todo))
        if not todo.size:
            return x.reshape(-1, k)
    raise ValidationError(f"row {first_row + todo[0] // k}: arc length did not converge")


def eval_image(theta, grid: GridSpec, cfg: LoopBuildConfig = DEFAULT_BUILD) -> np.ndarray:
    """Pixel values of the loop on a grid; array shape (ny, nx).

    img[i, j] = phi(xs[j], ys[i]). In fwhm mode the Riemann sum times the
    pixel area approximates the flux. A row whose exponent denominator 2 var
    or pixel values leave floating-point range (at a variance of 0, say, or a
    peak density mass / (2 pi var) past the float maximum) raises
    ``ValidationError``; the batch kernel takes its envelope from the variance
    alone and needs neither.
    """
    theta = float_array(theta, "parameters")
    centers, weights = build_loop_components(theta, cfg)
    _, _, flux, sigma, _, _, _ = theta
    xs, ys = grid.xs(), grid.ys()
    img = np.zeros((grid.ny, grid.nx))
    # a squared distance that overflows is a pixel the component does not reach:
    # its exponent is -inf and its value the 0 it is; any other value out of
    # range leaves a pixel infinite or NaN, and the row is refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mass, var = _component_mass_var(flux, sigma, cfg.exponent_mode)
        two_var, norm = 2.0 * var, mass / (2.0 * math.pi * var)
        for (cx, cy), w in zip(centers, weights):
            dx2 = (xs - cx) ** 2
            dy2 = (ys - cy) ** 2
            img += (w * norm) * np.exp(-(dy2[:, None] + dx2[None, :]) / two_var)
    if not (two_var < np.inf and np.isfinite(img).all()):
        raise ValidationError("row 0: flux and sigma put the component density out of "
                              "floating-point range")
    return img


def visibilities_quadrature_oracle(theta, freqs: FrequencySet, grid: GridSpec = None,
                                   cfg: LoopBuildConfig = DEFAULT_BUILD,
                                   diag: Diagnostics | None = None) -> np.ndarray:
    """Trapezoid-rule Fourier transform of the rendered image. Test oracle.

    Independent of the closed form: integrates eval_image numerically. The
    default grid has 1024 x 1024 points over the components' bounding box
    padded by 10 sigma. The separable phase exp(2 pi i (xu + yv)) factorizes,
    so each frequency costs one bilinear form in the image. A row that
    ``eval_image`` refuses, whose default grid has no finite positive extent,
    or whose phases or sums leave floating-point range raises ``ValidationError``.
    """
    theta = float_array(theta, "parameters")
    centers, _ = build_loop_components(theta, cfg)
    _, _, _, sigma, _, _, _ = theta
    if grid is None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            pad = 10.0 * sigma
            lo, hi = centers.min(axis=0) - pad, centers.max(axis=0) + pad
            extent = hi - lo
        if not np.all((extent > 0.0) & (extent < np.inf)):
            raise ValidationError("row 0: the loop's place and size put the default "
                                  "quadrature grid out of floating-point range")
        grid = GridSpec(float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]), 1024, 1024)
    step = max(grid.dx, grid.dy)
    comp_std = fwhm_to_std(sigma)
    if step > comp_std / 2.0 and diag is not None:
        diag.warn("coarse_grid",
                  f"grid step {step:.3g} exceeds half the component std "
                  f"{comp_std:.3g}; quadrature may be inaccurate")
    img = eval_image(theta, grid, cfg)
    xs, ys = grid.xs(), grid.ys()
    wx = np.full(grid.nx, grid.dx)
    wx[0] = wx[-1] = 0.5 * grid.dx
    wy = np.full(grid.ny, grid.dy)
    wy[0] = wy[-1] = 0.5 * grid.dy

    out = np.empty(len(freqs), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for j, (u, v) in enumerate(freqs.uv):
            ax = wx * np.exp(2j * math.pi * xs * u)
            ay = wy * np.exp(2j * math.pi * ys * v)
            out[j] = ay @ img @ ax
    if not np.isfinite(out).all():
        raise ValidationError("row 0: a quadrature phase or sum is out of floating-point range")
    return out


def reals_to_vis(x) -> np.ndarray:
    """Real-coded visibilities (re_1..re_n, im_1..im_n), one (2n,) vector or
    (S, 2n) rows of them -> the n complex ones of each."""
    x = float_array(x, "real-coded visibilities", ndim=(1, 2))
    n = x.shape[-1]
    if n % 2:
        raise ValidationError(f"real-coded visibilities must have even length, got {n}")
    h = n // 2
    return x[..., :h] + 1j * x[..., h:]


def add_noise(x, flux, normals) -> np.ndarray:
    """Real-coded visibilities plus white Gaussian noise of std 2 sqrt(flux).

    ``x`` is one real-coded (2n,) vector or (S, 2n) rows of them
    (re_1..re_n, im_1..im_n). ``normals`` is a float64 standard-normal draw of
    ``x``'s shape, one entry per entry of ``x``, such as
    ``rng.standard_normal(x.shape)``: it is scaled to the noise in place, ``x``
    is added to it, and it is returned. ``flux`` is a scalar, or an (S, 1)
    column giving each row its own flux; an (S,) vector is refused, because it
    would broadcast along the data columns. The result has the bytes of
    ``x + rng.normal(0, 2 sqrt(flux))`` from the generator that drew ``normals``.
    """
    x = float_array(x, "real-coded visibilities (re_1..re_n, im_1..im_n)")
    if not (isinstance(normals, np.ndarray) and normals.dtype == np.float64
            and normals.shape == x.shape):
        raise ValidationError(f"normals must be a float64 array of shape {x.shape}")
    flux = float_array(flux, "flux")
    if flux.shape not in ((), x.shape[:-1] + (1,)):
        raise ValidationError(
            f"flux must be a scalar or a column of shape {x.shape[:-1] + (1,)}, "
            f"got shape {flux.shape}")
    if not np.all(flux > 0):
        raise ValidationError(f"flux must be positive, got {flux.min()}")
    normals *= 2.0 * np.sqrt(flux)
    normals += x
    return normals
