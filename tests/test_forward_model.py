import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from looptopo import forward_model, pool
from looptopo.diagnostics import Diagnostics
from looptopo.errors import ParseError, ValidationError
from looptopo.forward_model import (DEFAULT_BUILD, EXPONENT_MODES, FrequencyConfig,
                                    FrequencySet, GridSpec, LoopBuildConfig,
                                    add_noise, build_loop_components,
                                    default_frequencies, eval_image,
                                    fwhm_to_std, load_frequencies,
                                    reals_to_vis, visibilities_closed_form,
                                    visibilities_closed_form_batch,
                                    visibilities_quadrature_oracle)
from looptopo.serialization import format_csv, write_bytes
from looptopo.tasks import TASKS

PI = math.pi
FREQS = default_frequencies()


def vis_to_reals(v):
    """Complex visibilities -> real-coded (re_1..re_n, im_1..im_n), as the batch
    kernel returns them; the inverse of ``reals_to_vis``."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag], axis=-1)


def random_loop(rng, eps_min=0.0):
    eps = rng.uniform(eps_min, 5.0)
    if eps == 0.0:
        alpha, c = 0.0, 0.0
    else:
        alpha, c = rng.uniform(0, PI), rng.uniform(-0.05, 0.05)
    return np.array([rng.uniform(-50, 50), rng.uniform(-50, 50),
                     rng.uniform(500, 5000), rng.uniform(4, 20), eps, alpha, c])


class TestFrequencies:
    def test_default_set(self):
        fs = default_frequencies()
        assert len(fs) == 30
        r = np.hypot(fs.u, fs.v)
        assert np.all(r >= 1 / 180 - 1e-12) and np.all(r <= 1 / 7 + 1e-12)

    def test_no_duplicates(self):
        fs = default_frequencies()
        assert len(np.unique(fs.uv.round(12), axis=0)) == 30

    def test_deterministic(self):
        a = default_frequencies(FrequencyConfig())
        b = default_frequencies(FrequencyConfig())
        np.testing.assert_array_equal(a.uv, b.uv)

    def test_csv_round_trip(self, tmp_path):
        fs = default_frequencies()
        path = tmp_path / "f.csv"
        write_bytes(path, format_csv(["u", "v"], fs.uv))
        np.testing.assert_array_equal(load_frequencies(path).uv, fs.uv)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_frequencies(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(ParseError) as err:
            load_frequencies(path)
        assert err.value.line == 3

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n0.1,0.2,0.3\n")
        with pytest.raises(ParseError):
            load_frequencies(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("uv", [(1e300, 0.0), (0.0, -1e155), (1e154, 1e154),
                                    (float("inf"), 0.0), (0.0, float("nan"))])
    def test_overflowing_radius_rejected(self, uv):
        # u^2 + v^2 feeds the Gaussian envelope; unguarded, an overflow gives 0 and a warning
        with pytest.raises(ValidationError, match=r"^frequency row 1: u\^2 \+ v\^2 is not finite"):
            FrequencySet(np.array([(0.01, 0.02), uv]))
        FrequencySet(np.array([(0.01, 0.02), (1e154, 0.0)]))  # 1e308 is finite


class TestLoopGeometry:
    def test_circular_collapse(self):
        centers, weights = build_loop_components(np.array([3.0, -2.0, 1000, 8, 0, 0, 0]))
        assert centers.shape == (1, 2)
        np.testing.assert_array_equal(centers[0], [3.0, -2.0])
        assert weights[0] == 1.0

    def test_straight_loop_on_axis(self):
        centers, weights = build_loop_components(np.array([5.0, 1.0, 1000, 8, 5, 0, 0]))
        assert centers.shape == (11, 2)
        np.testing.assert_allclose(centers[:, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(centers + centers[::-1],
                                   [[10.0, 2.0]] * 11, atol=1e-9)
        np.testing.assert_allclose(weights, weights[::-1], atol=1e-15)
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_weights_decrease_with_arc_distance(self):
        _, weights = build_loop_components(np.array([0, 0, 1000, 8, 5, 0.7, 0.03]))
        mid = len(weights) // 2
        assert np.all(np.diff(weights[:mid + 1]) > 0)
        assert np.all(np.diff(weights[mid:]) < 0)

    def test_centers_on_parabola_in_loop_frame(self):
        x_c, y_c, alpha, c = 7.0, -4.0, 1.1, 0.05
        centers, _ = build_loop_components(np.array([x_c, y_c, 1000, 8, 5, alpha, c]))
        rot = np.array([[math.cos(-alpha), -math.sin(-alpha)],
                        [math.sin(-alpha), math.cos(-alpha)]])
        local = (centers - [x_c, y_c]) @ rot.T
        np.testing.assert_allclose(local[:, 1], c * local[:, 0] ** 2, atol=1e-9)

    def test_arc_spacing_against_numeric_integration(self):
        # oracle: cumulative trapezoid of sqrt(1 + (2 c x)^2), inverted by
        # linear interpolation
        sigma, eps, c = 8, 5, 0.05
        centers, _ = build_loop_components(np.array([0, 0, 1000, sigma, eps, 0, c]))
        xs = np.linspace(0.0, 40.0, 400001)
        integrand = np.sqrt(1.0 + (2 * c * xs) ** 2)
        arc = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2
                                               * np.diff(xs))])
        span = DEFAULT_BUILD.span_factor * eps * sigma
        targets = np.arange(1, 6) * (span / 5)
        x_oracle = np.interp(targets, arc, xs)
        np.testing.assert_allclose(centers[6:, 0], x_oracle, atol=1e-6)
        # vertex sits exactly at the center
        np.testing.assert_array_equal(centers[5], [0.0, 0.0])

    def test_even_component_count_rejected(self):
        with pytest.raises(ValidationError):
            build_loop_components(np.array([0, 0, 1000, 8, 5, 0, 0]),
                                  LoopBuildConfig(n_components=10))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            build_loop_components(np.array([0, 0, -1000, 8, 5, 0, 0]))
        with pytest.raises(ValidationError):
            build_loop_components(np.array([0, 0, 1000, 8, float("inf"), 0, 0]))


SCALAR_ENTRY_POINTS = {
    "build_loop_components": build_loop_components,
    "visibilities_closed_form": lambda theta: visibilities_closed_form(theta, FREQS),
    "eval_image": lambda theta: eval_image(theta, GridSpec.centered(60.0, 16)),
    "visibilities_quadrature_oracle": lambda theta: visibilities_quadrature_oracle(
        theta, FREQS, GridSpec.centered(60.0, 16)),
}
GOOD_ROW = [3.0, -7.0, 1000.0, 8.0, 5.0, 0.3, 0.01]


def _with(column, value):
    row = list(GOOD_ROW)
    row[column] = value
    return row


class TestScalarEntryPoints:
    """Each one-loop entry point refuses what ``validate_param_rows`` refuses,
    and any shape but (7,)."""

    @pytest.mark.parametrize("entry", list(SCALAR_ENTRY_POINTS))
    @pytest.mark.parametrize("theta, message", [
        (GOOD_ROW[:6], r"expected 7 parameters, got shape \(6,\)"),
        (GOOD_ROW + [0.0], r"expected 7 parameters, got shape \(8,\)"),
        ([GOOD_ROW], r"expected 7 parameters, got shape \(1, 7\)"),
        (5.0, r"expected 7 parameters, got shape \(\)"),
        (_with(0, float("nan")), "row 0: parameters must be finite"),
        (_with(6, float("inf")), "row 0: parameters must be finite"),
        (_with(2, 0.0), "row 0: flux must be positive"),
        (_with(2, -1000.0), "row 0: flux must be positive"),
        (_with(3, 0.0), "row 0: sigma must be positive"),
        (_with(3, -8.0), "row 0: sigma must be positive"),
        (_with(4, -1e-300), "row 0: eps must be nonnegative")])
    def test_refuses_bad_rows(self, entry, theta, message):
        with pytest.raises(ValidationError, match=message):
            SCALAR_ENTRY_POINTS[entry](np.array(theta))

    @pytest.mark.parametrize("entry", list(SCALAR_ENTRY_POINTS))
    def test_accepts_good_row(self, entry):
        SCALAR_ENTRY_POINTS[entry](np.array(GOOD_ROW))


class TestClosedForm:
    def test_zero_frequency_equals_flux(self):
        rng = np.random.default_rng(0)
        zero = FrequencySet(np.array([[0.0, 0.0]]))
        for _ in range(20):
            theta = random_loop(rng)
            v = visibilities_closed_form(theta, zero)[0]
            assert abs(v - theta[2]) <= 1e-9 * theta[2]

    def test_shift_theorem(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = random_loop(rng, eps_min=0.5)
            dx, dy = rng.uniform(-20, 20, 2)
            shifted = theta + [dx, dy, 0, 0, 0, 0, 0]
            v = visibilities_closed_form(theta, FREQS)
            vs = visibilities_closed_form(shifted, FREQS)
            phase = np.exp(2j * PI * (dx * FREQS.u + dy * FREQS.v))
            assert np.max(np.abs(vs - v * phase)) / theta[2] < 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = random_loop(rng, eps_min=0.5)
            theta[:2] = 0.0
            a0 = rng.uniform(0, PI)
            alpha2, c2 = theta[5] + a0, theta[6]
            if alpha2 >= PI:  # identified representative
                alpha2, c2 = alpha2 - PI, -c2
            rotated = np.concatenate([theta[:5], [alpha2, c2]])
            rot = np.array([[math.cos(-a0), -math.sin(-a0)],
                            [math.sin(-a0), math.cos(-a0)]])
            v_rot = visibilities_closed_form(rotated, FREQS)
            v_base = visibilities_closed_form(theta, FrequencySet(FREQS.uv @ rot.T))
            assert np.max(np.abs(v_rot - v_base)) / theta[2] < 1e-10

    def test_eps_zero_ignores_orientation(self):
        v0 = visibilities_closed_form(np.array([2, 3, 1500, 10, 0, 0, 0]), FREQS)
        v1 = visibilities_closed_form(np.array([2, 3, 1500, 10, 0, 2.2, -0.04]), FREQS)
        assert np.max(np.abs(v0 - v1)) / 1500 < 1e-12

    def test_eps_zero_matches_single_gaussian_formula(self):
        x_c, y_c, flux, sigma = 4.0, -6.0, 1200, 9
        v = visibilities_closed_form(np.array([x_c, y_c, flux, sigma, 0, 0, 0]), FREQS)
        s = fwhm_to_std(sigma)
        expected = flux * np.exp(
            2j * PI * (x_c * FREQS.u + y_c * FREQS.v)
            - 2 * PI ** 2 * s ** 2 * (FREQS.u ** 2 + FREQS.v ** 2))
        np.testing.assert_allclose(v, expected, atol=1e-12 * flux)

    def test_seam_identification_in_data_space(self):
        v_a = visibilities_closed_form(np.array([3, -7, 1000, 8, 5, 0.0, 0.05]), FREQS)
        v_b = visibilities_closed_form(
            np.array([3, -7, 1000, 8, 5, PI, -0.05]), FREQS)
        assert np.max(np.abs(v_a - v_b)) / 1000 < 1e-12

    def test_seam_convergence_from_below(self):
        v_ref = visibilities_closed_form(
            np.array([3, -7, 1000, 8, 5, 0.0, 0.05]), FREQS)
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6):
            v = visibilities_closed_form(
                np.array([3, -7, 1000, 8, 5, PI - delta, -0.05]), FREQS)
            gaps.append(np.max(np.abs(v - v_ref)) / 1000)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_conjugate_symmetry(self):
        theta = np.array([5, 5, 1000, 8, 4, 0.9, -0.02])
        both = FrequencySet(np.vstack([FREQS.uv, -FREQS.uv]))
        v = visibilities_closed_form(theta, both)
        np.testing.assert_allclose(v[:30], np.conj(v[30:]), atol=1e-12 * 1000)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        thetas = np.array([random_loop(rng) for _ in range(20)])
        thetas[0, 4] = 0.0
        thetas[0, 5:7] = 0.0
        batch = reals_to_vis(visibilities_closed_form_batch(thetas, FREQS))
        for i in range(len(thetas)):
            single = visibilities_closed_form(thetas[i], FREQS)
            np.testing.assert_allclose(batch[i], single, atol=1e-10 * thetas[i, 2])


def _interval(name):
    lo, hi = TASKS["complete"].intervals[name]
    return st.floats(lo, hi)


@st.composite
def complete_loops(draw):
    """One (7,) loop from the complete task's intervals, edge cases included."""
    eps = draw(st.one_of(st.just(0.0), _interval("eps")))
    alpha = draw(st.one_of(st.floats(0.0, PI, exclude_max=True), st.floats(0.0, 1e-6),
                           st.floats(PI - 1e-6, PI, exclude_max=True)))
    c = draw(st.one_of(st.just(0.0), _interval("c")))  # the interval is symmetric about 0
    return [draw(_interval("x_c")), draw(_interval("y_c")), draw(_interval("flux")),
            draw(_interval("sigma")), eps, alpha, c]


@st.composite
def any_curvature_loops(draw):
    """A complete-task loop whose curvature may be any finite value."""
    row = draw(complete_loops())
    row[6] = draw(st.one_of(st.just(row[6]), st.floats(-1e308, 1e308)))
    return row


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def _signed_or_zero(magnitude):
    return st.one_of(st.just(0.0), st.builds(lambda s, m: s * m, st.sampled_from((-1.0, 1.0)),
                                             magnitude))


#: Magnitudes log-uniform from a subnormal up to the float maximum.
ANY_MAGNITUDE = st.one_of(_log_uniform(-320, 308.25), st.just(sys.float_info.max))


@st.composite
def extreme_loops(draw, spread=_log_uniform(-300, 308)):
    """One (7,) loop meeting the parameter rules, each value anywhere in float range."""
    return [draw(_signed_or_zero(spread)), draw(_signed_or_zero(spread)), draw(spread),
            draw(spread), draw(st.one_of(st.just(0.0), spread)),
            draw(st.floats(allow_nan=False, allow_infinity=False)),
            draw(_signed_or_zero(spread))]


@st.composite
def extreme_frequencies(draw):
    """(0, 0), or a (u, v) at a radius up to 1.3e154, the largest FrequencySet takes."""
    radius = draw(st.one_of(st.just(0.0), _log_uniform(-300, math.log10(1.3e154))))
    angle = draw(st.floats(0.0, 2.0 * PI))
    return radius * math.cos(angle), radius * math.sin(angle)


#: Pooled block sizes: one row, a size that cuts most batches with a remainder, the
#: default, and (None) one row more than the batch, so the batch is one block.
BLOCKS = (1, 7, forward_model.CLOSED_FORM_CHUNK, None)
#: Pair sub-block sizes: one row, a size that cuts most blocks with a remainder, the default.
PAIR_ROWS = (1, 3, forward_model._PAIR_ROWS)


def batch_at_chunk(chunk, thetas, cfg=DEFAULT_BUILD, piece=forward_model._LAYOUT_PIECE,
                   pair_rows=forward_model._PAIR_ROWS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward_model, "CLOSED_FORM_CHUNK", chunk or len(thetas) + 1)
        mp.setattr(forward_model, "_LAYOUT_PIECE", piece)
        mp.setattr(forward_model, "_PAIR_ROWS", pair_rows)
        return visibilities_closed_form_batch(thetas, FREQS, cfg)


class TestClosedFormBatch:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(complete_loops(), min_size=1, max_size=30),
           n_components=st.sampled_from((1, 3, 11, 21)),
           mode=st.sampled_from(EXPONENT_MODES))
    def test_matches_scalar(self, rows, n_components, mode):
        # block 7 puts block boundaries inside most batches, with a remainder
        cfg = LoopBuildConfig(n_components=n_components, exponent_mode=mode)
        thetas = np.array(rows)
        batch = reals_to_vis(batch_at_chunk(7, thetas, cfg))
        for theta, vis in zip(thetas, batch):
            np.testing.assert_allclose(vis, visibilities_closed_form(theta, FREQS, cfg),
                                       rtol=0, atol=1e-10 * theta[2])

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(complete_loops(), min_size=1, max_size=30))
    def test_seam_identification(self, rows):
        # (alpha, c) and (alpha + pi, -c) are the same loop
        thetas = np.array(rows)
        flipped = thetas.copy()
        flipped[:, 5] += PI
        flipped[:, 6] *= -1.0
        gap = np.abs(reals_to_vis(batch_at_chunk(7, flipped))
                     - reals_to_vis(batch_at_chunk(7, thetas)))
        assert np.all(gap <= 1e-10 * thetas[:, 2:3])

    @pytest.mark.parametrize("pair_rows", PAIR_ROWS)
    @pytest.mark.parametrize("chunk", BLOCKS)
    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(any_curvature_loops(), min_size=1, max_size=12),
           picks=st.lists(st.integers(0, 999), min_size=1, max_size=40),
           piece=st.integers(1, 16), n_components=st.sampled_from((3, 11)))
    def test_row_is_its_own_answer(self, chunk, pair_rows, rows, picks, piece, n_components):
        # shuffled and repeated rows, cut into blocks and pair sub-blocks of each
        # size and laid out in pieces of any size, give each row the bytes of its
        # one-row call
        cfg = LoopBuildConfig(n_components=n_components)
        thetas = np.array(rows)[[i % len(rows) for i in picks]]
        batch = batch_at_chunk(chunk, thetas, cfg, piece, pair_rows)
        for theta, vis in zip(thetas, batch):
            np.testing.assert_array_equal(
                vis, visibilities_closed_form_batch(theta[None], FREQS, cfg)[0])

    @pytest.mark.parametrize("c", [1e20, -1e30, 1e308])
    def test_arc_steps_at_huge_curvature(self, c):
        # each component a span/5 step further along the arc; the arc length is
        # taken in Python floats, with arcsinh in its log form
        def arclen(x):
            u = 2.0 * (abs(c) * x)
            return 0.5 * x * math.hypot(1.0, u) + math.log(u + math.hypot(1.0, u)) / abs(c) / 4
        centers, _ = build_loop_components(np.array([0, 0, 1000, 8, 5, 0, c]))
        arcs = np.array([arclen(x) for x in centers[5:, 0]])
        span = DEFAULT_BUILD.span_factor * 5 * 8
        np.testing.assert_allclose(np.diff(arcs), span / 5, rtol=1e-12, atol=0)
        assert np.all(np.isfinite(visibilities_closed_form_batch(
            np.array([[0, 0, 1000, 8, 5, 0.5, c]]), FREQS)))

    @pytest.mark.parametrize("piece", [1, 2, 7, forward_model._LAYOUT_PIECE])
    def test_unconverged_arc_names_its_row(self, monkeypatch, piece):
        # rows 3 and 4 need Newton steps, rows 0-2 none; at piece size 2, row 3
        # ends the second piece
        monkeypatch.setattr(forward_model, "_LAYOUT_PIECE", piece)
        monkeypatch.setattr(forward_model, "_ARC_MAX_ITER", 1)
        thetas = np.array([[0, 0, 1000, 8, 5, 0.5, 0.0], [0, 0, 1000, 8, 0, 0, 0.05],
                           [0, 0, 1000, 8, 5, 0.5, 0.0], [0, 0, 1000, 8, 5, 0.5, 0.05],
                           [0, 0, 1000, 8, 5, 0.5, -0.05]])
        with pytest.raises(ValidationError, match="^row 3: arc length did not converge"):
            visibilities_closed_form_batch(thetas, FREQS)

    @pytest.mark.parametrize("max_iter", [forward_model._ARC_MAX_ITER, 1])
    @pytest.mark.parametrize("sigma, eps, c", [(1e200, 1e200, 0.0), (1e200, 1e200, 0.05),
                                                (1e-310, 5.0, 1e308), (8.0, 1e300, 0.05),
                                                (1e-170, 0.0, 0.0)])
    def test_layout_out_of_range_names_its_row(self, monkeypatch, sigma, eps, c, max_iter):
        # finite rows whose span or weight width overflows or underflows; row 3
        # sits in the second pooled block and the second layout piece. At one Newton
        # step every other row fails the arc length, row 0 first: the range
        # check over all rows still names row 3
        monkeypatch.setattr(forward_model, "CLOSED_FORM_CHUNK", 2)
        monkeypatch.setattr(forward_model, "_LAYOUT_PIECE", 2)
        monkeypatch.setattr(forward_model, "_ARC_MAX_ITER", max_iter)
        thetas = np.tile([0, 0, 1000, 8, 5, 0.5, 0.05], (5, 1))
        thetas[3, [3, 4, 6]] = sigma, eps, c
        with pytest.raises(ValidationError, match="row 3: .* out of floating-point range"):
            visibilities_closed_form_batch(thetas, FREQS)
        if max_iter == 1:
            with pytest.raises(ValidationError, match="^row 0: arc length did not converge"):
                visibilities_closed_form_batch(np.delete(thetas, 3, axis=0), FREQS)

    def test_temporaries_do_not_grow_with_every_row(self, monkeypatch):
        # traced peak beyond the result: 196 B a row at 32,768 rows on two workers,
        # against 755 when the layout was solved for every row at once, and 290-297
        # when each 1,024-row block kept its pair sums apart from p and q
        monkeypatch.setattr(pool, "WORKERS", 2)
        rng = np.random.default_rng(3)
        thetas = np.array([random_loop(rng) for _ in range(32768)])
        visibilities_closed_form_batch(thetas[:2000], FREQS)  # the pool's threads started
        tracemalloc.start()
        try:
            vis = visibilities_closed_form_batch(thetas, FREQS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - vis.nbytes) / len(thetas) < 300

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("columns, values, uv", [
        ((0, 1), (1e308, 0.0), (1.0, 1.0)),  # the centre phase, overflowing after the 2 pi
        ((0, 1), (0.0, -1e308), (1.0, 1.0)),
        ((0, 1), (1e308, 1e308), (1.0, 1.0)),  # x_c u + y_c v itself
        ((3, 4), (1e-154, 1e308), (1.3e154, 0.0)),  # along the axis
        ((3, 4, 6), (1e-154, 1e308, 1e308), (0.0, 1.3e154))])  # across it
    def test_overflow_under_a_nonzero_envelope_names_its_row(self, monkeypatch, columns,
                                                              values, uv):
        # the envelope at the second frequency is about 5e-199 of the flux for sigma = 8
        # and 3e-3 for sigma = 1e-154; row 3 sits in the second pooled block
        monkeypatch.setattr(forward_model, "CLOSED_FORM_CHUNK", 2)
        freqs = FrequencySet(np.array([(0.01, 0.02), uv]))
        thetas = np.tile([0, 0, 1000, 8, 5, 0.5, 0.05], (5, 1))
        thetas[3, list(columns)] = values
        mass, var = forward_model._component_mass_var(thetas[3, 2], thetas[3, 3], "fwhm")
        assert mass * math.exp(-2.0 * PI ** 2 * var * (uv[0] ** 2 + uv[1] ** 2)) > 0.0
        with pytest.raises(ValidationError,
                           match=r"^row 3: a phase or the envelope is out of floating-point"):
            visibilities_closed_form_batch(thetas, freqs)
        thetas[3] = thetas[0]
        assert np.all(np.isfinite(visibilities_closed_form_batch(thetas, freqs)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("columns, values, uv", [
        ((0, 1), (1e308, 0.0), (10.0, 10.0)),
        ((0, 1), (0.0, -1e300), (1e10, 1e10)),
        ((0, 1), (1e308, -1e308), (1e10, 1e10)),
        ((3, 4, 5, 6), (1e77, 1e77, 0.0, 0.0), (1e154, 0.0))])  # along the axis
    def test_overflow_under_a_zero_envelope_is_zero(self, monkeypatch, columns, values, uv):
        # the envelope underflows to 0 at the second frequency, so the visibility is 0
        monkeypatch.setattr(forward_model, "CLOSED_FORM_CHUNK", 2)
        freqs = FrequencySet(np.array([(0.01, 0.02), uv]))
        thetas = np.tile([0, 0, 1000, 8, 5, 0.5, 0.05], (5, 1))
        thetas[3, list(columns)] = values
        vis = reals_to_vis(visibilities_closed_form_batch(thetas, freqs))
        assert vis[3, 1] == 0.0
        # the first entry as computed: the same call with a finite second phase
        np.testing.assert_array_equal(vis[3, :1], reals_to_vis(visibilities_closed_form_batch(
            thetas[3:4], FrequencySet(np.array([(0.01, 0.02), (0.0, 0.0)]))))[0, :1])
        others = [0, 1, 2, 4]
        np.testing.assert_array_equal(
            vis[others], reals_to_vis(visibilities_closed_form_batch(thetas[others], freqs)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("chunk", [forward_model.CLOSED_FORM_CHUNK, 1])
    @settings(max_examples=300, deadline=None)
    @example(rows=[[0.0, 0.0, 1000.0, 1e77, 1e77, 0.0, 0.0]], uv=[(1e154, 0.0)],
             n_components=11, mode="fwhm")
    @given(rows=st.lists(extreme_loops(), min_size=1, max_size=4),
           uv=st.lists(extreme_frequencies(), min_size=1, max_size=4),
           n_components=st.sampled_from((1, 3, 11)), mode=st.sampled_from(EXPONENT_MODES))
    def test_total_over_finite_rows(self, chunk, rows, uv, n_components, mode):
        # every finite row meeting the parameter rules, at every frequency FrequencySet
        # takes: all-finite visibilities, or a refusal that names a row; at block size 1
        # each row is a pooled block of its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forward_model, "CLOSED_FORM_CHUNK", chunk)
            self.check_total(rows, uv, n_components, mode)

    @staticmethod
    def check_total(rows, uv, n_components, mode):
        thetas, freqs = np.array(rows), FrequencySet(np.array(uv))
        cfg = LoopBuildConfig(n_components=n_components, exponent_mode=mode)
        try:
            vis = visibilities_closed_form_batch(thetas, freqs, cfg)
        except ValidationError as exc:
            named = re.match(r"row (\d+): ", str(exc))
            assert named, exc
            k = int(named.group(1))  # the named row is refused on its own too
            with pytest.raises(ValidationError, match=r"^row 0: "):
                visibilities_closed_form_batch(thetas[k:k + 1], freqs, cfg)
            return
        assert np.all(np.isfinite(vis))
        for theta, row in zip(thetas, vis):
            np.testing.assert_array_equal(
                row, visibilities_closed_form_batch(theta[None], freqs, cfg)[0])
        with np.errstate(over="ignore"):
            mass, var = forward_model._component_mass_var(thetas[:, 2:3], thetas[:, 3:4], mode)
            envelope = mass * np.exp(-2.0 * PI ** 2 * var * (freqs.u ** 2 + freqs.v ** 2))
        assert np.all(reals_to_vis(vis)[envelope == 0.0] == 0.0)

    @pytest.mark.parametrize("column, value, rule", [
        (2, float("nan"), "parameters must be finite"),
        (2, 0.0, "flux must be positive"),
        (3, -8.0, "sigma must be positive"),
        (4, -5.0, "eps must be nonnegative")])
    def test_rejects_what_scalar_rejects(self, column, value, rule):
        rng = np.random.default_rng(5)
        thetas = np.array([random_loop(rng) for _ in range(9)])
        thetas[4, column] = value
        with pytest.raises(ValidationError):
            visibilities_closed_form(thetas[4], FREQS)
        with pytest.raises(ValidationError, match=f"row 4: {rule}"):
            visibilities_closed_form_batch(thetas, FREQS)


class TestQuadratureOracle:
    def test_circular_gaussian_zero_frequency(self):
        theta = np.array([0, 0, 1000, 8, 0, 0, 0])
        zero = FrequencySet(np.array([[0.0, 0.0]]))
        v = visibilities_quadrature_oracle(theta, zero)
        assert abs(v[0].real - 1000) / 1000 < 1e-8
        assert abs(v[0].imag) < 1e-8

    def test_matches_closed_form_on_random_loops(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            theta = random_loop(rng)
            cf = visibilities_closed_form(theta, FREQS)
            q = visibilities_quadrature_oracle(theta, FREQS)
            # per-visibility error relative to the data-vector scale
            assert np.max(np.abs(cf - q)) / np.max(np.abs(cf)) < 1e-5

    def test_coarse_grid_warns(self):
        theta = np.array([0, 0, 1000, 4, 0, 0, 0])
        diag = Diagnostics()
        grid = GridSpec.centered(80.0, 32)
        visibilities_quadrature_oracle(theta, FREQS, grid=grid, diag=diag)
        assert diag.count("coarse_grid") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loop_far_off_an_explicit_grid_is_zero(self):
        # the squared distances to the grid overflow
        theta = np.array([1e308, 0, 1000, 8, 5, 0.5, 0.05])
        vis = visibilities_quadrature_oracle(theta, FREQS, grid=GridSpec.centered(50, 16))
        assert np.all(vis == 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [[1e308, 0, 1000, 8, 5, 0.5, 0.05],  # no extent left
                                       [0, 0, 1, 1e308, 0, 30, 0.05]])  # 10 sigma overflows
    def test_default_grid_out_of_range_is_refused(self, theta):
        with pytest.raises(ValidationError, match="^row 0: the loop's place and size put "
                                                  "the default quadrature grid out of"):
            visibilities_quadrature_oracle(np.array(theta), FREQS)

    def test_verbatim_mode_consistency(self):
        # the audit variant changes the formula; both routes must track it
        cfg = LoopBuildConfig(exponent_mode="verbatim")
        flux, sigma = 1000, 8
        theta = np.array([0, 0, flux, sigma, 2, 0.4, 0.01])
        cf = visibilities_closed_form(theta, FREQS, cfg)
        q = visibilities_quadrature_oracle(theta, FREQS, cfg=cfg)
        assert np.max(np.abs(cf - q)) / np.max(np.abs(cf)) < 1e-5
        zero = FrequencySet(np.array([[0.0, 0.0]]))
        v0 = visibilities_closed_form(theta, zero, cfg)[0]
        assert abs(v0 - flux / sigma) < 1e-9 * flux


class TestEvalImage:
    def test_riemann_sum_recovers_flux(self):
        flux = 1000
        theta = np.array([0, 0, flux, 8, 3, 0.5, 0.02])
        grid = GridSpec.centered(80.0, 161)  # step 1 arcsec = sigma / 8
        img = eval_image(theta, grid)
        total = img.sum() * grid.dx * grid.dy
        assert abs(total - flux) / flux < 1e-3

    def test_peak_at_center_when_circular(self):
        theta = np.array([6.0, -10.0, 1000, 8, 0, 0, 0])
        grid = GridSpec(-20, 30, -35, 15, 101, 101)
        img = eval_image(theta, grid)
        i, j = np.unravel_index(np.argmax(img), img.shape)
        assert abs(grid.xs()[j] - 6.0) <= grid.dx
        assert abs(grid.ys()[i] + 10.0) <= grid.dy

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loop_far_off_the_grid_is_zero(self):
        img = eval_image(np.array([1e308, 0, 1000, 8, 5, 0.5, 0.05]), GridSpec.centered(50, 16))
        assert img.shape == (16, 16) and np.all(img == 0.0)

    def test_seam_identified_pair_pixelwise(self):
        grid = GridSpec.centered(60.0, 128)
        i_a = eval_image(np.array([3, -7, 1000, 8, 5, 0.0, 0.05]), grid)
        i_b = eval_image(np.array([3, -7, 1000, 8, 5, PI, -0.05]), grid)
        assert np.max(np.abs(i_a - i_b)) < 1e-9


IMAGE_GRID = GridSpec.centered(60.0, 16)
ONE_LOOP_IMAGES = {
    "eval_image": lambda theta, cfg: eval_image(theta, IMAGE_GRID, cfg),
    "visibilities_quadrature_oracle":
        lambda theta, cfg: visibilities_quadrature_oracle(theta, FREQS, IMAGE_GRID, cfg)}


class TestOneLoopImageRange:
    """``eval_image`` and the quadrature oracle give finite values or refuse the
    row by name, and raise no numpy warning on the way."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", sorted(ONE_LOOP_IMAGES))
    @pytest.mark.parametrize("theta", [
        [0, 0, 1, 1e-300, 0, 30, 0.05],  # the variance underflows to 0
        [0, 0, 1, 1e308, 0, 30, 0.05],  # fwhm_to_std(sigma) ** 2 overflows
        [0, 0, 1.7e308, 0.1, 0, 0, 0],  # mass / (2 pi var) overflows
        # a subnormal variance under a layout wide enough for _loop_half:
        # mass / (2 pi var) overflows with eps > 0
        [0, 0, 1000, 2.35e-160, 1e7, 0.5, 0.0]])
    def test_component_density_out_of_range_is_refused(self, entry, theta):
        with pytest.raises(ValidationError, match=r"^row 0: flux and sigma put the "
                                                  "component density out of"):
            ONE_LOOP_IMAGES[entry](np.array(theta), DEFAULT_BUILD)

    @pytest.mark.filterwarnings("error")
    def test_components_summing_past_the_float_maximum_are_refused(self):
        # each component's density is finite; their sum at the vertex pixel is not
        theta = np.array([0, 0, 4.0477454495392083e304, 0.01409667238156497,
                          1.320452937000275e-09, 0.3, 0.0])
        with pytest.raises(ValidationError, match=r"^row 0: flux and sigma put the "
                                                  "component density out of"):
            eval_image(theta, GridSpec.centered(1.0, 3))

    @pytest.mark.filterwarnings("error")
    def test_quadrature_phase_out_of_range_is_refused(self):
        # 2 pi x u overflows at the grid's edges
        with pytest.raises(ValidationError, match="^row 0: a quadrature phase or sum"):
            visibilities_quadrature_oracle(np.array(GOOD_ROW), FrequencySet(np.array([[1e10, 0]])),
                                           GridSpec.centered(1e300, 16))

    @pytest.mark.filterwarnings("error")
    def test_subnormal_variance_under_a_finite_density_is_accepted(self):
        # the same layout at a flux small enough for mass / (2 pi var) to stay finite
        img = eval_image(np.array([0, 0, 1e-300, 2.35e-160, 1e7, 0.5, 0.0]), IMAGE_GRID)
        assert np.all(np.isfinite(img))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(theta=extreme_loops(ANY_MAGNITUDE), n_components=st.sampled_from((1, 11)),
           mode=st.sampled_from(EXPONENT_MODES))
    def test_finite_or_refused(self, theta, n_components, mode):
        cfg = LoopBuildConfig(n_components=n_components, exponent_mode=mode)
        for entry in ONE_LOOP_IMAGES.values():
            try:
                values = entry(np.array(theta), cfg)
            except ValidationError as exc:
                assert str(exc).startswith("row 0: "), exc
            else:
                assert np.all(np.isfinite(values))


class TestCosSin:
    """``_cos_sin``: cos and sin from one tangent of the half angle."""

    @settings(max_examples=200, deadline=None)
    @given(angles=st.lists(st.one_of(
        st.floats(-1e4, 1e4),
        # within 1e-12 of an odd multiple of pi, where tan(theta / 2) is huge
        st.builds(lambda k, d: (2 * k + 1) * PI + d,
                  st.integers(-1592, 1591), st.floats(-1e-12, 1e-12))), min_size=1))
    def test_matches_numpy(self, angles):
        theta = np.array(angles)
        cos, sin = forward_model._cos_sin(theta.copy())
        np.testing.assert_allclose(cos, np.cos(theta), rtol=0, atol=4e-16)
        np.testing.assert_allclose(sin, np.sin(theta), rtol=0, atol=4e-16)

    @settings(max_examples=100, deadline=None)
    @given(angles=st.lists(st.floats(-1e300, 1e300), min_size=1))
    def test_finite_at_huge_arguments(self, angles):
        theta = np.array(angles)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cos, sin = forward_model._cos_sin(theta.copy())
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        np.testing.assert_allclose(cos, np.cos(theta), rtol=0, atol=4e-16)
        np.testing.assert_allclose(sin, np.sin(theta), rtol=0, atol=4e-16)


class TestCos:
    """``_cos``: the cosine of ``_cos_sin`` without its sine."""

    @settings(max_examples=100, deadline=None)
    @given(angles=st.lists(st.one_of(
        st.floats(-1e4, 1e4), st.floats(-1e308, 1e308),
        st.sampled_from((0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan))),
        min_size=1))
    def test_is_the_cosine_of_cos_sin_bit_for_bit(self, angles):
        theta = np.array(angles)
        with np.errstate(over="ignore", invalid="ignore"):  # as in the kernel
            cos = forward_model._cos(theta.copy())
            expected = forward_model._cos_sin(theta.copy())[0]
        assert cos.tobytes() == expected.tobytes()


class TestPairSum:
    """``_pair_sum``: the bits of the pair sums' einsum over rows-first arrays."""

    @pytest.mark.parametrize("h", [1, 5, 10])
    @pytest.mark.parametrize("n", [1, 2, 30])
    @pytest.mark.parametrize("rows", [1, 2, 7, 256])
    def test_is_the_rows_first_einsum_bit_for_bit(self, h, n, rows):
        rng = np.random.default_rng(h * 1000 + n * 10 + rows)
        w = rng.random((h, rows)) * 10.0 ** rng.uniform(-3, 3, (h, rows))
        terms = rng.standard_normal((h, n, rows)) * 10.0 ** rng.uniform(-8, 8, (h, n, rows))
        terms[rng.random(terms.shape) < 0.1] = -0.0
        expected = np.einsum("sk,skj->sj", np.ascontiguousarray(w.T),
                             np.ascontiguousarray(terms.transpose(2, 0, 1)))
        out = np.empty((n, rows))
        assert forward_model._pair_sum(w, terms, out=out) is out
        assert out.T.tobytes() == expected.tobytes()


class TestNoise:
    @pytest.mark.parametrize("flux", [1000.0, np.linspace(500.0, 5000.0, 7)[:, None]])
    def test_bytes_of_rng_normal(self, flux):
        # one standard normal per entry, scaled: the stream and bytes of rng.normal
        x = visibilities_closed_form_batch(np.tile([0, 0, 1000, 8, 5, 0.3, 0.05], (7, 1)), FREQS)
        expected = x + np.random.default_rng(11).normal(0.0, 2.0 * np.sqrt(flux), x.shape)
        normals = np.random.default_rng(11).standard_normal(x.shape)
        got = add_noise(x, flux, normals)
        assert got is normals  # scaled and shifted in place
        assert got.tobytes() == expected.tobytes()

    def test_deterministic_given_seed(self):
        v = vis_to_reals(visibilities_closed_form(np.array([0, 0, 1000, 8, 5, 0, 0.05]),
                                                  FREQS))
        a = add_noise(v, 1000, np.random.default_rng(11).standard_normal(v.shape))
        b = add_noise(v, 1000, np.random.default_rng(11).standard_normal(v.shape))
        np.testing.assert_array_equal(a, b)

    def test_noise_std_matches_model(self):
        # 2 sqrt(1000) = 63.2455...; Monte Carlo std over 1e5 draws
        v = np.zeros(60)
        rng = np.random.default_rng(12)
        draws = np.concatenate([add_noise(v, 1000, rng.standard_normal(v.shape))
                                for _ in range(1700)])
        assert draws.size > 100000
        assert abs(draws.std() - 63.245553203367585) / 63.245553203367585 < 0.01

    def test_flux_must_be_positive(self):
        with pytest.raises(ValidationError):
            add_noise(np.zeros(60), 0.0, np.random.default_rng(0).standard_normal(60))

    def test_flux_column_gives_each_row_its_flux(self):
        v = np.zeros((60, 60))  # as many real columns as rows
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            add_noise(v, np.full(60, 1000.0), rng.standard_normal(v.shape))  # would scale columns
        with pytest.raises(ValidationError):
            add_noise(v, np.array([[1000.0]] * 59 + [[0.0]]), rng.standard_normal(v.shape))
        flux = np.linspace(500.0, 5000.0, 60)[:, None]
        std = add_noise(v, flux, rng.standard_normal(v.shape)) / (2 * np.sqrt(flux))
        assert abs(std.std() - 1) < 0.05

    def test_complex_input_rejected(self):
        v = visibilities_closed_form(np.array([0, 0, 1000, 8, 5, 0, 0.05]), FREQS)
        with pytest.raises(ValidationError):  # real-coded rows only
            add_noise(v, 1000, np.random.default_rng(0).standard_normal(v.shape))

    @pytest.mark.parametrize("normals", [np.zeros(59), np.zeros((1, 60)),
                                         np.zeros(60, dtype=np.float32),
                                         np.random.default_rng(0)])
    def test_normals_must_match_the_data(self, normals):
        # a float64 array of the data's shape, not a generator or another shape
        with pytest.raises(ValidationError, match="normals must be a float64 array"):
            add_noise(np.zeros(60), 1000, normals)


class TestRealCoding:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=30) + 1j * rng.normal(size=30)
        np.testing.assert_array_equal(reals_to_vis(vis_to_reals(v)), v)

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            reals_to_vis(np.zeros(61))


#: Inputs that numpy would refuse with its own ValueError or TypeError, or take
#: as their real part with only a warning, keyed by the rule they break.
NOT_REAL_ROWS = {"numeric": (["a"] * 7, [[1.0, 2.0], [1.0]]),
                 "real": (np.array([0, 0, 1000, 8, 5, 0.3, 0.01]) + 1j,
                          [0, 0, 1000, 8, 5, 0.3, 0.01j])}
ONE_LOOP = {"build_loop_components": build_loop_components,
            "visibilities_closed_form": lambda t: visibilities_closed_form(t, FREQS),
            "eval_image": lambda t: eval_image(t, GridSpec.centered(20.0, 8)),
            "visibilities_quadrature_oracle":
                lambda t: visibilities_quadrature_oracle(t, FREQS, GridSpec.centered(20.0, 8)),
            "visibilities_closed_form_batch":
                lambda t: visibilities_closed_form_batch([t], FREQS),
            "reals_to_vis": reals_to_vis,
            "add_noise": lambda x: add_noise(x, 1000.0, np.zeros(7)),
            "add_noise flux": lambda f: add_noise(np.zeros(7), f, np.zeros(7))}


@pytest.mark.parametrize("entry", sorted(ONE_LOOP))
@pytest.mark.parametrize("rule", sorted(NOT_REAL_ROWS))
def test_input_that_is_not_real_numbers_is_a_validation_error(entry, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in NOT_REAL_ROWS[rule]:
            with pytest.raises(ValidationError, match=f"must be {rule}"):
                ONE_LOOP[entry](bad)
