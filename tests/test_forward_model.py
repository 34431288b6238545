import math

import numpy as np
import pytest

from looptopo.diagnostics import Diagnostics
from looptopo.embeddings import LoopParams
from looptopo.errors import ParseError, ValidationError
from looptopo.forward_model import (DEFAULT_BUILD, FrequencyConfig,
                                    FrequencySet, GridSpec, LoopBuildConfig,
                                    add_noise, build_loop_components,
                                    default_frequencies, eval_image,
                                    fwhm_to_std, load_frequencies,
                                    reals_to_vis, save_frequencies,
                                    vis_to_reals, visibilities_closed_form,
                                    visibilities_closed_form_batch,
                                    visibilities_quadrature_oracle)

PI = math.pi
FREQS = default_frequencies()


def random_loop(rng, eps_min=0.0):
    eps = rng.uniform(eps_min, 5.0)
    if eps == 0.0:
        alpha, c = 0.0, 0.0
    else:
        alpha, c = rng.uniform(0, PI), rng.uniform(-0.05, 0.05)
    return LoopParams(rng.uniform(-50, 50), rng.uniform(-50, 50),
                      rng.uniform(500, 5000), rng.uniform(4, 20), eps, alpha, c)


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
        save_frequencies(fs, path)
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


class TestLoopGeometry:
    def test_circular_collapse(self):
        geo = build_loop_components(LoopParams(3.0, -2.0, 1000, 8, 0, 0, 0))
        assert geo.centers.shape == (1, 2)
        np.testing.assert_array_equal(geo.centers[0], [3.0, -2.0])
        assert geo.weights[0] == 1.0

    def test_straight_loop_on_axis(self):
        geo = build_loop_components(LoopParams(5.0, 1.0, 1000, 8, 5, 0, 0))
        assert geo.centers.shape == (11, 2)
        np.testing.assert_allclose(geo.centers[:, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(geo.centers + geo.centers[::-1],
                                   [[10.0, 2.0]] * 11, atol=1e-9)
        np.testing.assert_allclose(geo.weights, geo.weights[::-1], atol=1e-15)
        assert abs(geo.weights.sum() - 1.0) < 1e-12

    def test_weights_decrease_with_arc_distance(self):
        geo = build_loop_components(LoopParams(0, 0, 1000, 8, 5, 0.7, 0.03))
        mid = len(geo.weights) // 2
        assert np.all(np.diff(geo.weights[:mid + 1]) > 0)
        assert np.all(np.diff(geo.weights[mid:]) < 0)

    def test_centers_on_parabola_in_loop_frame(self):
        theta = LoopParams(7.0, -4.0, 1000, 8, 5, 1.1, 0.05)
        geo = build_loop_components(theta)
        rot = np.array([[math.cos(-theta.alpha), -math.sin(-theta.alpha)],
                        [math.sin(-theta.alpha), math.cos(-theta.alpha)]])
        local = (geo.centers - [theta.x_c, theta.y_c]) @ rot.T
        np.testing.assert_allclose(local[:, 1], theta.c * local[:, 0] ** 2, atol=1e-9)

    def test_arc_spacing_against_numeric_integration(self):
        # oracle: cumulative trapezoid of sqrt(1 + (2 c x)^2), inverted by
        # linear interpolation
        theta = LoopParams(0, 0, 1000, 8, 5, 0, 0.05)
        geo = build_loop_components(theta)
        xs = np.linspace(0.0, 40.0, 400001)
        integrand = np.sqrt(1.0 + (2 * theta.c * xs) ** 2)
        arc = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2
                                               * np.diff(xs))])
        span = DEFAULT_BUILD.span_factor * theta.eps * theta.sigma
        targets = np.arange(1, 6) * (span / 5)
        x_oracle = np.interp(targets, arc, xs)
        np.testing.assert_allclose(geo.centers[6:, 0], x_oracle, atol=1e-6)
        # vertex sits exactly at the center
        np.testing.assert_array_equal(geo.centers[5], [0.0, 0.0])

    def test_even_component_count_rejected(self):
        with pytest.raises(ValidationError):
            build_loop_components(LoopParams(0, 0, 1000, 8, 5, 0, 0),
                                  LoopBuildConfig(n_components=10))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            build_loop_components(LoopParams(0, 0, -1000, 8, 5, 0, 0))
        with pytest.raises(ValidationError):
            build_loop_components(LoopParams(0, 0, 1000, 8, float("inf"), 0, 0))


class TestClosedForm:
    def test_zero_frequency_equals_flux(self):
        rng = np.random.default_rng(0)
        zero = FrequencySet(np.array([[0.0, 0.0]]))
        for _ in range(20):
            theta = random_loop(rng)
            v = visibilities_closed_form(theta, zero)[0]
            assert abs(v - theta.flux) <= 1e-9 * theta.flux

    def test_shift_theorem(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = random_loop(rng, eps_min=0.5)
            dx, dy = rng.uniform(-20, 20, 2)
            shifted = LoopParams(theta.x_c + dx, theta.y_c + dy, theta.flux,
                                 theta.sigma, theta.eps, theta.alpha, theta.c)
            v = visibilities_closed_form(theta, FREQS)
            vs = visibilities_closed_form(shifted, FREQS)
            phase = np.exp(2j * PI * (dx * FREQS.u + dy * FREQS.v))
            assert np.max(np.abs(vs - v * phase)) / theta.flux < 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            base = random_loop(rng, eps_min=0.5)
            theta = LoopParams(0.0, 0.0, base.flux, base.sigma, base.eps,
                               base.alpha, base.c)
            a0 = rng.uniform(0, PI)
            alpha2, c2 = theta.alpha + a0, theta.c
            if alpha2 >= PI:  # identified representative
                alpha2, c2 = alpha2 - PI, -c2
            rotated = LoopParams(0.0, 0.0, theta.flux, theta.sigma, theta.eps,
                                 alpha2, c2)
            rot = np.array([[math.cos(-a0), -math.sin(-a0)],
                            [math.sin(-a0), math.cos(-a0)]])
            v_rot = visibilities_closed_form(rotated, FREQS)
            v_base = visibilities_closed_form(theta, FrequencySet(FREQS.uv @ rot.T))
            assert np.max(np.abs(v_rot - v_base)) / theta.flux < 1e-10

    def test_eps_zero_ignores_orientation(self):
        v0 = visibilities_closed_form(np.array([2, 3, 1500, 10, 0, 0, 0]), FREQS)
        v1 = visibilities_closed_form(np.array([2, 3, 1500, 10, 0, 2.2, -0.04]), FREQS)
        assert np.max(np.abs(v0 - v1)) / 1500 < 1e-12

    def test_eps_zero_matches_single_gaussian_formula(self):
        theta = LoopParams(4.0, -6.0, 1200, 9, 0, 0, 0)
        v = visibilities_closed_form(theta, FREQS)
        s = fwhm_to_std(theta.sigma)
        expected = theta.flux * np.exp(
            2j * PI * (theta.x_c * FREQS.u + theta.y_c * FREQS.v)
            - 2 * PI ** 2 * s ** 2 * (FREQS.u ** 2 + FREQS.v ** 2))
        np.testing.assert_allclose(v, expected, atol=1e-12 * theta.flux)

    def test_seam_identification_in_data_space(self):
        v_a = visibilities_closed_form(LoopParams(3, -7, 1000, 8, 5, 0.0, 0.05), FREQS)
        v_b = visibilities_closed_form(
            np.array([3, -7, 1000, 8, 5, PI, -0.05]), FREQS)
        assert np.max(np.abs(v_a - v_b)) / 1000 < 1e-12

    def test_seam_convergence_from_below(self):
        v_ref = visibilities_closed_form(
            LoopParams(3, -7, 1000, 8, 5, 0.0, 0.05), FREQS)
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6):
            v = visibilities_closed_form(
                np.array([3, -7, 1000, 8, 5, PI - delta, -0.05]), FREQS)
            gaps.append(np.max(np.abs(v - v_ref)) / 1000)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_conjugate_symmetry(self):
        theta = LoopParams(5, 5, 1000, 8, 4, 0.9, -0.02)
        both = FrequencySet(np.vstack([FREQS.uv, -FREQS.uv]))
        v = visibilities_closed_form(theta, both)
        np.testing.assert_allclose(v[:30], np.conj(v[30:]), atol=1e-12 * 1000)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        thetas = np.array([random_loop(rng).as_array() for _ in range(20)])
        thetas[0, 4] = 0.0
        thetas[0, 5:7] = 0.0
        batch = visibilities_closed_form_batch(thetas, FREQS)
        for i in range(len(thetas)):
            single = visibilities_closed_form(thetas[i], FREQS)
            np.testing.assert_allclose(batch[i], single, atol=1e-10 * thetas[i, 2])


class TestQuadratureOracle:
    def test_circular_gaussian_zero_frequency(self):
        theta = LoopParams(0, 0, 1000, 8, 0, 0, 0)
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
        theta = LoopParams(0, 0, 1000, 4, 0, 0, 0)
        diag = Diagnostics()
        grid = GridSpec.centered(80.0, 32)
        visibilities_quadrature_oracle(theta, FREQS, grid=grid, diag=diag)
        assert diag.count("coarse_grid") == 1

    def test_verbatim_mode_consistency(self):
        # the audit variant changes the formula; both routes must track it
        cfg = LoopBuildConfig(exponent_mode="verbatim")
        theta = LoopParams(0, 0, 1000, 8, 2, 0.4, 0.01)
        cf = visibilities_closed_form(theta, FREQS, cfg)
        q = visibilities_quadrature_oracle(theta, FREQS, cfg=cfg)
        assert np.max(np.abs(cf - q)) / np.max(np.abs(cf)) < 1e-5
        zero = FrequencySet(np.array([[0.0, 0.0]]))
        v0 = visibilities_closed_form(theta, zero, cfg)[0]
        assert abs(v0 - theta.flux / theta.sigma) < 1e-9 * theta.flux


class TestEvalImage:
    def test_riemann_sum_recovers_flux(self):
        theta = LoopParams(0, 0, 1000, 8, 3, 0.5, 0.02)
        grid = GridSpec.centered(80.0, 161)  # step 1 arcsec = sigma / 8
        img = eval_image(theta, grid)
        total = img.sum() * grid.dx * grid.dy
        assert abs(total - theta.flux) / theta.flux < 1e-3

    def test_peak_at_center_when_circular(self):
        theta = LoopParams(6.0, -10.0, 1000, 8, 0, 0, 0)
        grid = GridSpec(-20, 30, -35, 15, 101, 101)
        img = eval_image(theta, grid)
        i, j = np.unravel_index(np.argmax(img), img.shape)
        assert abs(grid.xs()[j] - 6.0) <= grid.dx
        assert abs(grid.ys()[i] + 10.0) <= grid.dy

    def test_seam_identified_pair_pixelwise(self):
        grid = GridSpec.centered(60.0, 128)
        i_a = eval_image(LoopParams(3, -7, 1000, 8, 5, 0.0, 0.05), grid)
        i_b = eval_image(np.array([3, -7, 1000, 8, 5, PI, -0.05]), grid)
        assert np.max(np.abs(i_a - i_b)) < 1e-9


class TestNoise:
    def test_deterministic_given_seed(self):
        v = visibilities_closed_form(LoopParams(0, 0, 1000, 8, 5, 0, 0.05), FREQS)
        a = add_noise(v, 1000, np.random.default_rng(11))
        b = add_noise(v, 1000, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_noise_std_matches_model(self):
        # 2 sqrt(1000) = 63.2455...; Monte Carlo std over 1e5 draws
        v = np.zeros(30, dtype=complex)
        rng = np.random.default_rng(12)
        draws = np.concatenate(
            [vis_to_reals(add_noise(v, 1000, rng)) for _ in range(1700)])
        assert draws.size > 100000
        assert abs(draws.std() - 63.245553203367585) / 63.245553203367585 < 0.01

    def test_flux_must_be_positive(self):
        with pytest.raises(ValidationError):
            add_noise(np.zeros(30, dtype=complex), 0.0, np.random.default_rng(0))

    def test_flux_column_gives_each_row_its_flux(self):
        v = np.zeros((60, 30), dtype=complex)  # 60 real columns, as many as rows
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            add_noise(v, np.full(60, 1000.0), rng)  # would scale columns, not rows
        with pytest.raises(ValidationError):
            add_noise(v, np.array([[1000.0]] * 59 + [[0.0]]), rng)
        flux = np.linspace(500.0, 5000.0, 60)[:, None]
        std = vis_to_reals(add_noise(v, flux, rng)) / (2 * np.sqrt(flux))
        assert abs(std.std() - 1) < 0.05


class TestRealCoding:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=30) + 1j * rng.normal(size=30)
        np.testing.assert_array_equal(reals_to_vis(vis_to_reals(v)), v)

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            reals_to_vis(np.zeros(61))
