import math

import numpy as np
import pytest

from looptopo.diagnostics import Diagnostics
from looptopo.embeddings import (EPS_TOL, CircleParam, LoopParams,
                                 MoebiusCoords, circle_embed, circle_inv,
                                 gamma, gamma_g, gamma_g_inv, gamma_inv,
                                 moebius_distance)
from looptopo.errors import ValidationError

PI = math.pi


def gamma_inv_cos_form(p):
    """Textbook inverse c = z / cos(arctan2(y, x) / 2).

    Exact on the strip away from alpha = pi/2 but singular there; kept for
    cross-checking the robust form. Do not use on network outputs.
    """
    p = np.asarray(p, dtype=float)
    angle = np.arctan2(p[..., 1], p[..., 0])
    angle = np.where(angle < 0.0, angle + 2.0 * PI, angle)
    alpha = 0.5 * angle
    c = p[..., 2] / np.cos(alpha)
    if p.ndim == 1:
        return float(alpha), float(c)
    return alpha, c


class TestGamma:
    def test_identity_point(self):
        np.testing.assert_allclose(gamma(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_half_turn_with_curvature(self):
        # sin(a) = 1, cos(2a) = -1, cos(a) = 0
        np.testing.assert_allclose(gamma(PI / 2, 0.05), [-1.05, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            gamma(PI / 4, 0.02),
            [0.0, 1.014142135623731, 0.014142135623730952], atol=1e-12)

    def test_on_strip_invariant(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, PI, 500)
        c = rng.uniform(-0.05, 0.05, 500)
        p = gamma(a, c)
        np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]),
                                   1 + c * np.sin(a), atol=1e-12)
        np.testing.assert_allclose(p[:, 2], c * np.cos(a), atol=1e-12)

    def test_broadcasting_shape(self):
        assert gamma(np.zeros((4, 5)), 0.01).shape == (4, 5, 3)


class TestGammaInv:
    def test_simple_point(self):
        alpha, c = gamma_inv(np.array([1.0, 0.0, -0.03]))
        assert alpha == 0.0
        assert c == -0.03

    def test_round_trip_grid(self):
        a = np.linspace(0, PI, 181, endpoint=False)
        c = np.linspace(-0.05, 0.05, 21)
        A, C = np.meshgrid(a, c, indexing="ij")
        ai, ci = gamma_inv(gamma(A, C))
        np.testing.assert_allclose(ai, A, atol=1e-9)
        np.testing.assert_allclose(ci, C, atol=1e-9)

    def test_pole_point_matches_nearest_point_search(self):
        # independent oracle: densely sample the strip, take the closest point
        alphas = np.linspace(0, PI, 4001, endpoint=False)
        cs = np.linspace(-0.06, 0.06, 241)
        A, C = np.meshgrid(alphas, cs, indexing="ij")
        pts = gamma(A, C)
        target = np.array([-1.05, 0.0, 0.0])
        d = np.linalg.norm(pts - target, axis=-1)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        assert abs(alphas[i] - PI / 2) < 1e-3
        assert abs(cs[j] - 0.05) < 1e-3

        alpha, c = gamma_inv(target)
        assert abs(alpha - PI / 2) < 1e-12
        assert abs(c - 0.05) < 1e-12

    def test_agrees_with_cos_form_away_from_pole(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, PI, 2000)
        c = rng.uniform(-0.05, 0.05, 2000)
        keep = np.abs(np.cos(a)) > 0.1
        p = gamma(a[keep], c[keep])
        a1, c1 = gamma_inv(p)
        a2, c2 = gamma_inv_cos_form(p)
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_degenerate_direction_flagged(self):
        diag = Diagnostics()
        alpha, c = gamma_inv(np.array([0.0, 0.0, 0.7]), diag=diag)
        assert alpha == 0.0
        assert c == 0.7  # z cos(0) + (r - 1) sin(0)
        assert diag.count("degenerate_direction") == 1

    def test_alpha_stays_in_range_off_strip(self):
        rng = np.random.default_rng(2)
        p = rng.normal(scale=2.0, size=(5000, 3))
        p = p[~((p[:, 0] == 0) & (p[:, 1] == 0))]
        alpha, _ = gamma_inv(p)
        assert np.all(alpha >= 0.0) and np.all(alpha < PI)


class TestSeam:
    def test_seam_limit_continuity(self):
        # || gamma(pi - d, c) - gamma(0, -c) || <= K d with K < 3
        for c in (-0.05, 0.0, 0.05):
            for delta in (1e-3, 1e-4, 1e-6):
                gap = np.linalg.norm(gamma(PI - delta, c) - gamma(0.0, -c))
                assert gap <= 3.0 * delta

    def test_identified_pairs_at_distance_zero(self):
        assert moebius_distance((0.0, 0.05), (PI - 1e-9, -0.05)) < 1e-6


class TestMoebiusDistance:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = (rng.uniform(0, PI), rng.uniform(-0.05, 0.05))
            assert moebius_distance(m, m) == 0.0

    def test_known_value(self):
        d = moebius_distance((0.0, 0.05), (PI / 2, 0.05))
        assert abs(d - 2.0506096654409878) < 1e-12

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(4)
        a = np.stack([rng.uniform(0, PI, 100), rng.uniform(-0.05, 0.05, 100)], axis=1)
        b = np.stack([rng.uniform(0, PI, 100), rng.uniform(-0.05, 0.05, 100)], axis=1)
        dab = moebius_distance(a, b)
        dba = moebius_distance(b, a)
        np.testing.assert_array_equal(dab, dba)
        assert np.all(dab >= 0)

    def test_zero_iff_same_image(self):
        a = np.linspace(0, PI, 50, endpoint=False)
        c = np.linspace(-0.05, 0.05, 11)
        A, C = np.meshgrid(a, c, indexing="ij")
        pairs = np.stack([A.ravel(), C.ravel()], axis=1)
        d = moebius_distance(pairs[:, None, :], pairs[None, :, :])
        same_image = d < 1e-12
        # gamma is injective on the half-open domain: only the diagonal
        assert np.array_equal(same_image, np.eye(len(pairs), dtype=bool))

    def test_accepts_dataclass_coords(self):
        assert moebius_distance(MoebiusCoords(0.3, 0.01), MoebiusCoords(0.3, 0.01)) == 0.0


class TestGammaG:
    def test_collapsed_shape(self):
        theta = LoopParams(0, 0, 1000, 8, 0, 0, 0)
        np.testing.assert_array_equal(gamma_g(theta), [0, 0, 1000, 8, 0, 0, 0, 0])

    def test_eccentric_shape(self):
        theta = LoopParams(0, 0, 1000, 8, 5, 0, 0.05)
        np.testing.assert_allclose(gamma_g(theta), [0, 0, 1000, 8, 5, 5, 0, 0.25],
                                   atol=1e-12)

    def test_seam_limit(self):
        t_a = np.array([1, 2, 900, 6, 3, PI - 1e-9, 0.04])
        t_b = np.array([1, 2, 900, 6, 3, 0.0, -0.04])
        assert np.linalg.norm(gamma_g(t_a) - gamma_g(t_b)) < 1e-6


class TestGammaGInv:
    def test_collapsed_branch(self):
        p = np.array([0, 0, 1000, 8, 0, 0, 0, 0], dtype=float)
        np.testing.assert_array_equal(gamma_g_inv(p), [0, 0, 1000, 8, 0, 0, 0])

    def test_inverts_the_example(self):
        p = np.array([0, 0, 1000, 8, 5, 5, 0, 0.25], dtype=float)
        np.testing.assert_allclose(gamma_g_inv(p), [0, 0, 1000, 8, 5, 0, 0.05],
                                   atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        n = 1000
        thetas = np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                           rng.uniform(500, 5000, n), rng.uniform(4, 20, n),
                           rng.uniform(2 * EPS_TOL, 5, n), rng.uniform(0, PI, n),
                           rng.uniform(-0.05, 0.05, n)], axis=1)
        back = gamma_g_inv(gamma_g(thetas))
        np.testing.assert_allclose(back, thetas, atol=1e-9)

    def test_below_tolerance_collapses(self):
        p = np.array([1, 1, 500, 4, EPS_TOL / 2, 0.3, 0.2, 0.1])
        out = gamma_g_inv(p)
        assert out[5] == 0.0 and out[6] == 0.0
        assert out[4] == EPS_TOL / 2  # the s-block passes through

    def test_clamps_negative_scale_parameters(self):
        diag = Diagnostics()
        p = np.array([0, 0, -5.0, -1.0, -0.2, 0, 0, 0])
        out = gamma_g_inv(p, floors=(500.0, 4.0, 0.0), diag=diag)
        assert out[2] == 500.0 and out[3] == 4.0 and out[4] == 0.0
        assert diag.count("clamped") == 3

    def test_total_on_garbage(self):
        rng = np.random.default_rng(6)
        p = rng.normal(scale=1e6, size=(200, 8))
        out = gamma_g_inv(p)
        assert out.shape == (200, 7)
        assert np.all(np.isfinite(out))


class TestCircle:
    def test_embed_basics(self):
        np.testing.assert_allclose(circle_embed(0.0), [1, 0], atol=1e-15)
        np.testing.assert_allclose(circle_embed(PI / 2), [0, 1], atol=1e-15)

    def test_inv_basics(self):
        assert circle_inv(np.array([1.0, 0.0])) == 0.0
        assert abs(circle_inv(np.array([0.0, -1.0])) - 3 * PI / 2) < 1e-12

    def test_radial_invariance(self):
        p = 0.5 * np.array([math.cos(1.0), math.sin(1.0)])
        assert abs(circle_inv(p) - 1.0) < 1e-12

    def test_round_trip(self):
        theta = np.linspace(0, 2 * PI, 1000, endpoint=False)
        back = circle_inv(circle_embed(theta))
        wrapped = np.minimum(np.abs(back - theta), 2 * PI - np.abs(back - theta))
        assert np.max(wrapped) < 1e-12

    def test_zero_vector_flagged(self):
        diag = Diagnostics()
        assert circle_inv(np.zeros(2), diag=diag) == 0.0
        assert diag.count("degenerate_direction") == 1


class TestTypes:
    def test_moebius_coords_validation(self):
        MoebiusCoords(0.0, 0.05).validate()
        with pytest.raises(ValidationError):
            MoebiusCoords(PI, 0.0).validate()
        with pytest.raises(ValidationError):
            MoebiusCoords(0.5, 0.06).validate()

    def test_circle_param_validation(self):
        CircleParam(0.0).validate()
        with pytest.raises(ValidationError):
            CircleParam(2 * PI).validate()

    def test_loop_params_physical_validation(self):
        LoopParams(0, 0, 1000, 8, 5, 0.3, 0.01).validate()
        with pytest.raises(ValidationError):
            LoopParams(0, 0, -1, 8, 5, 0.3, 0.01).validate()
        with pytest.raises(ValidationError):
            LoopParams(0, 0, 1000, 0, 5, 0.3, 0.01).validate()
        with pytest.raises(ValidationError):
            LoopParams(0, 0, 1000, 8, -1, 0.3, 0.01).validate()
        with pytest.raises(ValidationError):
            LoopParams(0, 0, float("nan"), 8, 5, 0.3, 0.01).validate()

    def test_loop_params_canonical_validation(self):
        # the collapse convention only binds in canonical mode
        LoopParams(0, 0, 1000, 8, 0, 0.4, 0.01).validate()
        with pytest.raises(ValidationError):
            LoopParams(0, 0, 1000, 8, 0, 0.4, 0.01).validate(canonical=True)
        with pytest.raises(ValidationError):
            LoopParams(0, 0, 1000, 8, 5, PI, 0.01).validate(canonical=True)

    def test_round_trip_array(self):
        theta = LoopParams(1, 2, 3, 4, 5, 0.6, 0.007)
        assert LoopParams.from_array(theta.as_array()) == theta
