import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptopo.analysis import (circular_error,
                               evaluate_predictions, evaluation_scatter, export_scatter,
                               moebius_error_scaled,
                               nearest_rank_quantile, normalized_abs_error,
                               pca_fit, pca_project, quantile_summary, seam_distance)
from looptopo.data import SamplingConfig, generate_dataset
from looptopo.embeddings import moebius_distance
from looptopo.errors import ValidationError
from looptopo.tasks import TASKS

PI = math.pi


class TestNormalizedError:
    def test_zero_at_equality(self):
        assert normalized_abs_error(3.0, 3.0, (0, 10)) == 0.0

    def test_full_interval(self):
        assert normalized_abs_error(0.0, 10.0, (0, 10)) == 1.0

    def test_flux_example(self):
        err = normalized_abs_error(1100.0, 1000.0, (500, 5000))
        assert abs(err - 0.022222222222222223) < 1e-15

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValidationError):
            normalized_abs_error(1.0, 2.0, (5, 5))


class TestCircularError:
    def test_wrap_around(self):
        assert abs(circular_error(0.01, 2 * PI - 0.01) - 0.02) < 1e-12

    def test_zero(self):
        assert circular_error(PI, PI) == 0.0

    def test_maximum(self):
        assert abs(circular_error(0.0, PI) - PI) < 1e-15

    def test_vectorized(self):
        a = np.array([0.0, 0.1, 6.2])
        b = np.array([0.0, 6.2, 0.1])
        out = circular_error(a, b)
        assert out.shape == (3,)
        assert out[1] == out[2]


class TestMoebiusError:
    def test_identified_pair(self):
        assert moebius_distance((0.0, 0.03), (PI - 1e-9, -0.03)) < 1e-6

    def test_identical(self):
        assert moebius_distance((1.0, 0.02), (1.0, 0.02)) == 0.0

    def test_opposite_curvature(self):
        # gamma(0, +/-c) = (1, 0, +/-c): distance 2|c|
        assert abs(moebius_distance((0.0, 0.05), (0.0, -0.05)) - 0.1) < 1e-12

    def test_scaled_variant_collapses_with_eps(self):
        a = np.array([0, 0, 1000, 8, 0.0, 0.0, 0.0])
        b = np.array([0, 0, 1000, 8, 0.0, 2.0, 0.04])
        assert moebius_error_scaled(a, b) == 0.0

    def test_scaled_variant_matches_plain_at_eps_one(self):
        a = np.array([0, 0, 1000, 8, 1.0, 0.3, 0.01])
        b = np.array([0, 0, 1000, 8, 1.0, 2.1, -0.03])
        expected = moebius_distance((0.3, 0.01), (2.1, -0.03))
        assert abs(moebius_error_scaled(a, b) - expected) < 1e-12


#: Each task's angle period in radians.
PERIODS = {"circle": 2 * PI, "simple": PI, "complete": PI}


def _rows(task, angles):
    """Rows of the task's free parameters, zero but for its angle column."""
    spec = TASKS[task]
    rows = np.zeros((len(angles), len(spec.free)))
    rows[:, spec.free.index(spec.angles[0])] = angles
    return rows


class TestSeamDistance:
    def test_free_parameters_are_the_last_columns(self):
        full = np.array([[0, 0, 1000, 8, 5, PI - 0.25, 0.01]])
        assert seam_distance("simple", full) == seam_distance("simple", full[:, 5:])

    @settings(max_examples=200, deadline=None)
    @given(task=st.sampled_from(sorted(TASKS)),
           angles=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=20))
    def test_nearest_seam_period_and_mirror(self, task, angles):
        period, a = PERIODS[task], np.array(angles)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = seam_distance(task, _rows(task, a))
            assert np.all((d >= 0.0) & (d <= period / 2))
            np.testing.assert_allclose(d, np.abs(a - period * np.round(a / period)),
                                       rtol=0, atol=1e-12)  # to the nearest seam
            for same in (a + period, period - a):
                np.testing.assert_allclose(seam_distance(task, _rows(task, same)), d,
                                           rtol=0, atol=1e-12)
            assert np.all(seam_distance(task, _rows(task, [0.0, period])) == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_simple_band_is_the_alpha_degree_band(self, seed):
        # the band test_simple_scenario took before it read seam_distance
        ds = generate_dataset(SamplingConfig.default("simple", seed, n_train=300,
                                                     n_val=0, n_test=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            band = seam_distance("simple", ds.params) <= np.radians(2.0)
        alpha_deg = np.degrees(ds.params[:, 5])
        np.testing.assert_array_equal(band, (alpha_deg <= 2.0) | (alpha_deg >= 178.0))


class TestQuantiles:
    def brute_force(self, values, q):
        # independent enumeration: smallest value whose cdf reaches q
        a = sorted(values)
        n = len(a)
        if q == 0.0:
            return a[0]
        for v in a:
            if sum(1 for u in a if u <= v) >= q * n:
                return v
        return a[-1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 12, size=rng.integers(1, 40)).astype(float)
        for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert nearest_rank_quantile(values, q) == self.brute_force(values, q)

    def test_summary_keys(self):
        s = quantile_summary(np.arange(100.0))
        assert set(s) >= {"min", "max", "mean", "count", "q05", "q50", "q95"}
        assert s["q50"] <= s["q75"] <= s["q95"] <= s["max"]

    def test_summary_ordered(self):
        s = quantile_summary(np.random.default_rng(0).normal(size=200))
        assert s["min"] <= s["q25"] <= s["q50"] <= s["q75"] <= s["max"]

    @pytest.mark.parametrize("stats", [lambda v: nearest_rank_quantile(v, 0.5),
                                       quantile_summary])
    def test_empty_rejected(self, stats):
        with pytest.raises(ValidationError, match="quantile of an empty array"):
            stats(np.array([]))

    def test_summaries_match_their_quantiles(self):
        # one sort gives each level the value of its own nearest-rank call
        values = np.random.default_rng(4).normal(size=999)
        s = quantile_summary(values)
        assert (s["min"], s["max"]) == (values.min(), values.max())
        assert s["mean"] == values.mean() and s["count"] == 999
        for key, q in [("q05", 0.05), ("q25", 0.25), ("q50", 0.5), ("q75", 0.75),
                       ("q95", 0.95)]:
            assert s[key] == nearest_rank_quantile(values, q)


class TestPca:
    def test_planar_data_has_rank_two(self):
        rng = np.random.default_rng(1)
        basis = rng.normal(size=(2, 60))
        x = rng.normal(size=(500, 2)) @ basis + rng.normal(size=60)
        model = pca_fit(x, k=3)
        assert model.explained_variance_ratio[2] < 1e-10

    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 10))
        model = pca_fit(x, k=3)
        np.testing.assert_allclose(pca_project(model, x.mean(axis=0)),
                                   np.zeros(3), atol=1e-10)

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 60))
        model = pca_fit(x, k=5)
        gram = model.axes @ model.axes.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_explained_variance_non_increasing_and_sums_below_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 20)) * np.linspace(1, 5, 20)
        model = pca_fit(x, k=10)
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert ratios.sum() <= 1.0 + 1e-12

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 15))
        errors = []
        for k in range(1, 8):
            model = pca_fit(x, k=k)
            proj = pca_project(model, x)
            recon = model.mean + proj @ model.axes
            errors.append(np.linalg.norm(x - recon))
        assert np.all(np.diff(errors) <= 1e-9)

    def test_pairwise_distances_bounded_by_discarded_spectrum(self):
        # oracle: full SVD of the centered matrix
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 12))
        k = 4
        model = pca_fit(x, k=k)
        centered = x - x.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        np.testing.assert_allclose(model.singular_values, svals[:k], atol=1e-8)
        residual_bound = 4.0 * np.sum(svals[k:] ** 2)
        proj = pca_project(model, x)
        for i in range(0, 40, 7):
            for j in range(i + 1, 40, 7):
                full = np.sum((x[i] - x[j]) ** 2)
                low = np.sum((proj[i] - proj[j]) ** 2)
                assert low <= full + 1e-9
                assert full - low <= residual_bound + 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 8))
        a = pca_fit(x, k=3)
        b = pca_fit(x.copy(), k=3)
        np.testing.assert_array_equal(a.axes, b.axes)
        for row in a.axes:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_k_out_of_range_rejected(self):
        x = np.zeros((100, 60))
        with pytest.raises(ValidationError):
            pca_fit(x, k=61)
        with pytest.raises(ValidationError):
            pca_fit(np.zeros((2, 60)), k=3)


class TestEvaluatePredictions:
    def test_complete_report_content(self):
        rng = np.random.default_rng(8)
        truth = np.stack([rng.uniform(-50, 50, 30), rng.uniform(-50, 50, 30),
                          rng.uniform(500, 5000, 30), rng.uniform(4, 20, 30),
                          rng.uniform(0, 5, 30), rng.uniform(0, PI, 30),
                          rng.uniform(-0.05, 0.05, 30)], axis=1)
        pred = truth + rng.normal(scale=0.01, size=truth.shape)
        intervals = {"x_c": (-50, 50), "y_c": (-50, 50), "flux": (500, 5000),
                     "sigma": (4, 20), "eps": (0, 5), "alpha": (0, PI),
                     "c": (-0.05, 0.05)}
        report = evaluate_predictions("complete", "embedded", truth, pred, intervals)
        assert set(report.per_param) == {"x_c_norm", "y_c_norm", "flux_norm",
                                         "sigma_norm", "eps_norm", "moebius_scaled"}
        assert report.n_samples == 30
        for s in report.summaries.values():
            assert s["q25"] <= s["q50"] <= s["q75"]
        # an interval a norm error divides by is missing: named, not a TypeError
        for name in ("x_c", "eps"):
            partial = {k: v for k, v in intervals.items() if k != name}
            with pytest.raises(ValidationError, match=f"intervals lack {name},"):
                evaluate_predictions("complete", "embedded", truth, pred, partial)
        with pytest.raises(ValidationError, match="intervals lack x_c,"):
            evaluate_predictions("complete", "embedded", truth, truth, {})

    @pytest.mark.parametrize("task, truth, pred", [
        ("circle", np.zeros((3, 1)), np.zeros((4, 1))),
        ("circle", np.zeros(3), np.zeros(3)),  # rows of one parameter must be (S, 1)
        ("complete", np.zeros((3, 2)), np.zeros((3, 2))),  # fewer columns than free parameters
        ("simple", [[0.0, 1.0], [0.0]], [[0.0, 1.0], [0.0, 1.0]]),
        ("simple", [["a", "b"]], [[0.0, 1.0]])])
    def test_shape_mismatch_rejected(self, task, truth, pred):
        with pytest.raises(ValidationError):
            evaluate_predictions(task, "naive", truth, pred, {})

    @pytest.mark.parametrize("task, width", [("circle", 1), ("simple", 2), ("complete", 7)])
    def test_zero_rows_rejected(self, task, width):
        with pytest.raises(ValidationError, match="no rows"):
            evaluate_predictions(task, "naive", np.zeros((0, width)),
                                 np.zeros((0, width)), {})


class TestScatterExport:
    HEADER = ["a", "b", "c"]

    def test_row_count_and_header(self, tmp_path):
        rows = [[1.0, 2.0, 3.0], [4.0, 5.5, 6.25]]
        path = tmp_path / "s.csv"
        export_scatter(rows, self.HEADER, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,b,c"
        assert len(lines) == 3

    def test_reexport_byte_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(50, 3)).tolist()
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        export_scatter(rows, self.HEADER, p1)
        export_scatter(rows, self.HEADER, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _scatter(truth=np.zeros((2, 1)), pred=np.zeros((2, 1)), inputs=np.ones((2, 2))):
    report = evaluate_predictions("circle", "embedded", np.zeros((2, 1)), np.zeros((2, 1)),
                                  {"theta": (0.0, 2 * PI)})
    return evaluation_scatter("circle", truth, pred, inputs, report)


#: Each public entry point, with one argument taken from the test.
ENTRIES = {"normalized_abs_error pred": lambda b: normalized_abs_error(b, 0.0, (0, 1)),
           "normalized_abs_error truth": lambda b: normalized_abs_error(0.0, b, (0, 1)),
           "circular_error pred": lambda b: circular_error(b, 0.0),
           "circular_error truth": lambda b: circular_error(0.0, b),
           "pca_fit": lambda b: pca_fit(b, k=1),
           "seam_distance": lambda b: seam_distance("simple", b),
           "pca_project": lambda b: pca_project(pca_fit(np.eye(2), k=1), b),
           "evaluation_scatter truth": lambda b: _scatter(truth=b),
           "evaluation_scatter pred": lambda b: _scatter(pred=b),
           "evaluation_scatter inputs": lambda b: _scatter(inputs=b)}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_input_that_is_not_real_numbers_is_a_validation_error(entry):
    _scatter()  # the valid call the cases below break
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad, rule in (([["a", "b"]], "numeric"), ([[1.0, 2.0], [1.0]], "numeric"),
                          (np.ones((2, 2)) + 1j, "real"), ([[1.0, 2j]], "real")):
            with pytest.raises(ValidationError, match=f"must be {rule}"):
                ENTRIES[entry](bad)
