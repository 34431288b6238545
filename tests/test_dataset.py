import hashlib
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptopo import forward_model, pool
from looptopo.data import (EVAL_CHUNK, TEST, TRAIN, VAL, SamplingConfig, Dataset,
                           StandardizationStats, apply_standardization, fit_standardization,
                           generate_dataset, internal_intervals, load_dataset,
                           sample_params_external, save_dataset, to_internal_params)
from looptopo.diagnostics import Diagnostics
from looptopo.errors import (ChecksumError, FormatVersionError, LoopTopoError,
                             ParseError, ValidationError)
from looptopo.forward_model import visibilities_closed_form_batch
from looptopo.serialization import write_array_bin
from looptopo.tasks import TASKS

PI = math.pi

ARRAY_FIELDS = ("params_disk", "params", "clean", "noisy", "split")


def small_cfg(scenario, seed=5, **kw):
    sizes = dict(n_train=120, n_val=40, n_test=40)
    sizes.update(kw)
    return SamplingConfig.default(scenario, seed, **sizes)


def datasets_equal(a: Dataset, b: Dataset):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ARRAY_FIELDS)


class TestSampling:
    def test_simple_pins(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg("simple")
        for _ in range(50):
            p = to_internal_params(cfg.scenario, sample_params_external(cfg, rng))
            assert p[0] == 0 and p[1] == 0 and p[2] == 1000 and p[3] == 8 and p[4] == 5
            assert 0 <= p[5] < PI
            assert -0.05 <= p[6] <= 0.05

    def test_all_circular_when_fraction_is_one(self):
        # circular_fraction < 1 by contract; 1 - eps gives all-circular draws
        rng = np.random.default_rng(1)
        cfg = SamplingConfig.default("complete", 3, n_train=50, n_val=10, n_test=10,
                                     circular_fraction=1.0 - 1e-12)
        for _ in range(50):
            p = to_internal_params(cfg.scenario, sample_params_external(cfg, rng))
            assert p[4] == 0.0 and p[5] == 0.0 and p[6] == 0.0

    def test_alpha_uniformity_ks(self):
        # Kolmogorov-Smirnov distance of 1e5 draws from U[0, 180)
        rng = np.random.default_rng(2)
        cfg = small_cfg("simple")
        draws = np.sort([sample_params_external(cfg, rng)[5] for _ in range(100000)])
        ecdf_hi = np.arange(1, draws.size + 1) / draws.size
        ecdf_lo = np.arange(0, draws.size) / draws.size
        cdf = draws / 180.0
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(ecdf_lo - cdf)))
        assert ks < 0.01

    @settings(max_examples=60, deadline=None)
    @given(task=st.sampled_from(sorted(TASKS)), size=st.integers(1, 500),
           fraction=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_draw(self, task, size, fraction, seed):
        spec = TASKS[task]
        cfg = SamplingConfig.default(task, 0,
                                     circular_fraction=fraction if spec.collapses else 0.0)
        rng = np.random.default_rng(seed)
        iv = cfg.resolved_intervals()
        assert sample_params_external(cfg, rng).shape == (len(spec.params),)

        draw = sample_params_external(cfg, rng, size=size)
        assert draw.shape == (size, len(spec.params))
        for j, name in enumerate(spec.params):
            lo, hi = iv[name]
            assert np.all((draw[:, j] >= lo) & (draw[:, j] <= hi)), name
            if lo == hi:
                assert np.all(draw[:, j] == lo), name
        if spec.collapses:
            # a uniform eps draw is never exactly 0, so these are the collapsed rows
            collapsed = draw[:, spec.params.index("eps")] == 0.0
            assert np.all(draw[collapsed][:, [spec.params.index("alpha"),
                                              spec.params.index("c")]] == 0.0)

    def test_interval_overrides(self):
        cfg = SamplingConfig.default("complete", 1, intervals={"flux": (900, 1100)})
        assert cfg.resolved_intervals()["flux"] == (900, 1100)
        with pytest.raises(ValidationError):
            SamplingConfig.default("complete", 1, intervals={"bogus": (0, 1)})

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig.default("complete", 1, intervals={"flux": (2000, 1000)})

    def test_circle_noise_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig.default("circle", 1, noise=True)

    def test_internal_intervals_converts_angles(self):
        iv = internal_intervals(small_cfg("simple"))
        assert iv["alpha"] == (0.0, PI)


class TestGeneration:
    def test_split_sizes_and_partition(self):
        ds = generate_dataset(small_cfg("simple"))
        assert ds.n_samples == 200
        blocks = np.array([TRAIN] * 120 + [VAL] * 40 + [TEST] * 40, dtype=np.int8)
        assert ds.split.dtype == np.int8 and ds.split.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("scenario", sorted(TASKS))
    def test_splits_are_slices_in_order(self, scenario):
        ds = generate_dataset(small_cfg(scenario, n_train=7, n_val=3, n_test=5))
        assert [ds.mask(split) for split in (TRAIN, VAL, TEST)] == \
            [slice(0, 7), slice(7, 10), slice(10, 15)]

    def test_inputs_are_views(self):
        ds = generate_dataset(small_cfg("complete"))
        for split in (TRAIN, VAL, TEST):
            assert np.shares_memory(ds.inputs(split), ds.noisy)

    @pytest.mark.parametrize("scenario, extra", [
        ("circle", {}), ("simple", {}), ("complete", {"noise": False})])
    def test_noise_free_dataset_holds_one_channel(self, scenario, extra):
        ds = generate_dataset(small_cfg(scenario, **extra))
        assert ds.noisy is ds.clean

    def test_determinism(self):
        cfg = small_cfg("complete")
        assert datasets_equal(generate_dataset(cfg), generate_dataset(cfg))

    def test_jobs_do_not_change_content(self):
        cfg = small_cfg("complete")
        assert datasets_equal(generate_dataset(cfg), generate_dataset(cfg, jobs=2))

    def test_chunks_and_workers_do_not_change_content(self, monkeypatch):
        cfg = small_cfg("complete", n_train=1700, n_val=200, n_test=200)  # 3 kernel blocks
        ds = generate_dataset(cfg)
        for block in (1, 7, forward_model.CLOSED_FORM_CHUNK, cfg.total + 1):
            for pair_rows in (1, 3, forward_model._PAIR_ROWS):
                with monkeypatch.context() as mp:
                    mp.setattr(forward_model, "CLOSED_FORM_CHUNK", block)
                    mp.setattr(forward_model, "_PAIR_ROWS", pair_rows)
                    assert datasets_equal(ds, generate_dataset(cfg)), (block, pair_rows)
        monkeypatch.setattr(pool, "WORKERS", 1)
        assert datasets_equal(ds, generate_dataset(cfg))

    @pytest.mark.parametrize("workers", sorted({1, pool.WORKERS, 2}))
    def test_noise_is_one_draw_from_stream_1(self, monkeypatch, workers):
        # drawn beside the kernel, the noise keeps the bytes of one standard_normal call
        monkeypatch.setattr(pool, "WORKERS", workers)
        cfg = small_cfg("complete", n_train=1700, n_val=200, n_test=200)  # 3 kernel blocks
        ds = generate_dataset(cfg)
        noise_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        normals = noise_rng.standard_normal(ds.clean.shape)
        expected = ds.clean + 2.0 * np.sqrt(ds.params[:, 2:3]) * normals
        assert ds.noisy.tobytes() == expected.tobytes()

    def test_clean_channel_reproducible_from_params(self):
        ds = generate_dataset(small_cfg("complete"))
        vis = visibilities_closed_form_batch(ds.params, ds.frequencies, ds.build)
        np.testing.assert_allclose(vis, ds.clean,
                                   atol=1e-9 * np.abs(ds.clean).max())

    def test_noise_statistics(self):
        # pinned flux makes the target std exactly 2 sqrt(1000)
        cfg = SamplingConfig.default("complete", 77, n_train=1200, n_val=150,
                                     n_test=150, intervals={"flux": (1000, 1000)})
        ds = generate_dataset(cfg)
        resid = (ds.noisy - ds.clean).ravel()
        target = 2 * math.sqrt(1000)
        assert abs(resid.std() - target) / target < 0.02
        assert abs(resid.mean()) < 1.0

    def test_noise_scales_per_row(self):
        # exactly as many samples as data columns, so that a flux vector
        # broadcast along the columns instead of the rows would go unnoticed
        cfg = SamplingConfig.default("complete", 78, n_train=40, n_val=10,
                                     n_test=10, intervals={"flux": (500, 5000)})
        ds = generate_dataset(cfg)
        assert ds.noisy.shape == (60, 60)
        resid = (ds.noisy - ds.clean) / (2 * np.sqrt(ds.params[:, 2:3]))
        assert abs(resid.std() - 1) < 0.05

    def test_simple_scenario_is_noise_free(self):
        ds = generate_dataset(small_cfg("simple"))
        np.testing.assert_array_equal(ds.clean, ds.noisy)

    def test_circle_scenario(self):
        ds = generate_dataset(small_cfg("circle"))
        assert ds.clean.shape == (200, 2)
        np.testing.assert_allclose(ds.clean[:, 0], np.cos(ds.params[:, 0]), atol=1e-12)
        assert ds.frequencies is None

    def test_circular_fraction_hits_degenerate_branch(self):
        cfg = SamplingConfig.default("complete", 5, n_train=400, n_val=50, n_test=50,
                                     circular_fraction=0.25)
        ds = generate_dataset(cfg)
        circular = ds.params[:, 4] == 0.0
        assert 0.15 < circular.mean() < 0.35
        assert np.all(ds.params[circular][:, 5:7] == 0.0)


class TestStandardization:
    def test_train_split_statistics(self):
        ds = generate_dataset(small_cfg("simple"))
        stats = fit_standardization(ds)
        z = apply_standardization(stats, ds.inputs(TRAIN))
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1).max() < 1e-6

    def test_constant_feature_handled(self):
        ds = generate_dataset(small_cfg("circle"))
        ds.noisy = ds.noisy.copy()
        ds.noisy[:, 1] = 4.2
        diag = Diagnostics()
        stats = fit_standardization(ds, diag=diag)
        assert stats.std[1] == 1.0
        assert diag.count("zero_variance_feature") == 1
        z = apply_standardization(stats, ds.inputs(TRAIN))
        np.testing.assert_array_equal(z[:, 1], 0.0)

    def test_invertible(self):
        ds = generate_dataset(small_cfg("simple"))
        stats = fit_standardization(ds)
        x = ds.inputs(TEST)
        back = apply_standardization(stats, x) * stats.std + stats.mean
        np.testing.assert_allclose(back, x, atol=1e-12 * np.abs(x).max())

    def test_uses_training_split_only(self):
        ds = generate_dataset(small_cfg("simple"))
        stats = fit_standardization(ds)
        full_mean = ds.noisy.mean(axis=0)
        assert not np.allclose(stats.mean, full_mean, atol=1e-12)

    @pytest.mark.parametrize("rows", [0, 1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 2500])
    def test_chunks_store_the_float64_result_in_the_dtype_asked(self, rows):
        rng = np.random.default_rng(rows)
        stats = StandardizationStats(mean=rng.normal(size=60), std=rng.uniform(0.1, 3, 60))
        x = rng.normal(size=(rows, 60)) * 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = apply_standardization(stats, x)
            narrow = apply_standardization(stats, x, np.float32)
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        np.testing.assert_array_equal(wide, (x - stats.mean) / stats.std)  # the old bits
        np.testing.assert_array_equal(narrow, wide.astype(np.float32))
        if rows:
            np.testing.assert_array_equal(apply_standardization(stats, x[-1], np.float32),
                                          narrow[-1])

    def test_input_that_is_not_real_rows_of_the_width_refused(self):
        stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad, rule in (([[1.0, 2.0, 3.0], [1.0]], "must be numeric"),
                              ([["a"] * 3], "must be numeric"),
                              (np.ones((2, 3)) + 1j, "must be real"),
                              (np.ones((2, 4)),
                               r"expected \(3,\) or \(rows, 3\) inputs, got shape \(2, 4\)"),
                              (np.ones((1, 2, 3)),
                               r"expected \(3,\) or \(rows, 3\) inputs, got shape \(1, 2, 3\)")):
                with pytest.raises(ValidationError, match=rule):
                    apply_standardization(stats, bad, np.float32)


def saved_files(noise):
    """The files of a dataset directory: the noisy channel only with noise on."""
    return {"manifest.json", "params.bin", "clean.bin", *(["noisy.bin"] if noise else [])}


class TestDiskFormat:
    @pytest.mark.parametrize("scenario, extra", [
        ("circle", {}), ("simple", {}), ("complete", {}), ("complete", {"noise": False})],
        ids=["circle", "simple", "complete", "complete-noise-off"])
    @pytest.mark.parametrize("rows", [1, EVAL_CHUNK, EVAL_CHUNK + 1])
    def test_round_trip_identity(self, tmp_path, scenario, extra, rows):
        tenth = rows // 10
        ds = generate_dataset(small_cfg(scenario, n_train=rows - 2 * tenth, n_val=tenth,
                                        n_test=tenth, **extra))
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert datasets_equal(ds, loaded)
        assert set(os.listdir(tmp_path / "ds")) == saved_files(ds.config.noise)
        assert (loaded.noisy is loaded.clean) == (not ds.config.noise)
        assert "mode" not in json.loads((tmp_path / "ds" / "manifest.json").read_text())

    @pytest.mark.parametrize("earlier", ["noisy", "format 1"])
    def test_stale_files_of_an_earlier_save_are_not_read(self, tmp_path, earlier):
        # a noise-free save over a noisy one, or over a format 1 directory with its
        # split.bin, leaves their files behind; the manifest does not list them
        path = tmp_path / "ds"
        noisy = generate_dataset(small_cfg("complete"))
        save_dataset(noisy, path)
        stale = {"noisy.bin"}
        if earlier == "format 1":
            manifest = json.loads((path / "manifest.json").read_text())
            manifest.update(format_version=1, mode="binary")
            manifest["arrays"]["split"] = write_array_bin(noisy.split, path / "split.bin")
            (path / "manifest.json").write_text(json.dumps(manifest))
            stale.add("split.bin")
        ds = generate_dataset(small_cfg("complete", noise=False))
        save_dataset(ds, path)
        assert set(os.listdir(path)) == saved_files(False) | stale
        for name in stale:
            (path / name).write_bytes(b"not read")
        loaded = load_dataset(path)
        assert datasets_equal(ds, loaded) and loaded.noisy is loaded.clean

    @pytest.mark.parametrize("scenario, edit, message", [
        ("simple", lambda m: m["arrays"].update(noisy=m["arrays"]["clean"]),
         "extra arrays.noisy"),
        ("simple", lambda m: m["arrays"].update(split=m["arrays"]["clean"]),
         "extra arrays.split"),
        ("complete", lambda m: m["arrays"].pop("noisy"), "missing arrays.noisy"),
        ("circle", lambda m: m["arrays"].pop("clean"), "missing arrays.clean")])
    def test_manifest_lists_exactly_the_arrays_the_config_implies(self, tmp_path, scenario,
                                                                  edit, message):
        save_dataset(generate_dataset(small_cfg(scenario)), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=message) as raised:
            load_dataset(tmp_path / "ds")
        assert raised.value.path == str(manifest_path)

    def test_edited_config_detected(self, tmp_path):
        # the stored alphas reach 179.6 deg; narrowing their interval would
        # silently change naive clamping and the normalized errors
        save_dataset(generate_dataset(small_cfg("simple")), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["intervals"]["alpha"] = [0, 90]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ChecksumError, match="config_hash"):
            load_dataset(tmp_path / "ds")

    def test_config_hash_ignores_manifest_layout(self, tmp_path):
        ds = generate_dataset(small_cfg("complete"))
        save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest_path.write_text(json.dumps(json.loads(manifest_path.read_text())))
        assert datasets_equal(ds, load_dataset(tmp_path / "ds"))

    def test_corrupted_byte_detected(self, tmp_path):
        ds = generate_dataset(small_cfg("simple"))
        save_dataset(ds, tmp_path / "ds")
        target = tmp_path / "ds" / "clean.bin"
        blob = bytearray(target.read_bytes())
        blob[100] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_dataset(tmp_path / "ds")

    def test_truncated_file_detected(self, tmp_path):
        ds = generate_dataset(small_cfg("simple"))
        save_dataset(ds, tmp_path / "ds")
        target = tmp_path / "ds" / "params.bin"
        target.write_bytes(target.read_bytes()[:64])
        with pytest.raises(ChecksumError):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("shape, message", [([200, 6], "expected"), ([200, 8], "needs")])
    def test_manifest_shape_must_describe_the_file(self, tmp_path, shape, message):
        # the file still matches its checksum; the entry describing it does not
        save_dataset(generate_dataset(small_cfg("simple")), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["arrays"]["params"]["shape"] = shape
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=message):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("scenario, key, value", [
        ("simple", "build", None), ("circle", "build", {}),
        ("circle", "frequencies", [[0.0, 0.01]])])
    def test_frequencies_and_build_match_the_task(self, tmp_path, scenario, key, value):
        # visibility datasets carry both, the others neither
        save_dataset(generate_dataset(small_cfg(scenario)), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="frequencies and build"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("version", [1, 999])
    def test_other_version_refused_with_how_to_regenerate(self, tmp_path, version):
        ds = generate_dataset(small_cfg("simple"))
        save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(FormatVersionError, match=f"version {version} .*gen-dataset"):
            load_dataset(tmp_path / "ds")

    def test_angles_stored_in_degrees(self, tmp_path):
        ds = generate_dataset(small_cfg("simple"))
        save_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["angle_unit_on_disk"] == "degrees"
        raw = np.frombuffer((tmp_path / "ds" / "params.bin").read_bytes(),
                            dtype="<f8").reshape(-1, 7)
        assert raw[:, 5].max() > PI  # degrees, not radians
        np.testing.assert_allclose(np.radians(raw[:, 5]), ds.params[:, 5])

    def test_files_hold_the_arrays_bytes(self, tmp_path):
        ds = generate_dataset(small_cfg("complete"))
        save_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        for name, arr in (("params", ds.params_disk), ("clean", ds.clean),
                          ("noisy", ds.noisy)):
            assert (tmp_path / "ds" / f"{name}.bin").read_bytes() == arr.tobytes()
            assert manifest["arrays"][name]["sha256"] == hashlib.sha256(arr.tobytes()).hexdigest()

    def test_loaded_arrays_are_aligned_writable_and_contiguous(self, tmp_path):
        ds = generate_dataset(small_cfg("complete"))
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert datasets_equal(ds, loaded)
        for field in ARRAY_FIELDS:
            flags = getattr(loaded, field).flags
            assert flags.c_contiguous and flags.aligned and flags.writeable, field
        for field in ("params_disk", "clean", "noisy"):  # views of the buffer read
            assert not getattr(loaded, field).flags.owndata, field

    @pytest.mark.parametrize("name, damage", [
        ("clean.bin", lambda blob: blob[:100] + bytes([blob[100] ^ 0xFF]) + blob[101:]),
        ("noisy.bin", lambda blob: blob[:len(blob) // 2])])
    def test_checksum_is_checked_before_decoding(self, tmp_path, name, damage):
        # a truncated file whose entry needs more bytes is still a checksum mismatch
        save_dataset(generate_dataset(small_cfg("complete")), tmp_path / "ds")
        target = tmp_path / "ds" / name
        target.write_bytes(damage(target.read_bytes()))
        with pytest.raises(ChecksumError) as raised:
            load_dataset(tmp_path / "ds")
        assert str(raised.value) == f"checksum mismatch for {target}"

    @pytest.mark.parametrize("file, edit", [
        ("params.bin", lambda ds: {"params": ds.params_disk[:, :6]}),
        ("params.bin", lambda ds: {"params": ds.params_disk[:-1]}),
        ("clean.bin", lambda ds: {"clean": ds.clean.astype(np.float32)}),
        ("clean.bin", lambda ds: {"clean": ds.clean[:150], "noisy": ds.noisy[:150]}),
        ("noisy.bin", lambda ds: {"noisy": ds.noisy[:, :58]}),
        ("noisy.bin", lambda ds: {"noisy": ds.noisy.ravel()}),
        ("clean.bin", lambda ds: {"frequencies": ds.frequencies.uv[:29].tolist()})])
    def test_arrays_must_agree_with_the_config(self, tmp_path, file, edit):
        # re-signed, so each file matches its checksum; its shape or content does not
        # match what the config and the frequencies imply; noise on, so noisy.bin is read
        ds = generate_dataset(small_cfg("complete"))
        save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for name, value in edit(ds).items():
            if name == "frequencies":
                manifest[name] = value
            else:
                manifest["arrays"][name] = write_array_bin(value, tmp_path / "ds" / f"{name}.bin")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as raised:
            load_dataset(tmp_path / "ds")
        assert raised.value.path == str(tmp_path / "ds" / file)

    def test_save_is_deterministic(self, tmp_path):
        cfg = small_cfg("simple")
        for name in ("a", "b"):
            save_dataset(generate_dataset(cfg), tmp_path / name)
        for fname in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                   (tmp_path / "b" / fname).read_bytes()


class TestConfigValidation:
    def test_negative_split_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig.default("simple", 1, n_train=-1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig.default("simple", 1, n_train=0, n_val=0, n_test=0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig.default("ellipse", 1)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would refuse it later with a ValueError
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            SamplingConfig.default("complete", -1)

    def test_dict_round_trip(self):
        cfg = small_cfg("complete")
        assert SamplingConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "ds"
    save_dataset(generate_dataset(small_cfg("complete", n_train=6, n_val=2, n_test=2)), path)
    return path


def _load_damaged(saved, name, damage):
    """Load a copy of the dataset at ``saved`` whose file ``name`` went
    through ``damage`` (bytes -> bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = shutil.copytree(saved, os.path.join(tmp, "ds"))
        target = os.path.join(copy, name)
        with open(target, "rb") as fh:
            data = fh.read()
        with open(target, "wb") as fh:
            fh.write(damage(data))
        load_dataset(copy)


BIN_FILES = ("params.bin", "clean.bin", "noisy.bin")


class TestDamagedArrays:
    """Any one flipped byte, or any truncation, of an array file is refused."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(BIN_FILES), where=st.floats(0.0, 1.0, exclude_max=True),
           mask=st.integers(1, 255))
    def test_byte_flip(self, saved_dataset, name, where, mask):
        def flip(data):
            blob = bytearray(data)
            blob[int(where * len(blob))] ^= mask
            return bytes(blob)
        with pytest.raises(LoopTopoError):
            _load_damaged(saved_dataset, name, flip)

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(BIN_FILES), keep=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation(self, saved_dataset, name, keep):
        with pytest.raises(LoopTopoError):
            _load_damaged(saved_dataset, name, lambda data: data[:int(keep * len(data))])
