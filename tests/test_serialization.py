import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from looptopo.data import SamplingConfig
from looptopo.errors import ParseError, ValidationError
from looptopo.forward_model import FrequencyConfig, GridSpec, LoopBuildConfig
from looptopo.mlp import MlpConfig, TrainConfig
from looptopo.serialization import (config_from_dict, config_hash, config_to_dict,
                                    float_array, format_csv, parse_csv)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]

FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)

MATRICES = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                      elements=FINITE)


def header_for(width):
    return [f"col_{j}" for j in range(width)]


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(MATRICES, st.sampled_from([None, "config_hash: abc"]))
    def test_floats_round_trip_bit_for_bit(self, arr, comment):
        data = format_csv(header_for(arr.shape[1]), arr, comment=comment)
        header, back = parse_csv(data, "m.csv")
        assert header == header_for(arr.shape[1])
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))  # -0.0 too

    @settings(max_examples=60, deadline=None)
    @given(MATRICES)
    def test_crlf_reads_as_lf(self, arr):
        data = format_csv(header_for(arr.shape[1]), arr)
        assert b"\r" not in data
        lf = parse_csv(data, "lf.csv")
        crlf = parse_csv(data.replace(b"\n", b"\r\n"), "crlf.csv")
        assert lf[0] == crlf[0]
        assert np.array_equal(lf[1].view(np.uint64), crlf[1].view(np.uint64))

    def test_ints_as_str_and_digits(self):
        data = format_csv(["i", "x"], [[np.int64(2), 1 / 3], [10 ** 20, 0.5]], digits=10)
        assert data == b"i,x\n2,0.3333333333\n100000000000000000000,0.5\n"

    def test_header_only_when_a_field_is_not_a_number(self):
        header, values = parse_csv(b"1.5,2\n\n3,4\n", "h.csv")
        assert header is None
        np.testing.assert_array_equal(values, [[1.5, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("header", [["u", "v"], ["x", "y", "value"],
                                        ["epoch", "train_loss", "val_loss"]])
    def test_headers_the_package_writes(self, header):
        data = format_csv(header, [[1.0] * len(header)], comment="config_hash: abc")
        parsed, values = parse_csv(data, "h.csv")
        assert parsed == header and values.tolist() == [[1.0] * len(header)]


BAD_VALUES = {"wrong width": None, "non-numeric": "abc", "nan": "nan", "inf": "-inf"}


class TestCsvRejects:
    @settings(max_examples=80, deadline=None)
    @given(MATRICES, st.data(), st.sampled_from(sorted(BAD_VALUES)), st.booleans())
    def test_bad_row_names_its_line(self, arr, data, kind, commented):
        rows, width = arr.shape
        bad_row = data.draw(st.integers(0, rows - 1))
        lines = format_csv(header_for(width), arr,
                           comment="c" if commented else None).decode().split("\n")
        line = bad_row + 2 + commented  # 1-based, after the header (and comment)
        fields = lines[line - 1].split(",")
        if BAD_VALUES[kind] is None:  # a short row, or a long one when width is 1
            fields = fields[:-1] if width > 1 else fields + ["0"]
        else:
            fields[data.draw(st.integers(0, width - 1))] = BAD_VALUES[kind]
        lines[line - 1] = ",".join(fields)
        with pytest.raises(ParseError) as err:
            parse_csv("\r\n".join(lines).encode(), "bad.csv")
        assert err.value.line == line
        assert f"bad.csv:{line}" in str(err.value)

    @pytest.mark.parametrize("first", [b"1,x,3", b"x,2,3", b"1,2,nope"])
    def test_first_row_of_numbers_and_words_is_a_bad_row(self, first):
        # a header has no number in it; a typo in the first data row is named
        with pytest.raises(ParseError, match="bad number") as err:
            parse_csv(first + b"\n4,5,6\n", "t.csv")
        assert err.value.line == 1
        bad = next(v for v in first.decode().split(",") if not v.isdigit())
        assert repr(bad) in str(err.value)

    def test_width_is_checked_against_the_given_width(self):
        with pytest.raises(ParseError) as err:
            parse_csv(b"1,2\n3,4\n", "w.csv", width=3)
        assert err.value.line == 1

    @pytest.mark.parametrize("data", [b"", b"\n\n", b"u,v\n", b"# only a comment\n"])
    def test_no_data_rows(self, data):
        with pytest.raises(ParseError):
            parse_csv(data, "empty.csv")

    def test_not_utf8(self):
        with pytest.raises(ParseError) as err:
            parse_csv(b"u,v\n\xff,1\n", "latin.csv")
        assert "latin.csv" in str(err.value)


class TestConfigToDict:
    @pytest.mark.parametrize("cfg", [
        MlpConfig(), TrainConfig(), LoopBuildConfig(), FrequencyConfig(),
        GridSpec.centered(2.5, 16), SamplingConfig.default("complete", 7),
        SamplingConfig.default("simple", 3, intervals={"c": [0.0, 0.1]}),
        MlpConfig(hidden_widths=(16, 8), dropout_rate=0.1),
        MlpConfig(hidden_widths=[16, 8]),  # stored as a tuple, as from_dict stores it
        TrainConfig(epochs=3, patience=0), LoopBuildConfig(n_components=5)],
        ids=lambda cfg: type(cfg).__name__)
    def test_inverse_of_config_from_dict(self, cfg):
        d = cfg.to_dict() if hasattr(cfg, "to_dict") else config_to_dict(cfg)
        assert json.loads(json.dumps(d)) == d  # lists where the fields hold tuples
        assert config_from_dict(type(cfg), d) == cfg
        if type(cfg) is not SamplingConfig:  # whose to_dict lists its intervals
            assert config_to_dict(cfg) == d

    @pytest.mark.parametrize("cls, digest", [
        (MlpConfig, "9ad8695bdeb4eea593ccfdafdef1173a881586e2cc6d6477977d9e8f35e89674"),
        (TrainConfig, "75d1c858e7cf3ee9608668be790d1fdb921c72fa86c592afc7a6b2b5b93bac84"),
        (LoopBuildConfig, "2ee8c3eb8de1b59a725df2ffbecccd522e048124ff72c1b77b961c788a88a160")])
    def test_default_hashes_unchanged(self, cls, digest):
        # run-config hashes and checkpoints must keep their bytes
        assert config_hash(config_to_dict(cls())) == digest


class TestConfigFromDict:
    def test_valid_input_unchanged(self):
        d = {"input_dim": 60, "hidden_widths": [16, 16], "output_dim": 8,
             "dropout_rate": 0, "seed": 3}
        cfg = config_from_dict(MlpConfig, d)
        assert cfg.hidden_widths == (16, 16)
        assert cfg.dropout_rate == 0 and isinstance(cfg.dropout_rate, int)
        assert MlpConfig.from_dict(cfg.to_dict()) == cfg
        assert config_from_dict(LoopBuildConfig, {}) == LoopBuildConfig()

    @pytest.mark.parametrize("d, named", [
        ({"bogus": 1, "other": 2}, "['bogus', 'other']"),
        ([1, 2], "LoopBuildConfig"),
    ])
    def test_rejects_unknown_keys_and_non_objects(self, d, named):
        with pytest.raises(ValidationError, match=named.replace("[", r"\[")):
            config_from_dict(LoopBuildConfig, d)

    def test_missing_required_field(self):
        @dataclasses.dataclass(frozen=True)
        class Needs:
            a: int

        with pytest.raises(ValidationError, match="missing keys"):
            config_from_dict(Needs, {})


#: Valid fields of each config class; a case of BROKEN_RULES replaces some of them.
VALID_FIELDS = {
    SamplingConfig: {"scenario": "complete", "n_train": 8, "n_val": 2, "n_test": 2,
                     "seed": 1, "noise": True, "circular_fraction": 0.05},
    LoopBuildConfig: {}, FrequencyConfig: {}, MlpConfig: {}, TrainConfig: {},
    GridSpec: {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
}

#: Values that break one rule each, type rules and value rules, of each config class,
#: and a part of the message that names the rule.
BROKEN_RULES = {
    "SamplingConfig scenario type":
        (SamplingConfig, {"scenario": 3}, "SamplingConfig.scenario must be a string"),
    "SamplingConfig scenario unknown":
        (SamplingConfig, {"scenario": "ellipse"}, "unknown task 'ellipse'"),
    "SamplingConfig n_train string":
        (SamplingConfig, {"n_train": "ten"}, "SamplingConfig.n_train must be an integer"),
    "SamplingConfig n_train float":
        (SamplingConfig, {"n_train": 8.0}, "SamplingConfig.n_train must be an integer"),
    "SamplingConfig n_val negative":
        (SamplingConfig, {"n_val": -1}, "SamplingConfig.n_val must be >= 0, got -1"),
    "SamplingConfig empty":
        (SamplingConfig, {"n_train": 0, "n_val": 0, "n_test": 0}, "at least one sample"),
    "SamplingConfig seed negative":
        (SamplingConfig, {"seed": -1}, "SamplingConfig.seed must be >= 0, got -1"),
    "SamplingConfig seed bool":
        (SamplingConfig, {"seed": True}, "SamplingConfig.seed must be an integer"),
    "SamplingConfig noise type":
        (SamplingConfig, {"noise": 1}, "SamplingConfig.noise must be true or false"),
    "SamplingConfig noise on a noise-free task":
        (SamplingConfig, {"scenario": "circle"}, "noise-free"),
    "SamplingConfig circular_fraction one":
        (SamplingConfig, {"circular_fraction": 1.0}, "circular_fraction must be in [0, 1)"),
    "SamplingConfig circular_fraction on a task without eps = 0 draws":
        (SamplingConfig, {"scenario": "simple"},
         "circular_fraction must be 0 for the simple scenario"),
    "SamplingConfig circular_fraction nan":
        (SamplingConfig, {"circular_fraction": float("nan")},
         "SamplingConfig.circular_fraction must be a finite number"),
    "SamplingConfig intervals type":
        (SamplingConfig, {"intervals": [[0, 1]]},
         "SamplingConfig.intervals must be an object"),
    "SamplingConfig intervals unknown":
        (SamplingConfig, {"intervals": {"bogus": [0, 1]}}, "unknown interval name 'bogus'"),
    "SamplingConfig intervals not a pair":
        (SamplingConfig, {"intervals": {"flux": [1000]}}, "interval for flux must be a pair"),
    "SamplingConfig intervals reversed":
        (SamplingConfig, {"intervals": {"flux": [2000, 1000]}},
         "interval for flux must be a pair lo <= hi"),
    "SamplingConfig intervals infinite":
        (SamplingConfig, {"intervals": {"flux": [0, float("inf")]}},
         "interval for flux must be a pair"),
    "LoopBuildConfig n_components string":
        (LoopBuildConfig, {"n_components": "11"},
         "LoopBuildConfig.n_components must be an integer"),
    "LoopBuildConfig n_components bool":
        (LoopBuildConfig, {"n_components": True},
         "LoopBuildConfig.n_components must be an integer"),
    "LoopBuildConfig n_components float":
        (LoopBuildConfig, {"n_components": 11.0},
         "LoopBuildConfig.n_components must be an integer"),
    "LoopBuildConfig n_components zero":
        (LoopBuildConfig, {"n_components": 0}, "LoopBuildConfig.n_components must be >= 1"),
    "LoopBuildConfig n_components even":
        (LoopBuildConfig, {"n_components": 10}, "n_components must be odd"),
    "LoopBuildConfig span_factor nan":
        (LoopBuildConfig, {"span_factor": float("nan")},
         "LoopBuildConfig.span_factor must be a finite number"),
    "LoopBuildConfig span_factor null":
        (LoopBuildConfig, {"span_factor": None},
         "LoopBuildConfig.span_factor must be a finite number"),
    "LoopBuildConfig span_factor zero":
        (LoopBuildConfig, {"span_factor": 0.0}, "span_factor must be positive"),
    "LoopBuildConfig exponent_mode type":
        (LoopBuildConfig, {"exponent_mode": 1},
         "LoopBuildConfig.exponent_mode must be a string"),
    "LoopBuildConfig exponent_mode unknown":
        (LoopBuildConfig, {"exponent_mode": "gauss"}, "exponent_mode must be one of"),
    "FrequencyConfig n_radii zero":
        (FrequencyConfig, {"n_radii": 0}, "FrequencyConfig.n_radii must be >= 1"),
    "FrequencyConfig per_radius zero":
        (FrequencyConfig, {"per_radius": 0}, "FrequencyConfig.per_radius must be >= 1"),
    "FrequencyConfig r_min zero": (FrequencyConfig, {"r_min": 0.0}, "need 0 < r_min <= r_max"),
    "FrequencyConfig r_min above r_max":
        (FrequencyConfig, {"r_min": 1.0}, "need 0 < r_min <= r_max"),
    "FrequencyConfig ring_rotation_deg inf":
        (FrequencyConfig, {"ring_rotation_deg": float("inf")},
         "FrequencyConfig.ring_rotation_deg must be a finite number"),
    "GridSpec x_min inf":
        (GridSpec, {"x_min": -float("inf")}, "GridSpec.x_min must be a finite number"),
    "GridSpec x_max string":
        (GridSpec, {"x_max": "1"}, "GridSpec.x_max must be a finite number"),
    "GridSpec nx one": (GridSpec, {"nx": 1}, "GridSpec.nx must be >= 2, got 1"),
    "GridSpec ny float": (GridSpec, {"ny": 256.0}, "GridSpec.ny must be an integer"),
    "GridSpec bounds reversed": (GridSpec, {"y_max": -2.0}, "grid bounds must be increasing"),
    # such a grid reached eval_image, whose linspace warned of the overflow
    # before the row was refused as a component density out of range
    "GridSpec width overflows": (GridSpec, {"x_min": -1e308, "x_max": 1e308},
                                 "grid bounds must span a finite width and height"),
    "GridSpec height overflows": (GridSpec, {"y_min": -1e308, "y_max": 1e308},
                                  "grid bounds must span a finite width and height"),
    "MlpConfig input_dim zero":
        (MlpConfig, {"input_dim": 0}, "MlpConfig.input_dim must be >= 1"),
    "MlpConfig output_dim zero":
        (MlpConfig, {"output_dim": 0}, "MlpConfig.output_dim must be >= 1"),
    "MlpConfig hidden_widths type":
        (MlpConfig, {"hidden_widths": 16}, "MlpConfig.hidden_widths must be a list"),
    "MlpConfig hidden_widths empty":
        (MlpConfig, {"hidden_widths": []}, "hidden_widths must be one or more integers >= 1"),
    "MlpConfig hidden_widths zero":
        (MlpConfig, {"hidden_widths": [16, 0]},
         "hidden_widths must be one or more integers >= 1"),
    "MlpConfig hidden_widths strings":
        (MlpConfig, {"hidden_widths": ["wide"]},
         "hidden_widths must be one or more integers >= 1"),
    "MlpConfig dropout_rate one":
        (MlpConfig, {"dropout_rate": 1.0}, "dropout_rate must be in [0, 1)"),
    "MlpConfig final_bias false":
        (MlpConfig, {"final_bias": False}, "final_bias must be true"),
    "MlpConfig final_bias int":
        (MlpConfig, {"final_bias": 1}, "MlpConfig.final_bias must be true or false"),
    "MlpConfig seed negative":
        (MlpConfig, {"seed": -1}, "MlpConfig.seed must be >= 0, got -1"),
    "MlpConfig dtype unknown": (MlpConfig, {"dtype": "float16"}, "dtype must be one of"),
    "TrainConfig epochs zero":
        (TrainConfig, {"epochs": 0}, "TrainConfig.epochs must be >= 1, got 0"),
    "TrainConfig batch_size zero":
        (TrainConfig, {"batch_size": 0}, "TrainConfig.batch_size must be >= 1, got 0"),
    "TrainConfig learning_rate string":
        (TrainConfig, {"learning_rate": "fast"},
         "TrainConfig.learning_rate must be a finite number"),
    "TrainConfig learning_rate zero":
        (TrainConfig, {"learning_rate": 0.0}, "Adam: learning_rate"),
    "TrainConfig beta1 one": (TrainConfig, {"beta1": 1.0}, "Adam: learning_rate"),
    "TrainConfig beta2 one": (TrainConfig, {"beta2": 1.0}, "Adam: learning_rate"),
    "TrainConfig adam_eps zero": (TrainConfig, {"adam_eps": 0.0}, "Adam: learning_rate"),
    "TrainConfig patience negative":
        (TrainConfig, {"patience": -1}, "TrainConfig.patience must be >= 0, got -1"),
    "TrainConfig seed negative":
        (TrainConfig, {"seed": -1}, "TrainConfig.seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_RULES))
def test_broken_rule_refused_when_built_and_when_read(case):
    cls, bad, rule = BROKEN_RULES[case]
    cls(**VALID_FIELDS[cls])
    fields = {**VALID_FIELDS[cls], **bad}
    with pytest.raises(ValidationError) as built:
        cls(**fields)
    assert rule in str(built.value)
    with pytest.raises(ValidationError) as read:
        config_from_dict(cls, fields)
    assert str(read.value) == str(built.value)


@pytest.mark.parametrize("bad,rule", [
    (np.ones(8) + 5j, "must be real"), (np.ones(3, np.complex64), "must be real"),
    (5j, "must be real"), ([1.0, 2j], "must be real"),
    ([[1.0, 2.0], [1.0]], "must be numeric"), (["a", "b"], "must be numeric"),
    (np.array([1.0, 2j], dtype=object), "must be numeric")])
def test_float_array_refuses_what_numpy_would_convert_lossily_or_not_at_all(bad, rule):
    # numpy drops an imaginary part with only a ComplexWarning: made an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"rows {rule}"):
            float_array(bad, "rows")
        for good in (np.arange(3), [1, 2.5], np.float32(2.5), np.ones(2, bool)):
            assert float_array(good, "rows").dtype == np.float64
        x = np.ones((2, 3))
        assert float_array(x, "rows") is x
