import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from looptopo.errors import ParseError, ValidationError
from looptopo.forward_model import LoopBuildConfig
from looptopo.mlp import MlpConfig, TrainConfig
from looptopo.serialization import (config_from_dict, config_hash, config_to_dict,
                                    format_csv, parse_csv)

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
    @pytest.mark.parametrize("cfg", [MlpConfig(hidden_widths=(16, 8), dropout_rate=0.1),
                                     TrainConfig(epochs=3, patience=0),
                                     LoopBuildConfig(n_components=5)])
    def test_inverse_of_config_from_dict(self, cfg):
        d = config_to_dict(cfg)
        assert json.loads(json.dumps(d)) == d  # lists where the fields hold tuples
        assert type(cfg).from_dict(d) == cfg
        assert cfg.to_dict() == d

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
        ({"n_components": "11"}, "n_components"),
        ({"n_components": True}, "n_components"),
        ({"n_components": 11.0}, "n_components"),
        ({"span_factor": float("nan")}, "span_factor"),
        ({"span_factor": None}, "span_factor"),
        ({"exponent_mode": 1}, "exponent_mode"),
        ([1, 2], "LoopBuildConfig"),
    ])
    def test_rejects_unknown_keys_and_wrong_types(self, d, named):
        with pytest.raises(ValidationError, match=named.replace("[", r"\[")):
            config_from_dict(LoopBuildConfig, d)

    def test_missing_required_field(self):
        @dataclasses.dataclass(frozen=True)
        class Needs:
            a: int

            def validate(self):
                pass

        with pytest.raises(ValidationError, match="missing keys"):
            config_from_dict(Needs, {})
