"""Tests for the command-line front end."""

import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysturn import cli
from crysturn.catalog import dump_group, builtin_catalog
from crysturn.closed_forms import reidemeister_point_reflection
from crysturn.cli import (
    EXIT_BAD_DATA,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
)
from crysturn.linalg import IntMatrix
from test_groups import count_matmul


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


class TestRinf:
    def test_line_has_witness(self, capsys):
        code, out, _ = run(capsys, "rinf", "1/1/1/1/1")
        assert code == EXIT_OK
        assert "NO" in out and "-1" in out

    def test_infinite_dihedral_holds(self, capsys):
        code, out, _ = run(capsys, "rinf", "1/2/1/1/1")
        assert code == EXIT_OK
        assert "YES" in out
        # a YES can hide a witness that a left-out generator would reach
        assert "(relative to the supplied normaliser generators)" in out

    def test_undecided_without_search(self, capsys):
        code, out, _ = run(capsys, "rinf", "2/1/1/1/1")
        assert code == EXIT_UNDECIDED
        code, payload, _ = run_json(capsys, "rinf", "2/1/1/1/1")
        assert code == EXIT_UNDECIDED
        assert payload["meta"]["normaliser_size"] == "infinite"

    def test_word_search_decides(self, capsys):
        code, out, _ = run(capsys, "rinf", "2/1/1/1/1", "--search-words", "2")
        assert code == EXIT_OK
        assert "NO" in out

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_search_words_below_one_is_usage_error(self, capsys, length):
        code, out, err = run(capsys, "rinf", "2/1/1/1/1", "--search-words", length)
        assert code == EXIT_USAGE
        assert out == "" and "--search-words" in err

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "rinf", "1/1/1/1/1")
        assert code == EXIT_OK
        assert set(payload) == {"result", "meta"}
        assert payload["result"]["r_infinity"] is False
        assert payload["result"]["witness"] == [[-1]]
        assert payload["meta"]["normaliser_size"] == 2
        assert "elapsed_ms" in payload["meta"]


class TestSpectrum:
    def test_p3(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2/4/1/1/1")
        assert code == EXIT_OK
        assert "{4}" in out
        assert "infinity: yes" in out

    def test_json_matches_text(self, capsys):
        code, payload, _ = run_json(capsys, "spectrum", "3/3/1/1/1")
        assert code == EXIT_OK
        assert payload["result"]["finite_values"] == [2]
        assert payload["result"]["contains_infinity"] is True
        assert payload["meta"]["normaliser_size"] == 48

    def test_undecided_for_infinite_normaliser(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2/1/1/1/1")
        assert code == EXIT_UNDECIDED


class TestReidnr:
    def test_point_reflection_three(self, capsys):
        code, out, _ = run(
            capsys, "reidnr", "2/1/2/1/1", "--D", "[[0,-1],[1,-1]]", "--d", "0,0"
        )
        assert code == EXIT_OK
        assert out.strip() == "R = 3"

    def test_half_translation(self, capsys):
        code, out, _ = run(
            capsys, "reidnr", "2/1/2/1/1", "--D", "[[0,1],[1,4]]", "--d", "1/2,0"
        )
        assert code == EXIT_OK
        assert out.strip() == "R = 4"

    def test_infinite_value(self, capsys):
        code, payload, _ = run_json(
            capsys, "reidnr", "2/1/2/1/1", "--D", "[[1,0],[0,1]]", "--d", "0,0"
        )
        assert code == EXIT_OK
        assert payload["result"]["reidemeister_number"] == "infinity"
        assert "normaliser_size" not in payload["meta"]

    def test_invalid_automorphism(self, capsys):
        code, _, err = run(
            capsys, "reidnr", "2/4/1/1/1", "--D", "[[1,1],[0,1]]", "--d", "0,0"
        )
        assert code == EXIT_BAD_DATA
        assert "invalid group data" in err

    def test_bad_matrix_syntax(self, capsys):
        code, _, err = run(capsys, "reidnr", "2/1/2/1/1", "--D", "[[1,2]", "--d", "0,0")
        assert code == EXIT_USAGE

    def test_deeply_nested_matrix_is_usage_error(self, capsys):
        matrix = "[[" + "[" * 100000
        code, _, err = run(capsys, "reidnr", "2/1/2/1/1", "--D", matrix, "--d", "0,0")
        assert code == EXIT_USAGE
        assert "cannot parse matrix" in err

    def test_large_determinant(self, capsys):
        code, out, _ = run(
            capsys, "reidnr", "3/1/2/1/1", "--D=[[0,0,1],[1,0,-1000000],[0,1,3]]", "--d=0,0,0"
        )
        assert code == EXIT_OK
        assert out.strip() == "R = 1000002"


class TestFindD:
    def test_existing(self, capsys):
        code, out, _ = run(capsys, "find-d", "2/1/2/1/1", "--D", "[[0,1],[1,2]]")
        assert code == EXIT_OK
        assert out.startswith("d = ")
        code, payload, _ = run_json(capsys, "find-d", "2/1/2/1/1", "--D", "[[0,1],[1,2]]")
        assert code == EXIT_OK
        assert set(payload["meta"]) == {"group", "elapsed_ms"}

    def test_absent(self, capsys, tmp_path):
        doc = {
            "dimension": 3,
            "generators": [
                {
                    "translation": ["0", "0", "1/4"],
                    "matrix": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                }
            ],
            "normalizer_generators": [[[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
        }
        path = tmp_path / "screw4.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "find-d", str(path), "--D", "[[1,0,0],[0,1,0],[0,0,-1]]"
        )
        assert code == EXIT_OK
        assert "no translation part exists" in out

    @pytest.mark.parametrize("linear", ["[[2,0],[0,1]]", "[[1,2],[3,4]]"])
    def test_non_unimodular_is_bad_data(self, capsys, linear):
        code, out, err = run(capsys, "find-d", "2/1/2/1/1", "--D", linear)
        assert code == EXIT_BAD_DATA
        assert out == "" and "not unimodular" in err

    def test_singular_is_bad_data(self, capsys):
        code, out, err = run(capsys, "find-d", "2/1/2/1/1", "--D", "[[1,2],[2,4]]")
        assert code == EXIT_BAD_DATA
        assert out == "" and "singular" in err

    @pytest.mark.parametrize("linear", ["[[1,0],[0,1]]", "[[1,0,0],[0,1,0]]"])
    def test_wrong_size_is_bad_data(self, capsys, linear):
        # the same message as reidnr, not a leaked matrix-product error
        code, out, err = run(capsys, "find-d", "3/3/1/1/1", f"--D={linear}")
        assert code == EXIT_BAD_DATA
        assert out == ""
        assert err == "invalid group data: automorphism data does not match the group dimension\n"


class TestDeltaBase:
    def test_point_reflection(self, capsys):
        code, payload, _ = run_json(capsys, "delta-base", "2/1/2/1/1")
        assert code == EXIT_OK
        got = {tuple(d) for d in payload["result"]["base_translations"]}
        assert got == {("0", "0"), ("0", "1/2"), ("1/2", "0"), ("1/2", "1/2")}
        assert "normaliser_size" not in payload["meta"]


class TestValidate:
    def test_good_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(dump_group(builtin_catalog().group("2/4/1/1/1")), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == EXIT_OK
        assert "valid group" in out

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dimension": 2, "generators": [{"translation": ["1/2","0"], '
            '"matrix": [[1,0],[0,1]]}]}',
            encoding="utf-8",
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_BAD_DATA
        assert "cocycle" in err

    def test_deeply_nested_file_is_bad_data(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        for command in ("validate", "spectrum"):
            code, _, err = run(capsys, command, str(path))
            assert code == EXIT_BAD_DATA, command
            assert "not valid JSON" in err

    def test_cocycle_conflict_shows_rationals(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dimension":1,"generators":[{"translation":["1/2"],"matrix":[[1]]}]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_BAD_DATA and out == ""
        assert err == (
            "invalid group data: cocycle closure violated: two inequivalent "
            "translations share a matrix part ((0) vs (1/2))\n"
        )

    def test_non_string_name_is_bad_data(self, capsys, tmp_path):
        path = tmp_path / "named.json"
        path.write_text('{"name": 5, "dimension": 1, "generators": []}', encoding="utf-8")
        code, out, err = run(capsys, "--json", "validate", str(path))
        assert code == EXIT_BAD_DATA
        assert out == "" and "name must be a string" in err

    @pytest.mark.parametrize("spectrum", ['"{1,2"', "[2]"])
    def test_malformed_expected_spectrum_is_bad_data(self, capsys, tmp_path, spectrum):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"dimension": 1, "generators": [], "expected": {"spectrum": %s}}' % spectrum,
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_BAD_DATA
        assert out == "" and "expected spectrum" in err

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == "" and "no such file or catalog entry" in err

    def test_non_utf8_is_bad_data(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        text = '{"name": "caf\u00e9", "dimension": 1, "generators": []}'
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_BAD_DATA
        assert out == "" and "not UTF-8" in err

    def test_text_mode_runs_no_closure(self, capsys, monkeypatch):
        calls = []
        real = cli.matrix_group_closure

        def counted_closure(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "matrix_group_closure", counted_closure)
        code, out, _ = run(capsys, "validate", "3/1/2/1/1")
        assert code == EXIT_OK
        assert "valid group" in out
        assert calls == []
        code, payload, _ = run_json(capsys, "validate", "3/1/2/1/1")
        assert code == EXIT_OK
        assert payload["meta"]["normaliser_size"] == "infinite"
        assert len(calls) == 1

    def test_catalog_entry_meta(self, capsys):
        code, payload, _ = run_json(capsys, "validate", "klein-bottle")
        assert code == EXIT_OK
        assert payload["meta"]["normaliser_size"] == 4

    def test_empty_normaliser_is_trivial(self, capsys, tmp_path):
        path = tmp_path / "trivial.json"
        path.write_text(
            '{"dimension": 2, "generators": [{"translation": ["0","0"], '
            '"matrix": [[-1,0],[0,-1]]}], "normalizer_generators": []}',
            encoding="utf-8",
        )
        code, payload, _ = run_json(capsys, "validate", str(path))
        assert code == EXIT_OK
        assert payload["meta"]["normaliser_size"] == 1
        code, payload, _ = run_json(capsys, "rinf", str(path))
        assert code == EXIT_OK
        assert payload["result"]["r_infinity"] is True
        assert payload["meta"]["normaliser_size"] == 1
        code, _, _ = run(capsys, "delta-base", str(path))
        assert code == EXIT_OK

    @staticmethod
    def shear_file(tmp_path, field):
        # a dimension-8 shear: certified infinite as the first new element,
        # where a size bound alone would allow 696729600 elements
        shear = [[int(i == j) for j in range(8)] for i in range(8)]
        shear[0][1] = 1
        doc = {"dimension": 8, "generators": [], "normalizer_generators": []}
        doc[field] = [{"translation": ["0"] * 8, "matrix": shear}] if field == "generators" else [shear]
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_infinite_holonomy_stops_at_once(self, capsys, tmp_path, monkeypatch):
        path = self.shear_file(tmp_path, "generators")
        calls = count_matmul(monkeypatch)
        code, out, err = run(capsys, "validate", path)
        assert code == EXIT_BAD_DATA and out == ""
        assert "infinite" in err
        assert len(calls) <= 2

    def test_infinite_normaliser_stops_at_once(self, capsys, tmp_path, monkeypatch):
        path = self.shear_file(tmp_path, "normalizer_generators")
        calls = count_matmul(monkeypatch)
        code, payload, _ = run_json(capsys, "rinf", path)
        assert code == EXIT_UNDECIDED
        assert payload["meta"]["normaliser_size"] == "infinite"
        assert len(calls) <= 4  # a bounded closure would make millions

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "rinf", "no/such/entry")
        assert code == EXIT_USAGE


class TestLongIntegers:
    """Exact inputs and answers past the 4300-digit default limit on
    converting between int and str."""

    @staticmethod
    def write(tmp_path, matrix, translation="0"):
        path = tmp_path / "long.json"
        path.write_text(
            '{"dimension": 1, "generators": [{"translation": ["%s"], "matrix": [[%s]]}]}'
            % (translation, matrix),
            encoding="utf-8",
        )
        return str(path)

    def test_long_translation_is_read(self, capsys, tmp_path, default_digit_limit):
        path = self.write(tmp_path, "-1", "1/1" + "0" * 5000)
        code, out, _ = run(capsys, "validate", path)
        assert code == EXIT_OK and "holonomy order 2" in out
        assert sys.get_int_max_str_digits() == default_digit_limit

    def test_long_matrix_entry_is_bad_data(self, capsys, tmp_path, default_digit_limit):
        code, _, err = run(capsys, "validate", self.write(tmp_path, "1" + "0" * 5000))
        assert code == EXIT_BAD_DATA and "not unimodular" in err
        assert sys.get_int_max_str_digits() == default_digit_limit

    def test_long_answer_is_printed(self, capsys, tmp_path, default_digit_limit):
        # R = a^2 + 8 has 8597 digits on <Z^4, -I>
        a = 10**4298
        rows = [[0, -1, 0, 0], [1, a, 0, 0], [0, 0, 0, -1], [0, 0, 1, a]]
        path = tmp_path / "reflection4.json"
        minus_identity = [[-int(i == j) for j in range(4)] for i in range(4)]
        path.write_text(
            json.dumps({"dimension": 4, "generators": [
                {"translation": ["0"] * 4, "matrix": minus_identity}
            ]}),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "reidnr", str(path), "--D", json.dumps(rows),
                           "--d", "0,0,0,0")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == default_digit_limit
        sys.set_int_max_str_digits(0)
        expected = reidemeister_point_reflection(4, (0,) * 4, IntMatrix.from_rows(rows))
        assert expected == a * a + 8
        assert out == f"R = {expected}\n"


class TestTiming:
    def test_elapsed_covers_argument_parsing(self, capsys, monkeypatch):
        build = cli.build_parser

        def slow_build():
            time.sleep(0.03)
            return build()

        monkeypatch.setattr(cli, "build_parser", slow_build)
        code, payload, _ = run_json(capsys, "rinf", "1/1/1/1/1")
        assert code == EXIT_OK
        assert payload["meta"]["elapsed_ms"] >= 30


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == EXIT_OK
        assert "1/1/1/1/1" in out.splitlines()

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "3/2/1/2/1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dimension"] == 3

    def test_check_single(self, capsys):
        code, out, _ = run(capsys, "catalog", "check", "1/1/1/1/1")
        assert code == EXIT_OK
        assert "[PASS] 1/1/1/1/1" in out
        assert "1 passed, 0 failed" in out

    def test_check_reports_schema(self, capsys):
        code, payload, _ = run_json(capsys, "catalog", "check", "3/3/1/1/1")
        assert code == EXIT_OK
        assert payload["result"]["passed"] == 1
        assert payload["result"]["failed"] == 0


class TestCaps:
    """Closures stop on a certificate of infinitude, so there is no cap to
    set: ``--cap`` is an unknown option and ``CRYSTURN_CAP`` is ignored."""

    @staticmethod
    def flag_is_usage_error(capsys, cap):
        code, out, err = run(capsys, "rinf", "2/4/1/1/1", "--cap", cap)
        assert code == EXIT_USAGE
        assert out == "" and "unrecognized arguments: --cap" in err

    @staticmethod
    def env_has_no_effect(capsys, monkeypatch, value):
        monkeypatch.delenv("CRYSTURN_CAP", raising=False)
        _, unset, _ = run_json(capsys, "rinf", "2/4/1/1/1")
        monkeypatch.setenv("CRYSTURN_CAP", value)
        code, payload, _ = run_json(capsys, "rinf", "2/4/1/1/1")
        assert code == EXIT_OK
        assert payload["result"] == unset["result"]

    def test_cap_flag_forces_undecided(self, capsys):
        self.flag_is_usage_error(capsys, "5")

    def test_env_cap_override(self, capsys, monkeypatch):
        self.env_has_no_effect(capsys, monkeypatch, "5")

    def test_bad_env_cap(self, capsys, monkeypatch):
        self.env_has_no_effect(capsys, monkeypatch, "many")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_flag_below_one_is_usage_error(self, capsys, cap):
        self.flag_is_usage_error(capsys, cap)

    def test_zero_env_cap_is_usage_error(self, capsys, monkeypatch):
        self.env_has_no_effect(capsys, monkeypatch, "0")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_name_too_long_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "x" * 300)
        assert code == EXIT_USAGE
        assert out == "" and "no such file or catalog entry: 'xxx" in err

    def test_nul_byte_is_not_printed_raw(self, capsys):
        code, _, err = run(capsys, "spectrum", "a\x00b")
        assert code == EXIT_USAGE
        assert "\x00" not in err and "'a\\x00b'" in err

    LONG = "x" * 100_000

    @pytest.mark.parametrize("argv", [
        ["reidnr", "2/1/2/1/1", "--D", "[[" + LONG, "--d", "0,0"],
        ["reidnr", "2/1/2/1/1", "--D", "[[1,0],[0,1]]", "--d", LONG],
        ["find-d", "2/1/2/1/1", "--D", LONG],
        ["rinf", "2/1/2/1/1", "--search-words", LONG],
        ["validate", LONG],
        ["catalog", "show", LONG],
        ["catalog", "check", LONG],
    ], ids=["reidnr-D", "reidnr-d", "find-d-D", "rinf-search-words", "validate",
            "catalog-show", "catalog-check"])
    def test_long_argument_is_not_echoed_whole(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert len(err.encode()) < 1024 and "characters)" in err

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["validate", "rinf", "spectrum", "delta-base"]),
        # long texts reach the file-name limit of 255 bytes
        source=st.one_of(st.text(), st.text(min_size=260, max_size=400)),
    )
    def test_any_group_argument_never_exits_internal(self, command, source):
        try:
            code = main([command, source])
        except SystemExit as exc:  # argparse's own exit, as for "-h"
            code = exc.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_BAD_DATA, EXIT_UNDECIDED)

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "spectrum", "2/4/1/1/1")
        _, payload, _ = run_json(capsys, "spectrum", "2/4/1/1/1")
        assert "{4}" in text_out
        assert payload["result"]["finite_values"] == [4]
        assert ("infinity: yes" in text_out) == payload["result"]["contains_infinity"]
