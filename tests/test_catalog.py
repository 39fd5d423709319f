"""Tests for group files, the built-in catalog and the golden checks."""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import crysturn.catalog
import crysturn.reidemeister
from crysturn.catalog import (
    _WORD_LENGTH,
    CatalogEntry,
    GroupFileError,
    builtin_catalog,
    check_entry,
    dump_group,
    group_document,
    load_group,
    parse_group_document,
    save_group,
)
from crysturn.linalg import IntMatrix, vector
from crysturn.reidemeister import _linear_part_set, _witness_cosets
from oracles import representative, structure_violation


class TestLoadGroup:
    def test_minimal_document_is_the_line(self):
        g = parse_group_document('{"dimension": 1, "generators": []}')
        assert g.dimension == 1
        assert g.order == 1

    def test_point_reflection_document(self):
        doc = {
            "dimension": 2,
            "generators": [
                {"translation": ["0", "0"], "matrix": [[-1, 0], [0, -1]]}
            ],
        }
        g = parse_group_document(json.dumps(doc))
        assert g.order == 2

    def test_threefold_with_normaliser(self):
        from crysturn.groups import matrix_group_closure

        g = builtin_catalog().group("2/4/1/1/1")
        assert g.order == 3
        assert matrix_group_closure(list(g.normaliser_gens)).order == 12

    def test_parse_error(self):
        with pytest.raises(GroupFileError):
            parse_group_document("{not json")

    @pytest.mark.parametrize("translation, matrix", [
        ("1/1" + "0" * 5000, "-1"),
        ("0", "1" + "0" * 5000),
    ])
    def test_integer_past_the_digit_limit_is_bad_data(
        self, translation, matrix, default_digit_limit
    ):
        text = '{"dimension": 1, "generators": [{"translation": ["%s"], "matrix": [[%s]]}]}'
        with pytest.raises(GroupFileError, match="4300 digits") as raised:
            parse_group_document(text % (translation, matrix))
        assert "not valid JSON" not in str(raised.value)

    def test_unknown_keys_rejected(self):
        with pytest.raises(GroupFileError):
            parse_group_document('{"dimension": 1, "generators": [], "extra": 1}')

    def test_float_translation_rejected(self):
        doc = {
            "dimension": 1,
            "generators": [{"translation": ["0.5"], "matrix": [[-1]]}],
        }
        with pytest.raises(GroupFileError):
            parse_group_document(json.dumps(doc))

    def test_invalid_group_named(self):
        doc = {
            "dimension": 2,
            "generators": [{"translation": ["1/2", "0"], "matrix": [[1, 0], [0, 1]]}],
        }
        with pytest.raises(GroupFileError, match="cocycle"):
            parse_group_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "field",
        [{"labels": {"bbnwz": 5}}, {"expected": {"r_infinity": "yes"}}, {"name": 5}]
        + [
            {"expected": {"spectrum": value}}
            for value in (
                5, "{1,2", "0N", "{}", "N∖{x}", "2N ∖ 3", "2N ∪", "∪ 2N", "{1,,2}", "{1,}"
            )
        ],
    )
    def test_malformed_field_rejected(self, field):
        doc = {"dimension": 1, "generators": [], **field}
        with pytest.raises(GroupFileError):
            parse_group_document(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ([], "document root must be an object"),
        ({"dimension": 0, "generators": []}, "dimension must be a positive integer"),
        ({"dimension": 1}, "generators must be present (possibly empty list)"),
        (
            {"dimension": 1, "generators": [{"matrix": [[1]]}]},
            "generator 0: expected translation and matrix keys",
        ),
        (
            {"dimension": 2, "generators": [{"translation": ["0"], "matrix": [[1, 0], [0, 1]]}]},
            "generator 0: translation must have 2 entries",
        ),
        (
            {"dimension": 2, "generators": [{"translation": ["0", "0"], "matrix": [[1, 0]]}]},
            "generator 0: expected 2x2 integer rows",
        ),
        (
            {"dimension": 1, "generators": [], "normalizer_generators": [[[True]]]},
            "normalizer generator 0: expected 1x1 integer rows",
        ),
        (
            {"dimension": 1, "generators": [], "normalizer_generators": {}},
            "normalizer_generators must be a list of matrices",
        ),
        (
            {"dimension": 1, "generators": [], "expected": {"spectrum": "{1}", "values": 1}},
            "expected block accepts only spectrum and r_infinity",
        ),
        (
            {"dimension": 1, "generators": [{"translation": ["1/2\n"], "matrix": [[-1]]}]},
            "generator 0: translation entries must be exact rational strings, got '1/2\\n'",
        ),
    ], ids=["root", "dimension", "generators", "generator-keys", "translation-length",
            "generator-matrix", "normaliser-matrix", "normaliser-list", "expected-keys",
            "translation-newline"])
    def test_rejection_names_its_reason(self, doc, message):
        with pytest.raises(GroupFileError) as raised:
            parse_group_document(json.dumps(doc))
        assert str(raised.value) == message

    def test_non_canonical_translation_warns(self):
        doc = {
            "dimension": 2,
            "generators": [{"translation": ["3/2", "0"], "matrix": [[1, 0], [0, -1]]}],
        }
        with pytest.warns(UserWarning, match="canonicalized"):
            g = parse_group_document(json.dumps(doc))
        rep = representative(g, IntMatrix.diagonal([1, -1]))
        assert rep.translation == vector(["1/2", "0"])

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text('{"dimension": 1, "generators": []}', encoding="utf-8")
        assert load_group(path).dimension == 1
        assert load_group(str(path)).dimension == 1


class TestRoundTrip:
    def test_plane(self):
        g = builtin_catalog().group("2/1/1/1/1")
        assert parse_group_document(dump_group(g)).f_ext == g.f_ext

    def test_threefold_keeps_normaliser(self):
        g = builtin_catalog().group("2/4/1/1/1")
        back = parse_group_document(dump_group(g))
        assert back.f_ext == g.f_ext
        assert back.normaliser_gens == g.normaliser_gens

    def test_rational_translations_exact(self):
        g = builtin_catalog().group("3/3/1/1/4")
        back = parse_group_document(dump_group(g))
        assert back.f_ext == g.f_ext

    def test_save_and_reload(self, tmp_path):
        g = builtin_catalog().group("3/2/1/2/1")
        path = tmp_path / "g.json"
        save_group(g, path)
        back = load_group(path)
        assert back.f_ext == g.f_ext
        assert back.normaliser_gens == g.normaliser_gens

    def test_document_roundtrip_is_identity(self):
        g = builtin_catalog().group("3/3/1/4/2")
        doc = group_document(g)
        again = group_document(parse_group_document(json.dumps(doc)))
        assert doc == again


class TestBuiltinCatalog:
    def test_expected_entries_present(self):
        names = set(builtin_catalog().names())
        required = {
            "1/1/1/1/1",
            "1/2/1/1/1",
            "2/1/1/1/1",
            "2/1/2/1/1",
            "2/4/1/1/1",
            "klein-bottle",
            "3/1/1/1/1",
            "3/1/2/1/1",
            "3/2/1/1/1",
            "3/2/1/1/2",
            "3/2/1/2/1",
            "3/3/1/1/1",
            "3/3/1/1/4",
            "3/3/1/3/1",
            "3/3/1/4/1",
            "3/3/1/4/2",
            "3/5/1/1/1",
            "3/5/1/2/1",
            "4/3/1/1/1",
            "4/9/2/1/1",
        }
        assert required <= names

    def test_every_entry_validates(self):
        cat = builtin_catalog()
        for name in cat.names():
            assert structure_violation(cat.group(name)) is None, name

    def test_g32121_generator_matrix(self):
        g = builtin_catalog().group("3/2/1/2/1")
        assert g.f_ext[1].linear == IntMatrix.from_rows(
            [[1, -1, 0], [0, -1, 0], [0, 0, -1]]
        )

    def test_bieberbach_flags_match_star_markers(self):
        cat = builtin_catalog()
        starred = {"1/1/1/1/1", "2/1/1/1/1", "3/1/1/1/1", "3/2/1/1/2", "3/3/1/1/4"}
        for name in starred:
            assert cat.group(name).is_bieberbach(), name
        for name in ("2/1/2/1/1", "3/3/1/1/1", "3/5/1/1/1", "4/9/2/1/1"):
            assert not cat.group(name).is_bieberbach(), name


class TestCheckEntry:
    def test_line_passes(self):
        report = check_entry(builtin_catalog().entry("1/1/1/1/1"))
        assert report.passed

    def test_orthorhombic_passes_with_spectrum(self):
        report = check_entry(builtin_catalog().entry("3/3/1/1/1"))
        assert report.passed
        assert any("spectrum: {2}" in d for d in report.details)

    def test_mismatch_detected(self):
        doc = json.loads(
            dump_group(builtin_catalog().group("1/1/1/1/1"))
        )
        doc["expected"] = {"spectrum": "{3}", "r_infinity": False}
        from crysturn.catalog import CatalogEntry

        report = check_entry(CatalogEntry(name="bad", document=doc))
        assert not report.passed

    def test_finite_normaliser_enumerated_once(self, monkeypatch):
        walk = crysturn.reidemeister._coset_walk
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return walk(*args, **kwargs)

        monkeypatch.setattr(crysturn.reidemeister, "_coset_walk", counted)
        assert check_entry(builtin_catalog().entry("3/3/1/1/1")).passed
        assert len(calls) == 1

    OUTSIDE = "computed value 2 is outside the annotated spectrum"
    INFINITE_NORMALISER = "cannot confirm r_infinity with an infinite normaliser"

    @pytest.mark.parametrize(
        "name, expected, details",
        [
            (
                "3/3/1/1/1",
                {"r_infinity": True, "spectrum": "{3}"},
                (
                    "|F| = 4, Bieberbach: False",
                    "r_infinity mismatch: computed False, expected True",
                    "spectrum mismatch: computed (2,), expected {3}",
                ),
            ),
            (
                "3/3/1/1/1",
                {"spectrum": "2N"},
                ("|F| = 4, Bieberbach: False", "spectrum mismatch: computed (2,), expected 2N"),
            ),
            (
                "1/2/1/1/1",
                {"r_infinity": False},
                (
                    "|F| = 2, Bieberbach: False",
                    "r_infinity mismatch: computed True, expected False",
                ),
            ),
            (
                "2/1/2/1/1",
                {"r_infinity": True},
                ("|F| = 2, Bieberbach: False", INFINITE_NORMALISER),
            ),
            (
                "2/1/2/1/1",
                {"r_infinity": True, "spectrum": "2N ∪ {3}"},
                (
                    "|F| = 2, Bieberbach: False",
                    INFINITE_NORMALISER,
                    # the spectrum check passes on its own
                    "3 sampled linear parts give values inside 2N ∪ {3}",
                ),
            ),
            (
                "2/1/2/1/1",
                {"spectrum": "{1}"},
                ("|F| = 2, Bieberbach: False", OUTSIDE, OUTSIDE, OUTSIDE),
            ),
            (
                None,  # Z^2 with the shear as its only normaliser generator
                {"r_infinity": False, "spectrum": "N"},
                (
                    "|F| = 1, Bieberbach: True",
                    "no witness found; cannot confirm r_infinity: False",
                    "no sample automorphisms found for spectrum membership check",
                ),
            ),
        ],
    )
    def test_failure_details(self, name, expected, details):
        if name is None:
            doc = {"dimension": 2, "generators": [], "normalizer_generators": [[[1, 1], [0, 1]]]}
        else:
            doc = dict(builtin_catalog().entry(name).document)
        report = check_entry(CatalogEntry("changed", dict(doc, expected=expected)))
        assert report == ("changed", False, details)

    def test_missing_normaliser_data_fails(self):
        from crysturn.catalog import CatalogEntry

        doc = json.loads(json.dumps(builtin_catalog().entry("2/4/1/1/1").document))
        del doc["normalizer_generators"]
        report = check_entry(CatalogEntry(name="no-normaliser", document=doc))
        assert not report.passed
        assert any("normalizer_generators" in d for d in report.details)

    @pytest.mark.parametrize(
        "name", ["2/1/1/1/1", "2/1/2/1/1", "3/1/1/1/1", "3/2/1/1/1", "3/2/1/2/1", "4/9/2/1/1"]
    )
    def test_inverse_samples_share_one_set(self, monkeypatch, name):
        # two of the three word-search samples lie in inverse cosets F.D,
        # F.D^-1, so R(phi^-1) = R(phi) gives the later one the earlier
        # one's Reidemeister set, and only two sets are counted
        entry = builtin_catalog().entry(name)
        group = entry.group()
        samples = list(islice(_witness_cosets(group, _WORD_LENGTH), 3))
        (i, j), = [
            (i, j)
            for j in range(len(samples))
            for i in range(j)
            if samples[i][0] @ samples[j][0] in group.matrix_parts
        ]
        assert _linear_part_set(group, *samples[j]) == _linear_part_set(group, *samples[i])
        counted = []
        real = crysturn.catalog._linear_part_set

        def counting(group, linear, *rest):
            counted.append(linear)
            return real(group, linear, *rest)

        monkeypatch.setattr(crysturn.catalog, "_linear_part_set", counting)
        assert check_entry(entry).passed
        assert counted == [leader for k, (leader, *_) in enumerate(samples) if k != j]


class TestAnswersScript:
    def test_two_entries(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "answers.py"), "3/3/1/1/1", "klein-bottle"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        # 10 group commands, then find-d and reidnr on k generators and k^2 products;
        # last catalog list and a catalog check of each entry, in text and JSON
        assert len(lines) == (10 + 2 * (3 + 9)) + (10 + 2 * (2 + 4)) + 2 * (1 + 2)
        assert [x["argv"] for x in lines[-2:]] == [
            ["catalog", "check", "klein-bottle"], ["--json", "catalog", "check", "klein-bottle"],
        ]
        assert all(x["exit"] == 0 for x in lines[-6:])
        assert lines[0] == {
            "argv": ["validate", "3/3/1/1/1"], "exit": 0, "stderr": "",
            "stdout": "valid group: 3/3/1/1/1\ndimension 3, holonomy order 4, Bieberbach: False\n",
        }
        spectra = [json.loads(x["stdout"]) for x in lines if x["argv"][:2] == ["--json", "spectrum"]]
        assert [x["result"]["finite_values"] for x in spectra] == [[2], []]
        assert {x["meta"]["elapsed_ms"] for x in spectra} == {"masked"}
        reidnr = [x for x in lines if x["argv"][0] == "reidnr"]
        assert len(reidnr) == 12 + 6 and all(x["exit"] == 0 for x in reidnr)


class TestTableReport:
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_usage_error(self, cap):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "table_report.py"), "--cap", cap],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == "" and "unrecognized arguments: --cap" in proc.stderr
