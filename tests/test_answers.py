"""The command-line answers for the built-in catalog, against a checked-in dump.

``scripts/answers.py`` runs every query subcommand on every catalog entry
(696 runs) and dumps each run's exit code, standard output and standard
error; ``tests/data/cli_answers.jsonl`` is that dump.  A change that is
meant to keep every answer must keep the dump byte for byte.  When an
answer changes on purpose, regenerate the file with

    PYTHONPATH=src python scripts/answers.py > tests/data/cli_answers.jsonl

A regenerated dump records the translation part the solve returns, one of
many, so every recorded ``find-d`` answer is checked to be one.
"""

import contextlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

from crysturn.automorphisms import Automorphism
from crysturn.catalog import builtin_catalog
from crysturn.linalg import IntMatrix

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = ROOT / "scripts" / "answers.py"
GOLDEN = ROOT / "tests" / "data" / "cli_answers.jsonl"


def _load_answers():
    spec = importlib.util.spec_from_file_location("scripts_answers", ANSWERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_answers_match_the_checked_in_dump():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _load_answers().main([])
    got, want = out.getvalue().encode("utf-8"), GOLDEN.read_bytes()
    pairs = enumerate(zip(got.splitlines(), want.splitlines()), 1)
    first = next((i for i, (a, b) in pairs if a != b), None)
    assert got == want, f"first differing line: {first}"


def test_dumped_translation_parts_make_automorphisms():
    # Automorphism raises unless conjugation by (d, D) keeps the group
    catalog = builtin_catalog()
    runs = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    found = [run for run in runs if run["argv"][0] == "find-d"]
    for run in found:
        _, name, _, matrix = run["argv"]
        prefix, d = run["stdout"].split(" = ")
        assert prefix == "d" and run["exit"] == 0, run
        translation = tuple(Fraction(x) for x in d.strip().split(","))
        Automorphism(catalog.group(name), translation, IntMatrix.from_rows(json.loads(matrix)))
    assert len(found) == 246
