"""Value semantics of crysturn's record classes, and what importing costs.

The records are written out by hand (``linalg._Record`` and
``typing.NamedTuple``), so each keeps what a frozen, generated class gave:
equal values compare and hash equal; an ``IntMatrix`` hashes as
``hash((rows,))``, so no set order moves; fields cannot be assigned or
deleted; the repr shows the compared fields; a copy or a pickle round trip
gives an equal value.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crysturn.automorphisms import Automorphism
from crysturn.catalog import CatalogEntry, EntryReport
from crysturn.closed_forms import SpectrumDescription
from crysturn.groups import AffineMap
from crysturn.linalg import IntMatrix, SnfDecomposition, smith_normal_form
from crysturn.reidemeister import ComputedSpectrum, RinfStatus, RinfVerdict

ROOT = Path(__file__).resolve().parents[1]
M = IntMatrix.from_rows([[1, 2], [3, 5]])


def _triples():
    """(value, an equal value built separately, a different value) per class."""
    neg = -IntMatrix.identity(2)
    return [
        (M, IntMatrix(((1, 2), (3, 5))), IntMatrix.from_rows([[1, 2], [3, 4]])),
        (
            AffineMap(["1/2", 0], neg),
            AffineMap((Fraction(1, 2), Fraction(0)), -IntMatrix.identity(2)),
            AffineMap(["1/2", 0], IntMatrix.identity(2)),
        ),
        (
            smith_normal_form(M),
            SnfDecomposition(smith_normal_form(M).p, smith_normal_form(M).q, (1, 1)),
            smith_normal_form(neg),
        ),
        (
            SpectrumDescription(finite=frozenset({4}), scaled=frozenset({2})),
            SpectrumDescription(scaled=frozenset({2})),
            SpectrumDescription(scaled=frozenset({2}), includes_infinity=True),
        ),
        (
            ComputedSpectrum((2, 4), True, True, 8),
            ComputedSpectrum((2, 4), True, True, normaliser_order=8),
            ComputedSpectrum((2, 4), True, True),
        ),
        (
            RinfVerdict(RinfStatus.FAILS, neg, 4),
            RinfVerdict(RinfStatus.FAILS, witness=-IntMatrix.identity(2), normaliser_order=4),
            RinfVerdict(RinfStatus.HOLDS, normaliser_order=4),
        ),
        (
            EntryReport("a", True, ("x",)),
            EntryReport(name="a", passed=True, details=("x",)),
            EntryReport("a", False, ("x",)),
        ),
    ]


TRIPLES = _triples()
IDS = [type(value).__name__ for value, _, _ in TRIPLES]


@pytest.mark.parametrize("value, equal, other", TRIPLES, ids=IDS)
def test_equal_values_compare_and_hash_equal(value, equal, other):
    assert value is not equal
    assert value == equal and hash(value) == hash(equal)
    assert value != other and not value == other


@pytest.mark.parametrize("value, equal, other", TRIPLES, ids=IDS)
def test_copies_and_pickles_are_equal(value, equal, other):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value", [value for value, _, _ in TRIPLES], ids=IDS)
def test_fields_are_immutable(value):
    for name in inspect.signature(type(value)).parameters:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1  # no instance dict either


def test_records_of_different_classes_differ():
    assert M.__eq__(M.rows) is NotImplemented
    assert SpectrumDescription(finite=frozenset({1})).__eq__(M) is NotImplemented


def test_int_matrix_hash_and_repr():
    assert hash(M) == hash((M.rows,))
    assert repr(M) == "IntMatrix(rows=((1, 2), (3, 5)))"
    assert {IntMatrix.identity(2): 1}[IntMatrix.from_rows([[1, 0], [0, 1]])] == 1


def test_repr_shows_the_fields():
    assert repr(AffineMap(["1/2"], -IntMatrix.identity(1))) == (
        "AffineMap(translation=(Fraction(1, 2),), linear=IntMatrix(rows=((-1,),)))"
    )
    assert repr(SpectrumDescription(finite=frozenset({2}))) == (
        "SpectrumDescription(finite=frozenset({2}), scaled=frozenset(), "
        "removed=frozenset(), includes_infinity=False)"
    )


def test_automorphism_equality_ignores_sigma_and_images(point_reflection_2d):
    group = point_reflection_2d
    phi = Automorphism(group, ["1/2", 0], IntMatrix.identity(2))
    same = Automorphism(group, (Fraction(1, 2), 0), IntMatrix.identity(2))
    object.__setattr__(same, "sigma", (1, 0))
    object.__setattr__(same, "images", None)
    assert phi == same and hash(phi) == hash(same)
    assert hash(phi) == hash((group, phi.translation, phi.linear))
    assert phi != Automorphism(group, [0, 0], IntMatrix.identity(2))
    assert "sigma" not in repr(phi) and "images" not in repr(phi)
    assert copy.copy(phi) == phi and copy.copy(phi).sigma == phi.sigma


def test_catalog_entry_compares_but_does_not_hash():
    doc = {"dimension": 1, "generators": []}
    entry = CatalogEntry("z", doc)
    assert entry == CatalogEntry(name="z", document=dict(doc))
    assert entry != CatalogEntry("z", {"dimension": 2, "generators": []})
    with pytest.raises(TypeError):
        hash(entry)
    group = entry.group()
    assert entry.group() is group


def test_import_generates_no_classes():
    """``import crysturn.cli`` loads neither ``dataclasses`` (which brings
    ``inspect``) nor ``importlib.resources``; each costs several
    milliseconds of every CLI call.  ``-S`` skips the ``.pth`` files of
    site-packages, which may import them on their own."""
    watched = ("dataclasses", "inspect", "importlib.resources")
    code = f"import sys, crysturn.cli; print(sorted(set({watched!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
