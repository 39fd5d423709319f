"""Group definition files and the built-in fixture catalog.

File format (JSON, UTF-8, no BOM).  Top-level keys:

* ``name``: string (optional)
* ``dimension``: positive integer (required)
* ``labels``: map with any of the keys ``bbnwz``, ``it``, ``carat``
* ``generators``: list of ``{"translation": [...], "matrix": [[...]]}``
  where a translation entry is a string matching ``-?[0-9]+(/[1-9][0-9]*)?``
  and the matrix is n rows of n integers (required, may be empty)
* ``normalizer_generators``: optional list of integer matrices
* ``expected``: optional ``{"spectrum": string, "r_infinity": bool}``

Rationals are always strings, never floats: the downstream coset arithmetic
is exact and a rounded translation would silently change the group.

The built-in catalog entries carry expected results from published
classification tables; ``check_entry`` compares what the algorithms compute
against those annotations, which makes the catalog double as a golden test
suite.
"""

from __future__ import annotations

import json
import re
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .closed_forms import parse_spectrum
from .groups import (
    AffineMap,
    ClosureCapExceeded,
    CrystGroup,
    GroupValidationError,
    build_group,
)
from .linalg import IntMatrix, _Record, vector
from .reidemeister import _linear_part_set, _witness_cosets, spectrum

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # an exact rational, by fullmatch
_ALLOWED_KEYS = {"name", "dimension", "labels", "generators", "normalizer_generators", "expected"}
_ALLOWED_LABELS = {"bbnwz", "it", "carat"}
_ALLOWED_EXPECTED = {"spectrum", "r_infinity"}
_WORD_LENGTH = 5  # longest word check_entry searches with an infinite normaliser


class GroupFileError(ValueError):
    """A group document failed to parse or validate."""


def _parse_matrix(raw, dimension: int, what: str) -> IntMatrix:
    if (
        not isinstance(raw, list)
        or len(raw) != dimension
        or any(
            not isinstance(row, list)
            or len(row) != dimension
            or any(not isinstance(x, int) or isinstance(x, bool) for x in row)
            for row in raw
        )
    ):
        raise GroupFileError(f"{what}: expected {dimension}x{dimension} integer rows")
    return IntMatrix.from_rows(raw)


def parse_group_document(text: str) -> CrystGroup:
    """Parse and validate a group document from JSON text."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GroupFileError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the int <-> str digit limit
        raise GroupFileError(f"integer too long: {exc}") from exc
    return _document_group(doc)


def _document_group(doc) -> CrystGroup:
    """Validate a parsed group document and build its group."""
    if not isinstance(doc, dict):
        raise GroupFileError("document root must be an object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise GroupFileError(f"unknown top-level keys: {sorted(unknown)}")
    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise GroupFileError("dimension must be a positive integer")
    if "generators" not in doc or not isinstance(doc["generators"], list):
        raise GroupFileError("generators must be present (possibly empty list)")
    if not isinstance(doc.get("name", ""), str):
        raise GroupFileError("name must be a string")

    labels = doc.get("labels", {})
    if not isinstance(labels, dict) or set(labels) - _ALLOWED_LABELS or not all(
        isinstance(v, str) for v in labels.values()
    ):
        raise GroupFileError("labels must map a subset of {bbnwz, it, carat} to strings")

    generators = []
    non_canonical = False
    for i, raw in enumerate(doc["generators"]):
        if not isinstance(raw, dict) or set(raw) != {"translation", "matrix"}:
            raise GroupFileError(f"generator {i}: expected translation and matrix keys")
        trans_raw = raw["translation"]
        if not isinstance(trans_raw, list) or len(trans_raw) != dimension:
            raise GroupFileError(f"generator {i}: translation must have {dimension} entries")
        entries = []
        for x in trans_raw:
            if not isinstance(x, str) or not _RATIONAL_RE.fullmatch(x):
                raise GroupFileError(
                    f"generator {i}: translation entries must be exact rational strings, got {x!r}"
                )
            try:
                entries.append(Fraction(x))
            except ValueError as exc:  # past the int <-> str digit limit
                raise GroupFileError(f"generator {i}: {exc}") from exc
        if any(not (0 <= e < 1) for e in entries):
            non_canonical = True
        generators.append(
            AffineMap(vector(entries), _parse_matrix(raw["matrix"], dimension, f"generator {i}"))
        )
    if non_canonical:
        warnings.warn(
            "translations were not in [0,1) and have been canonicalized", stacklevel=3
        )

    normaliser = None
    if "normalizer_generators" in doc:
        raw_norm = doc["normalizer_generators"]
        if not isinstance(raw_norm, list):
            raise GroupFileError("normalizer_generators must be a list of matrices")
        normaliser = [
            _parse_matrix(m, dimension, f"normalizer generator {i}")
            for i, m in enumerate(raw_norm)
        ]

    if "expected" in doc:
        exp = doc["expected"]
        if not isinstance(exp, dict) or set(exp) - _ALLOWED_EXPECTED:
            raise GroupFileError("expected block accepts only spectrum and r_infinity")
        if not isinstance(exp.get("r_infinity", False), bool):
            raise GroupFileError("expected r_infinity must be true or false")
        if "spectrum" in exp:  # must at least be well-formed
            if not isinstance(exp["spectrum"], str):
                raise GroupFileError("expected spectrum must be a string")
            try:
                parse_spectrum(exp["spectrum"])
            except ValueError as exc:
                raise GroupFileError(f"expected spectrum: {exc}") from exc

    try:
        return build_group(
            dimension,
            generators,
            normaliser_gens=normaliser,
            labels=labels,
            name=doc.get("name", ""),
        )
    except (GroupValidationError, ClosureCapExceeded) as exc:
        raise GroupFileError(str(exc)) from exc


def load_group(source: Union[str, Path]) -> CrystGroup:
    """Load a group from a file path."""
    source = Path(source)
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GroupFileError(f"{source} is not UTF-8 text: {exc}") from exc
    return parse_group_document(text)


def group_document(group: CrystGroup) -> dict:
    """The JSON document for a group; inverse of parsing up to formatting."""
    doc: dict = {}
    if group.name:
        doc["name"] = group.name
    doc["dimension"] = group.dimension
    if group.labels:
        doc["labels"] = dict(group.labels)
    doc["generators"] = [
        {
            "translation": [str(x) for x in rep.translation],
            "matrix": [list(row) for row in rep.linear.rows],
        }
        for rep in group.f_ext[1:]
    ]
    if group.normaliser_gens is not None:
        doc["normalizer_generators"] = [
            [list(row) for row in m.rows] for m in group.normaliser_gens
        ]
    return doc


def dump_group(group: CrystGroup) -> str:
    return json.dumps(group_document(group), ensure_ascii=False, indent=2) + "\n"


def save_group(group: CrystGroup, path: Union[str, Path]) -> None:
    Path(path).write_text(dump_group(group), encoding="utf-8")


class CatalogEntry(_Record):
    _fields = ("name", "document")
    __slots__ = (*_fields, "_group")  # group() builds it once; not compared

    def __init__(self, name: str, document: dict):
        self._set(name, document, None)

    @property
    def expected(self) -> dict:
        """The document's ``expected`` block, empty when it has none."""
        return self.document.get("expected", {})

    def group(self) -> CrystGroup:
        if self._group is None:
            object.__setattr__(self, "_group", _document_group(self.document))
        return self._group


class Catalog:
    def __init__(self, entries: dict[str, CatalogEntry]):
        self.entries = entries

    def names(self) -> list[str]:
        return sorted(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise KeyError(f"no catalog entry named {name!r}") from None

    def group(self, name: str) -> CrystGroup:
        return self.entry(name).group()


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    """The built-in fixtures, read from the ``data`` directory next to this
    module; an install that keeps the package zipped is not supported."""
    entries: dict[str, CatalogEntry] = {}
    for item in sorted((Path(__file__).resolve().parent / "data").glob("*.json")):
        doc = json.loads(item.read_text(encoding="utf-8"))
        name = doc.get("name") or item.stem
        if name in entries:
            raise GroupFileError(f"duplicate catalog entry name {name!r}")
        entries[name] = CatalogEntry(name=name, document=doc)
    return Catalog(entries)


class EntryReport(NamedTuple):
    name: str
    passed: bool
    details: tuple[str, ...]


def check_entry(entry: CatalogEntry) -> EntryReport:
    """Compare the computed results of one entry against its annotations.

    For a finite normaliser closure the spectrum is computed once and
    compared exactly; the R-infinity verdict is read off it, since R-infinity
    holds iff no automorphism has a finite Reidemeister number.  When the
    closure certifies that the normaliser is infinite, an annotated
    ``r_infinity: false`` is confirmed by a word-search witness, and every
    Reidemeister number computed from sampled witnesses must be a member of
    the annotated (symbolic) spectrum; the full symbolic value is not
    re-derived here.  A sample in the coset F.D^-1 of an earlier sample's
    D (D times its leader lies in F) has D's Reidemeister set, since
    R(phi^-1) = R(phi), and is not counted again.  Without normaliser data
    the annotations cannot be checked and the entry fails.
    """
    details: list[str] = []
    ok = True
    try:
        group = entry.group()
    except GroupFileError as exc:
        return EntryReport(entry.name, False, (f"validation failed: {exc}",))
    details.append(f"|F| = {group.order}, Bieberbach: {group.is_bieberbach()}")

    want_rinf = entry.expected.get("r_infinity")
    want_spectrum = entry.expected.get("spectrum")
    if want_rinf is None and want_spectrum is None:
        return EntryReport(entry.name, True, tuple(details))
    if group.normaliser_gens is None:
        details.append("no normaliser data: normalizer_generators missing, annotations unchecked")
        return EntryReport(entry.name, False, tuple(details))
    try:
        computed = spectrum(group)
    except ClosureCapExceeded:
        computed = None
    finite_normaliser = computed is not None
    # One word search serves both the witness and the spectrum samples.
    samples = [] if finite_normaliser else list(islice(_witness_cosets(group, _WORD_LENGTH), 3))

    if want_rinf is not None:
        if finite_normaliser:
            holds = not computed.finite_values
            if holds == want_rinf:
                details.append(f"r_infinity: {holds} (decided)")
            else:
                ok = False
                details.append(
                    f"r_infinity mismatch: computed {holds}, expected {want_rinf}"
                )
        elif want_rinf is False:
            if samples:
                details.append("r_infinity: False (witness found by word search)")
            else:
                ok = False
                details.append("no witness found; cannot confirm r_infinity: False")
        else:
            ok = False
            details.append("cannot confirm r_infinity with an infinite normaliser")

    if want_spectrum is not None:
        desc = parse_spectrum(want_spectrum)
        if finite_normaliser:
            if desc.is_finite() and set(computed.finite_values) == set(desc.finite):
                details.append(f"spectrum: {{{', '.join(map(str, computed.finite_values))}}}")
            else:
                ok = False
                details.append(
                    f"spectrum mismatch: computed {computed.finite_values}, "
                    f"expected {want_spectrum}"
                )
        else:
            inside = bool(samples)
            if not samples:
                details.append("no sample automorphisms found for spectrum membership check")
            sets: list[frozenset[int]] = []
            for j, sample in enumerate(samples):
                # an earlier sample whose coset is F.leader^-1, if any
                inverse = (i for i in range(j) if samples[i][0] @ sample[0] in group.matrix_parts)
                i = next(inverse, None)
                sets.append(_linear_part_set(group, *sample) if i is None else sets[i])
                for value in sets[j]:
                    if not desc.contains(value):
                        inside = False
                        details.append(
                            f"computed value {value} is outside the annotated spectrum"
                        )
            if inside:
                details.append(
                    f"{len(samples)} sampled linear parts give values inside {want_spectrum}"
                )
            ok = ok and inside
    return EntryReport(entry.name, ok, tuple(details))


def check_catalog(catalog: Catalog, names: Optional[list[str]] = None) -> list[EntryReport]:
    picked = names if names is not None else catalog.names()
    return [check_entry(catalog.entry(name)) for name in picked]
