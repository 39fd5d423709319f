"""The names the benchmark's tracer and workloads read from crysturn.

``perfbench/spans.py`` wraps functions and class constructors by name, and
``perfbench/run.py`` reads fields of the computed spectrum; a name deleted
from the package would break ``perfbench/run.py --trace 1`` silently.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from crysturn.reidemeister import ComputedSpectrum

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for table in (spans.SPANNED_FUNCTIONS, spans.COUNTED_FUNCTIONS)
        for module, names in table.items()
        for name in names
    ],
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"crysturn.{module}"), name, None))


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in spans.SPANNED_CLASSES.items() for name in names],
)
def test_traced_class_defines_its_own_init(module, name):
    cls = getattr(importlib.import_module(f"crysturn.{module}"), name)
    assert "__init__" in vars(cls)


def test_spectrum_fields_read_by_the_benchmark():
    fields = {f.name for f in dataclasses.fields(ComputedSpectrum)}
    assert {"contains_infinity", "normaliser_complete"} <= fields
