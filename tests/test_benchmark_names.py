"""The names the benchmark's tracer and workloads read from crysturn.

``perfbench/spans.py`` wraps functions and class constructors by name, and
``perfbench/run.py`` builds its workloads and oracles from the package's
names and reads fields of the computed spectrum; a name deleted from the
package would break ``perfbench/run.py`` silently.  The other way round,
no production module may name a function kept only for the benchmark.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from crysturn.reidemeister import ComputedSpectrum

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
RUN = SPANS.parent / "run.py"


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
    computed = ComputedSpectrum((4,), False, True)
    assert (computed.contains_infinity, computed.normaliser_complete) == (False, True)


def _dotted(node):
    """(root name, attribute path) of a chain like ``cr.linalg.IntMatrix``."""
    path = []
    while isinstance(node, ast.Attribute):
        path.append(node.attr)
        node = node.value
    return (node.id, tuple(reversed(path))) if isinstance(node, ast.Name) else (None, ())


def _names_read_by_run() -> set:
    """Every attribute path below the package ``cr`` in ``perfbench/run.py``,
    through aliases such as ``lib = cr.reidemeister``."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    aliases = {"cr": ()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            root, path = _dotted(node.value)
            if root == "cr" and path:
                assert aliases.setdefault(node.targets[0].id, path) == path
    names = set()
    for node in ast.walk(tree):
        root, path = _dotted(node)
        if root in aliases and path:
            names.add(".".join(aliases[root] + path))
    return names


RUN_NAMES = sorted(_names_read_by_run())


def test_run_names_are_found():
    assert {
        "closed_forms.reidemeister_point_reflection",
        "closed_forms.reidemeister_3_2_1_2_1",
        "reidemeister.search_r_infinity_witness",
        "cli.main",
    } <= set(RUN_NAMES)


@pytest.mark.parametrize("name", RUN_NAMES)
def test_run_name_resolves(name):
    package = importlib.import_module("crysturn")
    importlib.import_module("crysturn.cli")
    functools.reduce(getattr, name.split("."), package)


# Kept in the package only because the benchmark or
# scripts/gen_catalog_data.py reads them.  No production path may come to
# depend on one, so they can move to the tests or the script when the
# benchmark stops reading them.
BENCHMARK_ONLY = (
    "closed_forms.reidemeister_point_reflection",
    "closed_forms.reidemeister_3_2_1_2_1",
    "linalg.mod2_solution_count",
    "linalg.rational_inverse",
    "linalg.rat_apply",
    "linalg.coset_representatives",
)


@pytest.mark.parametrize("module", ["cli", "catalog", "groups", "automorphisms", "reidemeister"])
def test_production_module_names_no_benchmark_oracle(module):
    path = Path(importlib.import_module(f"crysturn.{module}").__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {name.split(".")[1] for name in BENCHMARK_ONLY}
