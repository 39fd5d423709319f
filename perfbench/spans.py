"""Per-layer tracing of crysturn from outside the package.

The tracer replaces each public function it watches at every module
attribute that binds it (``matrix_group_closure`` is bound in
``crysturn.groups``, ``crysturn.reidemeister`` and ``crysturn.cli``, and
each binding is wrapped), and wraps ``__init__`` of the classes it times.
Every wrapped call records a span -- id, parent id, layer name, start, end --
in memory; self time is a span's duration minus its child spans.  Self times
are accumulated at reference speed: the caller sets ``scale`` (reference
speed over the speed just measured) before each operation, as for the
end-to-end times; ``raw_self_s`` keeps the unscaled total.
``IntMatrix.__matmul__`` and ``is_always_infinite`` are only counted, never
timed, because they are called far too often for a span each.

Nothing under ``src/`` is changed: ``uninstall`` restores every binding.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import sys
from pathlib import Path
from time import perf_counter

# Public functions traced with a span, by defining module.
SPANNED_FUNCTIONS = {
    "linalg": ("coset_representatives", "rational_inverse", "smith_normal_form"),
    "groups": ("matrix_group_closure", "build_group"),
    "automorphisms": ("find_translation_part", "conjugation_permutation", "base_translations"),
    "reidemeister": (
        "reidemeister_number",
        "reidemeister_set",
        "spectrum",
        "decide_r_infinity",
        "search_r_infinity_witness",
    ),
    "catalog": ("check_entry",),
    "cli": ("main",),
}
# Classes whose construction is traced with a span.
SPANNED_CLASSES = {"groups": ("PointGroup",), "automorphisms": ("Automorphism",)}
# Called too often to time: counted only.
COUNTED_FUNCTIONS = {"reidemeister": ("is_always_infinite",)}

# Per-layer metrics in report order: name -> unit.  BENCHMARK.json lists the
# same names; the benchmark's tests keep the two in step.
LAYER_UNITS = {
    "reidemeister.reidemeister_number.calls": "count",
    "reidemeister.reidemeister_number.self_s": "s",
    "reidemeister.reidemeister_number.infinite": "count",
    "linalg.coset_representatives.calls": "count",
    "linalg.coset_representatives.reps": "count",
    "linalg.rational_inverse.calls": "count",
    "linalg.rational_inverse.self_s": "s",
    "linalg.smith_normal_form.calls": "count",
    "linalg.smith_normal_form.self_s": "s",
    "linalg.matmul.calls": "count",
    "groups.matrix_group_closure.calls": "count",
    "groups.matrix_group_closure.self_s": "s",
    "groups.matrix_group_closure.elements": "count",
    "groups.matrix_group_closure.cap_hits": "count",
    "groups.PointGroup.self_s": "s",
    "groups.build_group.calls": "count",
    "groups.build_group.self_s": "s",
    "automorphisms.find_translation_part.calls": "count",
    "automorphisms.find_translation_part.self_s": "s",
    "automorphisms.find_translation_part.solved_ratio": "ratio",
    "automorphisms.conjugation_permutation.calls": "count",
    "automorphisms.conjugation_permutation.self_s": "s",
    "automorphisms.Automorphism.calls": "count",
    "automorphisms.Automorphism.self_s": "s",
    "automorphisms.base_translations.calls": "count",
    "automorphisms.base_translations.count": "count",
    "reidemeister.spectrum.calls": "count",
    "reidemeister.spectrum.self_s": "s",
    "reidemeister.spectrum.new_value_ratio": "ratio",
    "reidemeister.reidemeister_set.calls": "count",
    "reidemeister.reidemeister_set.self_s": "s",
    "reidemeister.decide_r_infinity.calls": "count",
    "reidemeister.decide_r_infinity.self_s": "s",
    "reidemeister.is_always_infinite.calls": "count",
    "reidemeister.search_r_infinity_witness.calls": "count",
    "reidemeister.search_r_infinity_witness.self_s": "s",
    "catalog.check_entry.self_s": "s",
    "cli.main.self_s": "s",
    "cli.meta_closure_s": "s",
}


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "end", "child_s", "seen")

    def __init__(self, span_id, parent, name, start):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.seen = None


def _ratio(part: float, whole: float) -> float:
    """part / whole, and 0.0 when the layer made no attempts at all."""
    return part / whole if whole else 0.0


class Tracer:
    """Records spans and per-layer counters while installed."""

    scale = 1.0

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, dict] = {}
        self._stack: list[_Frame] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self.meta_closure_s = 0.0
        self.raw_self_s = 0.0

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    def _spanned(self, name, fn, outcome=None):
        stack = self._stack
        stat = self._stat(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(next(self._ids), parent, name, perf_counter())
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:  # recorded for the outcome, then re-raised
                exc = caught
                raise
            finally:
                frame.end = perf_counter()
                stack.pop()
                duration = frame.end - frame.start
                stat["calls"] += 1
                stat["self_s"] += (duration - frame.child_s) * self.scale
                self.raw_self_s += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                self.spans.append((
                    frame.span_id,
                    parent.span_id if parent is not None else None,
                    name,
                    frame.start,
                    frame.end,
                ))
                if outcome is not None:
                    outcome(stat, frame, result, exc)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        stat = self.stats.setdefault(name, {"calls": 0})

        def counted(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- layer-specific outcomes ---------------------------------------------

    def _outcomes(self, cr) -> dict:
        cap_exceeded = cr.groups.ClosureCapExceeded

        def reidemeister_number(stat, frame, result, exc):
            if exc is None and result == math.inf:
                stat["infinite"] = stat.get("infinite", 0) + 1

        def coset_representatives(stat, frame, result, exc):
            if exc is None:
                stat["reps"] = stat.get("reps", 0) + len(result)

        def matrix_group_closure(stat, frame, result, exc):
            if exc is None:
                stat["elements"] = stat.get("elements", 0) + result.order
            elif isinstance(exc, cap_exceeded):
                stat["cap_hits"] = stat.get("cap_hits", 0) + 1
            if frame.parent is not None and frame.parent.name == "cli.main":
                self.meta_closure_s += (frame.end - frame.start) * self.scale

        def find_translation_part(stat, frame, result, exc):
            if exc is None and result is not None:
                stat["solved"] = stat.get("solved", 0) + 1

        def base_translations(stat, frame, result, exc):
            if exc is None:
                stat["count"] = stat.get("count", 0) + len(result)

        def reidemeister_set(stat, frame, result, exc):
            sweep = frame.parent
            if exc is None and sweep is not None and sweep.name == "reidemeister.spectrum":
                if sweep.seen is None:
                    sweep.seen = set()
                spec = self._stat("reidemeister.spectrum")
                spec["swept"] = spec.get("swept", 0) + 1
                if not result <= sweep.seen:
                    spec["new"] = spec.get("new", 0) + 1
                    sweep.seen |= result

        return {
            "reidemeister.reidemeister_number": reidemeister_number,
            "linalg.coset_representatives": coset_representatives,
            "groups.matrix_group_closure": matrix_group_closure,
            "automorphisms.find_translation_part": find_translation_part,
            "automorphisms.base_translations": base_translations,
            "reidemeister.reidemeister_set": reidemeister_set,
        }

    # -- installation ----------------------------------------------------------

    def install(self, cr) -> None:
        """Wrap every watched callable of the freshly imported package ``cr``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        outcomes = self._outcomes(cr)
        replacements = {}  # id of the original -> its wrapper
        for module, names in SPANNED_FUNCTIONS.items():
            for fname in names:
                layer = f"{module}.{fname}"
                original = getattr(getattr(cr, module), fname)
                replacements[id(original)] = self._spanned(layer, original, outcomes.get(layer))
        for module, names in COUNTED_FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(cr, module), fname)
                replacements[id(original)] = self._counted(f"{module}.{fname}", original)
        package = cr.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
        for module, names in SPANNED_CLASSES.items():
            for cname in names:
                cls = getattr(getattr(cr, module), cname)
                self._patch(cls, "__init__", self._spanned(f"{module}.{cname}", cls.__init__))
        int_matrix = cr.linalg.IntMatrix
        self._patch(int_matrix, "__matmul__", self._counted("linalg.matmul", int_matrix.__matmul__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``LAYER_UNITS``; absent layers read 0."""
        out: dict[str, float] = {}
        for metric in LAYER_UNITS:
            layer, _, field = metric.rpartition(".")
            stat = self.stats.get(layer, {})
            if field == "solved_ratio":
                value = _ratio(stat.get("solved", 0), stat.get("calls", 0))
            elif field == "new_value_ratio":
                value = _ratio(stat.get("new", 0), stat.get("swept", 0))
            elif metric == "cli.meta_closure_s":
                value = self.meta_closure_s
            else:
                value = stat.get(field, 0)
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON: [id, parent, layer, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "layer", "start_s", "end_s"],
                       "spans": self.spans}, fh)
