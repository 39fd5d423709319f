#!/usr/bin/env python3
"""Benchmark of crysturn: three seeded, closed-loop, single-process workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``catalog``, ``reidnr-large-det``, ``cli-queries`` or ``all``
(the default, which runs each workload in turn in its own process).  One
caller runs one operation at a time; the next starts when the previous one
returns.  A pass is the workload's whole operation list; passes repeat until
the next one would overrun ``--seconds`` and at least ``MIN_OPERATIONS``
operations ran.  Every answer is compared, outside the timed region, with an
oracle computed independently of the timed call.

Times are reported at a fixed reference speed.  On a shared virtual machine
(2-vCPU x86-64, Python 3.11) the speed of Python code drifted by up to a
factor of two over tens of seconds, which no median over a 30-second run
removes.  So a fixed reference loop runs between operations (with the
collector off, so it cannot collect the program's garbage), and each
operation's wall time is multiplied by ``REFERENCE_S`` over the mean of the
reference times measured just before and just after it.  Set-ups and traced
self times are scaled the same way.  The raw wall times and the speed factor
are printed next to the scaled figures.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
fresh set-ups: import, catalog load, building every group used, inputs and
oracles), ``pass_s`` (median pass), ``op_p50_ms``, ``op_tail_ms`` (75th
percentile of operation time) and ``peak_rss_mb``.  ``--trace 1`` wraps
crysturn's public functions (see ``spans.py``), traces the group building
and one pass, and reports per-layer counts and self times.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every answer
matched.

The program is imported from ``src/`` next to this directory, never from an
installed copy.  The script re-executes itself once with ``PYTHONHASHSEED=0``
and without ``CRYSTURN_CAP`` so that every run sees the same environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from spans import LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("catalog", "reidnr-large-det", "cli-queries")
PINNED_ENV = {"PYTHONHASHSEED": "0"}
UNPINNED_ENV = ("CRYSTURN_CAP",)
SETUP_REPEATS = 5
# Time of one reference loop on a quiet machine (Python 3.11, x86-64 VM);
# reported times are wall times scaled to this speed.
REFERENCE_S = 0.00245
REFERENCE_ITERATIONS = 24000
# op_tail_ms is this percentile for every workload and run, so runs that
# complete one pass more or less stay comparable.  Passes continue past
# --seconds until MIN_OPERATIONS samples exist, which leaves at least ten
# samples beyond the percentile.
TAIL_PERCENTILE = 75.0
MIN_OPERATIONS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
RUN_LAYER_UNITS = {
    "trace_overhead_ratio": "ratio",
    "span_coverage_ratio": "ratio",
    "cli.elapsed_coverage_ratio": "ratio",
}
PER_LAYER_UNITS = {**LAYER_UNITS, **RUN_LAYER_UNITS}

# reidnr-large-det: <Z^3,-I> with D = [[0,0,1],[1,0,-a],[0,1,b]] has
# |det(I-D)| + |det(I+D)| = 2a + 2 coset candidates for -a-2 < b < a, so a
# fixes the candidate count and the seed draws b and the translation.  The
# 3/2/1/2/1 family [[-1,m,m],[0,-1+2m,2m],[0,1,1]] has 8|m| candidates for
# |m| >= 2; both signs of every |m| run, and the seed draws d.  Fixed counts
# keep passes of different seeds comparable, because the union-find merge
# costs quadratic time in the count.  Small b keeps the cost flat in b.
POINT_REFLECTION_A = (16, 28, 40, 52, 70)
G32121_ABS_M = (4, 8, 12)
POINT_REFLECTION_MAX_B = 3

# cli-queries: (command, catalog entry).  Groups stay fixed so that every
# seed pays for the same normaliser closures; the seed draws D and d and the
# order.
#
# reidnr-large-det and cli-queries both run 11 operations a pass (the
# catalog's 20 entries are given).  Their operations differ widely in cost;
# with an odd count, the median and the 75th percentile fall inside one
# operation's samples instead of between two operations.
CLI_MIX = (
    ("reidnr", "3/3/1/1/1"),
    ("reidnr", "2/1/2/1/1"),
    ("reidnr", "3/2/1/2/1"),
    ("find-d", "3/2/1/2/1"),
    ("find-d", "3/5/1/2/1"),
    ("rinf", "3/3/1/4/1"),
    ("rinf-search", "2/1/1/1/1"),
    ("spectrum", "3/3/1/1/1"),
    ("spectrum", "3/5/1/2/1"),
    ("delta-base", "4/9/2/1/1"),
    ("validate", "3/1/2/1/1"),
)
CLI_WORD_LENGTH = 3
# reidnr queries use only small determinants: at most this many coset
# candidates, so that every seed's query costs about the same.
CLI_MAX_CANDIDATES = 8
CLI_SEARCH_WORDS = 3

# Small variants for the benchmark's own tests.
TINY_CATALOG = ("1/1/1/1/1", "1/2/1/1/1", "2/4/1/1/1", "klein-bottle")
TINY_POINT_REFLECTION_A = (4,)
TINY_G32121_ABS_M = (2,)
TINY_CLI_MIX = (
    ("reidnr", "2/4/1/1/1"),
    ("find-d", "3/5/1/2/1"),
    ("rinf", "2/4/1/1/1"),
    ("spectrum", "2/4/1/1/1"),
    ("delta-base", "klein-bottle"),
    ("validate", "klein-bottle"),
)


class SourceMissing(RuntimeError):
    """The checkout holds no crysturn sources next to the benchmark."""


@dataclass
class Op:
    """One operation: a timed call and an oracle check of its answer."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    reported_s: Optional[Callable[[Any], float]] = None


@dataclass
class Workload:
    cr: Any
    ops: list[Op]
    inputs: list[dict]


@dataclass
class _Raised:
    exc: BaseException


@dataclass
class Passes:
    """Everything measured over the passes of one run."""

    pass_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reported_s: float = 0.0
    reported_wall_s: float = 0.0


def import_fresh():
    """Import crysturn from ``src/`` afresh, dropping any earlier import."""
    if not (SRC / "crysturn" / "__init__.py").is_file():
        raise SourceMissing(f"no crysturn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "crysturn" or n.startswith("crysturn.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cr = importlib.import_module("crysturn")
    importlib.import_module("crysturn.cli")
    if Path(cr.__file__).resolve().parent != (SRC / "crysturn").resolve():
        raise SourceMissing(f"crysturn was imported from {cr.__file__}, not from {SRC}")
    return cr


# -- workloads -------------------------------------------------------------------


def _catalog_groups(tiny: bool) -> Optional[tuple[str, ...]]:
    return TINY_CATALOG if tiny else None


def _catalog_ops(cr, catalog, rng: random.Random, tiny: bool):
    names = list(_catalog_groups(tiny) or catalog.names())
    rng.shuffle(names)
    ops = []
    for name in names:
        entry = catalog.entry(name)
        ops.append(Op(
            label=f"check_entry {name}",
            call=lambda entry=entry: cr.catalog.check_entry(entry),
            check=lambda report: report.passed,
        ))
    return ops, [{"entry": name} for name in names]


def _candidates(group, linear) -> int:
    ident = linear.identity(group.dimension)
    return sum(abs((ident - a @ linear).det()) for a in group.matrix_parts)


def _reidnr_groups(tiny: bool) -> tuple[str, ...]:
    return ("3/1/2/1/1", "3/2/1/2/1")


def _reidnr_ops(cr, catalog, rng: random.Random, tiny: bool):
    IntMatrix = cr.linalg.IntMatrix
    closed = cr.closed_forms
    items = []

    point_reflection = catalog.group("3/1/2/1/1")
    bases = cr.automorphisms.base_translations(point_reflection)
    for a in TINY_POINT_REFLECTION_A if tiny else POINT_REFLECTION_A:
        b = rng.randint(0, POINT_REFLECTION_MAX_B)
        linear = IntMatrix.from_rows([[0, 0, 1], [1, 0, -a], [0, 1, b]])
        d = cr.linalg.vec_add(
            cr.automorphisms.find_translation_part(point_reflection, linear), rng.choice(bases)
        )
        phi = cr.automorphisms.Automorphism(point_reflection, d, linear)
        expected = closed.reidemeister_point_reflection(3, d, linear)
        items.append((phi, expected, {"family": "<Z^3,-I>", "a": a, "b": b}))

    g32121 = catalog.group("3/2/1/2/1")
    for abs_m in TINY_G32121_ABS_M if tiny else G32121_ABS_M:
        for m in (abs_m, -abs_m):
            linear = IntMatrix.from_rows([[-1, m, m], [0, -1 + 2 * m, 2 * m], [0, 1, 1]])
            d = cr.linalg.vector(rng.choice([("0", "0", "0"), ("0", "0", "1/2")]))
            phi = cr.automorphisms.Automorphism(g32121, d, linear)
            expected = closed.reidemeister_3_2_1_2_1(d, linear)
            items.append((phi, expected, {"family": "3/2/1/2/1", "m": m}))

    rng.shuffle(items)
    ops, inputs = [], []
    for phi, expected, record in items:
        record.update(
            d=[str(x) for x in phi.translation],
            candidates=_candidates(phi.group, phi.linear),
            expected=expected,
        )
        inputs.append(record)
        ops.append(Op(
            label=f"reidemeister_number {record}",
            call=lambda phi=phi: cr.reidemeister.reidemeister_number(phi),
            check=lambda value, expected=expected: value == expected,
        ))
    return ops, inputs


def _words(cr, group, length: int) -> list:
    """Distinct products of at most ``length`` normaliser generators or inverses."""
    gens = group.normaliser_gens
    letters = sorted({g for g in gens} | {g.int_inverse() for g in gens}, key=lambda m: m.rows)
    ident = cr.linalg.IntMatrix.identity(group.dimension)
    seen = {ident}
    frontier = [ident]
    for _ in range(length):
        frontier = [w for w in (g @ cur for cur in frontier for g in letters) if w not in seen]
        frontier = list(dict.fromkeys(frontier))
        seen.update(frontier)
    return sorted(seen, key=lambda m: m.rows)


def _matrix_arg(linear) -> str:
    return json.dumps([list(row) for row in linear.rows])


def _cli_query(cr, kind: str, name: str, group, rng: random.Random):
    """(argv, expected exit code, expected JSON ``result``) of one CLI query."""
    lib = cr.reidemeister
    auts = cr.automorphisms
    if kind == "reidnr":
        finite = [
            linear for linear in _words(cr, group, CLI_WORD_LENGTH)
            if not lib.is_always_infinite(group, linear)
            and auts.find_translation_part(group, linear) is not None
            and _candidates(group, linear) <= CLI_MAX_CANDIDATES
        ]
        linear = rng.choice(finite)
        d = cr.linalg.vec_add(
            auts.find_translation_part(group, linear), rng.choice(auts.base_translations(group))
        )
        value = lib.reidemeister_number(auts.Automorphism(group, d, linear))
        # "--d=" keeps argparse from reading a negative entry as an option
        argv = ["reidnr", name, f"--D={_matrix_arg(linear)}", "--d=" + ",".join(map(str, d))]
        return argv, 0, {"reidemeister_number": "infinity" if value == lib.INFINITE else value}
    if kind == "find-d":
        linear = rng.choice(_words(cr, group, CLI_WORD_LENGTH))
        d = auts.find_translation_part(group, linear)
        result = {"translation": None if d is None else [str(x) for x in d]}
        return ["find-d", name, f"--D={_matrix_arg(linear)}"], 0, result
    if kind == "rinf":
        verdict = lib.decide_r_infinity(group)
        if verdict.status is lib.RinfStatus.HOLDS:
            return ["rinf", name], 0, {"r_infinity": True}
        if verdict.status is not lib.RinfStatus.FAILS:
            raise ValueError(f"rinf {name} is undecided; pick a finite normaliser")
        return ["rinf", name], 0, {
            "r_infinity": False, "witness": [list(r) for r in verdict.witness.rows]
        }
    if kind == "rinf-search":
        if lib.decide_r_infinity(group).status is not lib.RinfStatus.UNDECIDED_INFINITE:
            raise ValueError(f"{name} has a finite normaliser; the word search would not run")
        witness = lib.search_r_infinity_witness(group, CLI_SEARCH_WORDS)
        if witness is None:
            raise ValueError(f"no word-search witness for {name}")
        argv = ["rinf", name, "--search-words", str(CLI_SEARCH_WORDS)]
        return argv, 0, {
            "r_infinity": False, "witness": [list(r) for r in witness.rows], "via": "word search"
        }
    if kind == "spectrum":
        computed = lib.spectrum(group)
        return ["spectrum", name], 0, {
            "finite_values": list(computed.finite_values),
            "contains_infinity": computed.contains_infinity,
            "relative_to_supplied_normaliser": computed.normaliser_complete,
        }
    if kind == "delta-base":
        bases = auts.base_translations(group)
        return ["delta-base", name], 0, {"base_translations": [[str(x) for x in d] for d in bases]}
    if kind == "validate":
        return ["validate", name], 0, {
            "valid": True,
            "dimension": group.dimension,
            "holonomy_order": group.order,
            "bieberbach": group.is_bieberbach(),
        }
    raise ValueError(f"unknown CLI query kind {kind!r}")


def _cli_groups(tiny: bool) -> tuple[str, ...]:
    return tuple(dict.fromkeys(name for _, name in (TINY_CLI_MIX if tiny else CLI_MIX)))


def _run_cli(cr, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_matches(answer, code: int, result) -> bool:
    got_code, stdout, _ = answer
    return got_code == code and json.loads(stdout)["result"] == result


def _cli_ops(cr, catalog, rng: random.Random, tiny: bool):
    mix = list(TINY_CLI_MIX if tiny else CLI_MIX)
    rng.shuffle(mix)
    ops, inputs = [], []
    for kind, name in mix:
        argv, code, result = _cli_query(cr, kind, name, catalog.group(name), rng)
        argv = ["--json", *argv]
        result = json.loads(json.dumps(result))
        inputs.append({"argv": argv, "exit_code": code})
        ops.append(Op(
            label="crysturn " + " ".join(argv),
            call=lambda argv=argv: _run_cli(cr, argv),
            check=lambda answer, code=code, result=result: _cli_matches(answer, code, result),
            reported_s=lambda answer: json.loads(answer[1])["meta"]["elapsed_ms"] / 1000,
        ))
    return ops, inputs


WORKLOAD_MAKERS = {
    "catalog": (_catalog_groups, _catalog_ops),
    "reidnr-large-det": (_reidnr_groups, _reidnr_ops),
    "cli-queries": (_cli_groups, _cli_ops),
}


def set_up(workload: str, seed: int, tiny: bool = False, tracer: Optional[Tracer] = None):
    """Import, load the catalog, build every group used, make inputs and oracles.

    With a tracer, only the group building is traced: input and oracle
    generation is the benchmark's own work.
    """
    groups_used, make_ops = WORKLOAD_MAKERS[workload]
    cr = import_fresh()
    if tracer is not None:
        tracer.install(cr)
    try:
        catalog = cr.catalog.builtin_catalog()
        for name in groups_used(tiny) or catalog.names():
            catalog.group(name)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops, inputs = make_ops(cr, catalog, random.Random(seed), tiny)
    return Workload(cr, ops, inputs)


# -- measurement ---------------------------------------------------------------------


def reference_s() -> float:
    """Fastest of three runs of a fixed integer-and-dict loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            total, table = 0, {}
            for k in range(1, REFERENCE_ITERATIONS):
                total += (k * k) % 97
                table[k & 1023] = total
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def timed(call: Callable[[], Any], tracer: Optional[Tracer] = None):
    """(answer, wall seconds, wall seconds at reference speed) of one call."""
    before = reference_s()
    if tracer is not None:
        tracer.scale = REFERENCE_S / before
    t0 = perf_counter()
    answer = call()
    elapsed = perf_counter() - t0
    return answer, elapsed, elapsed * 2 * REFERENCE_S / (before + reference_s())


@dataclass
class TimedPass:
    wall_s: list[float]
    scaled_s: list[float]
    answers: list


def timed_pass(ops: list[Op], tracer: Optional[Tracer] = None) -> TimedPass:
    """One pass; each operation is timed between two reference loops."""
    gc.collect()
    done = TimedPass([], [], [])
    before = reference_s()
    for op in ops:
        if tracer is not None:
            tracer.scale = REFERENCE_S / before
        t0 = perf_counter()
        try:
            answer = op.call()
        except Exception as exc:  # a raising operation is a failed one
            answer = _Raised(exc)
        elapsed = perf_counter() - t0
        after = reference_s()
        done.wall_s.append(elapsed)
        done.scaled_s.append(elapsed * 2 * REFERENCE_S / (before + after))
        done.answers.append(answer)
        before = after
    return done


def record_pass(passes: Passes, ops: list[Op], done: TimedPass) -> None:
    """Add one pass and check its answers against the oracles."""
    passes.pass_s.append(sum(done.scaled_s))
    passes.wall_s.append(sum(done.wall_s))
    passes.speed.append(passes.wall_s[-1] / passes.pass_s[-1])
    passes.op_s.extend(done.scaled_s)
    for op, elapsed, answer in zip(ops, done.wall_s, done.answers):
        passes.attempted += 1
        if isinstance(answer, _Raised):
            trace = "".join(traceback.format_exception(answer.exc))
            passes.failures.append(f"{op.label}: raised\n{trace[-1500:]}")
            continue
        try:
            ok = op.check(answer)
            if op.reported_s is not None:
                passes.reported_s += op.reported_s(answer)
                passes.reported_wall_s += elapsed
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            answer = f"unreadable answer ({exc!r}): {answer!r}"
        if not ok:
            passes.failures.append(f"{op.label}: wrong answer {answer!r}"[:500])


def run_passes(ops: list[Op], seconds: float) -> Passes:
    """Closed loop over whole passes until the next pass would overrun.

    Stops no earlier than MIN_OPERATIONS operations.
    """
    passes = Passes()
    began = perf_counter()
    while True:
        record_pass(passes, ops, timed_pass(ops))
        if (
            len(passes.op_s) >= MIN_OPERATIONS
            and perf_counter() - began + statistics.median(passes.wall_s) > seconds
        ):
            return passes


def quantile(values: list[float], p: float) -> float:
    """Linearly interpolated p-th percentile (the 'inclusive' definition)."""
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def _env_record() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "env": {
            **{k: os.environ.get(k) for k in PINNED_ENV},
            **{k: os.environ.get(k, "unset") for k in UNPINNED_ENV},
        },
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result line, report lines, inputs record)."""
    lines = []
    if trace:
        tracer = Tracer()
        wl, _, _ = timed(lambda: set_up(workload, seed, tiny, tracer), tracer)
        covered_before = tracer.raw_self_s
        tracer.install(wl.cr)
        try:
            done = timed_pass(wl.ops, tracer)
        finally:
            tracer.uninstall()
        traced = Passes()
        record_pass(traced, wl.ops, done)
        traced_s = traced.pass_s[0]
        passes = run_passes(wl.ops, max(seconds - traced.wall_s[0], 0.0))
        untraced_s = statistics.median(passes.pass_s)
        layer = tracer.layer_metrics()
        layer["trace_overhead_ratio"] = traced_s / untraced_s
        layer["span_coverage_ratio"] = (tracer.raw_self_s - covered_before) / traced.wall_s[0]
        layer["cli.elapsed_coverage_ratio"] = (
            passes.reported_s / passes.reported_wall_s if passes.reported_wall_s else 0.0
        )
        metrics = {name: _metric(layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        spans_path = OUT / f"{workload}.spans.json.gz"
        tracer.write(spans_path)
        attempted = traced.attempted + passes.attempted
        failures = traced.failures + passes.failures
        lines.append(
            f"{workload} seed {seed} traced: 1 traced pass {traced_s:.4f} s, "
            f"{len(passes.pass_s)} untraced passes (median {untraced_s:.4f} s), "
            f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}"
        )
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {name:<50} {layer[name]:>14.6g} {unit}")
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            wl, _, scaled = timed(lambda: set_up(workload, seed, tiny))
            setups.append(scaled)
        passes = run_passes(wl.ops, seconds)
        n = len(passes.op_s)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(passes.pass_s),
            "op_p50_ms": quantile(passes.op_s, 50) * 1000,
            "op_tail_ms": quantile(passes.op_s, TAIL_PERCENTILE) * 1000,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        attempted, failures = passes.attempted, passes.failures
        q = statistics.quantiles(passes.pass_s, n=4) if len(passes.pass_s) > 1 else [values["pass_s"]] * 3
        lines += [
            f"{workload} seed {seed}: {len(passes.pass_s)} passes of {len(wl.ops)} operations",
            f"  setup_s      {values['setup_s']:.4f} s   median of {len(setups)} set-ups",
            f"  pass_s       {values['pass_s']:.4f} s   median of {len(passes.pass_s)} passes, "
            f"quartiles {q[0]:.4f} .. {q[2]:.4f}; raw wall median "
            f"{statistics.median(passes.wall_s):.4f} s, speed factor "
            f"{statistics.median(passes.speed):.3f}",
            f"  op_p50_ms    {values['op_p50_ms']:.3f} ms  {n} samples",
            f"  op_tail_ms   {values['op_tail_ms']:.3f} ms  p{TAIL_PERCENTILE:g} of {n} samples, "
            f"{n - int(n * TAIL_PERCENTILE / 100)} beyond",
            f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
        ]
    lines.append(
        f"  fail_ratio   {len(failures) / attempted:.4f}   {len(failures)} of {attempted} operations"
    )
    lines += [f"  FAILED {text}" for text in failures[:5]]
    record = {"workload": workload, "seed": seed, **_env_record(), "inputs": wl.inputs}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines, record


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {workload} exited with {proc.returncode} and no result",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return exit_code(combined)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    try:
        result, lines, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print("inputs " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return exit_code(result)


def _pin_environment(argv: list[str]) -> None:
    """Re-execute this script once in the pinned environment."""
    env = {k: v for k, v in os.environ.items() if k not in UNPINNED_ENV}
    env.update(PINNED_ENV)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


if __name__ == "__main__":
    _pin_environment(sys.argv[1:])
    sys.exit(main())
