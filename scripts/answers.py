#!/usr/bin/env python3
"""Dump the command-line answers for the built-in catalog, one JSON line each.

For every catalog entry (or the entries named on the command line) this runs
``validate``, ``rinf``, ``rinf --search-words 3``, ``spectrum`` and
``delta-base``, each in text and in ``--json``, and then ``find-d`` and
``reidnr`` on every normaliser generator and on every ordered product of two
generators.  ``reidnr`` takes the translation part that
:func:`~crysturn.automorphisms.find_translation_part` finds, or the zero
vector when there is none.  Last come ``catalog list`` and ``catalog check``
(of the named entries, or of the whole catalog), each in text and in
``--json``.  Each line holds the arguments, the exit code,
standard output and standard error, with ``elapsed_ms`` masked, so ``cmp``
on the dumps of two versions of the program checks that they give the same
answers to all of these:

    PYTHONPATH=src python scripts/answers.py > answers.jsonl
    cmp answers.jsonl other.jsonl

Usage: python scripts/answers.py [NAME ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re

from crysturn.automorphisms import find_translation_part
from crysturn.catalog import builtin_catalog
from crysturn.cli import main as cli_main

GROUP_COMMANDS = (["validate"], ["rinf"], ["rinf", "--search-words", "3"], ["spectrum"],
                  ["delta-base"])
ELAPSED = re.compile(r'"elapsed_ms": [0-9.eE+-]+')


def invoke(argv: list[str]) -> str:
    """One CLI run in this process, as a JSON line with ``elapsed_ms`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    stdout = ELAPSED.sub('"elapsed_ms": "masked"', out.getvalue())
    return json.dumps({"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()})


def entry_invocations(catalog, name: str) -> list[list[str]]:
    """The argument lists run for one catalog entry, in a fixed order."""
    runs = [
        [*flag, cmd[0], name, *cmd[1:]] for cmd in GROUP_COMMANDS for flag in ([], ["--json"])
    ]
    group = catalog.group(name)
    gens = group.normaliser_gens
    for linear in [*gens, *(a @ b for a in gens for b in gens)]:
        matrix = json.dumps([list(row) for row in linear.rows])
        d = find_translation_part(group, linear) or (0,) * group.dimension
        runs.append(["find-d", name, "--D", matrix])
        runs.append(["reidnr", name, "--D", matrix, "--d=" + ",".join(map(str, d))])
    return runs


def catalog_invocations(names: list[str]) -> list[list[str]]:
    """``catalog list`` and ``catalog check`` of ``names`` (all when empty), in
    text and in ``--json``."""
    checks = [["catalog", "check", name] for name in names] or [["catalog", "check"]]
    return [[*flag, *cmd] for cmd in [["catalog", "list"], *checks] for flag in ([], ["--json"])]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="catalog entries (default: all)")
    args = parser.parse_args(argv)
    catalog = builtin_catalog()
    for name in args.names or catalog.names():
        for run in entry_invocations(catalog, name):
            print(invoke(run))
    for run in catalog_invocations(args.names):
        print(invoke(run))


if __name__ == "__main__":
    main()
