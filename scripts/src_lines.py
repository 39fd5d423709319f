#!/usr/bin/env python3
"""Count the code, docstring, comment and non-blank lines of Python sources.

A docstring line is a line of the first string statement of a module,
class or function; a comment line starts with ``#`` after indentation; a
code line is any other non-blank line.  Blank lines count nowhere, so code,
docstring and comment lines add up to the non-blank lines.

Usage: python scripts/src_lines.py [DIR ...]   (default: src/crysturn)
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "crysturn"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
KINDS = ("code", "docstring", "comment", "non_blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> dict[str, int]:
    """The line counts of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        counts["non_blank"] += 1
        if number in docstrings:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def count_dir(directory: Path) -> dict[str, int]:
    """The line counts summed over the ``*.py`` files directly in ``directory``."""
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(directory.glob("*.py")):
        for key, value in count_file(path).items():
            total[key] += value
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path, default=[DEFAULT])
    for directory in parser.parse_args().dirs:
        c = count_dir(directory)
        print(
            f"{directory}: code {c['code']}, docstring {c['docstring']}, "
            f"comment {c['comment']}, non-blank {c['non_blank']}"
        )


if __name__ == "__main__":
    main()
