"""Command-line front end.

Subcommands wrap the library: ``validate``, ``rinf``, ``spectrum``,
``reidnr``, ``find-d``, ``delta-base`` and ``catalog``.  Groups come either
from a file path or from a built-in catalog name.  Exit codes: 0 decided,
1 usage error, 2 invalid group data, 3 undecided (normaliser certified
infinite, or normaliser data missing), 4 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .automorphisms import Automorphism, base_translations, find_translation_part
from .catalog import (
    GroupFileError,
    builtin_catalog,
    check_catalog,
    load_group,
)
from .groups import (
    ClosureCapExceeded,
    CrystGroup,
    GroupValidationError,
    matrix_group_closure,
)
from .linalg import IntMatrix, vector
from .reidemeister import (
    INFINITE,
    NormaliserUnavailable,
    RinfStatus,
    decide_r_infinity,
    reidemeister_number,
    search_r_infinity_witness,
    spectrum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_DATA = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


_SHOWN = 80  # characters of an argument that a usage error repeats


def _shown(text: str, quote: bool = True) -> str:
    """An argument, or an error text that may repeat one, for a usage error:
    whole up to 80 characters, else its first 80 and its length; quoted
    unless ``quote`` is false."""
    head = repr(text[:_SHOWN]) if quote else text[:_SHOWN]
    return head if len(text) <= _SHOWN else f"{head}... ({len(text)} characters)"


def _resolve_group(source: str) -> CrystGroup:
    try:
        is_file = Path(source).is_file()
    except OSError:  # a name the file system refuses, such as one too long
        is_file = False
    if is_file:
        return load_group(Path(source))
    catalog = builtin_catalog()
    if source in catalog:
        return catalog.group(source)
    raise CliUsageError(f"no such file or catalog entry: {_shown(source)}")


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {_shown(raw)}")
    return value


def _parse_matrix_arg(raw: str) -> IntMatrix:
    try:
        rows = json.loads(raw)
        return IntMatrix.from_rows(rows)
    except (json.JSONDecodeError, RecursionError, TypeError, ValueError) as exc:
        raise CliUsageError(f"cannot parse matrix {_shown(raw)}: {_shown(str(exc), quote=False)}")


def _parse_vector_arg(raw: str):
    try:
        return vector(part.strip() for part in raw.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliUsageError(f"cannot parse vector {_shown(raw)}: {_shown(str(exc), quote=False)}")


_ABSENT = "absent"
_INFINITE_NORMALISER = "infinite"


def _unwalked_size(exc: Exception) -> str:
    """``meta.normaliser_size`` when the normaliser walk raised ``exc``."""
    return _ABSENT if isinstance(exc, NormaliserUnavailable) else _INFINITE_NORMALISER


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing does not
    change it, so in-process callers of :func:`main` share one."""
    parser = _Parser(prog="crysturn", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a group file")
    p.add_argument("source")

    p = sub.add_parser("rinf", help="decide the R-infinity property")
    p.add_argument("source")
    p.add_argument("--search-words", type=_positive_int, default=None, metavar="L",
                   help="word-search length for an infinite normaliser")

    p = sub.add_parser("spectrum", help="compute the Reidemeister spectrum")
    p.add_argument("source")

    p = sub.add_parser("reidnr", help="Reidemeister number of one automorphism")
    p.add_argument("source")
    p.add_argument("--D", required=True, dest="linear", metavar="MATRIX",
                   help='linear part, e.g. "[[0,-1],[1,-1]]"')
    p.add_argument("--d", required=True, dest="translation", metavar="VECTOR",
                   help='translation part, e.g. "1/2,0"')

    p = sub.add_parser("find-d", help="find a translation part for a linear part")
    p.add_argument("source")
    p.add_argument("--D", required=True, dest="linear", metavar="MATRIX")

    p = sub.add_parser("delta-base", help="list the base translations")
    p.add_argument("source")

    p = sub.add_parser("catalog", help="browse or check the built-in catalog")
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list")
    show = cat_sub.add_parser("show")
    show.add_argument("name")
    check = cat_sub.add_parser("check")
    check.add_argument("name", nargs="?", default=None)
    return parser


# Each handler takes the parsed arguments, the resolved group and the meta
# dict, may add ``normaliser_size`` to meta, and returns (exit code, JSON
# result, text lines).


def _cmd_validate(args, group: CrystGroup, meta: dict):
    if args.json:  # the closure only feeds meta, which text output never shows
        gens = group.normaliser_gens
        try:
            meta["normaliser_size"] = _ABSENT if gens is None else matrix_group_closure(
                gens or [IntMatrix.identity(group.dimension)]
            ).order
        except ClosureCapExceeded:
            meta["normaliser_size"] = _INFINITE_NORMALISER
    result = {
        "valid": True,
        "dimension": group.dimension,
        "holonomy_order": group.order,
        "bieberbach": group.is_bieberbach(),
    }
    return EXIT_OK, result, [
        f"valid group: {meta['group']}",
        f"dimension {group.dimension}, holonomy order {group.order}, "
        f"Bieberbach: {result['bieberbach']}",
    ]


def _cmd_rinf(args, group: CrystGroup, meta: dict):
    verdict = decide_r_infinity(group)
    meta["normaliser_size"] = {
        RinfStatus.UNDECIDED_NO_DATA: _ABSENT,
        RinfStatus.UNDECIDED_INFINITE: _INFINITE_NORMALISER,
    }.get(verdict.status, verdict.normaliser_order)
    if verdict.status is RinfStatus.UNDECIDED_INFINITE and args.search_words:
        witness = search_r_infinity_witness(group, args.search_words)
        if witness is not None:
            result = {"r_infinity": False, "witness": [list(r) for r in witness.rows],
                      "via": "word search"}
            return EXIT_OK, result, [f"R-infinity: NO, witness D = {witness}"]
        result = {"r_infinity": None, "status": verdict.status.value,
                  "note": f"word search up to length {args.search_words} found no witness"}
        return EXIT_UNDECIDED, result, [f"undecided: {result['note']}"]
    if verdict.status is RinfStatus.FAILS:
        result = {"r_infinity": False, "witness": [list(r) for r in verdict.witness.rows]}
        return EXIT_OK, result, [f"R-infinity: NO, witness D = {verdict.witness}"]
    if verdict.status is RinfStatus.HOLDS:
        return EXIT_OK, {"r_infinity": True}, [
            "R-infinity: YES (every automorphism has infinitely many twisted conjugacy classes)",
            "(relative to the supplied normaliser generators)",
        ]
    return EXIT_UNDECIDED, {"r_infinity": None, "status": verdict.status.value}, [
        verdict.status.value
    ]


def _cmd_spectrum(args, group: CrystGroup, meta: dict):
    try:
        computed = spectrum(group)
    except (NormaliserUnavailable, ClosureCapExceeded) as exc:
        meta["normaliser_size"] = _unwalked_size(exc)
        return EXIT_UNDECIDED, {"spectrum": None, "status": str(exc)}, [f"undecided: {exc}"]
    meta["normaliser_size"] = computed.normaliser_order
    result = {
        "finite_values": list(computed.finite_values),
        "contains_infinity": computed.contains_infinity,
        "relative_to_supplied_normaliser": computed.normaliser_complete,
    }
    return EXIT_OK, result, [
        "finite part: {" + ", ".join(map(str, computed.finite_values)) + "}",
        f"infinity: {'yes' if computed.contains_infinity else 'no'}",
        "(relative to the supplied normaliser generators)",
    ]


def _cmd_reidnr(args, group: CrystGroup, meta: dict):
    linear = _parse_matrix_arg(args.linear)
    translation = _parse_vector_arg(args.translation)
    try:
        phi = Automorphism(group, translation, linear)
    except ValueError as exc:
        raise GroupValidationError(str(exc)) from exc
    value = reidemeister_number(phi)
    shown = "infinity" if value == INFINITE else value
    return EXIT_OK, {"reidemeister_number": shown}, [f"R = {shown}"]


def _cmd_find_d(args, group: CrystGroup, meta: dict):
    linear = _parse_matrix_arg(args.linear)
    try:
        d = find_translation_part(group, linear)
    except ValueError as exc:
        raise GroupValidationError(str(exc)) from exc
    if d is None:
        return EXIT_OK, {"translation": None}, [
            "no translation part exists: no automorphism has this linear part"
        ]
    return EXIT_OK, {"translation": [str(x) for x in d]}, ["d = " + ",".join(str(x) for x in d)]


def _cmd_delta_base(args, group: CrystGroup, meta: dict):
    bases = base_translations(group)
    result = {"base_translations": [[str(x) for x in d] for d in bases]}
    lines = [f"{len(bases)} base translation(s):"] + [
        "  " + ",".join(str(x) for x in d) for d in bases
    ]
    return EXIT_OK, result, lines


def _cmd_catalog(args, meta: dict):
    catalog = builtin_catalog()
    if args.catalog_command == "list":
        names = catalog.names()
        meta["count"] = len(names)
        return EXIT_OK, {"entries": names}, names
    if args.catalog_command == "show":
        if args.name not in catalog:
            raise CliUsageError(f"no catalog entry named {_shown(args.name)}")
        meta["group"] = args.name
        doc = catalog.entry(args.name).document
        return EXIT_OK, doc, [json.dumps(doc, ensure_ascii=False, indent=2)]
    # check
    if args.name is not None and args.name not in catalog:
        raise CliUsageError(f"no catalog entry named {_shown(args.name)}")
    names = [args.name] if args.name else None
    reports = check_catalog(catalog, names=names)
    passed = sum(r.passed for r in reports)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {'; '.join(r.details)}"
        for r in reports
    ]
    lines.append(f"{passed} passed, {len(reports) - passed} failed")
    result = {
        "reports": [
            {"name": r.name, "passed": r.passed, "details": list(r.details)}
            for r in reports
        ],
        "passed": passed,
        "failed": len(reports) - passed,
    }
    return (EXIT_OK if passed == len(reports) else EXIT_BAD_DATA), result, lines


_GROUP_COMMANDS = {
    "validate": _cmd_validate,
    "rinf": _cmd_rinf,
    "spectrum": _cmd_spectrum,
    "reidnr": _cmd_reidnr,
    "find-d": _cmd_find_d,
    "delta-base": _cmd_delta_base,
}


def _run(args, t0: float) -> int:
    """Resolve the group, run one command and emit the output; ``elapsed_ms``
    counts from ``t0``, the start of :func:`main`, so it covers parsing too."""
    if args.command == "catalog":
        meta: dict = {}
        code, result, lines = _cmd_catalog(args, meta)
    else:
        group = _resolve_group(args.source)
        # elapsed_ms is filled in last but keeps its place ahead of normaliser_size
        meta = {"group": group.name or args.source, "elapsed_ms": None}
        code, result, lines = _GROUP_COMMANDS[args.command](args, group, meta)
    meta["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if args.json:
        print(json.dumps({"result": result, "meta": meta}, ensure_ascii=False, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    # exact inputs and answers are integers of any length: lift Python's
    # default limit on int <-> str conversion (4300 digits) for this command
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(parser.parse_args(argv), t0)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GroupFileError, GroupValidationError) as exc:
        print(f"invalid group data: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except (NormaliserUnavailable, ClosureCapExceeded) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal assertion failures and bugs
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
