#!/usr/bin/env python3
"""Reproduce the classification table from the built-in catalog.

For every entry: the holonomy order, whether the group is torsion-free, the
normaliser closure size (or 'infinite', or 'absent' without normaliser
data), the R-infinity verdict, and the spectrum (computed exactly for a
finite normaliser closure, annotated otherwise).  The normaliser is
enumerated once per entry: R-infinity holds iff the spectrum has no finite
value.

Usage: python scripts/table_report.py
"""

from __future__ import annotations

import argparse
import time

from crysturn.catalog import builtin_catalog
from crysturn.groups import ClosureCapExceeded
from crysturn.reidemeister import NormaliserUnavailable, spectrum


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    catalog = builtin_catalog()
    header = f"{'entry':<14} {'|F|':>4} {'tf':>3} {'|N_F|':>8} {'R-inf':>7}  spectrum"
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for name in catalog.names():
        entry = catalog.entry(name)
        group = entry.group()
        try:
            computed = spectrum(group)
        except (NormaliserUnavailable, ClosureCapExceeded) as exc:
            nf = "absent" if isinstance(exc, NormaliserUnavailable) else "infinite"
            rinf = "?"
            annotated = entry.expected.get("spectrum")
            spec = f"(annotated: {annotated})" if annotated else ""
        else:
            nf = str(computed.normaliser_order)
            rinf = "no" if computed.finite_values else "yes"
            spec = "{" + ", ".join(map(str, computed.finite_values)) + "} + inf"
        tf = "*" if group.is_bieberbach() else ""
        print(f"{name:<14} {group.order:>4} {tf:>3} {nf:>8} {rinf:>7}  {spec}")
    print(f"\n{len(catalog.names())} entries in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
