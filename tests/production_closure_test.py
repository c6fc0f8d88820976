#!/usr/bin/env python3
"""Production-closure guard: no production library may reach reference code.

The reference algorithms (src/reference/, library planorder_reference) are
linked by tests, the sim, benches and examples, never by a production
library. This test collects every strong `planorder::` symbol the reference
archive defines and fails if any of them appears, defined or undefined, in a
production archive: an undefined one means production code calls reference
code, a defined one means the code was copied back.

Usage:
  production_closure_test.py --nm=NM --reference=LIB.a PRODUCTION.a...
"""

import argparse
import subprocess
import sys

# nm symbol types of strong definitions: text, data, bss, read-only data.
STRONG_TYPES = set("TDBR")


def symbols(nm, archive, defined_only):
    """(type, demangled name) of every symbol in `archive`."""
    args = [nm, "-C"] + (["--defined-only"] if defined_only else []) + [archive]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    result = []
    for line in out.splitlines():
        # "<addr> <type> <name>" for definitions, "<spaces> U <name>" for
        # references; member headers ("x.o:") and blank lines have no type.
        parts = line.split(None, 2) if line[:1] != " " else line.split(None, 1)
        if len(parts) == 3:
            result.append((parts[1], parts[2]))
        elif len(parts) == 2 and len(parts[0]) == 1:
            result.append((parts[0], parts[1]))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nm", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("production", nargs="+")
    args = parser.parse_args()

    reference = {
        name
        for kind, name in symbols(args.nm, args.reference, defined_only=True)
        if kind in STRONG_TYPES and "planorder::" in name
    }
    if not reference:
        print(f"no strong planorder:: symbols in {args.reference}")
        return 1

    leaks = []
    for archive in args.production:
        for kind, name in symbols(args.nm, archive, defined_only=False):
            if name in reference:
                leaks.append(f"{archive}: {kind} {name}")
    for leak in sorted(set(leaks)):
        print(leak)
    print(
        f"{len(reference)} reference symbols, {len(args.production)} "
        f"production archives, {len(set(leaks))} leaks"
    )
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main())
