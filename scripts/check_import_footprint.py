"""Check that the package's entry points import without scipy or networkx.

Both are test-only oracles (``pip install -e .[dev]``); the runtime
dependency is numpy alone.  Imports the public entry points in this fresh
interpreter and exits non-zero, naming the offenders, if either module
was loaded.  Checks module presence, not timing, so it is deterministic.

Usage: PYTHONPATH=src python scripts/check_import_footprint.py
"""

import importlib
import sys

ENTRY_POINTS = ("repro.experiments", "repro.experiments.cli", "repro.surrogate", "repro.exporting")
FORBIDDEN = ("scipy", "networkx")


def main() -> int:
    for module in ENTRY_POINTS:
        importlib.import_module(module)
    loaded = sorted(name for name in FORBIDDEN if name in sys.modules)
    if loaded:
        print(f"runtime import path loads test-only modules: {', '.join(loaded)}")
        return 1
    print(f"import footprint OK: {len(sys.modules)} modules, none of {', '.join(FORBIDDEN)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
