"""Start ``repro serve`` with the benchmark's span wrappers installed.

The wrappers go in before ``repro.cli`` runs, so fleet workers, which
are forked from this process, inherit them::

    python perfbench/traced_serve.py --trace-dir DIR serve --port 8179 --fleet 2
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-dir":
        print(__doc__, file=sys.stderr)
        return 2
    tracer.install_tracer(sys.argv[2], tracer.SERVER_ENTRY_POINTS)
    from repro.cli import main as repro_main

    return repro_main(sys.argv[3:])


if __name__ == "__main__":
    raise SystemExit(main())
