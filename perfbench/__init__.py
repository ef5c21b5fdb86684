"""End-to-end benchmark of the UpKit reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints
one JSON result as its last line.  See ``perfbench/README.md`` for the
workloads, the metrics and which layer should move which metric.

The benchmark drives the program only through its public API and
imports it from ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals; inside the checkout, removed after a run.
WORK = os.path.join(ROOT, ".perfbench-work")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def ensure_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` or raise."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram("no src/repro package under %s" % ROOT)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
