"""The one table that says which layer a source file belongs to.

A layer is one of this repo's packages, split where ROADMAP item 1 asks
for a finer cut (event kernel vs link model, cell crypto vs circuit
logic, stream cipher vs public-key work).  Every host second of a traced
repetition is charged to exactly one layer; ``classify`` is the only
place that decision is made.
"""

from __future__ import annotations

import pathlib
from typing import Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
SUITE_ROOT = pathlib.Path(__file__).resolve().parent

#: Report order: bottom of the stack first, planes after, harness last.
LAYERS = (
    "netsim.kernel", "netsim.link", "crypto.stream", "crypto.pk",
    "tor.cell", "tor.circuit", "sandbox", "enclave", "core", "functions",
    "qos", "migrate", "chain", "chaos", "workload", "obs", "util", "driver",
)

#: Path prefix under ``src/repro/`` -> layer; the longest matching prefix
#: wins, so a file rule overrides its package's rule.  A file that no
#: prefix matches has no layer, and the suite's self-test fails on it: a
#: new module must be placed here on purpose.
RULES = {
    "netsim/simulator.py": "netsim.kernel",
    "netsim/shard.py": "netsim.kernel",
    "netsim/partition.py": "netsim.kernel",
    "netsim/faults.py": "chaos",
    "netsim/": "netsim.link",
    "crypto/stream.py": "crypto.stream",
    "crypto/": "crypto.pk",
    "tor/cell.py": "tor.cell",
    "tor/layercrypto.py": "tor.cell",
    "tor/": "tor.circuit",
    "stemlib/": "tor.circuit",
    "sandbox/": "sandbox",
    "enclave/": "enclave",
    "core/": "core",
    "functions/": "functions",
    "coding/": "functions",
    "fingerprint/": "functions",
    "qos/": "qos",
    "migrate/": "migrate",
    "chain/": "chain",
    "chaos.py": "chaos",
    "workload/": "workload",
    "obs/": "obs",
    "perf/": "obs",
    "util/": "util",
    "cli.py": "driver",
    "__init__.py": "driver",
    "__main__.py": "driver",
    "version.py": "driver",
}

_SRC_PREFIX = str(SRC_ROOT) + "/"
_SUITE_PREFIX = str(SUITE_ROOT) + "/"


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro/``, or None if unplaced."""
    best = ""
    for prefix in RULES:
        exact = not prefix.endswith("/")
        if (relpath == prefix if exact else relpath.startswith(prefix)) \
                and len(prefix) > len(best):
            best = prefix
    return RULES.get(best)


def classify(filename: str) -> Optional[str]:
    """Layer of a code object's filename; None for builtins and stdlib.

    None means "charge me to whoever called me": a ``pow`` or a
    ``hashlib`` call costs the layer that asked for it.  Uploaded Bento
    functions compile under ``<function:NAME>`` and count as function
    bodies wherever they were uploaded from.
    """
    if filename.startswith(_SRC_PREFIX):
        return layer_of_module(filename[len(_SRC_PREFIX):]) or "driver"
    if filename.startswith("<function:"):
        return "functions"
    if filename.startswith(_SUITE_PREFIX):
        return "driver"
    return None
