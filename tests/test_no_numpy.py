"""The import graph is pinned: nothing outside ``repro.fingerprint`` needs
numpy.  Each check runs in a subprocess whose ``sys.modules["numpy"]`` is
``None``, so that any ``import numpy`` raises even where numpy is installed
(ci.yml runs this file by itself as "core runs without numpy")."""

import os
import subprocess
import sys

_BLOCK = 'import sys; sys.modules["numpy"] = None\n'
_CORE = _BLOCK + '''
import importlib
for name in ("repro.cli", "repro.functions", "repro.workload.runner",
             "repro.chaos", "repro.chain", "repro.qos"):
    importlib.import_module(name)

from repro.coding import decode_shards, encode_shards
data = bytes(range(256)) * 40 + b"tail"
shards = encode_shards(data, 6, 3)
assert decode_shards([shards[5], shards[1], shards[3]], 3, len(data)) == data

sys.path.insert(0, sys.argv[1])
from test_functions_advanced import TestShard   # each builds a fresh network
TestShard().test_scatter_gather_roundtrip()
TestShard().test_gather_survives_any_loss_within_budget()

assert not [name for name in sys.modules if name.startswith("numpy.")]
print("core ran without numpy")
'''


def _run(script, *args):
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300)


def test_core_imports_and_shards_without_numpy():
    done = _run(_CORE, os.path.dirname(__file__))
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("core ran without numpy\n")


def test_fingerprint_scenario_names_the_extra():
    done = _run(_BLOCK + 'from repro.cli import main\n'
                'sys.exit(main(["fingerprint"]))')
    assert done.returncode == 2, done.stderr
    assert done.stdout == ("fingerprint needs numpy: "
                           "pip install 'repro[fingerprint]'\n")
