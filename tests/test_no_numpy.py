"""The import graph is pinned: nothing in ``repro`` needs numpy, the
website-fingerprinting attacker included.  Every module under ``repro``
is imported by name, whatever its package ``__init__`` re-exports, and
the shard and fingerprint paths then run.  The check runs in a subprocess
whose ``sys.modules["numpy"]`` is ``None``, so that importing it raises
even where it is installed (ci.yml runs this file by itself as "the whole
package runs without numpy")."""

import os
import subprocess
import sys

_SCRIPT = '''
import sys
sys.modules["numpy"] = None

import importlib, pkgutil, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":     # it runs the CLI when imported
        importlib.import_module(module.name)

from repro.coding import decode_shards, encode_shards
data = bytes(range(256)) * 40 + b"tail"
shards = encode_shards(data, 6, 3)
assert decode_shards([shards[5], shards[1], shards[3]], 3, len(data)) == data

from repro.fingerprint import KnnClassifier, evaluate_split, extract_features
from repro.netsim.trace import INCOMING, OUTGOING, PacketRecord
X, y = [], []
for visit in range(4):
    for site in range(5):
        trace = [PacketRecord(0.01 * i + 0.001 * visit,
                              OUTGOING if i % (site + 2) else INCOMING,
                              514 * (1 + site))
                 for i in range(40 + 10 * site)]
        X.append(extract_features(trace))
        y.append(site)
assert evaluate_split(KnnClassifier(k=3), X, y) == 1.0

sys.path.insert(0, sys.argv[1])
from test_functions_advanced import TestShard   # each builds a fresh network
TestShard().test_scatter_gather_roundtrip()
TestShard().test_gather_survives_any_loss_within_budget()

assert not [name for name in sys.modules if name.startswith("numpy.")]
print("ran without numpy")
'''



def test_core_imports_and_shards_without_numpy():
    done = subprocess.run([sys.executable, "-c", _SCRIPT,
                           os.path.dirname(__file__)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ran without numpy\n")
