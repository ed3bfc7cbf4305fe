"""What a benchmark repetition's fresh interpreter builds before its timed
region: a cold start compiles every module it imports and runs every class
body, so it should import only what runs and generate no code for wire
types.  The check runs in a subprocess that imports what one repetition
of ``benchmarks/suite/`` imports (ci.yml runs this file by itself as
"Cold start imports only what runs")."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Modules no suite workload runs: a Browser, Cover, Multipath,
#: Avoidance, Measure or PolicyQuery function, an exporter, the perf
#: report, a packet trace or an HTTP fetch.
UNRUN = ("repro.functions.browser", "repro.functions.cover",
         "repro.functions.multipath", "repro.functions.avoidance",
         "repro.functions.measure", "repro.functions.policyquery",
         "repro.obs.export", "repro.perf.report", "repro.netsim.trace",
         "repro.netsim.http")

_SCRIPT = '''
import dataclasses, json, sys
sys.path[:0] = sys.argv[1:3]
import rep, workloads     # what one repetition imports
from repro.core.messages import Frame
from repro.util.spec import Record

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)

print(json.dumps({
    "modules": sorted(sys.modules),
    "dataclasses": sorted({cls.__qualname__ for root in (Frame, Record)
                           for cls in (root, *subclasses(root))
                           if dataclasses.is_dataclass(cls)}),
}))
'''


def test_a_repetition_imports_only_what_runs_and_builds_no_wire_code():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "benchmarks" / "suite"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert [name for name in UNRUN if name in seen["modules"]] == []
    assert seen["dataclasses"] == []
