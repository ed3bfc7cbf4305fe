"""Wall-clock performance instrumentation for the simulator hot paths.

The simulator's *results* are functions of simulated time only; this
package watches the other axis — how much real CPU those results cost.
:data:`counters` is the :class:`~repro.perf.counters.PerfCounters` view
of the declared fields; the event loop, the interfaces, and the stream
cipher count into the :mod:`repro.obs.metrics` registry behind it, and
:func:`render_report` prints them.  Where the wall-clock seconds went,
layer by layer, is the benchmark suite's ``--trace`` profile.
"""

from repro.perf.counters import PerfCounters, counters
from repro.perf.report import render_report

__all__ = [
    "PerfCounters",
    "counters",
    "render_report",
]
