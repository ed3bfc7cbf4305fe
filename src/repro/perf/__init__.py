"""Wall-clock performance instrumentation for the simulator hot paths.

The simulator's *results* are functions of simulated time only; this
package watches the other axis — how much real CPU those results cost.
Three tools, all zero-dependency and cheap enough to stay on permanently:

* :data:`counters` — the :class:`~repro.perf.counters.PerfCounters`
  view of the declared fields; the event loop, the interfaces, and the
  stream cipher count into the :mod:`repro.obs.metrics` registry behind it.
* :func:`timed_section` — a context manager accumulating wall-clock time
  per named section (used by the benchmarks and ``perf-report``).
* :mod:`repro.perf.profiling` — an opt-in cProfile hook around
  :meth:`~repro.netsim.simulator.Simulator.run`.
"""

from repro.perf.counters import PerfCounters, counters
from repro.perf.profiling import active_profile, install_profile, profile_to_text
from repro.perf.report import render_report
from repro.perf.timing import section_times, timed_section

__all__ = [
    "PerfCounters",
    "counters",
    "timed_section",
    "section_times",
    "install_profile",
    "active_profile",
    "profile_to_text",
    "render_report",
]
