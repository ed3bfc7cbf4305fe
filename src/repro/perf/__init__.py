"""Wall-clock performance instrumentation for the simulator hot paths.

The simulator's *results* are functions of simulated time only; this
package watches the other axis — how much real CPU those results cost.
:data:`repro.perf.counters.counters` is the view of the declared fields;
the event loop, the interfaces, and the stream cipher count into the
:mod:`repro.obs.metrics` registry behind it, and
:func:`repro.perf.report.render_report` prints them.  Where the wall-clock
seconds went, layer by layer, is the benchmark suite's ``--trace``
profile.  The package re-exports nothing, so importing the counters does
not compile the report.
"""
