"""Observability reset shared by the test and benchmark harnesses.

The tracer and the metrics registry (which holds the perf counters too)
are process-wide singletons; any harness running more than one scenario
in a process must reset them between cases or the second case inherits
the first's numbers.  ``tests/conftest.py`` and
``benchmarks/conftest.py`` both install :func:`fresh_observability` as
an autouse fixture, so the two harnesses can never drift apart again
(they once did: the benchmark suite lacked the reset and leaked metrics
state between cases).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import REGISTRY
from repro.obs.span import TRACER

__all__ = ["reset_observability", "fresh_observability"]


def reset_observability() -> None:
    """Zero every process-wide instrumentation sink.

    Detaches any tracer log, zeroes metric values in place (cached
    counter/gauge handles stay valid; the perf counters are among them).
    """
    TRACER.detach()
    REGISTRY.reset()


@contextmanager
def fresh_observability():
    """Reset before the block and guarantee no tracer sink leaks after.

    The conftest autouse fixtures wrap each test/benchmark case in this;
    scripts driving several scenarios can use it directly.
    """
    reset_observability()
    try:
        yield
    finally:
        TRACER.detach()
