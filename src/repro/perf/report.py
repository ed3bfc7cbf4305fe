"""Human-readable rendering of the perf counters."""

from __future__ import annotations

from repro.perf.counters import counters


def render_report() -> str:
    """The counters as an aligned text table."""
    lines = ["perf counters"]
    for name, value in counters.snapshot().items():
        lines.append(f"  {name:20s} {value:>14,}")
    return "\n".join(lines)
