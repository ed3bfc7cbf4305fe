"""A speed probe beside every repetition: how fast was its CPU meanwhile?

The sandbox this suite was built in changes speed under the benchmark:
with nothing else running and no steal time, repetitions of one workload
on one input took from 4.8 s to 7.1 s within a quarter of an hour, and
medians of three still spread 15-20% (README, "Why host times are
speed-normalised").  A regression bound means nothing on raw seconds
there.

So ``run.py`` starts this file as a **sidecar process** before each
repetition, pinned to the CPU the repetition is pinned to (the speed
changes per CPU: a probe on the other one steadies nothing).  Every
``INTERVAL_S`` it wakes, pre-empts the repetition, and times one of two
fixed kernels, in turn — *compute* (SHA-256 and modular exponentiation:
what ``crypto.*`` asks of C) and *interpreter* (a dict-and-integer loop:
what everything else asks of the bytecode loop).  The two do not slow
down together, and no workload is all one or all the other, so the CPU's
speed is taken as their even blend (weighted blends and single kernels
were tried: none beat it on every workload; README).  A stretch of the
repetition's wall time is then converted to *nominal seconds*: the time
it would have taken had both kernels run at their nominal durations
throughout, with the sidecar's own CPU time taken out.

The sidecar is a process of its own so that nothing the program does to
its interpreter can reach it: no shared heap, allocator, collector or
GIL.  It does share the core's caches, so the kernels' working set is
kept to a few KiB: arriving cold costs them about 1%.

The kernels, their nominal durations and the blend are part of the
benchmark's definition: a change to any of them redefines every
host-time metric, and is a change of the benchmark, not of the program.
Nothing is ever compared *against* the nominal durations; they fix the
unit (a nominal second is a second on a CPU that runs the kernels in
these times), and only ratios between runs carry meaning.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

#: Seconds between probe samples; the kernels alternate, so each is
#: sampled every other tick.  The sidecar takes about 4% of the CPU.
INTERVAL_S = 0.01

_BLOCK = b"\x5a" * 4096
_MODULUS = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437", 16)
_EXPONENT = (1 << 255) | 0x5DEECE66D


def compute_kernel() -> int:
    """Fixed C-side work: SHA-256 over 30 x 4 KiB and one modexp."""
    digest = hashlib.sha256()
    for _ in range(30):
        digest.update(_BLOCK)
    digest.digest()
    return pow(3, _EXPONENT, _MODULUS)


def interpreter_kernel() -> int:
    """Fixed bytecode-side work: 3000 rounds of dict and integer traffic."""
    table, total = {}, 0
    for i in range(3000):
        table[i & 255] = i
        total += table[i & 255] ^ i
    return total


#: (kernel, its nominal duration in seconds): see the module docstring.
KERNELS = ((compute_kernel, 330e-6), (interpreter_kernel, 190e-6))


def _sidecar_main(cpu: int) -> None:
    """Sample on ``cpu`` until SIGTERM, then print the samples as JSON.

    Also stops when its parent is gone, so a killed harness leaves no
    process behind.
    """
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    #: per kernel: (perf_counter at start, duration) of every sample
    samples: tuple = tuple([] for _ in KERNELS)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    print("ready", flush=True)
    ticks = 0
    while not stopping and os.getppid() == parent:
        time.sleep(INTERVAL_S)
        which = ticks % len(KERNELS)
        ticks += 1
        started = time.perf_counter()
        KERNELS[which][0]()
        samples[which].append((started, time.perf_counter() - started))
    print(json.dumps(samples), flush=True)


class Sidecar:
    """``with Sidecar(cpu) as probe:`` samples ``cpu`` for the block's
    duration; ``perf_counter`` is one clock for every process on the box,
    so the samples line up with timestamps taken anywhere."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: tuple = tuple([] for _ in KERNELS)

    def __enter__(self) -> "Sidecar":
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu)],
            stdout=subprocess.PIPE, text=True)
        if self._process.stdout.readline().strip() != "ready":
            self._process.kill()
            self._process.wait()
            raise RuntimeError(f"speed sidecar did not start on cpu {self.cpu}")
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.terminate()
        out, _ = self._process.communicate()
        lines = out.strip().splitlines()
        if lines:
            self.samples = tuple(json.loads(lines[-1]))

    def nominal_seconds(self, start: float, end: float) -> dict:
        """Convert the wall interval ``[start, end]`` to nominal seconds.

        The repetition's share of the interval is the wall time minus
        the sidecar's samples inside it.  Samples are uniform in time,
        so the mean of ``nominal / measured`` over them is the
        time-averaged speed; an interval too short to hold a sample of
        some kernel borrows that kernel's nearest one.
        """
        raw = end - start
        speeds, probe_s = [], 0.0
        for (_kernel, nominal), samples in zip(KERNELS, self.samples):
            inside = [d for t, d in samples if start <= t <= end]
            probe_s += sum(inside)
            if not inside and samples:
                inside = [min(samples, key=lambda s: abs(s[0] - start))[1]]
            if inside:
                speeds.append(sum(nominal / d for d in inside) / len(inside))
        speed = sum(speeds) / len(speeds) if speeds else 1.0
        return {"nominal_s": (raw - probe_s) * speed, "speed": speed}

    def normalise(self, rep: dict) -> dict:
        """``rep`` with ``setup_s`` and ``wall_s`` in nominal seconds, the
        raw readings kept as ``raw_setup_s`` and ``raw_wall_s``."""
        rep = dict(rep)
        edges = {"setup_s": rep.get("spawned_at"),
                 "wall_s": rep.get("region_started_at")}
        for name, start in edges.items():
            if rep.get(name) is None:
                continue            # the repetition never got that far
            converted = self.nominal_seconds(start, start + rep[name])
            rep["raw_" + name] = rep[name]
            rep[name] = converted["nominal_s"]
            if name == "wall_s":
                rep["speed"] = converted["speed"]
        return rep


if __name__ == "__main__":
    _sidecar_main(int(sys.argv[1]))
