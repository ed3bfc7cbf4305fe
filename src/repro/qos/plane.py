"""The serving plane: admission → shed → place.

:class:`ServingPlane` sits between :class:`~repro.core.server.BentoServer`
and the sandbox/netsim layers and owns every quality-of-service decision
the box makes:

* ``REQUEST_IMAGE`` passes through **slot admission** (bounded queue,
  priority wake order, structured ``retry_after`` refusals) and — under
  shed pressure — a hashcash **client puzzle**;
* ``LOAD_FUNCTION`` **prices** the manifest's declared ask against a
  capacity ledger, atomically;
* load is **advertised** through the directory after every admission
  change so slack-aware clients place new work on the emptiest box.

A running function is limited only by its container's cgroup caps, fixed
at load; the plane never paces it.

Everything is driven by simulated time and the server's forked RNG, so a
fixed seed replays bit-identically; with the plane absent (the default)
no code path below ever runs and behavior is byte-for-byte the same as
before this module existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import PuzzleRequired, ServerBusy
from repro.functions.ddos_defense import AdmissionPuzzle
from repro.netsim.simulator import Actor
from repro.obs.metrics import REGISTRY as _metrics
from repro.qos.admission import AdmissionController
from repro.qos.shedding import LoadShedder

#: Admission priority classes a ``request_image`` may name.  "bulk" is the
#: default and is shed first under overload; "interactive" wakes first
#: from the admission queue and is never refused by the shedder.
PRIORITY_CLASSES = ("bulk", "interactive")


@dataclass(frozen=True)
class QosConfig:
    """Knobs for one box's serving plane.

    ``slots`` defaults to the node policy's ``max_containers``;
    memory/disk capacity default to the policy totals.
    """

    slots: Optional[int] = None
    queue_depth: int = 8
    queue_timeout_s: float = 60.0
    base_retry_after_s: float = 2.0


class ServingPlane:
    """One box's admission controller and load shedder."""

    def __init__(self, server, config: Optional[QosConfig] = None) -> None:
        self.server = server
        self.config = config or QosConfig()
        policy = server.policy
        slots = self.config.slots or policy.max_containers
        self.admission = AdmissionController(
            server.sim, slots=slots,
            queue_depth=self.config.queue_depth,
            queue_timeout_s=self.config.queue_timeout_s,
            base_retry_after_s=self.config.base_retry_after_s,
            capacity_memory=policy.max_total_memory,
            capacity_disk=policy.max_total_disk,
            on_evict=self._count_shed)
        self.shedder = LoadShedder()
        # The plane's own RNG fork: puzzle challenges draw from here, so
        # enabling the plane never perturbs the server's other streams.
        self.rng = server.rng.fork("qos")
        self._puzzles: dict = {}         # connection -> outstanding puzzle
        self._key_seq = 0                # admission keys, unique per plane
        nick = server.relay.nickname
        self._m_admitted = _metrics.counter("qos_admitted", {"box": nick})
        self._m_rejected = _metrics.counter("qos_rejected", {"box": nick})
        self._m_shed = _metrics.counter("qos_shed", {"box": nick})
        self._m_queue_depth = _metrics.gauge("qos_queue_depth", {"box": nick})
        self._m_slots_free = _metrics.gauge("qos_slots_free", {"box": nick})
        self._h_wait = {
            cls: _metrics.histogram("qos_queue_wait_s", {"class": cls})
            for cls in PRIORITY_CLASSES}
        self._advertise()   # make the box discoverable as idle from birth

    # -- admission ---------------------------------------------------------

    def admit_request(self, thread: Actor, conn, message) -> object:
        """Gate one typed ``RequestImage`` frame; returns the admission key.

        The caller stores the key as the instance's ``qos_key`` once the
        container exists, or hands it to :meth:`release` if setup fails.
        Raises :class:`ServerBusy` or :class:`PuzzleRequired`.
        """
        priority = message.priority
        if priority not in PRIORITY_CLASSES:
            priority = "bulk"
        if self.shedder.refuses(priority):
            self._count_shed()
            self._m_rejected.value += 1
            self._advertise()
            raise ServerBusy("shedding load: bulk admissions suspended",
                             retry_after=self.admission.retry_after())
        self._require_puzzle(conn, message)
        self._key_seq += 1
        key = ("adm", self._key_seq)
        try:
            waited = yield from self.admission.admit(thread, key, priority)
        except ServerBusy:
            self._m_rejected.value += 1
            self._after_queue_change()
            raise
        self._h_wait[priority].observe(waited)
        self._m_admitted.value += 1
        self._after_queue_change()
        return key

    def release(self, key: object) -> None:
        """Free a slot (instance died, or setup failed before one existed).

        Any waiter the freed slot wakes resumes inside its own
        :meth:`admit_request` call, which does that request's accounting
        — nothing to count here beyond the queue-state refresh.
        """
        self.admission.release(key)
        self._after_queue_change()

    def price_manifest(self, instance, manifest) -> None:
        """Reserve the manifest's declared ask on the capacity ledger."""
        key = instance.qos_key
        if key is None:
            return
        try:
            self.admission.price(key, manifest)
        except ServerBusy:
            self._m_rejected.value += 1
            raise
        self._advertise()

    # -- puzzles -----------------------------------------------------------

    def _require_puzzle(self, conn, message) -> None:
        """Demand (and verify) a proof of work while shedding."""
        if not self.shedder.demands_puzzle():
            return
        outstanding = self._puzzles.get(conn)
        if outstanding is not None and outstanding.check(
                message.pow_challenge, message.pow_nonce):
            del self._puzzles[conn]
            return
        puzzle = AdmissionPuzzle.issue(self.rng,
                                       self.shedder.puzzle_difficulty)
        self._puzzles[conn] = puzzle
        self._m_rejected.value += 1
        raise PuzzleRequired("admission requires proof of work",
                             challenge=puzzle.challenge,
                             difficulty=puzzle.difficulty_bits)

    def session_ended(self, conn) -> None:
        """Forget ``conn``'s unsolved puzzle: nobody can answer it now."""
        self._puzzles.pop(conn, None)

    # -- shedding & advertisement ------------------------------------------

    def _count_shed(self, _waiter=None) -> None:
        self._m_shed.value += 1

    def _after_queue_change(self) -> None:
        """Re-evaluate shed state and re-advertise after any transition."""
        self.shedder.update(self.admission.queue_len,
                            self.admission.queue_depth)
        self._m_queue_depth.set(self.admission.queue_len)
        self._m_slots_free.set(self.admission.slots_free)
        self._advertise()

    def load_report(self) -> dict:
        """What this box tells the directory about itself."""
        return {
            "slots_free": self.admission.slots_free,
            "slots": self.admission.slots,
            "queue_len": self.admission.queue_len,
            "queue_depth": self.admission.queue_depth,
            "shedding": self.shedder.shedding,
            "mem_free": self.admission.ledger.headroom("memory"),
            "asof": self.server.sim.now,
        }

    def _advertise(self) -> None:
        self.server.directory.advertise_load(
            self.server.relay.fingerprint, self.load_report())
