"""The five workloads: what each sets up, times, and verifies.

Each workload is a class with two steps.  ``run(region)`` builds what
the measured work needs (that cost is ``setup_s``), does the measured
work inside ``with region:``, and may go on to read results back.
``verify`` then checks the outputs and returns an :class:`Outcome`.  The
program under test only ever sees inputs generated here from the seed.

Why these five (one sentence each; the long form is in README.md):

* ``mesh-sessions`` — netsim does all the work; every other layer none.
* ``put-real`` — forward-direction bulk through real cell crypto.
* ``get-real`` — the same layers the other way round.
* ``session-churn`` — per-session fixed cost; payload is negligible, so
  it is the bypass workload for any cell-crypto change.
* ``cross-plane`` — the only workload where qos, migrate, chaos and the
  workload plane run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Optional

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.dropbox import DropboxFunction
from repro.functions.kvstore import KvStoreFunction
from repro.netsim.scenarios import MeshScenario
from repro.netsim.shard import ShardedSimulator
from repro.netsim.simulator import Join
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom
from repro.workload.generator import generate
from repro.workload.presets import preset
from repro.workload.runner import run_workload
from repro.workload.slo import build_report
# The planes the cross-plane preset switches on are imported lazily by
# the program; import them here so that one-off cost is set-up, not
# measured work.
import repro.migrate  # noqa: F401
import repro.qos  # noqa: F401

from tracing import Spans

MB = 1024 * 1024

#: ``--smoke`` divides the sized dimension of every workload by this.
SMOKE_DIVISOR = 20


@dataclasses.dataclass
class Outcome:
    """What one repetition's verification established."""

    attempted: int
    ok: int
    payload_bytes: int
    latencies: list          # simulated seconds, one per verified op
    digest: str              # sha256 over the deterministic results;
                             # rep.py mixes the program's counters in


def _digest(*parts) -> str:
    """sha256 over the canonical JSON of ``parts`` (bytes hashed raw)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(bytes(part))
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()


class Workload:
    """Base: holds the seed, the scale and the span recorder."""

    name = ""
    #: closed/open loop and client count, printed with the results.
    loop = ""
    #: Host seconds of the simulation runs the program's event counter
    #: covers, where that is more than the timed region.
    events_host_s: Optional[float] = None

    def __init__(self, seed: int, smoke: bool, spans: Spans) -> None:
        self.seed = seed
        self.smoke = smoke
        self.spans = spans

    def scaled(self, full: int) -> int:
        return max(1, full // SMOKE_DIVISOR) if self.smoke else full

    def planned_ops(self) -> int:
        """Ops the timed region attempts (all failed if the run raises)."""
        raise NotImplementedError

    def run(self, region) -> None:
        """Set up, then do the measured work inside ``with region:``."""
        raise NotImplementedError

    def verify(self) -> Outcome:
        raise NotImplementedError


# -- mesh-sessions ----------------------------------------------------------


class MeshSessions(Workload):
    """25k request/ack sessions over a grouped mesh: no Tor, no Bento.

    Open loop in simulated time: every session starts at its seeded
    instant inside the start window whether or not earlier ones finished,
    and its latency runs from that due time.
    """

    name = "mesh-sessions"
    loop = "open loop, seeded start window"

    def planned_ops(self) -> int:
        return self.scaled(25_000)

    def run(self, region) -> None:
        self.scenario = MeshScenario(
            n_sessions=self.planned_ops(), n_groups=8, nodes_per_group=16,
            messages_per_session=3, message_bytes=4096, seed=self.seed)
        with region:
            self.result = ShardedSimulator(self.scenario, workers=1,
                                           seed=self.seed).run()

    def verify(self) -> Outcome:
        scenario = self.scenario
        due = {sid: start for sid, _c, _s, start in scenario.sessions()}
        latencies = []
        for when, _node, _seq, kind, attrs in self.result["records"]:
            if kind != "done":
                raise AssertionError(f"session {attrs.get('session')} "
                                     f"ended as {kind}: {attrs}")
            latencies.append(when - due.pop(attrs["session"]))
        if due:
            raise AssertionError(f"{len(due)} sessions left no record")
        per_session = scenario.messages_per_session * (
            scenario.message_bytes + scenario.ack_bytes)
        return Outcome(
            attempted=scenario.n_sessions, ok=len(latencies),
            payload_bytes=len(latencies) * per_session, latencies=latencies,
            digest=_digest(self.result["trace"], self.result["sim_time"]))


# -- shared Tor + Bento deployment -----------------------------------------


class _BentoDeployment(Workload):
    """A 9-relay Tor network with Bento boxes and attested images.

    The whole repetition is one simulation run driven by one actor
    (``flow``): ``Simulator.run`` returns only when the event queue is
    empty, so set-up, the timed region and the read-back cannot be
    separate runs without the function under test timing out in between.
    The kernel publishes its event count when that run returns, so
    ``netsim.kernel.events`` counts the whole run, and ``events_host_s``
    is the host time of the whole run to match.
    """

    fast_crypto = False

    def run(self, region) -> None:
        self.net = TorTestNetwork(n_relays=9, seed=f"suite-{self.seed}",
                                  fast_crypto=self.fast_crypto,
                                  bento_fraction=0.34)
        self.sim = self.net.sim
        self.ias = IntelAttestationService(self.sim.rng.fork("ias"))
        self.servers = [BentoServer(relay, self.net.authority, ias=self.ias)
                        for relay in self.net.bento_boxes()]
        self.spans.sim_clock = lambda: self.sim.now
        started = time.perf_counter()
        self.sim.run_until_done(self.sim.spawn(self.flow, region))
        self.events_host_s = time.perf_counter() - started

    def flow(self, task, region):
        raise NotImplementedError

    def new_client(self, name: str):
        return BentoClient(self.net.create_client(name), ias=self.ias)

    def open_session(self, task, client, sid: str, query_policy: bool):
        """circuit → stream → [policy] → attested image, one span each."""
        spans = self.spans
        box = client.pick_box()
        circuit = yield from spans.wrap(
            "circuit_build", sid,
            client.tor.build_circuit(task, final_hop=box))
        session = yield from spans.wrap(
            "stream_open", sid, client.connect(task, box, circuit=circuit))
        if query_policy:
            yield from spans.wrap("query_policy", sid,
                                  session.query_policy(task))
        yield from spans.wrap(
            "request_image", sid,
            session.request_image(task, "python-op-sgx", verify="stapled"))
        return session


class _DropboxBulk(_BentoDeployment):
    """One client, one attested Dropbox, 4 MB files, real cell crypto."""

    loop = "closed loop, 1 client"
    n_files = 3

    def planned_ops(self) -> int:
        return self.n_files

    def flow(self, task, region):
        rng = DeterministicRandom(self.seed).fork("payloads")
        size = self.scaled(4 * MB)
        self.files = {f"file-{i}.bin": rng.randbytes(size)
                      for i in range(self.n_files)}
        self.pick = rng.choice(sorted(self.files))
        self.sim_latencies: list = []
        session = yield from self.open_session(
            task, self.new_client("suite-client"), "s0", query_policy=False)
        yield from self.spans.wrap(
            "load_function", "s0",
            session.load_function(task, DropboxFunction.SOURCE,
                                  DropboxFunction.manifest()))
        DropboxFunction.start(session)
        yield from self.before(task, session)
        with region:
            yield from self.timed(task, session)
        self.sim_end = self.sim.now
        yield from self.after(task, session)
        yield from DropboxFunction.close(task, session)
        yield from session.shutdown(task)
        session.close()

    def before(self, task, session):
        """Untimed work on the open session (counted in ``setup_s``)."""
        return
        yield

    def timed(self, task, session):
        raise NotImplementedError

    def after(self, task, session):
        """Untimed read-back for ``verify``."""
        return
        yield

    def timed_op(self, task, phase: str, gen):
        """One spanned Dropbox call with its simulated latency recorded."""
        began = self.sim.now
        reply = yield from self.spans.wrap(phase, "s0", gen)
        self.sim_latencies.append(self.sim.now - began)
        return reply

    def digest(self) -> str:
        return _digest(self.sim_latencies, self.sim_end)


class PutReal(_DropboxBulk):
    """Timed: three ``put`` calls of distinct 4 MB files."""

    name = "put-real"

    def timed(self, task, session):
        self.acks = []
        for name, data in self.files.items():
            self.acks.append((yield from self.timed_op(
                task, "put", DropboxFunction.put(task, session, name, data))))

    def after(self, task, session):
        self.listed = yield from DropboxFunction.list_names(task, session)
        self.read_back = yield from DropboxFunction.get(
            task, session, self.pick)

    def verify(self) -> Outcome:
        if self.acks != [True] * self.n_files:
            raise AssertionError(f"put acks: {self.acks}")
        if sorted(self.listed) != sorted(self.files):
            raise AssertionError(f"box lists {self.listed}")
        if self.read_back != self.files[self.pick]:
            raise AssertionError(f"{self.pick} read back differently")
        return Outcome(
            attempted=self.n_files, ok=self.n_files,
            payload_bytes=sum(len(d) for d in self.files.values()),
            latencies=self.sim_latencies, digest=self.digest())


class GetReal(_DropboxBulk):
    """Set-up puts one 4 MB file; timed: three ``get`` calls of it."""

    name = "get-real"

    def before(self, task, session):
        stored = yield from self.spans.wrap(
            "put", "s0", DropboxFunction.put(
                task, session, self.pick, self.files[self.pick]))
        if not stored:
            raise AssertionError("seeding put was refused")

    def timed(self, task, session):
        self.replies = []
        for _ in range(self.n_files):
            self.replies.append((yield from self.timed_op(
                task, "get", DropboxFunction.get(task, session, self.pick))))

    def verify(self) -> Outcome:
        expected = self.files[self.pick]
        good = sum(1 for reply in self.replies if reply == expected)
        if good != self.n_files:
            raise AssertionError(
                f"{self.n_files - good} of {self.n_files} gets differ")
        return Outcome(attempted=self.n_files, ok=good,
                       payload_bytes=good * len(expected),
                       latencies=self.sim_latencies, digest=self.digest())


# -- session-churn ------------------------------------------------------------


class SessionChurn(_BentoDeployment):
    """Back-to-back short attested sessions; payload is negligible.

    Two clients run concurrently (closed loop, each waits for its own
    replies).  A traced repetition runs the same 200 sessions from one
    client, so the host time between a call and its return belongs to
    that call; its simulated schedule differs, so its digest is not
    compared with the untraced repetitions'.
    """

    name = "session-churn"
    loop = "closed loop, 2 clients"
    fast_crypto = True
    n_clients = 2
    ops_per_session = 3

    def planned_ops(self) -> int:
        return self.scaled(200)

    def flow(self, task, region):
        n_clients = 1 if self.spans.enabled else self.n_clients
        clients = [self.new_client(f"churn-{i}") for i in range(n_clients)]
        per_client = self.planned_ops() // n_clients
        self.sessions: list = []      # (sim latency, counter values, bytes)

        def client_loop(client_task, index, client):
            for n in range(per_client):
                yield from self.one_session(client_task, client,
                                            f"c{index}-{n}")

        with region:
            loops = [self.sim.spawn(client_loop, index, client)
                     for index, client in enumerate(clients)]
            for loop in loops:
                yield Join(loop)
        self.sim_end = self.sim.now
        for loop in loops:
            if loop.exception is not None:
                raise loop.exception

    def one_session(self, task, client, sid: str):
        spans = self.spans
        began = self.sim.now
        session = yield from self.open_session(task, client, sid,
                                               query_policy=True)
        yield from spans.wrap(
            "load_function", sid,
            session.load_function(
                task, KvStoreFunction.SOURCE,
                KvStoreFunction.manifest(image="python-op-sgx")))
        KvStoreFunction.start(session)
        values = []
        for _ in range(self.ops_per_session):
            values.append((yield from spans.wrap(
                "invoke", sid, KvStoreFunction.incr(task, session, "n"))))
        yield from spans.wrap("shutdown", sid, session.shutdown(task))
        session.close()
        request = len(json.dumps({"op": "incr", "key": "n"}))
        moved = len(KvStoreFunction.SOURCE) + sum(
            request + len(json.dumps({"value": v})) for v in values)
        self.sessions.append((self.sim.now - began, values, moved))

    def verify(self) -> Outcome:
        expected = list(range(1, self.ops_per_session + 1))
        good = [s for s in self.sessions if s[1] == expected]
        if len(good) != self.planned_ops():
            raise AssertionError(
                f"{len(good)} of {self.planned_ops()} sessions counted 1,2,3")
        latencies = [s[0] for s in good]
        return Outcome(
            attempted=self.planned_ops(), ok=len(good),
            payload_bytes=sum(s[2] for s in good), latencies=latencies,
            digest=_digest(latencies, self.sim_end))


# -- cross-plane --------------------------------------------------------------


class CrossPlane(Workload):
    """The ``cross-plane`` preset at full scale: qos + chaos + migrate on.

    Open loop in simulated time: poisson, flash, churn and burst arrival
    processes fire on schedule, and an arrival's latency runs from its
    due time.  Topology, arrivals and the fault schedule all hang off
    the one spec seed, which is ``--seed``; at this commit some seeds
    crash the run (README, "Known bugs"), and such a repetition is
    reported as failed like any other.
    """

    name = "cross-plane"
    loop = "open loop, poisson/flash/churn/burst arrivals"
    #: Tenant functions whose visitors download ``payload_bytes``.
    PAYLOAD_FUNCTIONS = ("loadbalancer", "shard", "ddos_defense")

    def __init__(self, seed: int, smoke: bool, spans: Spans) -> None:
        super().__init__(seed, smoke, spans)
        self.spec = dataclasses.replace(
            preset("cross-plane", full=not smoke), seed=seed)
        # Generated here, untimed, only to know how many arrivals are
        # attempted should the run raise; run_workload generates its own.
        self.n_arrivals = len(generate(self.spec).events)

    def planned_ops(self) -> int:
        return self.n_arrivals

    def run(self, region) -> None:
        with region:
            self.result = run_workload(self.spec)
            self.report = build_report(self.spec, self.result)

    def verify(self) -> Outcome:
        result = self.result
        if not result["all_finished"]:
            raise AssertionError(f"unfinished actors: {result['unfinished']}")
        sessions = self.report["metrics"]["sessions"]
        payload = {t.name: t.payload_bytes for t in self.spec.tenants
                   if t.function in self.PAYLOAD_FUNCTIONS}
        latencies, moved = [], 0
        for name, tenant in sorted(result["tenants"].items()):
            for record in tenant["records"]:
                if record["outcome"] == "ok" and record["done"] is not None:
                    latencies.append(record["done"] - record["t"])
                    moved += payload.get(name, 0)
        # failed_share is 1 - goodput: a ddos tenant's attack arrival that
        # was turned away is the service working, so it is not a failure,
        # though it is not a completed op either.
        good = round(sessions["goodput"] * sessions["total"])
        return Outcome(
            attempted=sessions["total"], ok=good, payload_bytes=moved,
            latencies=latencies,
            digest=_digest(result["tenants"], result["sim_time"],
                           result["counters"]))


WORKLOADS = {cls.name: cls for cls in
             (MeshSessions, PutReal, GetReal, SessionChurn, CrossPlane)}
