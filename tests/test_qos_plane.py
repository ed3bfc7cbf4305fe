"""The serving plane: admission, fair scheduling, shedding, placement."""

import pytest

from repro.core.client import BentoClient
from repro.core.errors import PuzzleRequired, ServerBusy
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.functions.ddos_defense import AdmissionPuzzle, solve_pow
from repro.netsim.simulator import Simulator, Sleep
from repro.obs.metrics import REGISTRY
from repro.perf.counters import counters
from repro.qos import (
    AdmissionController,
    FairQueue,
    LoadShedder,
    QosConfig,
    TokenBucket,
    rank_boxes,
)
from repro.qos.placement import pick_box_by_slack
from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom

from conftest import run_thread


# ---------------------------------------------------------------------------
# scheduler primitives
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_paced(self):
        bucket = TokenBucket(rate=100.0, burst=50.0)
        assert bucket.reserve(50.0, now=0.0) == 0.0          # burst absorbed
        delay = bucket.reserve(100.0, now=0.0)               # now in debt
        assert delay == pytest.approx(1.0)                   # 100 units @ 100/s

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket.reserve(10.0, now=0.0)
        assert bucket.available(now=1.0) == pytest.approx(10.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


class TestFairQueue:
    def test_interactive_outpaces_bulk(self):
        fq = FairQueue(rate=1000.0)
        fq.register("fast", weight=4.0, now=0.0)
        fq.register("slow", weight=1.0, now=0.0)
        # Equal charges: the heavier flow accrues 4x less virtual lag.
        fast_delay = fq.charge("fast", 1000.0, now=0.0)
        slow_delay = fq.charge("slow", 1000.0, now=0.0)
        assert slow_delay > fast_delay > 0.0
        assert slow_delay == pytest.approx(4.0 * fast_delay)

    def test_single_flow_gets_full_rate(self):
        fq = FairQueue(rate=1000.0)
        fq.register("only", weight=1.0, now=0.0)
        # 500 units at 1000/s with W=1: half a second of lag.
        assert fq.charge("only", 500.0, now=0.0) == pytest.approx(0.5)
        # After that much real time passes, the flow is caught up.
        assert fq.charge("only", 0.0, now=0.5) == 0.0
        assert fq.backlog("only", now=0.5) == pytest.approx(0.0)

    def test_unknown_flow_is_unpaced(self):
        fq = FairQueue(rate=10.0)
        assert fq.charge("ghost", 1e9, now=0.0) == 0.0

    def test_unregister_returns_share(self):
        fq = FairQueue(rate=100.0)
        fq.register("a", weight=1.0, now=0.0)
        fq.register("b", weight=1.0, now=0.0)
        fq.unregister("b", now=0.0)
        assert fq.active_flows == 1
        # With b gone, a's delay reflects the whole rate again.
        assert fq.charge("a", 100.0, now=0.0) == pytest.approx(1.0)

    def test_burst_allowance_defers_pacing(self):
        fq = FairQueue(rate=100.0, burst=100.0)
        fq.register("a", weight=1.0, now=0.0)
        assert fq.charge("a", 100.0, now=0.0) == 0.0     # inside the burst
        assert fq.charge("a", 100.0, now=0.0) > 0.0      # beyond it


# ---------------------------------------------------------------------------
# admission controller
# ---------------------------------------------------------------------------

def _controller(sim, slots=2, queue_depth=2, timeout=30.0):
    return AdmissionController(
        sim, slots=slots, queue_depth=queue_depth, queue_timeout_s=timeout,
        base_retry_after_s=2.0, capacity_memory=64, capacity_disk=64)


class TestAdmissionController:
    def test_slots_then_queue_then_refusal(self):
        sim = Simulator(seed="adm")
        adm = _controller(sim, slots=1, queue_depth=1)
        assert adm.try_admit("a")
        assert not adm.try_admit("b")

        order = []

        def queued(thread):
            yield from adm.admit(thread, "b")
            order.append(("b", sim.now))

        def refused(thread):
            yield Sleep(1.0)          # arrive after b is queued
            with pytest.raises(ServerBusy) as excinfo:
                yield from adm.admit(thread, "c")
            assert excinfo.value.retry_after > 0
            order.append(("c-refused", sim.now))

        def releaser(thread):
            yield Sleep(5.0)
            adm.release("a")

        t1 = sim.spawn(queued, name="queued")
        sim.spawn(refused, name="refused")
        sim.spawn(releaser, name="releaser")
        sim.run_until_done(t1)
        assert ("c-refused", 1.0) in order
        assert ("b", 5.0) in order
        assert adm.holds_slot("b") and not adm.holds_slot("a")

    def test_interactive_wakes_before_bulk(self):
        sim = Simulator(seed="prio")
        adm = _controller(sim, slots=1, queue_depth=4)
        adm.try_admit("holder")
        woken = []

        def worker(name, priority):
            def run(thread):
                yield from adm.admit(thread, name, priority)
                woken.append(name)
                adm.release(name)
            return run

        sim.spawn(worker("bulk-1", "bulk"), name="b1")
        sim.spawn(worker("inter-1", "interactive"), name="i1", delay=0.5)
        sim.spawn(worker("bulk-2", "bulk"), name="b2", delay=0.6)

        def releaser(thread):
            yield Sleep(2.0)
            adm.release("holder")

        done = sim.spawn(releaser, name="rel")
        sim.run_until_done(done, until=100.0)
        # The interactive waiter overtook the earlier-enqueued bulk one.
        assert woken == ["inter-1", "bulk-1", "bulk-2"]

    def test_interactive_evicts_youngest_bulk_when_full(self):
        sim = Simulator(seed="evict")
        adm = _controller(sim, slots=1, queue_depth=2)
        adm.try_admit("holder")
        outcomes = {}

        def bulk(name):
            def run(thread):
                try:
                    yield from adm.admit(thread, name, "bulk")
                    outcomes[name] = "admitted"
                    adm.release(name)
                except ServerBusy:
                    outcomes[name] = "evicted"
            return run

        def interactive(thread):
            yield Sleep(1.0)          # queue is full of bulk by now
            yield from adm.admit(thread, "vip", "interactive")
            outcomes["vip"] = "admitted"
            adm.release("vip")

        sim.spawn(bulk("bulk-old"), name="b1")
        sim.spawn(bulk("bulk-young"), name="b2", delay=0.1)
        sim.spawn(interactive, name="vip")

        def releaser(thread):
            yield Sleep(3.0)
            adm.release("holder")

        done = sim.spawn(releaser, name="rel")
        sim.run_until_done(done, until=100.0)
        assert outcomes["bulk-young"] == "evicted"     # youngest bulk shed
        assert outcomes["bulk-old"] == "admitted"
        assert outcomes["vip"] == "admitted"

    def test_queue_timeout_surfaces_as_server_busy(self):
        sim = Simulator(seed="timeout")
        adm = _controller(sim, slots=1, queue_depth=2, timeout=4.0)
        adm.try_admit("holder")

        def waiter(thread):
            with pytest.raises(ServerBusy):
                yield from adm.admit(thread, "w")
            return sim.now

        thread = sim.spawn(waiter, name="w")
        assert sim.run_until_done(thread) == 4.0
        assert adm.queue_len == 0          # timed-out waiter removed

    def test_retry_after_scales_with_queue_depth(self):
        sim = Simulator(seed="retry")
        adm = _controller(sim, slots=2, queue_depth=8)
        empty_quote = adm.retry_after()
        adm._queue.extend([None] * 4)      # simulate a deep queue
        assert adm.retry_after() > empty_quote
        adm._queue.clear()

    def test_pricing_is_atomic(self):
        sim = Simulator(seed="price")
        adm = _controller(sim)
        adm.price("a", FunctionManifest.create(
            "a", "f", {"send"}, memory_bytes=40, disk_bytes=40))
        # The second ask fits in disk but not memory: nothing must land.
        with pytest.raises(ServerBusy):
            adm.price("b", FunctionManifest.create(
                "b", "f", {"send"}, memory_bytes=40, disk_bytes=4))
        assert adm.ledger.usage["memory"] == 40
        assert adm.ledger.usage["disk"] == 40
        adm.unprice("a")
        assert adm.ledger.usage["memory"] == 0
        assert adm.ledger.usage["disk"] == 0


# ---------------------------------------------------------------------------
# shedding and placement
# ---------------------------------------------------------------------------

class TestLoadShedder:
    def test_hysteresis(self):
        shed = LoadShedder(high_watermark=0.75, low_watermark=0.25)
        assert not shed.update(2, 8)
        assert shed.update(6, 8)            # crossed high watermark
        assert shed.update(4, 8)            # still above low: stays on
        assert not shed.update(2, 8)        # drained below low: off
        assert shed.transitions == 1

    def test_refuses_bulk_but_not_interactive(self):
        shed = LoadShedder()
        shed.shedding = True
        assert shed.refuses("bulk")
        assert not shed.refuses("interactive")
        assert shed.demands_puzzle()

    def test_zero_difficulty_disables_puzzles(self):
        shed = LoadShedder(puzzle_difficulty=0)
        shed.shedding = True
        assert not shed.demands_puzzle()


class _Desc:
    def __init__(self, fp):
        self.identity_fp = fp


class TestPlacement:
    def test_ranking_order(self):
        boxes = [_Desc("dd"), _Desc("aa"), _Desc("bb"), _Desc("cc")]
        table = {
            "aa": {"slots_free": 0, "queue_len": 2, "shedding": True},
            "bb": {"slots_free": 3, "queue_len": 0, "shedding": False},
            "cc": {"slots_free": 1, "queue_len": 0, "shedding": False},
        }
        ranked = [b.identity_fp for b in rank_boxes(boxes, table)]
        # Unreported first, then by free slots, shedding box dead last.
        assert ranked == ["dd", "bb", "cc", "aa"]

    def test_fingerprint_breaks_ties(self):
        boxes = [_Desc("zz"), _Desc("aa")]
        table = {fp: {"slots_free": 1, "queue_len": 0, "shedding": False}
                 for fp in ("aa", "zz")}
        assert [b.identity_fp for b in rank_boxes(boxes, table)] == ["aa", "zz"]

    def test_pick_is_stable_under_candidate_order(self):
        """Equal-slack boxes must pick in a seed-independent order.

        The winner may depend only on the fingerprint tie-break — never
        on the order the candidate list (or the load table's dict
        iteration) happens to arrive in.
        """
        import itertools

        fps = ["dd", "bb", "aa", "cc"]
        table = {fp: {"slots_free": 2, "queue_len": 1, "shedding": False}
                 for fp in fps}
        for perm in itertools.permutations(fps):
            boxes = [_Desc(fp) for fp in perm]
            assert pick_box_by_slack(boxes, table).identity_fp == "aa"
            # Unreported boxes outrank every reporting one, same rule.
            assert pick_box_by_slack(boxes, {}).identity_fp == "aa"
        with pytest.raises(ValueError):
            pick_box_by_slack([], table)


class TestAdmissionPuzzle:
    def test_solve_and_spend(self):
        rng = DeterministicRandom("puzzle")
        puzzle = AdmissionPuzzle.issue(rng, difficulty_bits=4)
        nonce = solve_pow(puzzle.challenge, 4)
        assert puzzle.check(puzzle.challenge, nonce)
        assert not puzzle.check(puzzle.challenge, nonce)   # single-use

    def test_rejects_wrong_challenge(self):
        rng = DeterministicRandom("puzzle2")
        puzzle = AdmissionPuzzle.issue(rng, difficulty_bits=4)
        other = AdmissionPuzzle.issue(rng, difficulty_bits=4)
        nonce = solve_pow(other.challenge, 4)
        assert not puzzle.check(other.challenge, nonce)


# ---------------------------------------------------------------------------
# cgroup ledger edge cases (satellite: charge_many rollback)
# ---------------------------------------------------------------------------

class TestChargeMany:
    def test_all_or_nothing_on_precheck(self):
        group = CGroup("g", memory=100, disk=10)
        with pytest.raises(ResourceExceeded):
            group.charge_many({"memory": 50, "disk": 50})
        assert group.usage["memory"] == 0
        assert group.usage["disk"] == 0

    def test_mid_path_failure_rolls_back(self):
        class Flaky(CGroup):
            """Fails the disk apply after the memory charge landed."""
            def charge(self, resource, amount):
                if resource == "disk" and amount > 0:
                    raise RuntimeError("injected mid-path failure")
                super().charge(resource, amount)

        group = Flaky("flaky", memory=100, disk=100)
        with pytest.raises(RuntimeError):
            group.charge_many({"memory": 60, "disk": 5})
        # The memory charge that briefly landed was rolled back.
        assert group.usage["memory"] == 0

    def test_propagates_to_parent_and_back(self):
        parent = CGroup("parent", memory=100)
        child = parent.child("child")
        child.charge_many({"memory": 30, "disk": 7})
        assert parent.usage["memory"] == 30
        child.charge("memory", -30)
        child.charge("disk", -7)
        assert parent.usage["memory"] == 0

    def test_rejects_unknown_resource(self):
        group = CGroup("g", memory=100)
        with pytest.raises(ValueError):
            group.charge_many({"gpu": 1})

    def test_slack_reports_headroom(self):
        parent = CGroup("parent", memory=100, disk=50)
        child = parent.child("child", memory=40)
        child.charge("memory", 10)
        slack = child.slack()
        assert slack["memory"] == 30          # child limit binds
        assert slack["disk"] == 50            # parent limit binds
        assert slack["cpu_ms"] is None        # unlimited


# ---------------------------------------------------------------------------
# end-to-end over a real network
# ---------------------------------------------------------------------------

def _qos_net(slots=1, queue_depth=1, queue_timeout_s=120.0,
             n_relays=8, seed="qos-e2e"):
    net = TorTestNetwork(n_relays=n_relays, seed=seed, bento_fraction=0.4)
    config = QosConfig(slots=slots, queue_depth=queue_depth,
                       queue_timeout_s=queue_timeout_s)
    net.servers = [BentoServer(r, net.authority, qos=config)
                   for r in net.bento_boxes()]
    return net


MANIFEST = FunctionManifest.create("hold", "hold", {"send", "sleep"})
HOLD_SOURCE = ("def hold(duration):\n"
               "    yield from api.sleep(duration)\n"
               "    return 'done'\n")


class TestServingPlaneE2E:
    def test_queued_request_admitted_after_release(self):
        net = _qos_net(slots=1, queue_depth=2)
        box = net.servers[0].relay
        times = {}

        def holder(thread):
            client = BentoClient(net.create_client("holder"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            yield from session.request_image(thread, "python")
            yield Sleep(40.0)
            yield from session.shutdown(thread)

        def queued(thread):
            yield Sleep(2.0)       # arrive while the slot is held
            client = BentoClient(net.create_client("queued"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            yield from session.request_image(thread, "python")
            times["admitted_at"] = net.sim.now
            yield from session.shutdown(thread)

        t = net.sim.spawn(queued, name="queued")
        net.sim.spawn(holder, name="holder")
        net.sim.run_until_done(t, until=600.0)
        # The queued client got in only after the holder released.
        assert times["admitted_at"] >= 40.0
        assert counters.qos_admitted >= 2

    def test_overflow_rejected_with_retry_after(self):
        net = _qos_net(slots=1, queue_depth=0)
        box = net.servers[0].relay

        def holder(thread):
            client = BentoClient(net.create_client("holder"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            yield from session.request_image(thread, "python")
            yield Sleep(30.0)
            yield from session.shutdown(thread)

        def overflow(thread):
            yield Sleep(2.0)
            client = BentoClient(net.create_client("overflow"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            with pytest.raises(ServerBusy) as excinfo:
                yield from session.request_image(thread, "python")
            return excinfo.value.retry_after

        t = net.sim.spawn(overflow, name="overflow")
        net.sim.spawn(holder, name="holder")
        retry_after = net.sim.run_until_done(t, until=600.0)
        assert retry_after > 0
        assert counters.qos_rejected >= 1
        assert REGISTRY.counter(
            "qos_rejected", {"box": box.nickname}).value >= 1

    def test_retrying_honors_retry_after(self):
        net = _qos_net()
        client = BentoClient(net.create_client("retrier"))
        state = {"calls": 0}

        def flaky():
            yield Sleep(0.0)
            state["calls"] += 1
            if state["calls"] == 1:
                raise ServerBusy("busy", retry_after=7.5)
            return net.sim.now

        def main(thread):
            start = net.sim.now
            finished = yield from client.retrying(
                thread, flaky, backoff_s=100.0)
            return finished - start

        # The sleep equals the server's quote, not the 100s backoff.
        assert run_thread(net, main) == pytest.approx(7.5)

    def test_shedding_demands_puzzle_and_client_solves_it(self):
        net = _qos_net(slots=4, queue_depth=4)
        server = net.servers[0]
        server.qos.shedder.shedding = True     # force shed pressure
        box = server.relay

        def main(thread):
            client = BentoClient(net.create_client("solver"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            # Interactive work is admitted under shedding — after the
            # proof of work, which request_image solves transparently.
            yield from session.request_image(
                thread, "python", priority="interactive")
            yield from session.shutdown(thread)
            return True

        assert run_thread(net, main, until=600.0)
        assert counters.qos_rejected >= 1      # the puzzle demand
        assert counters.qos_admitted >= 1      # the solved resubmission

    def test_shedding_refuses_bulk_and_unsolved_clients(self):
        net = _qos_net(slots=4, queue_depth=4)
        server = net.servers[0]
        server.qos.shedder.shedding = True
        box = server.relay

        def main(thread):
            client = BentoClient(net.create_client("refused"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            with pytest.raises(PuzzleRequired) as excinfo:
                yield from session.request_image(
                    thread, "python", solve_puzzles=False)
            assert excinfo.value.difficulty > 0
            assert len(excinfo.value.challenge) == 16

            # Solving the puzzle is not enough for bulk work: the shedder
            # still refuses it (queue capacity is reserved for interactive).
            with pytest.raises(ServerBusy):
                yield from session.request_image(thread, "python")
            return True

        assert run_thread(net, main, until=600.0)
        assert counters.qos_shed >= 1

    def test_load_reports_steer_placement(self):
        net = _qos_net(slots=1, queue_depth=4, n_relays=10, seed="qos-place")
        assert len(net.servers) >= 2
        busy, idle = net.servers[0], net.servers[1]

        def main(thread):
            client = BentoClient(net.create_client("placer"))
            descriptor = net.authority.consensus().find(busy.relay.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            # occupy busy's one slot
            yield from session.request_image(thread, "python")
            picked = client.pick_box_by_slack()
            yield from session.shutdown(thread)
            return picked.identity_fp

        picked_fp = run_thread(net, main, until=600.0)
        assert picked_fp != busy.relay.fingerprint
        report = net.authority.load_report(busy.relay.fingerprint)
        assert report is not None

    def test_crash_withdraws_load_report(self):
        net = _qos_net()
        server = net.servers[0]
        assert net.authority.load_report(server.relay.fingerprint) is not None
        # What the fault plane invokes when the host dies.
        server._on_node_crash(server.node)
        assert net.authority.load_report(server.relay.fingerprint) is None

    def test_manifest_pricing_rejects_oversized_ask(self):
        net = _qos_net(slots=4, queue_depth=4)
        box = net.servers[0].relay
        total = net.servers[0].policy.max_total_memory

        def main(thread):
            client = BentoClient(net.create_client("pricer"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            first = yield from client.connect_direct(thread, descriptor)
            yield from first.request_image(thread, "python")
            # Ask for most of the box; policy allows per-function asks up
            # to max_function_memory, so stay under that but hog the box.
            per_fn = net.servers[0].policy.max_function_memory
            yield from first.load_function(
                thread, HOLD_SOURCE, FunctionManifest.create(
                    "hold", "hold", {"send", "sleep"}, memory_bytes=per_fn))
            used = net.servers[0].qos.admission.ledger.usage["memory"]
            assert used == per_fn
            yield from first.shutdown(thread)
            # Shutdown returns the reservation to the ledger.
            return net.servers[0].qos.admission.ledger.usage["memory"]

        assert run_thread(net, main, until=600.0) == 0
        assert total > 0

    def test_plane_off_keeps_counters_zero(self, bento_net):
        client = BentoClient(bento_net.create_client(), ias=bento_net.ias)

        def main(thread):
            session = yield from client.connect_direct(
                thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, "def f(x):\n    return x + 1\n    yield\n",
                FunctionManifest.create("f", "f", {"send"}))
            result = yield from session.invoke(thread, [1])
            yield from session.shutdown(thread)
            return result

        assert run_thread(bento_net, main) == 2
        assert counters.qos_admitted == 0
        assert counters.qos_rejected == 0
        assert counters.qos_shed == 0
        assert counters.qos_throttles == 0

    def test_fair_scheduler_paces_running_functions(self):
        net = _qos_net(slots=4, queue_depth=4)
        box = net.servers[0].relay

        chatty = ("def chatty(n):\n"
                  "    for _ in range(n):\n"
                  "        yield from api.send(b'x' * 65536)\n"
                  "    return 'ok'\n")

        def main(thread):
            client = BentoClient(net.create_client("chatty"))
            descriptor = net.authority.consensus().find(box.fingerprint)
            session = yield from client.connect_direct(thread, descriptor)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, chatty,
                FunctionManifest.create("chatty", "chatty", {"send"}))
            return (yield from session.invoke(thread, [200], timeout=3000.0))

        assert run_thread(net, main, until=5000.0) == "ok"
        # 200 * 64 KiB >> the net fair-queue burst: pacing must have fired.
        assert counters.qos_throttles > 0
