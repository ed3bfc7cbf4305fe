"""Chain plane: templates, the joint embedding engine, and deployment.

Covers the template/overlay split (strict validation, canonical digests,
hypothesis round-trip properties), the joint-vs-greedy placement
contrast, and end-to-end chains through real attested sessions —
including the one error a crashed box's stage fails a unit with — and
the goodput the joint embedding holds over greedy placement under
overload.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    ArcSpec,
    ChainDeployment,
    ChainSpec,
    ChainSpecError,
    ComponentSpec,
    apply_transform,
    embed,
    greedy_embed,
    pipeline_chain,
)
from repro.chain.deploy import ChainDeployError
from repro.core import BentoClient, BentoServer
from repro.core.policy import MiddleboxNodePolicy
from repro.enclave.attestation import IntelAttestationService
from repro.netsim.faults import FaultPlane
from repro.perf.counters import counters as _perf
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def linear_spec(n: int = 3, rate: float = 4.0, capacity: float = 2.0,
                stateful_tail: bool = True) -> ChainSpec:
    comps = []
    arcs = []
    for i in range(n):
        tail = stateful_tail and i == n - 1
        comps.append(ComponentSpec(
            name=f"c{i}", capacity_units_per_s=capacity,
            stateful=tail, max_replicas=1 if tail else 4))
        if i:
            arcs.append(ArcSpec(src=f"c{i-1}", dst=f"c{i}",
                                rate_units_per_s=rate))
    return ChainSpec(name="lin", components=tuple(comps), arcs=tuple(arcs))


def fake_boxes(n: int) -> list[SimpleNamespace]:
    return [SimpleNamespace(identity_fp=f"FP{i:02d}") for i in range(n)]


class TestChainTemplate:
    def test_round_trip_and_digest(self):
        spec = pipeline_chain()
        again = ChainSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_ignores_key_order(self):
        spec = pipeline_chain()
        data = json.loads(spec.to_json())
        shuffled = {k: data[k] for k in reversed(sorted(data))}
        shuffled["components"] = [
            {k: c[k] for k in reversed(sorted(c))}
            for c in shuffled["components"]]
        assert ChainSpec.from_dict(shuffled).digest() == spec.digest()

    def test_rejects_bad_graphs(self):
        a = ComponentSpec(name="a")
        b = ComponentSpec(name="b")
        with pytest.raises(ChainSpecError, match="hops in component order"):
            ChainSpec(name="x",
                      components=(a, b, ComponentSpec(name="c"),
                                  ComponentSpec(name="d")),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),
                            ArcSpec(src="b", dst="c", rate_units_per_s=1),
                            ArcSpec(src="c", dst="b", rate_units_per_s=1),
                            ArcSpec(src="b", dst="d", rate_units_per_s=1)))
        with pytest.raises(ChainSpecError, match="hops in component order"):
            ChainSpec(name="x", components=(a,),
                      arcs=(ArcSpec(src="a", dst="ghost",
                                    rate_units_per_s=1),))
        with pytest.raises(ChainSpecError, match="zero rate"):
            ArcSpec(src="a", dst="b", rate_units_per_s=0.0)
        with pytest.raises(ChainSpecError, match="hops in component order"):
            ChainSpec(name="x", components=(a, b),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),
                            ArcSpec(src="a", dst="b", rate_units_per_s=2)))
        with pytest.raises(ChainSpecError, match="stateful"):
            ComponentSpec(name="s", stateful=True, max_replicas=2)
        with pytest.raises(ChainSpecError, match="hops in component order"):
            ChainSpec(name="x", components=(a, b, ComponentSpec(name="c")),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),))

    def test_strict_parsing(self):
        data = json.loads(pipeline_chain().to_json())
        data["surprise"] = 1
        with pytest.raises(ChainSpecError, match="unknown keys"):
            ChainSpec.from_dict(data)

    @pytest.mark.parametrize("path, value, message", [
        (("components", 0, "max_replicas"), 1.0, "'max_replicas' must be int"),
        (("components", 2, "stateful"), "no", "'stateful' must be bool"),
        (("components", 0, "memory_bytes"), True, "'memory_bytes' must be int"),
        (("arcs", 0, "rate_units_per_s"), "4", "must be float"),
        (("arcs",), {"cover": "defense"}, "'arcs' must be a list"),
        (("components", 0), ["cover"], "component: expected a mapping"),
    ])
    def test_mistyped_values_rejected(self, path, value, message):
        data = json.loads(pipeline_chain().to_json())
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ChainSpecError, match=message):
            ChainSpec.from_dict(data)

    def test_int_written_for_a_float_is_normalized(self):
        data = json.loads(pipeline_chain().to_json())
        data["arcs"][0]["rate_units_per_s"] = 4
        assert ChainSpec.from_dict(data) == pipeline_chain()

    def test_transform_oracle(self):
        assert apply_transform("relay", b"abc") == b"abc"
        assert apply_transform("pad:2", b"abc") == b"abc\x00\x00"
        assert apply_transform("strip:2", b"abc\x00\x00") == b"abc"
        assert apply_transform("xor:1", b"\x00\x01") == b"\x01\x00"
        with pytest.raises(ChainSpecError):
            apply_transform("zip:9", b"x")

    def test_path_transforms(self):
        spec = pipeline_chain(pad_bytes=8)
        assert [c.transform for c in spec.components] \
            == ["pad:8", "strip:8", "relay"]
        dep = ChainDeployment(SimpleNamespace(sim=None), spec)
        assert dep.expected_outputs(b"unit-payload") \
            == {"store": b"unit-payload"}

    def test_embed_order_is_topological(self):
        names = ("z", "a", "m")
        spec = ChainSpec(
            name="zam", components=tuple(ComponentSpec(name=n) for n in names),
            arcs=(ArcSpec(src="z", dst="a", rate_units_per_s=1),
                  ArcSpec(src="a", dst="m", rate_units_per_s=1)))
        assert spec.embed_order() == list(names)


# -- hypothesis properties --------------------------------------------------

_rates = st.floats(min_value=0.5, max_value=64.0, allow_nan=False,
                   allow_infinity=False)
_transforms = st.sampled_from(["relay", "pad:16", "strip:4", "xor:7"])


@st.composite
def chain_specs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    comps = []
    for i in range(n):
        stateful = i == n - 1 and draw(st.booleans())
        comps.append(ComponentSpec(
            name=f"f{i}",
            cpu_ms_per_unit=draw(st.floats(min_value=0.0, max_value=8.0)),
            memory_bytes=draw(st.integers(min_value=1024,
                                          max_value=8 * 1024 * 1024)),
            capacity_units_per_s=draw(_rates),
            stateful=stateful,
            max_replicas=1 if stateful
            else draw(st.integers(min_value=1, max_value=6)),
            transform="relay" if i else draw(_transforms)))
    arcs = tuple(ArcSpec(src=f"f{i}", dst=f"f{i+1}",
                         rate_units_per_s=draw(_rates),
                         unit_bytes=draw(st.integers(min_value=64,
                                                     max_value=65536)),
                         bidirectional=draw(st.booleans()))
                 for i in range(n - 1))
    return ChainSpec(name=draw(st.text(
        alphabet="abcdefgh-", min_size=1, max_size=12).filter(
            lambda s: s.strip("-"))), components=tuple(comps), arcs=arcs)


class TestChainSpecProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs())
    def test_json_round_trip_identity(self, spec):
        assert ChainSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs())
    def test_digest_stable_under_key_reordering(self, spec):
        data = json.loads(spec.to_json())

        def reorder(obj):
            if isinstance(obj, dict):
                return {k: reorder(obj[k]) for k in reversed(sorted(obj))}
            if isinstance(obj, list):
                return [reorder(v) for v in obj]
            return obj

        assert ChainSpec.from_dict(reorder(data)).digest() == spec.digest()

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_rates_rejected(self, rate):
        with pytest.raises(ChainSpecError):
            ArcSpec(src="a", dst="b", rate_units_per_s=rate)

    @settings(max_examples=20, deadline=None)
    @given(spec=chain_specs())
    def test_cycles_rejected_when_disallowed(self, spec):
        back = ArcSpec(src=spec.components[-1].name,
                       dst=spec.components[0].name, rate_units_per_s=1.0)
        with pytest.raises(ChainSpecError):
            ChainSpec(name=spec.name, components=spec.components,
                      arcs=spec.arcs + (back,))


# -- the embedding engine ---------------------------------------------------

class TestEmbed:
    def test_replica_counts_scale_with_rate(self):
        overlay = embed(linear_spec(rate=4.0, capacity=2.0), fake_boxes(4), {})
        counts = overlay.objective["replica_counts"]
        assert counts == {"c0": 2, "c1": 2, "c2": 1}   # c2 stateful -> 1

    def test_same_inputs_bit_identical(self):
        spec = pipeline_chain()
        boxes = fake_boxes(5)
        table = {"FP01": {"slots_free": 3, "queue_len": 2, "shedding": False,
                          "mem_free": 32 * 1024 * 1024}}
        a = embed(spec, boxes, table)
        b = embed(spec, list(reversed(boxes)), dict(table))
        assert a.digest() == b.digest()

    def test_joint_spreads_greedy_piles(self):
        spec = linear_spec(rate=4.0, capacity=2.0)
        boxes = fake_boxes(4)
        joint = embed(spec, boxes, {})
        greedy = greedy_embed(spec, boxes, {})
        assert len(joint.boxes_used()) > len(greedy.boxes_used())
        assert len(greedy.boxes_used()) == 1
        assert (joint.objective["peak_box_units_per_s"]
                < greedy.objective["peak_box_units_per_s"])

    def test_exclude_and_pin(self):
        spec = linear_spec()
        boxes = fake_boxes(4)
        overlay = embed(spec, [b for b in boxes if b.identity_fp != "FP00"],
                        {})
        assert "FP00" not in overlay.boxes_used()

    def test_shedding_box_avoided(self):
        spec = linear_spec()
        boxes = fake_boxes(3)
        table = {"FP00": {"slots_free": 8, "queue_len": 0, "shedding": True,
                          "mem_free": 64 * 1024 * 1024}}
        overlay = embed(spec, boxes, table)
        assert "FP00" not in overlay.boxes_used()


# -- deployment through the real stack --------------------------------------

@pytest.fixture()
def chain_net():
    net = TorTestNetwork(n_relays=12, seed="chain-plane",
                         bento_fraction=0.42)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(relay, net.authority, ias=ias)
                   for relay in net.bento_boxes()]
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


def deployment_for(net, spec, name="chain-op"):
    client = BentoClient(net.create_client(name), ias=net.ias)
    return ChainDeployment(client, spec)


def nickname_of(net, box_fp):
    for server in net.servers:
        if server.relay.fingerprint == box_fp:
            return server.relay.nickname
    raise AssertionError(box_fp)


class TestChainDeployment:
    def test_pipeline_end_to_end(self, chain_net):
        spec = pipeline_chain(pad_bytes=32)
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            expect = dep.expected_outputs(b"unit-0")
            for i in range(3):
                payload = f"unit-{i}".encode()
                out = yield from dep.push(task, payload)
                assert out == {"store": payload}
            stats = yield from dep.shutdown(task)
            assert sum(s["processed"] for s in stats.values() if s) >= 9
            assert expect == {"store": b"unit-0"}

        run_thread(chain_net, main)
        assert _perf.chain_units_delivered == 3
        assert _perf.chain_arc_bytes > 0
        assert _perf.chain_embeds == 1
        assert dep.overlay.engine == "joint"

    def test_reembed_after_box_crash(self, chain_net):
        """A crashed box fails the unit with one error naming the stage
        and the box."""
        spec = pipeline_chain()
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            yield from dep.push(task, b"before")
            # The stateful store has exactly one replica, so every unit
            # crosses it — crashing its box forces the failure path.
            victim_fp = dep.overlay.replicas_of("store")[0].box_fp
            chain_net.plane.crash_node(nickname_of(chain_net, victim_fp))
            delivered = _perf.chain_units_delivered
            with pytest.raises(ChainDeployError) as failed:
                yield from dep.push(task, b"after", deadline_s=300.0)
            assert _perf.chain_units_delivered == delivered == 1
            return str(failed.value), victim_fp

        message, victim_fp = run_thread(chain_net, main)
        assert message.startswith(f"store[0] on {victim_fp}: ")

    def test_same_seed_deploys_bit_identical(self):
        digests = []
        for _ in range(2):
            net = TorTestNetwork(n_relays=12, seed="chain-det",
                                 bento_fraction=0.42)
            ias = IntelAttestationService(net.sim.rng.fork("ias"))
            net.ias = ias
            net.servers = [BentoServer(relay, net.authority, ias=ias)
                           for relay in net.bento_boxes()]
            _perf.reset()
            dep = deployment_for(net, pipeline_chain())

            def main(task, dep=dep):
                yield from dep.deploy(task)
                yield from dep.push(task, b"det")
                yield from dep.shutdown(task)

            run_thread(net, main)
            digests.append((dep.overlay.digest(), net.sim.now))
        assert digests[0] == digests[1]

    def test_plane_off_counters_stay_zero(self, chain_net):
        """Nothing in an ordinary session touches chain_* counters."""
        client = BentoClient(chain_net.create_client("plain"),
                             ias=chain_net.ias)

        def main(task):
            box = client.pick_box()
            session = yield from client.connect_direct(task, box)
            yield from session.request_image(task, "python", verify="none")
            yield from session.load_function(
                task, "def f(x):\n    return x\n    yield\n",
                __import__("repro.core.manifest",
                           fromlist=["FunctionManifest"])
                .FunctionManifest.create("f", "f", set()))
            assert (yield from session.invoke(task, [5])) == 5
            yield from session.shutdown(task)
            session.close()

        run_thread(chain_net, main)
        assert _perf.chain_embeds == 0
        assert _perf.chain_arc_bytes == 0
        assert _perf.chain_units_delivered == 0


# -- overload: the joint embedding against greedy placement -------------------

CHAIN_UPLINK_BPS = 512 * 1024    # every box's uplink: 0.5 MiB/s
UNIT_BYTES = 128 * 1024          # per traffic unit, so transfer >> RTT
UNIT_DEADLINE_S = 20.0           # a unit delivered later is not goodput
CHAIN_WINDOW_S = 30.0            # units arrive for this long
GATE_RATIO = 1.15                # joint goodput over greedy's at 4x


def starved_chain():
    """Twelve relays, half of them Bento boxes on starved uplinks, and the
    Cover→Browser-defense→Store chain, not yet deployed.  The caps let
    greedy stack every stage on one box: the collapse under test is
    bandwidth, not admission."""
    net = TorTestNetwork(n_relays=12, seed=2021, bento_fraction=0.5)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    policy = MiddleboxNodePolicy(max_containers=64, max_total_memory=1 << 30,
                                 max_total_disk=1 << 30)
    for relay in net.bento_boxes():
        relay.node.uplink.rate = float(CHAIN_UPLINK_BPS)
        BentoServer(relay, net.authority, ias=ias, policy=policy)
    client = BentoClient(net.create_client("chain-bench"), ias=ias)
    return net, ChainDeployment(client, pipeline_chain())


def _unit(i):
    return i.to_bytes(4, "big") + bytes(UNIT_BYTES - 4)


def _drain_rate(engine):
    """Units per second the idle chain serves one at a time (three pushes
    back to back).  Pipelining is ignored, so 4x is real overload."""
    net, dep = starved_chain()
    durations = []

    def probe(task):
        yield from dep.deploy(task, engine=engine)
        for i in range(3):
            started = net.sim.now
            out = yield from dep.push(task, _unit(i),
                                      deadline_s=10 * UNIT_DEADLINE_S)
            assert out == dep.expected_outputs(_unit(i))
            durations.append(net.sim.now - started)

    net.sim.spawn(probe, name="probe")
    net.sim.run()
    return round(1.0 / (sum(durations) / len(durations)), 3)


@functools.lru_cache(maxsize=None)
def _overload(engine):
    """Deploy with ``engine``, then push a unit every ``1 / (4 * drain
    rate)`` s for ``CHAIN_WINDOW_S``.  Returns the goodput (units delivered
    inside their deadline per second, from the first arrival to the last
    such delivery), the units delivered, those whose outputs differ from
    the transform oracle's, and the deployed overlay's digest."""
    offered = 4 * _drain_rate(engine)
    net, dep = starved_chain()
    delivered = []     # (arrived, done)
    wrong = []

    def unit(task, i):
        arrived = net.sim.now
        try:
            out = yield from dep.push(task, _unit(i),
                                      deadline_s=UNIT_DEADLINE_S)
        except ChainDeployError:
            return     # its queue wait passed the deadline
        if out != dep.expected_outputs(_unit(i)):
            wrong.append(i)
        delivered.append((arrived, net.sim.now))

    def launch(task):
        # Deploy and launch the arrivals from one live actor: draining the
        # queue in between would fast-forward through idle timers and
        # expire the sessions.
        yield from dep.deploy(task, engine=engine)
        for i in range(int(offered * CHAIN_WINDOW_S)):
            net.sim.spawn(unit, i, name=f"unit{i}", delay=i / offered)

    net.sim.spawn(launch, name="launch")
    net.sim.run(until=CHAIN_WINDOW_S + 90.0)
    good = [done for arrived, done in delivered
            if done - arrived <= UNIT_DEADLINE_S]
    first = min((arrived for arrived, _ in delivered), default=net.sim.now)
    makespan = max(CHAIN_WINDOW_S, max(good, default=0.0) - first)
    return {"goodput": len(good) / makespan, "delivered": len(delivered),
            "wrong": wrong, "digest": dep.overlay.digest()}


class TestOverload:
    """At four times the chain's drain rate greedy's one box carries every
    arc and units miss their deadline; the joint embedding spreads scaled
    replicas, so each uplink carries its own arc only."""

    def test_joint_goodput_beats_greedy(self):
        joint, greedy = _overload("joint"), _overload("greedy")
        assert joint["delivered"] and greedy["delivered"]
        assert joint["wrong"] == greedy["wrong"] == []
        assert joint["goodput"] >= GATE_RATIO * greedy["goodput"], \
            (joint, greedy)

    def test_joint_overlay_is_the_same_in_fresh_interpreters(self):
        tests = pathlib.Path(__file__).resolve().parent
        script = (f"import sys; sys.path.insert(0, {str(tests)!r})\n"
                  "from test_chain_plane import starved_chain\n"
                  "dep = starved_chain()[1]\n"
                  "print(dep.compute_overlay(engine='joint').digest())\n")
        env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
        digests = {subprocess.run([sys.executable, "-c", script], check=True,
                                  capture_output=True, text=True,
                                  timeout=120, env=env).stdout.strip()
                   for _ in range(2)}
        assert digests == {_overload("joint")["digest"]}
