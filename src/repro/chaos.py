"""The chaos plane's director: which boxes a run's faults hit, and when.

:mod:`repro.netsim.faults` is the mechanism (crash a node, cut a link,
spike a latency, on a seeded schedule).  This module is the policy a
:class:`~repro.workload.spec.WorkloadSpec` asks for: :func:`direct` is the
actor :func:`~repro.workload.runner.run_workload` spawns when the spec
turns the chaos plane on.  At a tenth of the run it schedules the
background noise, seeded link cuts and latency spikes up to 70% of the
run.  Then it works through ``planes.chaos_crashes`` in time order,
resolving each crash's role to a node when the crash lands:

* ``probe-home`` — the box the shared kvstore probe was first deployed
  on, for good; with no probe home yet, a plain relay for 30 s;
* ``lb-replica`` — a box running a LoadBalancer replica in service, one
  its balancer touched since the crash was due, for good;
* ``shard-placement`` — a shard placement box hosting no LoadBalancer or
  replica, for good;
* ``relay`` — a plain relay, which restarts after 30 s.

A crash whose role nobody plays at its time (a replica lives only while
its balancer is loaded) looks again each second until the run's duration
is up, holding back the crashes after it.  A node down for good joins the
runner's ``crashed`` set, which clients exclude when they pick a box.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.simulator import Actor, Sleep

if TYPE_CHECKING:   # the runner imports this module: no cycle at run time
    from repro.netsim.faults import FaultPlane
    from repro.tor.testnet import TorTestNetwork
    from repro.workload.spec import CrashSpec, WorkloadSpec

__all__ = ["RELAY_DOWN_S", "direct"]

#: How long a crashed plain relay stays down before it restarts.
RELAY_DOWN_S = 30.0


def _running(net: TorTestNetwork, *functions: str) -> list[tuple]:
    """(box name, instance) per running instance of ``functions`` on a
    live box."""
    return [(server.node.name, instance)
            for server in net.servers if server.node.alive
            for instance in server._by_invocation.values()
            if instance.manifest is not None
            and instance.manifest.name in functions
            and instance.runtime is not None and instance.runtime.running]


def _victim(crash: CrashSpec, net: TorTestNetwork, plane: FaultPlane,
            shared: dict) -> Optional[tuple[str, Optional[float]]]:
    """The node ``crash`` hits now and how long it stays down (None: for
    good), or None while nothing plays its role."""
    role = crash.role
    if role == "probe-home" and shared.get("probe_home") is not None:
        return shared["probe_home"], None
    if role in ("probe-home", "relay"):
        plain = [r.node.name for r in net.relays if r.bento_port is None]
        return (plane.rng.choice(plain), RELAY_DOWN_S) if plain else None
    placements = [shared["fp_to_node"][p["box_fp"]]
                  for metadata in shared["shards"].values()
                  for p in metadata["placements"]]
    if role == "lb-replica":
        # A replica its balancer has touched since the crash was due (a
        # warm standby sits untouched), on a box holding no shard first:
        # the crash is aimed at the serving balancer, not at a spare or a
        # placement's quorum.
        replicas = sorted(
            (node for node, instance in _running(net, "lb-replica")
             if instance.last_activity >= crash.at_s),
            key=placements.__contains__)
        return (replicas[0], None) if replicas else None
    spared = shared["crashed"] | {
        node for node, _ in _running(net, "loadbalancer", "lb-replica")}
    left = [n for n in placements if n not in spared]
    return (left[0], None) if left else None


def direct(task: Actor, spec: WorkloadSpec, net: TorTestNetwork,
           plane: FaultPlane, shared: dict):
    """The chaos plane's actor body: noise first, then the crash list.

    ``shared`` is the runner's state: ``crashed`` (node names down for
    good), ``fp_to_node``, ``probe_home`` once the probe is deployed, and
    ``shards`` (tenant name -> scatter metadata) once each is scattered.
    """
    planes = spec.planes
    start_s = 0.1 * spec.duration_s
    while net.sim.now < start_s:
        yield Sleep(1.0)
    plane.schedule_random(
        node_names=[r.node.name for r in net.relays], start_s=net.sim.now,
        end_s=0.7 * spec.duration_s,
        n_link_cuts=planes.chaos_link_cuts,
        n_latency_spikes=planes.chaos_latency_spikes,
        mean_downtime_s=planes.chaos_mean_downtime_s,
        spike_extra_s=0.2)
    for crash in sorted(planes.chaos_crashes, key=lambda c: c.at_s):
        while net.sim.now < crash.at_s:
            yield Sleep(1.0)
        victim = _victim(crash, net, plane, shared)
        while victim is None and net.sim.now < spec.duration_s:
            yield Sleep(1.0)
            victim = _victim(crash, net, plane, shared)
        if victim is None:
            continue
        node, down_for_s = victim
        plane.crash_node(node, down_for_s=down_for_s)
        if down_for_s is None:
            shared["crashed"].add(node)
