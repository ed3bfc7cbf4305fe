"""Deterministic discrete-event network simulator.

This is the substrate the paper's *live Tor network* evaluation runs on in
this reproduction.  It provides:

* :class:`~repro.netsim.simulator.Simulator` -- event loop, timers, futures,
  and coroutine actors (:class:`~repro.netsim.simulator.SimTask`),
* :class:`~repro.netsim.node.Node` with rate-limited up/down interfaces,
* :class:`~repro.netsim.network.Network` -- topology, latency, listeners,
* :class:`~repro.netsim.connection.Connection` -- reliable ordered message
  channels with chunked transmission and an optional slow-start window model,
* :mod:`~repro.netsim.http` -- a small HTTP/S model for web workloads,
* :mod:`~repro.netsim.trace` -- packet traces for fingerprinting attacks,
* :class:`~repro.netsim.faults.FaultPlane` -- deterministic fault injection
  (node crashes, link cuts, latency spikes) on a seeded schedule,
* :class:`~repro.netsim.scenarios.MeshScenario` -- a request/ack mesh with
  no Tor or Bento on top, run on one simulator by
  :class:`~repro.netsim.shard.ShardedSimulator`.

The package re-exports nothing: import from the module that defines it.
"""
