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
* :class:`~repro.netsim.shard.ShardedSimulator` -- the conservative
  parallel kernel: nodes partitioned across worker processes
  (:mod:`~repro.netsim.partition`), epochs bounded by cross-shard
  lookahead, merged traces byte-identical to single-process runs.
"""

from repro.netsim.simulator import Future, Simulator, SimTimeoutError
from repro.netsim.node import Node, RemoteNode
from repro.netsim.network import Network, NetworkError
from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.bytestream import (
    ByteStream,
    DirectByteStream,
    FramedStream,
    Framer,
    StreamClosed,
)
from repro.netsim.trace import PacketRecord, TraceRecorder
from repro.netsim.http import HttpResponse, HttpServer, http_get
from repro.netsim.faults import FaultPlane
from repro.netsim.partition import Partition, lookahead_s, partition_nodes
from repro.netsim.shard import (
    HalfConnection,
    ShardContext,
    ShardedSimulator,
    canonical_trace_bytes,
)
from repro.netsim.scenarios import MeshScenario

__all__ = [
    "Simulator",
    "SimTimeoutError",
    "Future",
    "Node",
    "Network",
    "NetworkError",
    "Connection",
    "ConnectionClosed",
    "ByteStream",
    "DirectByteStream",
    "FramedStream",
    "Framer",
    "StreamClosed",
    "TraceRecorder",
    "PacketRecord",
    "HttpServer",
    "HttpResponse",
    "http_get",
    "FaultPlane",
    "RemoteNode",
    "Partition",
    "partition_nodes",
    "lookahead_s",
    "ShardContext",
    "HalfConnection",
    "ShardedSimulator",
    "canonical_trace_bytes",
    "MeshScenario",
]
