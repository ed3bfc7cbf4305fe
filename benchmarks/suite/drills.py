"""Per-layer drills and the floor ladder (``run.py --drills``).

A drill times one public function of one layer alone, on inputs shaped
like the workloads' (509-byte cells, 4 KiB mesh messages, the kvstore
source, the cross-plane preset), so that a change to that layer can be
measured without the rest of the stack in the way.  Each drill runs a
fixed number of operations per batch (calibrated once to fill 0.2 s) and
reports the best of five batches.

The ladder downloads the same 2 MB, with fast cell crypto, over five
rungs — bare netsim, a 3-hop circuit, a Bento function, the attested
image, the attested image behind the serving plane — and reports each
rung's host milliseconds per megabyte and its multiple of the rung
below: the overhead table that Slick and the eBPF/SRv6 paper (PAPERS.md)
justify their designs with.
"""

from __future__ import annotations

import pathlib
import sys
import time
from types import SimpleNamespace

SUITE_ROOT = pathlib.Path(__file__).resolve().parent
for _path in (str(SUITE_ROOT), str(SUITE_ROOT.parents[1] / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.chain import embed, pipeline_chain
from repro.core import messages
from repro.core.client import BentoClient
from repro.core.loader import FunctionRuntime
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.core.server import BentoServer
from repro.core.tokens import TokenIssuer
from repro.crypto.aead import AeadKey
from repro.crypto.dh import DiffieHellman
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.stream import StreamCipher
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.fsprotect import FSProtect
from repro.enclave.sealing import seal_data, unseal_data
from repro.enclave.sgx import EnclaveHost, EnclaveImage
from repro.functions.dropbox import DropboxFunction
from repro.functions.kvstore import KvStoreFunction
from repro.migrate.checkpoint import Checkpoint, unseal_checkpoint
from repro.netsim.bytestream import FramedStream, Framer
from repro.netsim.http import HttpServer, fetch, http_get
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator, Sleep
from repro.obs.span import TRACER
from repro.qos import QosConfig
from repro.qos.admission import AdmissionController
from repro.sandbox.cgroups import CGroup
from repro.sandbox.container import Container
from repro.sandbox.iptables import IptablesRuleset
from repro.sandbox.memfs import MemFS
from repro.sandbox.seccomp import SeccompPolicy
from repro.tor.cell import (RELAY_DATA_SIZE, RELAY_PAYLOAD_SIZE, RelayCellPayload,
                            RelayCommand)
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.layercrypto import FORWARD, HopCrypto
from repro.tor.ntor import CircuitKeys, NtorClientState, server_respond
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_decode, canonical_encode
from repro.workload.generator import generate
from repro.workload.presets import preset

from metrics import LADDER

MIN_BATCH_S = 0.2
ROUNDS = 5
KIB = 1024

#: name -> (unit, factory); the factory returns (call, amount) where
#: ``amount`` is the ops one call performs, or its bytes for an MB/s unit.
DRILLS: dict = {}

_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def drill(name: str, unit: str):
    def register(factory):
        DRILLS[f"drill.{name}"] = (unit, factory)
        return factory
    return register


def _rng(label: str) -> DeterministicRandom:
    return DeterministicRandom("suite-drills").fork(label)


def _noop(*_args) -> None:
    return None


# -- crypto.stream ------------------------------------------------------------


@drill("crypto.stream.keystream_mb_per_s", "MB/s")
def _keystream():
    cipher = StreamCipher(b"k" * 32, b"drill")

    def call():
        for _ in range(64):         # one cell's worth at a time
            cipher.keystream(RELAY_PAYLOAD_SIZE)
    return call, 64 * RELAY_PAYLOAD_SIZE


@drill("crypto.stream.process_many_mb_per_s", "MB/s")
def _process_many():
    cipher = StreamCipher(b"k" * 32, b"drill")
    window = [_rng("cells").randbytes(RELAY_PAYLOAD_SIZE)] * 50
    return (lambda: cipher.process_many(window)), 50 * RELAY_PAYLOAD_SIZE


# -- crypto.pk ----------------------------------------------------------------


@drill("crypto.pk.dh_exchange_ms", "ms")
def _dh_exchange():
    rng = _rng("dh")
    peer = DiffieHellman(rng)
    return (lambda: DiffieHellman(rng).shared_secret(peer.public)), 1


@drill("crypto.pk.rsa_sign_ms", "ms")
def _rsa_sign():
    key = RsaKeyPair.generate(_rng("rsa"))
    return (lambda: key.sign(b"quote body " * 20)), 1


@drill("crypto.pk.rsa_verify_ms", "ms")
def _rsa_verify():
    key = RsaKeyPair.generate(_rng("rsa"))
    body = b"quote body " * 20
    signature = key.sign(body)
    return (lambda: key.public.verify(body, signature)), 1


@drill("crypto.pk.aead_mb_per_s", "MB/s")
def _aead():
    key = AeadKey(b"a" * 32)
    data = _rng("aead").randbytes(64 * KIB)
    return (lambda: key.open(b"n", key.seal(b"n", data))), len(data)


# -- tor.cell -----------------------------------------------------------------


def _hop() -> HopCrypto:
    return HopCrypto(CircuitKeys(kf=b"f" * 32, kb=b"b" * 32,
                                 df=b"F" * 32, db=b"B" * 32), fast=False)


def _data_cell() -> RelayCellPayload:
    return RelayCellPayload(RelayCommand.DATA, 7,
                            _rng("cell").randbytes(RELAY_DATA_SIZE))


@drill("tor.cell.pack_unpack_us", "us")
def _pack_unpack():
    cell = _data_cell()
    return (lambda: RelayCellPayload.unpack(cell.pack())), 1


@drill("tor.cell.hop_forward_us", "us")
def _hop_forward():
    hop, payload = _hop(), _data_cell().pack()
    return (lambda: hop.crypt_forward(payload)), 1


@drill("tor.cell.hop_backward_us", "us")
def _hop_backward():
    hop, payload = _hop(), _data_cell().pack()
    return (lambda: hop.crypt_backward(payload)), 1


@drill("tor.cell.seal_open_us", "us")
def _seal_open():
    sender, receiver, cell = _hop(), _hop(), _data_cell()

    def call():
        if receiver.open_payload(sender.seal_payload(cell, FORWARD),
                                 FORWARD) is None:
            raise AssertionError("sealed cell was not recognized")
    return call, 1


# -- tor.circuit --------------------------------------------------------------


@drill("tor.circuit.ntor_ms", "ms")
def _ntor():
    rng = _rng("ntor")

    def call():
        client = NtorClientState(rng, "relay-fp")
        _keys, reply = server_respond(rng, "relay-fp", client.onionskin)
        client.finish(reply)
    return call, 1


# -- netsim -------------------------------------------------------------------


@drill("netsim.kernel.event_us", "us")
def _event():
    sim = Simulator(seed=0)

    def call():
        for index in range(1000):
            sim.schedule(index * 1e-3, _noop)
        sim.run()
    return call, 1000


@drill("netsim.kernel.task_switch_us", "us")
def _task_switch():
    sim = Simulator(seed=0)

    def sleeper(_task):
        for _ in range(1000):
            yield Sleep(1e-3)

    def call():
        sim.run_until_done(sim.spawn(sleeper))
    return call, 1000


@drill("netsim.link.chunk_us", "us")
def _chunk():
    """Mesh-shaped traffic: 4 KiB requests, 64-byte acks, one connection."""
    sim = Simulator(seed=0)
    network = Network(sim)
    client = network.create_node("a")
    server = network.create_node("b")
    request, ack, rounds = b"m" * 4096, b"a" * 64, 100

    def serve(conn):
        def loop(task):
            for _ in range(rounds):
                yield from conn.receive(server, task, timeout=60.0)
                conn.send(server, ack)
        sim.spawn(loop)

    server.listen(9000, serve)

    def dial(task):
        conn = yield from network.connect_blocking(
            task, client, server.address, 9000, timeout=60.0)
        for _ in range(rounds):
            conn.send(client, request)
            yield from conn.receive(client, task, timeout=60.0)
        conn.close()

    def call():
        sim.run_until_done(sim.spawn(dial))
    return call, 2 * rounds


@drill("netsim.link.framer_mb_per_s", "MB/s")
def _framer():
    wire = Framer.encode(_rng("frame").randbytes(16 * KIB))
    pieces = [wire[i:i + RELAY_DATA_SIZE]
              for i in range(0, len(wire), RELAY_DATA_SIZE)]

    def call():
        framer, frames = Framer(), []
        for piece in pieces:
            frames += framer.feed(piece)
        if len(frames) != 1:
            raise AssertionError("framer lost the frame")
    return call, len(wire)


# -- sandbox ------------------------------------------------------------------


@drill("sandbox.container_cycle_us", "us")
def _container_cycle():
    host_fs = MemFS()
    parent = CGroup("bento", memory=1 << 30, disk=1 << 30)
    rules = IptablesRuleset.from_exit_policy(ExitPolicy.accept_all(), "h")
    seccomp = SeccompPolicy.default_function_policy()

    def call():
        box = Container("c", host_fs, parent, seccomp, rules,
                        memory_limit=8 << 20, disk_limit=8 << 20)
        box.start(1 << 20)
        box.fs_write("/state", b"x" * 256)
        box.kill()
    return call, 1


@drill("sandbox.memfs_mb_per_s", "MB/s")
def _memfs():
    fs = MemFS()
    data = _rng("memfs").randbytes(64 * KIB)

    def call():
        fs.write_file("/drop/file.bin", data)
        fs.read_file("/drop/file.bin")
    return call, len(data)


# -- enclave ------------------------------------------------------------------


def _enclave():
    sim = Simulator(seed=0)
    ias = IntelAttestationService(_rng("ias"))
    host = EnclaveHost(sim, ias, rng=_rng("sgx"))
    image = EnclaveImage(name="python-op-sgx", code=b"runtime" * 64)
    return ias, host.launch(image, heap_bytes=1 << 20)


@drill("enclave.quote_ms", "ms")
def _quote():
    _ias, enclave = _enclave()
    return (lambda: enclave.quote(b"channel-public-value")), 1


@drill("enclave.ias_verify_ms", "ms")
def _ias_verify():
    ias, enclave = _enclave()
    # Two distinct quotes alternate, as two sessions' would, so the IAS's
    # last-quote cache never short-cuts the signature check.
    quotes = [enclave.quote(b"session-a"), enclave.quote(b"session-b")]
    turn = [0]

    def call():
        turn[0] ^= 1
        ias.verify_quote(quotes[turn[0]])
    return call, 1


@drill("enclave.fsprotect_mb_per_s", "MB/s")
def _fsprotect():
    fs = FSProtect(MemFS().chroot("/containers/c"), b"e" * 32)
    data = _rng("fsprotect").randbytes(64 * KIB)

    def call():
        fs.write_file("/drop/file.bin", data)
        fs.read_file("/drop/file.bin")
    return call, len(data)


@drill("enclave.seal_unseal_ms", "ms")
def _seal_unseal():
    data = _rng("seal").randbytes(4 * KIB)
    return (lambda: unseal_data(b"s" * 32, seal_data(b"s" * 32, data))), 1


# -- core / util --------------------------------------------------------------


@drill("core.message_codec_us", "us")
def _message_codec():
    payload = b'{"op": "incr", "key": "n"}'

    def call():
        messages.decode_message(messages.encode_message(
            messages.MSG, token="inv-0123456789abcdef", payload=payload))
    return call, 1


@drill("core.manifest_check_us", "us")
def _manifest_check():
    policy = MiddleboxNodePolicy.open_policy()
    wire = KvStoreFunction.manifest(image="python-op-sgx").to_wire()

    def call():
        if not policy.permits(FunctionManifest.from_wire(wire)):
            raise AssertionError("open policy refused the kvstore manifest")
    return call, 1


@drill("core.loader_compile_ms", "ms")
def _loader_compile():
    instance = SimpleNamespace(api=None)
    manifest = KvStoreFunction.manifest()
    return (lambda: FunctionRuntime(instance, KvStoreFunction.SOURCE,
                                    manifest).load()), 1


@drill("core.token_us", "us")
def _token():
    issuer = TokenIssuer("drill")
    return issuer.issue, 1


@drill("util.serialize_us", "us")
def _serialize():
    frame = {"type": "load_function", "token": "inv-0123456789abcdef",
             "manifest": KvStoreFunction.manifest().to_wire(),
             "code": KvStoreFunction.SOURCE}
    return (lambda: canonical_decode(canonical_encode(frame))), 1


# -- planes -------------------------------------------------------------------


@drill("qos.admit_release_us", "us")
def _admit_release():
    control = AdmissionController(
        Simulator(seed=0), slots=8, queue_depth=8, queue_timeout_s=8.0,
        base_retry_after_s=1.0, capacity_memory=1 << 30,
        capacity_disk=1 << 30)
    manifest = KvStoreFunction.manifest()

    def call():
        if not control.try_admit("session"):
            raise AssertionError("an idle controller refused admission")
        control.price("session", manifest)
        control.release("session")
    return call, 1


@drill("migrate.checkpoint_ms", "ms")
def _checkpoint():
    """Seal a kvstore-shaped checkpoint for shipping, and open it again."""
    manifest = KvStoreFunction.manifest(image="python-op-sgx")
    snapshot = Checkpoint(
        name=manifest.name, entry=manifest.entry, image=manifest.image,
        manifest=manifest.to_wire(), code=KvStoreFunction.SOURCE,
        state={"store": {f"s{i}": i for i in range(100)}}, args=[],
        files={}, inbox=[b'{"op": "incr", "key": "n"}'], seq=1,
        taken_at=0.0, measurement="m" * 64)
    key = b"s" * 32

    def call():
        sealed = seal_data(key, canonical_encode(snapshot.to_wire()),
                           aad=snapshot.measurement.encode())
        unseal_checkpoint(key, sealed, snapshot.measurement)
    return call, 1


@drill("chain.embed_ms", "ms")
def _embed():
    spec = pipeline_chain()
    boxes = [SimpleNamespace(identity_fp=f"FP{i:02d}") for i in range(8)]
    return (lambda: embed(spec, boxes, {})), 1


@drill("workload.generate_ms", "ms")
def _generate():
    spec = preset("cross-plane", full=True)
    return (lambda: generate(spec)), 1


@drill("obs.span_detached_ns", "ns")
def _span_detached():
    """What an instrumentation site costs when no event log is attached."""
    if TRACER.log is not None:
        raise AssertionError("an event log is attached")

    def call():
        for _ in range(1000):
            TRACER.begin("drill", 0.0)
    return call, 1000


# -- the drill runner ---------------------------------------------------------


def _best_batch_s(call, min_batch_s: float, rounds: int) -> tuple:
    """(seconds of the fastest batch, calls per batch)."""
    def batch(calls: int) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - started

    calls = 1
    while True:                     # calibrate once: grow until it fills
        best = batch(calls)
        if best >= min_batch_s:
            break
        calls = max(calls * 2, int(calls * min_batch_s / max(best, 1e-6)))
    for _ in range(rounds - 1):
        best = min(best, batch(calls))
    return best, calls


def run_drills(min_batch_s: float = MIN_BATCH_S, rounds: int = ROUNDS) -> dict:
    """Every drill: ``{name: {"value", "unit", "ops"}}``."""
    out = {}
    for name, (unit, factory) in DRILLS.items():
        call, amount = factory()
        seconds, calls = _best_batch_s(call, min_batch_s, rounds)
        if unit == "MB/s":
            value = amount * calls / 1e6 / seconds
        else:
            value = seconds * _SCALE[unit] / (amount * calls)
        out[name] = {"value": value, "unit": unit, "ops": amount * calls}
        print(f"  {name:<44}{value:>12.4g} {unit}", file=sys.stderr,
              flush=True)
    return out


# -- the floor ladder ---------------------------------------------------------

LADDER_BYTES = 2_000_000
LADDER_DOWNLOADS = 5


def _timed_downloads(download):
    """Best seconds of ``LADDER_DOWNLOADS`` runs of a blocking call.

    ``download`` returns a fresh blocking generator that yields the body;
    the clock runs from the call to its return, simulator work included.
    """
    best = None
    for _ in range(LADDER_DOWNLOADS):
        started = time.perf_counter()
        body = yield from download()
        elapsed = time.perf_counter() - started
        if len(body) != LADDER_BYTES:
            raise AssertionError(f"download returned {len(body)} bytes")
        best = elapsed if best is None else min(best, elapsed)
    return best


def _rung_netsim_direct(seed: int, body: bytes) -> float:
    sim = Simulator(seed=f"ladder-{seed}")
    network = Network(sim)
    client = network.create_node("client")
    origin = network.create_node("origin")
    network.register_dns("file.example", origin)
    HttpServer(origin, {"/file": body})

    def flow(task):
        def download():
            response = yield from http_get(task, network, client,
                                           "https://file.example/file")
            return response.body
        return (yield from _timed_downloads(download))

    return sim.run_until_done(sim.spawn(flow))


def _rung_tor_circuit(seed: int, body: bytes) -> float:
    net = TorTestNetwork(n_relays=9, seed=f"ladder-{seed}", fast_crypto=True)
    net.create_web_server("file.example", {"/file": body})
    client = net.create_client("ladder-client")

    def flow(task):
        circuit = yield from client.build_circuit(
            task, exit_to=("file.example", 443))

        def download():
            stream = yield from client.open_stream(task, circuit,
                                                   "file.example", 443)
            framed = FramedStream(stream)
            response = yield from fetch(task, framed, "/file", timeout=600.0)
            framed.close()
            return response.body
        return (yield from _timed_downloads(download))

    return net.sim.run_until_done(net.sim.spawn(flow))


def _rung_bento(seed: int, body: bytes, image: str,
                qos: QosConfig | None = None) -> float:
    net = TorTestNetwork(n_relays=9, seed=f"ladder-{seed}", fast_crypto=True,
                         bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias, qos=qos)
               for relay in net.bento_boxes()]
    client = BentoClient(net.create_client("ladder-client"), ias=ias)

    def flow(task):
        session = yield from client.connect(task, client.pick_box())
        yield from session.request_image(task, image, verify="stapled")
        yield from session.load_function(
            task, DropboxFunction.SOURCE, DropboxFunction.manifest(image=image))
        DropboxFunction.start(session)
        stored = yield from DropboxFunction.put(task, session, "file", body)
        if not stored:
            raise AssertionError("the dropbox refused the ladder file")
        best = yield from _timed_downloads(
            lambda: DropboxFunction.get(task, session, "file"))
        yield from DropboxFunction.close(task, session)
        yield from session.shutdown(task)
        session.close()
        return best

    best = net.sim.run_until_done(net.sim.spawn(flow))
    del servers
    return best


def run_ladder(seed: int) -> dict:
    """The five rungs: host ms per MB, and each as a multiple of the rung
    below."""
    body = DeterministicRandom(seed).fork("ladder").randbytes(LADDER_BYTES)
    rungs = {
        "netsim_direct": lambda: _rung_netsim_direct(seed, body),
        "tor_circuit": lambda: _rung_tor_circuit(seed, body),
        "bento_python": lambda: _rung_bento(seed, body, "python"),
        "bento_sgx": lambda: _rung_bento(seed, body, "python-op-sgx"),
        "bento_sgx_qos": lambda: _rung_bento(seed, body, "python-op-sgx",
                                             QosConfig()),
    }
    out, below = {}, None
    for name in LADDER:
        value = rungs[name]() * 1e3 / (LADDER_BYTES / 1e6)
        out[f"ladder.{name}.host_ms_per_mb"] = {
            "value": value, "unit": "ms/MB",
            "vs_below": value / below if below else None}
        print(f"  ladder.{name:<22}{value:>10.2f} ms/MB", file=sys.stderr,
              flush=True)
        below = value
    return out
