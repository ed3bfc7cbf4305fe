"""HTTP/S over byte streams.

One HTTP implementation serves every vantage point in the reproduction:

* a Tor client fetching through a circuit (standard-Tor baseline),
* the Browser function fetching directly from an exit node,
* hidden-service content servers.

Responses are transferred in slow-start style windows, each (except the
last) acknowledged by the client before the next is released.  Because the
acks travel the same path as the data, pacing automatically reflects the
*end-to-end* RTT: through a circuit that is the full circuit RTT plus the
exit-to-server RTT; from an exit node it is just the exit-to-server RTT.
That asymmetry is exactly the mechanism behind Table 2's result that
Browser can beat standard Tor on small pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.netsim.bytestream import ByteStream, DirectByteStream, FramedStream
from repro.netsim.connection import Connection
from repro.netsim.network import Network, NetworkError
from repro.netsim.node import Node
from repro.netsim.simulator import Actor
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode
from repro.util.spec import decode_request

HTTPS_PORT = 443
HTTP_PORT = 80
_REQUEST_PAD = 420          # bring request frames to browser-like sizes
_ACK = b"ACK"

# Slow-start: initial window ~10 segments, doubling per acked window.
INITIAL_WINDOW = 14_600
MAX_WINDOW = 1 << 22

Body = Union[bytes, Callable[[str], bytes]]


@dataclass
class HttpResponse:
    """Status plus body; ``elapsed`` is filled by the client helpers."""

    status: int
    body: bytes
    url: str = ""
    elapsed: float = 0.0
    total: int = 0       # full resource size (differs from body on ranges)

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300


@dataclass
class ParsedUrl:
    """Decomposed ``scheme://host[:port]/path``."""

    scheme: str
    host: str
    port: int
    path: str


def parse_url(url: str) -> ParsedUrl:
    """Parse a URL; scheme defaults to https, port to the scheme's default."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        scheme, rest = "https", url
    if scheme not in ("http", "https"):
        raise ValueError(f"unsupported scheme: {scheme}")
    hostport, _slash, path = rest.partition("/")
    path = "/" + path
    host, colon, port_text = hostport.partition(":")
    if not host:
        raise ValueError(f"no host in url: {url}")
    port = int(port_text) if colon else (HTTPS_PORT if scheme == "https" else HTTP_PORT)
    return ParsedUrl(scheme=scheme, host=host, port=port, path=path)


def plan_windows(length: int, initial: int = INITIAL_WINDOW,
                 maximum: int = MAX_WINDOW) -> list[int]:
    """Split ``length`` bytes into slow-start windows (doubling sizes)."""
    windows: list[int] = []
    window = initial
    left = length
    while left > 0:
        take = min(window, left)
        windows.append(take)
        left -= take
        window = min(window * 2, maximum)
    return windows or [0]


class HttpServer:
    """Serves GETs for a path->body map over any accepted byte stream.

    ``resources`` values are either literal bytes or callables
    ``f(path) -> bytes`` for dynamic content.
    """

    def __init__(self, node: Node, resources: dict[str, Body],
                 port: int = HTTPS_PORT) -> None:
        self.node = node
        self.resources = dict(resources)
        self.port = port
        self.request_count = 0
        node.listen(port, self._accept)

    def add_resource(self, path: str, body: Body) -> None:
        """Register (or replace) a resource."""
        self.resources[path] = body

    def close(self) -> None:
        """Stop accepting new connections."""
        self.node.unlisten(self.port)

    def _accept(self, conn: Connection) -> None:
        stream = DirectByteStream(conn, self.node)
        self.node.sim.spawn(self._serve, stream,
                            name=f"http:{self.node.name}")

    def _serve(self, thread: Actor, stream: ByteStream):
        framed = FramedStream(stream)
        while True:
            try:
                frame = yield from framed.recv_frame(thread, timeout=600.0)
            except Exception:
                break
            if frame is None or frame == b"":
                break
            try:
                path, offset, length = decode_request(
                    frame, path=str, offset=(int, None), range_length=(int, None))
            except ProtocolError:
                break  # malformed request; drop the connection
            self.request_count += 1
            yield from self._respond(thread, framed, path, offset, length)
        framed.close()

    def _respond(self, thread: Actor, framed: FramedStream, path: str,
                 offset=None, length=None) -> None:
        body = self.resources.get(path)
        if callable(body):
            body = body(path)
        status = 200 if body is not None else 404
        if body is None:
            body = b"not found"
        total = len(body)
        if status == 200 and offset is not None:
            end = total if length is None else min(total, offset + length)
            body = body[offset:end]
            status = 206
        yield from serve_body(thread, framed, status, body, total=total)


def serve_body(thread: Actor, framed: FramedStream, status: int,
               body: bytes, total: Optional[int] = None) -> None:
    """Send one response (header + ack-paced windows) on ``framed``.

    Shared by :class:`HttpServer` and the Tor hidden-service file servers.
    ``total`` reports the full resource size on range (206) responses.
    """
    windows = plan_windows(len(body))
    header = canonical_encode({
        "status": status,
        "length": len(body),
        "total": total if total is not None else len(body),
        "nwindows": len(windows),
    })
    framed.send_frame(header)
    offset = 0
    for index, size in enumerate(windows):
        framed.send_frame(body[offset:offset + size])
        offset += size
        if index < len(windows) - 1:
            ack = yield from framed.recv_frame(thread, timeout=600.0)
            if ack != _ACK:
                return  # peer went away mid-transfer


def fetch(thread: Actor, framed: FramedStream, path: str,
          url: str = "", timeout: float = 600.0,
          offset: Optional[int] = None,
          length: Optional[int] = None) -> HttpResponse:
    """Issue one GET (optionally a byte range) on an established framed
    stream and read the response."""
    started = thread.sim.now
    request_fields = {
        "method": "GET",
        "path": path,
        "padding": b"\x00" * _REQUEST_PAD,
    }
    if offset is not None:
        request_fields["offset"] = int(offset)
        if length is not None:
            request_fields["range_length"] = int(length)
    request = canonical_encode(request_fields)
    framed.send_frame(request)
    header_frame = yield from framed.recv_frame(thread, timeout=timeout)
    if header_frame is None:
        raise NetworkError(f"connection closed before response header ({url})")
    status, length, total, nwindows = decode_request(
        header_frame, status=int, length=int, total=int, nwindows=int)
    parts: list[bytes] = []
    for index in range(nwindows):
        part = yield from framed.recv_frame(thread, timeout=timeout)
        if part is None:
            raise NetworkError(f"connection closed mid-body ({url})")
        parts.append(part)
        if index < nwindows - 1:
            framed.send_frame(_ACK)
    body = b"".join(parts)
    if len(body) != length:
        raise NetworkError(f"body length mismatch ({url})")
    return HttpResponse(status=status, body=body, url=url,
                        elapsed=thread.sim.now - started, total=total)


def http_get(thread: Actor, network: Network, client: Node, url: str,
             timeout: float = 600.0) -> HttpResponse:
    """Resolve, dial (TCP+TLS for https), GET, and close.

    This is the *direct* (non-Tor) fetch used by exit-side code such as the
    Browser function; Tor clients instead wrap a circuit stream in a
    :class:`~repro.netsim.bytestream.FramedStream` and call :func:`fetch`.
    """
    parsed = parse_url(url)
    address = network.resolve(parsed.host)
    rtts = 2.0 if parsed.scheme == "https" else 1.0
    conn = yield from network.connect_blocking(
        thread, client, address, parsed.port, handshake_rtts=rtts, timeout=timeout
    )
    framed = FramedStream(DirectByteStream(conn, client))
    try:
        response = yield from fetch(thread, framed, parsed.path, url=url,
                                    timeout=timeout)
    finally:
        framed.close()
    return response
