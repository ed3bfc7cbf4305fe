"""Trace collection: the §7.3 experiment harness.

A :class:`FingerprintLab` hosts the synthetic corpus on a Tor test
network and records, per visit, exactly what the paper's adversary sees —
every packet on the client<->guard link — under three conditions:

* ``"none"``     -- unmodified Tor: circuit to an exit, crawl the page,
* ``"browser"``  -- the Browser function with a chosen padding size,
* a caller-provided visit callable for custom defenses (ablations).

Each visit uses a fresh client node (fresh guard link, fresh circuit),
mirroring one browser session per capture in the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.fingerprint.features import extract_features
from repro.fingerprint.websites import SiteSpec, build_corpus
from repro.functions.browser import BrowserFunction
from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch
from repro.netsim.simulator import Join
from repro.netsim.trace import PacketRecord, TraceRecorder
from repro.tor.testnet import TorTestNetwork


PARALLEL_STREAMS = 6    # a browser's typical per-host connection pool


def standard_tor_visit(thread, client, hostname: str,
                       parallel: int = PARALLEL_STREAMS,
                       circuit=None) -> int:
    """A browser-like page load through Tor: fetch the index, then pull
    subresources over up to ``parallel`` concurrent streams on the same
    circuit.  Returns the number of resources fetched."""
    if circuit is None:
        circuit = yield from client.build_circuit(thread,
                                                  exit_to=(hostname, 443))
    stream = yield from client.open_stream(thread, circuit, hostname, 443)
    framed = FramedStream(stream)
    index = yield from fetch(thread, framed, "/", url=f"https://{hostname}/")
    paths = [line.strip()
             for line in index.body.decode("latin-1", "replace").splitlines()
             if line.strip().startswith("/")]
    framed.close()

    queue = list(paths)

    def worker(worker_thread):
        """One parallel fetch worker (a browser connection-pool slot)."""
        worker_stream = yield from circuit.open_stream(worker_thread,
                                                       hostname, 443)
        worker_framed = FramedStream(worker_stream)
        while queue:
            path = queue.pop(0)
            yield from fetch(worker_thread, worker_framed, path,
                             url=f"https://{hostname}{path}")
        worker_framed.close()

    workers = [client.sim.spawn(worker, name=f"fetch-worker{i}")
               for i in range(min(parallel, max(1, len(paths))))]
    for worker_thread in workers:
        yield Join(worker_thread)
    circuit.close()
    return 1 + len(paths)


@dataclass
class TraceSample:
    """One labelled capture."""

    site: int
    defense: str
    padding: int
    records: list[PacketRecord]
    elapsed: float


class FingerprintLab:
    """Corpus + network + collection in one object."""

    def __init__(self, n_sites: int = 100, n_relays: int = 15,
                 seed: int | str = "fplab",
                 bento_fraction: float = 0.3,
                 browser_image: str = "python",
                 min_total: int = 30 * 1024,
                 max_total: int = 1_500 * 1024) -> None:
        self.corpus: list[SiteSpec] = build_corpus(
            n_sites, seed=f"{seed}-corpus",
            min_total=min_total, max_total=max_total)
        self.net = TorTestNetwork(n_relays=n_relays, seed=seed,
                                  bento_fraction=bento_fraction)
        self.browser_image = browser_image
        self.ias = IntelAttestationService(self.net.sim.rng.fork("ias"))
        self.servers = [BentoServer(relay, self.net.authority, ias=self.ias)
                        for relay in self.net.bento_boxes()]
        body_rng = self.net.sim.rng.fork("bodies")
        for site in self.corpus:
            self.net.create_web_server(
                site.hostname, site.resources(body_rng.fork(site.hostname)))
        self._visit_counter = 0

    # -- visit implementations ------------------------------------------------

    def _visit_standard(self, thread, client, site: SiteSpec):
        """Unmodified Tor: crawl the page through a fresh circuit."""
        yield from standard_tor_visit(thread, client, site.hostname)

    def _visit_browser(self, thread, client, site: SiteSpec,
                       padding: int):
        """The defense: install and run Browser on a Bento box (Figure 1)."""
        bento = BentoClient(client, ias=self.ias)
        session = yield from bento.connect(thread, bento.pick_box())
        yield from session.request_image(thread, self.browser_image)
        yield from session.load_function(
            thread, BrowserFunction.SOURCE,
            BrowserFunction.manifest(image=self.browser_image))
        yield from BrowserFunction.fetch(thread, session,
                                         f"https://{site.hostname}/", padding)
        yield from session.shutdown(thread)
        session.close()

    # -- collection ----------------------------------------------------------------

    def collect(self, defense: str = "none", visits_per_site: int = 10,
                padding: int = 0,
                site_indices: Optional[list[int]] = None,
                visit_fn: Optional[Callable] = None) -> list[TraceSample]:
        """Capture ``visits_per_site`` labelled traces per site.

        Returns samples in (visit-round, site) order.  ``visit_fn`` (taking
        ``(thread, tor_client, site)``) overrides the built-in behaviors
        for custom-defense ablations.
        """
        if site_indices is None:
            site_indices = [site.index for site in self.corpus]
        samples: list[TraceSample] = []
        for visit_round in range(visits_per_site):
            for site_index in site_indices:
                site = self.corpus[site_index]
                samples.append(self._one_visit(site, defense, padding,
                                               visit_round, visit_fn))
        return samples

    def _one_visit(self, site: SiteSpec, defense: str, padding: int,
                   visit_round: int,
                   visit_fn: Optional[Callable]) -> TraceSample:
        self._visit_counter += 1
        client = self.net.create_client(
            f"fp{self._visit_counter}-s{site.index}v{visit_round}")
        recorder = TraceRecorder(client.node)
        started = self.net.sim.now

        def _run(thread):
            if visit_fn is not None:
                yield from visit_fn(thread, client, site)
            elif defense == "none":
                yield from self._visit_standard(thread, client, site)
            elif defense == "browser":
                yield from self._visit_browser(thread, client, site, padding)
            else:
                raise ValueError(f"unknown defense: {defense}")

        visit_thread = self.net.sim.spawn(_run, name=f"visit{self._visit_counter}")
        self.net.sim.run_until_done(visit_thread)
        return TraceSample(site=site.index, defense=defense, padding=padding,
                           records=recorder.cut(),
                           elapsed=self.net.sim.now - started)

    # -- dataset helpers --------------------------------------------------------------

    @staticmethod
    def dataset(samples: list[TraceSample]
                ) -> tuple[list[list[float]], list[int]]:
        """Samples -> (feature rows X, site labels y)."""
        return ([extract_features(sample.records) for sample in samples],
                [sample.site for sample in samples])
