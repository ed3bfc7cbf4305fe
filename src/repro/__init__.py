"""Bento: safely bringing network function virtualization to Tor.

This package is a from-scratch Python reproduction of the SIGCOMM 2021
paper *Bento: Safely Bringing Network Function Virtualization to Tor*
(Reininger et al.).  It contains:

* ``repro.netsim`` -- a deterministic discrete-event network simulator,
* ``repro.tor``    -- a Tor substrate (cells, circuits, relays, directory,
  exit policies, hidden services) built on the simulator,
* ``repro.stemlib`` -- the Stem "firewall": ``api.stem``, one per function,
* ``repro.sandbox`` -- the OS sandbox substrate (cgroups, chroot memfs,
  seccomp, iptables),
* ``repro.enclave`` -- the simulated SGX/conclave substrate (measurement,
  attestation, FS Protect),
* ``repro.core``   -- Bento itself: server, client, tokens, policies,
  manifests, container images and the function API,
* ``repro.functions`` -- the paper's middlebox functions (Browser, Cover,
  Dropbox, Shard, LoadBalancer, ...),
* ``repro.fingerprint`` -- the website-fingerprinting evaluation harness.

See DESIGN.md for the full inventory and the per-experiment index.
"""

from repro.version import __version__

__all__ = ["__version__"]
