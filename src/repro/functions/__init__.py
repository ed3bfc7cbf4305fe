"""The paper's middlebox functions.

Each module carries the *uploaded* artifact — the Python source string a
Bento client ships to a box — plus its manifest and a host-side client
helper.  The sources are genuinely executed by the in-container loader
(:mod:`repro.core.loader`), so what runs on a box is exactly what a user
would upload.

Paper sections: Browser (§7), LoadBalancer (§8), Cover (§9.1),
Dropbox (§9.2), Shard (§9.3), and the §9.4 future-work ideas
(multipath routing, geographical avoidance, hidden-service DDoS defense).
The package re-exports nothing: import a function from its own module
(``repro.functions.shard``), so a process compiles only what it runs.
"""
