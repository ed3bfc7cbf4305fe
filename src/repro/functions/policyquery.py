"""PolicyQuery: self-serve dissemination of middlebox node policies (§5.5).

    "To support immediate, incremental deployment, we have implemented a
    function that runs on a well-known port that returns the node's
    middlebox node policy, allowing users to query Bento nodes to see
    what they support."

The operator loads this function themselves with their policy as an
argument; anyone holding the (well-known, shared) invocation token can
query it.  The Bento wire protocol also answers POLICY_QUERY natively;
this function exists to show the paper's bootstrap path works with no
protocol support at all.
"""

from __future__ import annotations

import json

from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.netsim.simulator import Actor
from repro.util.errors import ProtocolError

MB = 1024 * 1024

POLICY_QUERY_SOURCE = r'''
import json

def policy_query(policy_json, max_queries):
    answered = 0
    while answered < max_queries:
        try:
            yield from api.recv()
        except Exception:
            break
        yield from api.send(policy_json.encode("utf-8"))
        answered += 1
    return {"answered": answered}
'''


class PolicyQueryFunction:
    """Host-side helper for the PolicyQuery function."""

    SOURCE = POLICY_QUERY_SOURCE
    API_CALLS = frozenset({"send", "recv"})

    @classmethod
    def manifest(cls, image: str = "python") -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="policy-query", entry="policy_query",
            api_calls=cls.API_CALLS, image=image, memory_bytes=1 * MB)

    @staticmethod
    def start(session, policy: MiddleboxNodePolicy,
              max_queries: int = 1_000_000) -> None:
        """Launch the responder with the operator's policy."""
        session.invoke_nowait([json.dumps(policy.to_wire()), max_queries])

    @staticmethod
    def query(thread: Actor, session,
              timeout: float = 300.0) -> MiddleboxNodePolicy:
        """Ask a running PolicyQuery function for the node's policy."""
        session.send_message(b"?")
        reply = yield from session.next_output(thread, timeout=timeout)
        try:
            wire = json.loads(reply.decode("utf-8"))
        except ValueError as exc:
            raise ProtocolError(f"policy reply is not JSON: {exc}") from None
        return MiddleboxNodePolicy.from_wire(wire)
