"""Bento's exception hierarchy."""

from repro.util.errors import ReproError


class BentoError(ReproError):
    """Base class for Bento-level failures; ``reason`` names one on the wire."""

    reason = "request-failed"
    wire_fields: tuple[str, ...] = ()


class ManifestRejected(BentoError):
    """The function's manifest asks for more than the node's policy permits."""

    reason = "manifest-rejected"


class TokenInvalid(BentoError):
    """An unknown, spent, or forged invocation/shutdown token."""

    reason = "bad-token"


class FunctionCrashed(BentoError):
    """The function raised (or was killed by the sandbox) during execution."""

    reason = "function-crashed"


class ImageUnavailable(BentoError):
    """The requested container image is not offered by this Bento server."""


class AttestationRejected(BentoError):
    """The client refused the server's attestation evidence."""


class ServerBusy(BentoError):
    """The serving plane refused admission; retry after ``retry_after`` s,
    which :meth:`~repro.core.client.BentoClient.retrying` honors instead
    of its exponential backoff."""

    reason = "server-busy"
    wire_fields = ("retry_after",)

    def __init__(self, detail: str, retry_after: float = 0.0) -> None:
        self.retry_after = float(retry_after)
        super().__init__(detail)


class FunctionMoved(BentoError):
    """The function migrated to the box whose identity fingerprint is
    ``box_fp``; :meth:`~repro.core.client.BentoClient.retrying` retargets
    the session there before its next reconnect, so callers see a bounded
    pause rather than a hard failure."""

    reason = "moved"
    wire_fields = ("box_fp",)

    def __init__(self, detail: str, box_fp: str = "") -> None:
        self.box_fp = str(box_fp)
        super().__init__(detail)


class PuzzleRequired(BentoError):
    """Under shed pressure the box demands a hashcash ``challenge`` of
    ``difficulty`` bits before admitting; the client solves it (see
    :mod:`repro.functions.ddos_defense`) and resends the request with
    ``pow_challenge``/``pow_nonce`` attached."""

    reason = "puzzle-required"
    wire_fields = ("challenge", "difficulty")

    def __init__(self, detail: str, challenge: bytes = b"",
                 difficulty: int = 0) -> None:
        self.challenge = bytes(challenge)
        self.difficulty = int(difficulty)
        super().__init__(detail)
