"""Base exception hierarchy for the whole reproduction.

Every package defines its own exceptions derived from :class:`ReproError`
so callers can catch "anything this library raises" with one except clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ProtocolError(ReproError):
    """A peer sent a message that violates the protocol state machine."""
