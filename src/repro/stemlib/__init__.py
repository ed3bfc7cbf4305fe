"""The Bento Stem "firewall" (§5.3).

The paper's functions use the stem library to programmatically create
circuits and launch hidden services; Bento mediates all such access through
a policy-enforcing firewall.  :class:`~repro.stemlib.firewall.StemFirewall`
is that firewall and is ``api.stem`` itself: one per function, holding the
circuits and hidden services that function built and calling the box's Tor
client directly.  There is no separate controller.
"""

from repro.stemlib.firewall import StemFirewall, StemPolicyViolation

__all__ = [
    "StemFirewall",
    "StemPolicyViolation",
]
