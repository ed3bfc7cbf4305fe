"""The migration plane: checkpoints and drains.

A drain is the one way state moves: the source box checkpoints a
quiesced instance and restores it on a destination it picks (the
``Restore`` frame, sealed under the attested channel to an enclaved
destination).  Warm replicas are the LoadBalancer's own pool (a tenant's
``standbys``, as in the ``chaos-soak-standby`` workload preset), not
staged checkpoints.

Opt-in like every plane: pass ``migrate=True`` to
:class:`~repro.core.server.BentoServer` to enable drain-then-migrate on a
box; default runs import nothing from here and stay bit-identical.
"""

from repro.migrate.checkpoint import (
    Checkpoint,
    MigrationError,
    NotCheckpointable,
    checkpoint_instance,
    seal_checkpoint,
    unseal_checkpoint,
)
from repro.migrate.plane import MigrationPlane

__all__ = [
    "Checkpoint",
    "MigrationError",
    "MigrationPlane",
    "NotCheckpointable",
    "checkpoint_instance",
    "seal_checkpoint",
    "unseal_checkpoint",
]
