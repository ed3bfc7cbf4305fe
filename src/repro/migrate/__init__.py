"""The migration plane: sealed checkpoints and drains.

A drain is the one way state moves: the source box checkpoints a
quiesced instance and restores it on a destination it picks (the
``Restore`` frame).  Warm replicas are the LoadBalancer's own pool (a
tenant's ``standbys``, as in the ``chaos-soak-standby`` workload preset),
not staged checkpoints.

Opt-in like every plane: pass ``migrate=True`` to
:class:`~repro.core.server.BentoServer` to enable drain-then-migrate on a
box; default runs import nothing from here and stay bit-identical.
"""

from repro.migrate.checkpoint import (
    CHECKPOINT_PATH,
    Checkpoint,
    MigrationError,
    NotCheckpointable,
    checkpoint_instance,
    load_local_checkpoint,
    seal_checkpoint,
    store_local_checkpoint,
    unseal_checkpoint,
)
from repro.migrate.plane import MigrationPlane


def checkpointable_functions() -> dict:
    """Every in-tree function exporting the checkpoint protocol, as
    ``name -> (source, manifest)`` — the property-test inventory."""
    from repro.functions.kvstore import KvStoreFunction

    inventory = {
        "kvstore": (KvStoreFunction.SOURCE, KvStoreFunction.manifest()),
    }
    return inventory


__all__ = [
    "CHECKPOINT_PATH",
    "Checkpoint",
    "MigrationError",
    "MigrationPlane",
    "NotCheckpointable",
    "checkpoint_instance",
    "checkpointable_functions",
    "load_local_checkpoint",
    "seal_checkpoint",
    "store_local_checkpoint",
    "unseal_checkpoint",
]
