"""The migration plane: sealed checkpoint/restore and drains.

A warm standby needs nothing more: a session stages a checkpoint with
``restore_function(cp, start=False)`` and starts it later; the
LoadBalancer keeps its own pool of warm replicas (a tenant's
``standbys``, as in the ``chaos-soak-standby`` workload preset).

Opt-in like every plane: pass ``migrate=MigrationConfig()`` to
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
    restore_instance,
    seal_checkpoint,
    store_local_checkpoint,
    unseal_checkpoint,
)
from repro.migrate.plane import MigrationConfig, MigrationPlane


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
    "MigrationConfig",
    "MigrationError",
    "MigrationPlane",
    "NotCheckpointable",
    "checkpoint_instance",
    "checkpointable_functions",
    "load_local_checkpoint",
    "restore_instance",
    "seal_checkpoint",
    "store_local_checkpoint",
    "unseal_checkpoint",
]
