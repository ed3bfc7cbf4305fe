"""Sealed checkpoint/restore of function state (the migration plane).

A checkpoint is the complete migratable image of a running
:class:`~repro.core.server.FunctionInstance`: the uploaded source, its
manifest, the state its ``checkpoint()`` export returned, the args of the
last invocation, every file in its (FS-Protected) store, and any inbox
messages that arrived after quiesce.  The wire format is a
canonical-encoded dict, so checkpoints are deterministic byte-for-byte.

A conclave's checkpoint is sealed in motion only (§5.4): a drain ships it
to the enclaved destination under the attested
:class:`~repro.enclave.conclave.SecureChannel` (``restore_function``), so
the state crosses the network end-to-end encrypted between the two
attested enclaves and neither host ever sees plaintext.  Nothing is kept
at rest: the function's store holds only what the function wrote, within
its own disk ask.

:func:`seal_checkpoint` seals a checkpoint under the enclave's
*measurement+platform* key instead; only the same enclave code on the
same box can unseal it, and any other raises
:class:`~repro.enclave.sealing.SealingError` rather than loading.
"""

from __future__ import annotations

from repro.core.errors import BentoError
from repro.enclave.sealing import seal_data, unseal_data
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.serialization import (UNENCODABLE, canonical_decode,
                                      canonical_encode)
from repro.util.spec import Record, field_table, read_fields

_CHECKPOINTS_TAKEN = _metrics.counter("perf_checkpoints_taken")


class MigrationError(BentoError):
    """A checkpoint, restore, or drain failed."""


class NotCheckpointable(MigrationError):
    """The function does not export ``checkpoint()``/``restore(state)``."""


class Checkpoint(Record, frozen=True):
    """One migratable snapshot of a function instance."""

    WIRE = field_table(
        name=str,               # manifest name (identity check on restore)
        entry=str,              # manifest entry point
        image=str,              # container image name
        manifest=dict,          # full manifest wire dict
        code=str,               # the uploaded source
        state=object,           # whatever the function's checkpoint() returned
        args=list,              # args of the last invocation (restart recipe)
        files=dict,             # path -> bytes, the function's file store
        inbox=list,             # undelivered client payloads, oldest first
        seq=int,                # sequence number on the wire (a drain ships 0)
        taken_at=float,         # sim time of the snapshot
        measurement=(str, ""))  # enclave measurement ("" outside a conclave)

    @classmethod
    def from_wire(cls, wire: dict) -> "Checkpoint":
        try:
            return cls(**read_fields(wire, cls.WIRE))
        except TypeError as exc:
            raise MigrationError(f"malformed checkpoint: {exc}") from None


def checkpoint_instance(instance) -> Checkpoint:
    """Snapshot a (quiesced or idle) instance.

    The function's exported state must canonical-encode — that is checked
    here, eagerly, so a bad export fails the checkpoint rather than the
    restore on a remote box.
    """
    runtime = instance.runtime
    if runtime is None or not instance.checkpointable:
        raise NotCheckpointable(
            "function does not export checkpoint()/restore(state)")
    state = runtime.checkpoint_state()
    try:
        canonical_encode(state)
    except UNENCODABLE as exc:
        raise MigrationError(
            f"checkpoint state is not canonical-encodable: {exc}") from exc
    fs = instance.fs
    files = {path: fs.read_file(path) for path in fs.walk_files("/")}
    inbox = [payload for payload, _peer in instance.api._inbox]
    cp = Checkpoint(
        name=instance.manifest.name,
        entry=instance.manifest.entry,
        image=instance.image.name,
        manifest=instance.manifest.to_wire(),
        code=runtime.code,
        state=state,
        args=list(runtime.last_args or []),
        files=files,
        inbox=inbox,
        seq=0,
        taken_at=float(instance.server.sim.now),
        measurement=(instance.conclave.measurement
                     if instance.conclave is not None else ""),
    )
    _CHECKPOINTS_TAKEN.value += 1
    return cp


# -- sealing ---------------------------------------------------------------

def seal_checkpoint(conclave, cp: Checkpoint) -> bytes:
    """Seal a checkpoint under the conclave's measurement+platform key."""
    return seal_data(conclave.enclave.sealing_key(),
                     canonical_encode(cp.to_wire()),
                     aad=cp.measurement.encode("utf-8"))


def unseal_checkpoint(sealing_key: bytes, sealed: bytes,
                      measurement: str) -> Checkpoint:
    """Unseal; raises :class:`SealingError` for the wrong enclave/platform."""
    wire = canonical_decode(unseal_data(sealing_key, sealed,
                                        aad=measurement.encode("utf-8")))
    return Checkpoint.from_wire(wire)
