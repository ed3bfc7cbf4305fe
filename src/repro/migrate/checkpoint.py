"""Sealed checkpoint/restore of function state (the migration plane).

A checkpoint is the complete migratable image of a running
:class:`~repro.core.server.FunctionInstance`: the uploaded source, its
manifest, the state its ``checkpoint()`` export returned, the args of the
last invocation, every file in its (FS-Protected) store, and any inbox
messages that arrived after quiesce.  The wire format is a
canonical-encoded dict, so checkpoints are deterministic byte-for-byte.

Sealing is layered exactly like the paper's storage story (§5.4):

* **at rest** — :func:`store_local_checkpoint` seals the wire bytes under
  the enclave's *measurement+platform* sealing key and writes them through
  FS Protect, whose versioned envelopes give rollback detection.  Only
  the same enclave code on the same box can unseal; a checkpoint copied
  to another platform raises :class:`~repro.enclave.sealing.SealingError`
  rather than silently loading.
* **in motion** — a drain never ships the platform-sealed blob (it would
  be useless off-box by construction).  It re-seals the checkpoint under
  the attested :class:`~repro.enclave.conclave.SecureChannel` to the
  destination conclave, so the state crosses the network end-to-end
  encrypted between the two attested enclaves and neither host ever sees
  plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.errors import BentoError
from repro.enclave.sealing import seal_data, unseal_data
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.serialization import (UNENCODABLE, canonical_decode,
                                      canonical_encode)
from repro.util.spec import field_table, read_fields

_CHECKPOINTS_TAKEN = _metrics.counter("perf_checkpoints_taken")

#: Where the latest sealed checkpoint rests inside the instance's own
#: (FS-Protected) store.  Excluded from the files a checkpoint captures.
CHECKPOINT_PATH = "/.bento/checkpoint.sealed"


class MigrationError(BentoError):
    """A checkpoint, restore, or drain failed."""


class NotCheckpointable(MigrationError):
    """The function does not export ``checkpoint()``/``restore(state)``."""


@dataclass(frozen=True)
class Checkpoint:
    """One migratable snapshot of a function instance."""

    name: str               # manifest name (identity check on restore)
    entry: str              # manifest entry point
    image: str              # container image name
    manifest: dict          # full manifest wire dict
    code: str               # the uploaded source
    state: Any              # whatever the function's checkpoint() returned
    args: list              # args of the last invocation (restart recipe)
    files: dict             # path -> bytes, the function's file store
    inbox: list             # undelivered client payloads, oldest first
    seq: int                # sequence number on the wire (a drain ships 0)
    taken_at: float         # sim time of the snapshot
    measurement: str        # enclave measurement ("" outside a conclave)

    def to_wire(self) -> dict:
        return {name: getattr(self, name) for name in _WIRE}

    @classmethod
    def from_wire(cls, wire: dict) -> "Checkpoint":
        try:
            return cls(**read_fields(wire, _WIRE))
        except TypeError as exc:
            raise MigrationError(f"malformed checkpoint: {exc}") from None


#: :class:`Checkpoint`'s wire form, field by field.
_WIRE = field_table(name=str, entry=str, image=str, manifest=dict, code=str,
                    state=object, args=list, files=dict, inbox=list, seq=int,
                    taken_at=float, measurement=(str, ""))


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
    files = {}
    for path in fs.walk_files("/"):
        if path.startswith("/.bento/"):
            continue
        files[path] = fs.read_file(path)
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


def store_local_checkpoint(instance, cp: Checkpoint) -> None:
    """Seal and persist a checkpoint at rest, with rollback detection.

    The sealed blob goes through FS Protect, whose versioned envelopes
    make a swapped-back older checkpoint raise ``rollback detected``
    instead of loading (§5.4's anti-rollback story).
    """
    if instance.conclave is None:
        raise MigrationError(
            "local sealed checkpoints require a conclave instance")
    instance.conclave.fs.write_file(CHECKPOINT_PATH,
                                    seal_checkpoint(instance.conclave, cp))


def load_local_checkpoint(instance) -> Checkpoint:
    """Read back the locally stored sealed checkpoint."""
    if instance.conclave is None:
        raise MigrationError(
            "local sealed checkpoints require a conclave instance")
    sealed = instance.conclave.fs.read_file(CHECKPOINT_PATH)
    return unseal_checkpoint(instance.conclave.enclave.sealing_key(), sealed,
                             instance.conclave.measurement)
