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
from typing import Any, Optional

from repro.core.errors import BentoError
from repro.enclave.sealing import seal_data, unseal_data
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.serialization import canonical_decode, canonical_encode

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
    seq: int                # shipping sequence (standby lag accounting)
    taken_at: float         # sim time of the snapshot
    measurement: str        # enclave measurement ("" outside a conclave)

    def to_wire(self) -> dict:
        return {
            "name": self.name, "entry": self.entry, "image": self.image,
            "manifest": dict(self.manifest), "code": self.code,
            "state": self.state, "args": list(self.args),
            "files": dict(self.files), "inbox": list(self.inbox),
            "seq": int(self.seq), "taken_at": float(self.taken_at),
            "measurement": self.measurement,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Checkpoint":
        return cls(
            name=wire["name"], entry=wire["entry"], image=wire["image"],
            manifest=dict(wire["manifest"]), code=wire["code"],
            state=wire["state"], args=list(wire["args"]),
            files=dict(wire["files"]), inbox=list(wire["inbox"]),
            seq=int(wire["seq"]), taken_at=float(wire["taken_at"]),
            measurement=wire.get("measurement", ""),
        )


def _instance_fs(instance):
    if instance.conclave is not None:
        return instance.conclave.fs
    return instance.container.fs


def checkpoint_instance(instance, seq: int = 0) -> Checkpoint:
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
    except Exception as exc:
        raise MigrationError(
            f"checkpoint state is not canonical-encodable: {exc}") from exc
    fs = _instance_fs(instance)
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
        seq=int(seq),
        taken_at=instance.server.sim.now,
        measurement=(instance.conclave.measurement
                     if instance.conclave is not None else ""),
    )
    _CHECKPOINTS_TAKEN.value += 1
    return cp


def restore_instance(instance, cp: Optional[Checkpoint], peer,
                     start: bool = False) -> None:
    """Apply a checkpoint to a freshly loaded instance.

    With ``cp=None`` nothing new is staged (a standby promotion re-uses
    the last shipped checkpoint's state, already applied); ``start=True``
    then (re)starts the entry with the staged args.
    """
    runtime = instance.runtime
    if runtime is None:
        raise MigrationError("no function loaded to restore into")
    if cp is not None:
        if cp.name != instance.manifest.name or cp.entry != instance.manifest.entry:
            raise MigrationError(
                f"checkpoint is for {cp.name!r}/{cp.entry!r}, "
                f"not {instance.manifest.name!r}/{instance.manifest.entry!r}")
        if not instance.checkpointable:
            raise NotCheckpointable(
                "loaded function does not export checkpoint()/restore(state)")
        fs = _instance_fs(instance)
        for path, data in cp.files.items():
            current = fs.file_size(path) if fs.exists(path) else 0
            delta = len(data) - current
            if delta > 0:
                instance.container.cgroup.charge("disk", delta)
            fs.write_file(path, bytes(data))
            if delta < 0:
                instance.container.cgroup.charge("disk", delta)
        runtime.restore_state(cp.state)
        runtime.last_args = list(cp.args)
        for payload in cp.inbox:
            instance.api._push_message(payload, peer)
    if start and not runtime.running:
        if runtime.last_args is None:
            raise MigrationError("no staged args to start the entry with")
        runtime.start(list(runtime.last_args), peer)


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
