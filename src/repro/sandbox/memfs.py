"""An in-memory filesystem with chroot views and usage accounting.

Containers get a chrooted subtree of their host's filesystem, so "clients
cannot access any files but their own" (§5.3).  A chroot charges every
change in the bytes it holds to its ``charge`` callable (a container's
:class:`~repro.sandbox.cgroups.CGroup` disk), so disk quotas are enforced
at write time, where the bytes are stored.
"""

from __future__ import annotations

import posixpath
from repro.util.errors import ReproError


class FsError(ReproError):
    """Missing files, bad paths, directory/file confusion."""


class FsQuotaExceeded(FsError):
    """A write would exceed the owning cgroup's disk quota."""


def _normalize(path: str) -> str:
    """Normalize to an absolute, ``..``-free path.

    Escape attempts (``../../etc/passwd``) normalize harmlessly inside the
    root — the property a chroot provides.
    """
    normalized = posixpath.normpath("/" + path.lstrip("/"))
    parts = [part for part in normalized.split("/") if part not in ("", ".", "..")]
    return "/" + "/".join(parts)


class MemFS:
    """A tree of directories and byte-string files."""

    def __init__(self) -> None:
        # path -> bytes for files; dirs tracked implicitly plus explicit set.
        self._files: dict[str, bytes] = {}
        self._dirs: set[str] = {"/"}
        self.bytes_used = 0

    # -- internals -----------------------------------------------------------

    def _parent_dirs(self, path: str) -> list[str]:
        parts = path.strip("/").split("/")
        return ["/" + "/".join(parts[:i]) for i in range(1, len(parts))]

    # -- operations --------------------------------------------------------------

    def write_file(self, path: str, data: bytes, charge=None) -> None:
        """Create or replace a file, creating parent directories.

        ``charge(delta)`` is told the change in stored bytes before
        anything changes, so a refused growth leaves the file as it was.
        """
        path = _normalize(path)
        if path == "/" or path in self._dirs:
            raise FsError(f"is a directory: {path}")
        data = bytes(data)
        delta = len(data) - len(self._files.get(path, b""))
        if charge is not None and delta:
            charge(delta)                # may raise ResourceExceeded
        for parent in self._parent_dirs(path):
            self._dirs.add(parent)
        self._files[path] = data
        self.bytes_used += delta

    def read_file(self, path: str) -> bytes:
        """The file's contents; :class:`FsError` if absent."""
        path = _normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise FsError(f"no such file: {path}") from None

    def delete(self, path: str, charge=None) -> None:
        """Remove a file (directories are removed when emptied implicitly)."""
        path = _normalize(path)
        data = self._files.pop(path, None)
        if data is None:
            raise FsError(f"no such file: {path}")
        self.bytes_used -= len(data)
        if charge is not None:
            charge(-len(data))

    def exists(self, path: str) -> bool:
        """Does the path exist?"""
        path = _normalize(path)
        return path in self._files or path in self._dirs

    def is_dir(self, path: str) -> bool:
        """Is dir."""
        return _normalize(path) in self._dirs

    def file_size(self, path: str) -> int:
        """File size."""
        return len(self.read_file(path))

    def mkdir(self, path: str) -> None:
        """Create a directory (and parents)."""
        path = _normalize(path)
        if path in self._files:
            raise FsError(f"file exists: {path}")
        for parent in self._parent_dirs(path):
            self._dirs.add(parent)
        self._dirs.add(path)

    def listdir(self, path: str = "/") -> list[str]:
        """Immediate children (names, not full paths) of a directory."""
        path = _normalize(path)
        if path not in self._dirs:
            raise FsError(f"no such directory: {path}")
        prefix = path.rstrip("/") + "/"
        children: set[str] = set()
        for known in list(self._files) + list(self._dirs):
            if known != path and known.startswith(prefix):
                rest = known[len(prefix):]
                children.add(rest.split("/", 1)[0])
        return sorted(children)

    def walk_files(self, path: str = "/") -> list[str]:
        """All file paths under a directory, sorted."""
        path = _normalize(path)
        prefix = "/" if path == "/" else path.rstrip("/") + "/"
        return sorted(p for p in self._files if p == path or p.startswith(prefix))

    # -- chroot ---------------------------------------------------------------

    def chroot(self, path: str, charge=None) -> "ChrootView":
        """A view rooted at ``path``; escapes are structurally impossible."""
        path = _normalize(path)
        self.mkdir(path)
        return ChrootView(self, path, charge)


class ChrootView:
    """A :class:`MemFS`-compatible view of one subtree.

    The one place disk is charged: every write, overwrite, delete and
    purge tells ``charge(delta)`` how the bytes the view holds changed,
    growth before it lands.
    """

    def __init__(self, backing: MemFS, root: str, charge=None) -> None:
        self._backing = backing
        self.root = root
        self._charge = charge   # callable(delta_bytes) or None

    def _real(self, path: str) -> str:
        return _normalize(self.root + _normalize(path))

    def write_file(self, path: str, data: bytes) -> None:
        """Write file."""
        self._backing.write_file(self._real(path), data, self._charge)

    def read_file(self, path: str) -> bytes:
        """Read file."""
        return self._backing.read_file(self._real(path))

    def delete(self, path: str) -> None:
        """Remove a file."""
        self._backing.delete(self._real(path), self._charge)

    def exists(self, path: str) -> bool:
        """Does the path exist?"""
        return self._backing.exists(self._real(path))

    def is_dir(self, path: str) -> bool:
        """Is dir."""
        return self._backing.is_dir(self._real(path))

    def mkdir(self, path: str) -> None:
        """Mkdir."""
        self._backing.mkdir(self._real(path))

    def listdir(self, path: str = "/") -> list[str]:
        """Immediate children of a directory."""
        return self._backing.listdir(self._real(path))

    def walk_files(self, path: str = "/") -> list[str]:
        """All file paths under a directory."""
        prefix_len = len(self.root)
        return [p[prefix_len:] or "/"
                for p in self._backing.walk_files(self._real(path))]

    @property
    def bytes_used(self) -> int:
        """Total bytes of all files inside this view."""
        return sum(self._backing.file_size(self.root + p)
                   for p in self.walk_files("/"))

    def purge(self) -> None:
        """Delete every file in the view (container teardown)."""
        for path in self.walk_files("/"):
            self._backing.delete(self.root + path, self._charge)
