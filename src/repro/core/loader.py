"""The in-container function loader and runtime.

Client-provided source is executed in a namespace whose only capability is
the ``api`` object; builtins are reduced to a computational subset and
``import`` is limited to a small allowlist of pure-computation modules
(``zlib``, ``math``, ...).  This mirrors the paper's stance: the *code* is
unconstrained Python, and safety comes from what the environment lets it
reach (§5.1: "Rather than enforce safety by limiting functions' code
itself, Bento servers run functions in sandboxes").

The one structural demand on the code: the entry point is a generator
function, because every api call is ``yield from api.<call>(...)`` and the
invocation runs as a :class:`~repro.netsim.simulator.SimTask`.  The source
comes from outside the program, so :meth:`FunctionRuntime.load` checks it
and refuses a plain entry while the client is still at ``load_function``.
"""

from __future__ import annotations

import builtins as _builtins
import functools
import inspect
from typing import Any, Callable, Optional

from repro.core.errors import BentoError, FunctionCrashed
from repro.core.manifest import FunctionManifest

# Pure-computation modules a function may import.  Nothing here touches
# the filesystem, network, processes, or interpreter internals.
SAFE_MODULES = frozenset({
    "zlib", "math", "json", "struct", "hashlib", "base64", "binascii",
    "string", "re", "itertools", "functools", "collections", "heapq",
    "bisect", "textwrap", "datetime", "statistics",
})

_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "dict", "divmod", "enumerate", "filter", "float",
    "format", "frozenset", "hash", "hex", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object", "oct",
    "ord", "pow", "print", "range", "repr", "reversed", "round", "set",
    "slice", "sorted", "str", "sum", "tuple", "zip",
    # exceptions for a function's own logic; api failures are api.Error
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "Exception", "IndexError", "KeyError", "LookupError", "OverflowError",
    "RuntimeError", "StopIteration", "TypeError", "ValueError",
    "ZeroDivisionError",
)


class LoaderError(BentoError):
    """The uploaded source failed to compile, import, or define its entry."""


def _make_safe_import() -> Callable:
    def safe_import(name: str, globals=None, locals=None, fromlist=(), level=0):
        """Importer restricted to the SAFE_MODULES allowlist."""
        root = name.split(".")[0]
        if root not in SAFE_MODULES:
            raise ImportError(
                f"import of {name!r} is not permitted inside a Bento function")
        return _builtins.__import__(name, globals, locals, fromlist, level)
    return safe_import


def build_function_namespace(api) -> dict[str, Any]:
    """The globals dict uploaded code executes in."""
    safe_builtins = {name: getattr(_builtins, name)
                     for name in _SAFE_BUILTIN_NAMES}
    safe_builtins["__import__"] = _make_safe_import()
    return {
        "__builtins__": safe_builtins,
        "__name__": "bento_function",
        "api": api,
    }


@functools.lru_cache(maxsize=256)
def _compile(source: str, filename: str):
    """The code object for ``source``, compiled once per process.

    A code object is immutable and holds no globals, so every load of the
    same upload can share it; a source that fails to compile raises and
    is not cached.  The filename is part of the key: it carries the
    manifest name into tracebacks and profiles.
    """
    return compile(source, filename, "exec")


def _tenant(what: str, call: Callable, *args: Any) -> Any:
    """``call(*args)``, tenant code, across the sandbox boundary: it may
    raise anything, and the client hears it as a LoaderError (the one broad
    catch in the tree)."""
    try:
        return call(*args)
    except Exception as exc:
        raise LoaderError(f"function failed to {what}: {exc!r}") from exc


class FunctionRuntime:
    """Loads source once, then runs the entry per invocation."""

    def __init__(self, instance, code: str, manifest: FunctionManifest) -> None:
        self.instance = instance
        self.code = code
        self.manifest = manifest
        self.namespace: Optional[dict] = None
        self.entry: Optional[Callable] = None
        self.running = False
        # The args of the most recent start(); a restored instance re-runs
        # its entry with these (the migration plane ships them in the
        # checkpoint).
        self.last_args: Optional[list] = None

    def load(self) -> None:
        """Compile and execute the module body; locate the entry point."""
        namespace = build_function_namespace(self.instance.api)
        _tenant("load", lambda: exec(  # noqa: S102 - the point of Bento
            _compile(self.code, f"<function:{self.manifest.name}>"), namespace))
        entry = namespace.get(self.manifest.entry)
        if not callable(entry):
            raise LoaderError(
                f"entry point {self.manifest.entry!r} not found or not callable")
        if not inspect.isgeneratorfunction(entry):
            # A plain entry would call api methods without `yield from`,
            # and every one of them would silently do nothing.
            raise LoaderError(
                f"entry point {self.manifest.entry!r} must be a generator "
                f"function: api calls are `yield from api.<call>(...)`")
        self.namespace = namespace
        self.entry = entry

    # -- checkpoint/restore (the migration plane's view of a function) ----

    @property
    def checkpointable(self) -> bool:
        """Did the uploaded source define ``checkpoint()``/``restore(state)``?

        The protocol is opt-in at the function level: a function that keeps
        migratable state exports a plain ``checkpoint()`` callable returning
        a canonical-encodable value and a ``restore(state)`` callable that
        reinstates it.  Both run synchronously (no api access needed)."""
        if self.namespace is None:
            return False
        return (callable(self.namespace.get("checkpoint"))
                and callable(self.namespace.get("restore")))

    def checkpoint_state(self) -> Any:
        """Snapshot the function's exported state."""
        if not self.checkpointable:
            raise LoaderError(
                f"function {self.manifest.name!r} is not checkpointable")
        return _tenant("checkpoint", self.namespace["checkpoint"])

    def restore_state(self, state: Any) -> None:
        """Reinstate a snapshot taken by :meth:`checkpoint_state`."""
        if not self.checkpointable:
            raise LoaderError(
                f"function {self.manifest.name!r} is not checkpointable")
        _tenant("restore", self.namespace["restore"], state)

    def start(self, args: list, route) -> None:
        """Run one invocation in its own actor; its answers take ``route``."""
        if self.entry is None:
            raise LoaderError("function not loaded")
        if self.running:
            raise LoaderError("function already running")
        self.running = True
        self.last_args = list(args)
        sim = self.instance.server.sim
        api = self.instance.api

        def _run(task):
            from repro.core.api import FunctionKilled

            api._bind(task, route)
            try:
                try:
                    result = yield from self.entry(*args)
                except BaseException as exc:  # noqa: BLE001 - to client
                    self.running = False
                    if (isinstance(exc, FunctionKilled)
                            and (self.instance.draining
                                 or self.instance.shut_down_by_owner)):
                        # A deliberate kill: a drain moved the instance
                        # (the client hears "moved"), or its owner asked
                        # for the shutdown.  Neither is a crash.
                        return
                    self.instance.on_error(
                        FunctionCrashed(f"{type(exc).__name__}: {exc}"),
                        route)
                    return
                self.running = False
                self.instance.on_done(result, route)
            finally:
                api._unbind(task)

        sim.spawn(_run, name=f"fn:{self.manifest.name}")
