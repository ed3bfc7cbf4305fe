"""Seccomp-style syscall filtering over the function API surface.

The paper: "Bento also permits operators to apply system call filters in
the form of seccomp policies to disallow a function's use of specific
system calls, such as fork and execve" (§5.3).

Every :class:`~repro.core.api.FunctionApi` method declares the syscalls it
needs (``API_SYSCALLS`` in :mod:`repro.core.api`); the container checks
them against its :class:`SeccompPolicy` before the call proceeds.  A
violation kills the function, like a real seccomp SIGSYS.
"""

from __future__ import annotations

from typing import Iterable

from repro.util.errors import ReproError

# The syscall vocabulary of this simulated OS.
ALL_SYSCALLS = frozenset({
    "read", "write", "open", "unlink",         # filesystem
    "socket", "connect", "bind", "listen",     # network
    "sendto", "recvfrom",
    "fork", "execve",                          # process control
    "nanosleep", "clock_gettime",
    "getrandom",
})


class SeccompViolation(ReproError):
    """A filtered syscall was attempted (fatal to the function)."""

    def __init__(self, syscall: str, context: str = "") -> None:
        self.syscall = syscall
        suffix = f" ({context})" if context else ""
        super().__init__(f"seccomp: syscall {syscall!r} blocked{suffix}")


class SeccompPolicy:
    """An allowlist of syscalls."""

    def __init__(self, allowed: Iterable[str]) -> None:
        allowed_set = frozenset(allowed)
        unknown = allowed_set - ALL_SYSCALLS
        if unknown:
            raise ValueError(f"unknown syscalls: {sorted(unknown)}")
        self.allowed = allowed_set
        self.violation_count = 0

    @classmethod
    def allow_all(cls) -> "SeccompPolicy":
        """A policy permitting every known syscall."""
        return cls(ALL_SYSCALLS)

    @classmethod
    def default_function_policy(cls) -> "SeccompPolicy":
        """The paper's suggested default: everything except fork/execve."""
        return cls(ALL_SYSCALLS - {"fork", "execve"})

    def permits(self, syscall: str) -> bool:
        """Boolean form of :meth:`rejection_reason`."""
        return syscall in self.allowed

    def check(self, syscall: str, context: str = "") -> None:
        """Raise :class:`SeccompViolation` if the syscall is filtered."""
        if syscall not in self.allowed:
            self.violation_count += 1
            raise SeccompViolation(syscall, context)

    def check_all(self, syscalls: Iterable[str], context: str = "") -> None:
        """Check a sequence of syscalls (first violation raises)."""
        for syscall in syscalls:
            self.check(syscall, context)

    def intersect(self, other: "SeccompPolicy") -> "SeccompPolicy":
        """The policy allowing only what both allow (manifest ∩ operator)."""
        return SeccompPolicy(self.allowed & other.allowed)
