"""Runtime blocking sanitizer: the dynamic twin of rule BLOCK001.

The static analyzer (:mod:`repro.analysis.effects`) proves at review
time that no *may-block* call - socket I/O, ``os.fsync``,
``time.sleep`` - is reachable while a ranked lock is held outside the
sanctioned boundaries. This module enforces the same contract while
tests actually run: a test-scoped patch of the blocking entry points
that consults the lock sanitizer's per-thread held stack and raises
:class:`BlockingUnderLock` the moment a patched primitive is entered
with a non-sanctioned ranked lock held.

**Sanctioned blocking boundaries.** Three hierarchy levels exist to
guard I/O and are allowed to block while held:

* ``router (5)`` / ``conn (7)`` - the sharded front-end's dispatch and
  per-worker socket locks serialize framed request/response I/O;
* ``store (45)`` - the persistence layer's internal mutex guards the
  WAL handle across ``write``/``flush``/``fsync``.

Any other ranked level (``user``, ``registry``, ``relation``,
``cache``, ``metrics``...) is a pure in-memory critical section;
blocking inside one stalls every thread queued on it, so the sanitizer
treats it as a bug. The *innermost* ranked lock decides: holding the
user lock and then the store lock while fsyncing is the sanctioned WAL
append path, not a violation.

Deliberate exceptions (the fault registry's injected latency runs
under whatever locks the instrumented call site holds - that is the
point of the fault) wrap themselves in :func:`allow_blocking`.

Like the lock sanitizer, this is opt-in and test-scoped: enable it
with :func:`blocking_sanitizer` or the ``REPRO_BLOCKING_SANITIZER``
environment variable; both also enable the lock sanitizer, so the held
stack is maintained. The patch is process-wide while active and
restores the original entry points on exit.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

import repro.concurrency.locks as _locks
from repro.concurrency.locks import (
    LEVEL_CONN,
    LEVEL_ROUTER,
    LEVEL_STORE,
    LOCK_LEVEL_NAMES,
)
from repro.exceptions import ReproError

__all__ = [
    "BlockingUnderLock",
    "SANCTIONED_BLOCKING_LEVELS",
    "allow_blocking",
    "blocking_sanitizer",
    "blocking_sanitizer_enabled",
    "disable_blocking_sanitizer",
    "enable_blocking_sanitizer",
]

#: Hierarchy levels whose critical sections are *expected* to block:
#: the sharded front-end's socket locks and the storage WAL mutex.
#: The static checker (BLOCK001) and the runtime sanitizer share this
#: one definition.
SANCTIONED_BLOCKING_LEVELS: frozenset[int] = frozenset(
    {LEVEL_ROUTER, LEVEL_CONN, LEVEL_STORE}
)


class BlockingUnderLock(ReproError):
    """A blocking primitive was entered holding a non-sanctioned ranked lock."""


def _env_truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in {"1", "true", "yes", "on"}


_ENABLED = _env_truthy(os.environ.get("REPRO_BLOCKING_SANITIZER"))


class _AllowFlag(threading.local):
    """Per-thread escape hatch for deliberate blocking (fault latency)."""

    def __init__(self) -> None:
        self.depth = 0


_ALLOW = _AllowFlag()


def _innermost_ranked() -> int | None:
    """The highest (innermost) ranked level held by this thread."""
    levels = [level for _, level, _ in _locks._HELD.entries if level is not None]
    return max(levels) if levels else None


def _check(primitive: str) -> None:
    if not _ENABLED or _ALLOW.depth:
        return
    level = _innermost_ranked()
    if level is None or level in SANCTIONED_BLOCKING_LEVELS:
        return
    name = LOCK_LEVEL_NAMES.get(level, str(level))
    raise BlockingUnderLock(
        f"{primitive} called while holding ranked lock level {name}({level}); "
        f"only the sanctioned blocking levels "
        f"{sorted(SANCTIONED_BLOCKING_LEVELS)} may block"
    )


# ----------------------------------------------------------------------
# Patching machinery
# ----------------------------------------------------------------------

#: (owner, attribute) pairs patched while the sanitizer is installed.
_PATCH_POINTS: tuple[tuple[Any, str], ...] = (
    (time, "sleep"),
    (os, "fsync"),
    (socket.socket, "send"),
    (socket.socket, "sendall"),
    (socket.socket, "recv"),
    (socket.socket, "accept"),
    (socket.socket, "connect"),
)

#: ``(owner, attr, original, was_in_owner_dict)`` while patched.
_SAVED: list[tuple[Any, str, Any, bool]] = []


def _wrap(primitive: str, original: Callable[..., Any]) -> Callable[..., Any]:
    def guarded(*args: Any, **kwargs: Any) -> Any:
        _check(primitive)
        return original(*args, **kwargs)

    guarded.__name__ = getattr(original, "__name__", primitive)
    guarded._repro_blocking_guard = True  # type: ignore[attr-defined]
    return guarded


def _install() -> None:
    if _SAVED:
        return
    for owner, attr in _PATCH_POINTS:
        original = getattr(owner, attr)
        if getattr(original, "_repro_blocking_guard", False):
            continue  # pragma: no cover - double-install guard
        in_dict = attr in vars(owner)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, _wrap(label, original))
        _SAVED.append((owner, attr, original, in_dict))


def _uninstall() -> None:
    for owner, attr, original, in_dict in _SAVED:
        if in_dict:
            setattr(owner, attr, original)
        else:
            # The guard shadowed an inherited slot (socket methods come
            # from the C base); deleting it re-exposes the original.
            try:
                delattr(owner, attr)
            except AttributeError:  # pragma: no cover - already gone
                pass
    _SAVED.clear()


def enable_blocking_sanitizer() -> None:
    """Patch the blocking entry points and start enforcing."""
    global _ENABLED
    _ENABLED = True
    _install()


def disable_blocking_sanitizer() -> None:
    """Stop enforcing and restore the original entry points."""
    global _ENABLED
    _ENABLED = False
    _uninstall()


def blocking_sanitizer_enabled() -> bool:
    """Whether the blocking sanitizer is currently enforcing."""
    return _ENABLED


@contextmanager
def blocking_sanitizer() -> Iterator[None]:
    """Scope the blocking sanitizer (and the lock sanitizer it needs).

    The held-lock stack is only maintained while the lock sanitizer is
    on, so this context enables both and restores both.
    """
    lock_previous = _locks.lock_sanitizer_enabled()
    previous = _ENABLED
    _locks.enable_lock_sanitizer()
    enable_blocking_sanitizer()
    try:
        yield
    finally:
        if not previous:
            disable_blocking_sanitizer()
        if not lock_previous:
            _locks.disable_lock_sanitizer()


@contextmanager
def allow_blocking() -> Iterator[None]:
    """Permit blocking on this thread inside the context.

    For code whose *job* is to block under the caller's locks - the
    fault registry's injected latency, most notably.
    """
    _ALLOW.depth += 1
    try:
        yield
    finally:
        _ALLOW.depth -= 1


if _ENABLED:  # pragma: no cover - env-var activation path
    # As in blocking_sanitizer(): only the lock sanitizer keeps the
    # held-lock stack that _check reads.
    _locks.enable_lock_sanitizer()
    _install()
