"""Thread-safety primitives for the process-local caches.

The plan caches (:mod:`repro.kernels`), the spectra cache, the fastsim
program cache, the fleet model cache, and the durable result store were
all built single-threaded; ``repro.serve`` runs concurrent studies over
them from a pool of worker threads.  This module holds the two
primitives that hardening pass is built on:

:class:`ForkSafeLock`
    A ``threading.Lock`` (or ``RLock``) that is *re-created* in forked
    children.  Plain locks inherited through ``fork`` keep whatever
    state they had at the instant of the fork — if any other thread
    held the lock, the child's copy is locked forever and the first
    cache access in a fleet worker deadlocks.  Every lock guarding a
    module-level cache therefore goes through this class; a registered
    ``os.register_at_fork`` hook swaps in fresh unlocked locks on the
    child side.  (The caches themselves are safe to inherit: a
    half-built entry can only exist in the *building* thread's locals,
    never in the dict another thread — or a forked child — can see.)

:class:`KeyedLocks`
    A lazily populated ``key -> Lock`` table.  Used where one global
    lock would serialize independent work: the fleet
    :class:`~repro.fleet.cache.ModelCache` hands out a per-``model_key``
    *execution* lock so that two service threads running scenarios that
    share a cached model (whose overflow monitor is per-scenario
    scratch) serialize per scenario, while scenarios on distinct models
    run fully concurrently.

Locking conventions across the hardened caches:

* **double-checked get-or-build** — the hit path reads the dict without
  the lock (a single ``dict.get`` is atomic under the GIL and the dicts
  only ever grow a fully-constructed value); the miss path takes the
  lock, re-checks, and builds while holding it, so every cache performs
  exactly one build per key no matter how many threads race the first
  request.  Builds measured in microseconds (FFT plans) happen under
  the cache lock; builds measured in seconds (quantized models) use a
  per-key event so distinct keys build concurrently.
* **zero-cost single-threaded path** — a hit costs what it always did
  (one dict lookup); only the first-build path pays a lock.
* **obs counters** — exact under threads: :mod:`repro.obs.metrics`
  serializes its own read-modify-writes under one registry lock, so a
  ``hits`` counter bumped on a lock-free cache hit path loses no tick.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List

__all__ = ["ForkSafeLock", "KeyedLocks"]

#: Live ForkSafeLock instances, re-armed on the child side of a fork.
_REGISTRY: List["weakref.ref"] = []
_REGISTRY_LOCK = threading.Lock()


def _after_fork_in_child() -> None:  # pragma: no cover - exercised via fleets
    # The child is single-threaded at this point (POSIX fork keeps only
    # the calling thread), so rebuilding every registered lock is safe —
    # nobody in this process can be holding one.
    for ref in list(_REGISTRY):
        lock = ref()
        if lock is not None:
            lock._rebuild()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_after_fork_in_child)


class ForkSafeLock:
    """A context-manager lock that forked children get fresh and unlocked."""

    __slots__ = ("_rlock", "_lock", "__weakref__")

    def __init__(self, *, rlock: bool = False) -> None:
        self._rlock = rlock
        self._rebuild()
        with _REGISTRY_LOCK:
            _REGISTRY.append(weakref.ref(self))
            # Compact dead references so long-lived processes that churn
            # stores do not grow the registry without bound.
            if len(_REGISTRY) % 64 == 0:
                _REGISTRY[:] = [r for r in _REGISTRY if r() is not None]

    def _rebuild(self) -> None:
        self._lock = threading.RLock() if self._rlock else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "ForkSafeLock":
        self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class KeyedLocks:
    """A grow-only table of named locks (``lock(key)`` creates on demand).

    Fork-safe like :class:`ForkSafeLock`: the whole table is dropped in
    forked children (keyed locks guard in-process races only, and an
    inherited held lock would deadlock the child), so keys lazily mint
    fresh unlocked locks on the child side.
    """

    __slots__ = ("_guard", "_locks", "__weakref__")

    def __init__(self) -> None:
        self._guard = ForkSafeLock()
        self._locks: Dict[object, threading.Lock] = {}
        with _REGISTRY_LOCK:
            _REGISTRY.append(weakref.ref(self))

    def _rebuild(self) -> None:  # pragma: no cover - exercised via fleets
        self._locks = {}

    def lock(self, key: object) -> threading.Lock:
        """The lock for ``key`` (one per key, created on first request)."""
        lock = self._locks.get(key)
        if lock is None:
            with self._guard:
                lock = self._locks.get(key)
                if lock is None:
                    lock = self._locks[key] = threading.Lock()
        return lock

    def __len__(self) -> int:
        return len(self._locks)
