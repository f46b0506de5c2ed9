"""The process-wide metrics registry: counters, gauges, durations.

State is three plain module-level dicts guarded by :data:`ENABLED`.
Instrumented modules use the gated-call idiom::

    from repro.obs import metrics as _obs
    ...
    if _obs.ENABLED:
        _obs.count("machine.reboots", reboots)

The explicit ``if`` keeps the disabled cost to one module-attribute
load per site (the recording functions re-check, so ungated calls are
merely slower, never wrong).

Representation choices are driven by the deterministic-merge contract
(see :mod:`repro.obs.snapshot`):

* counters are Python ints — merging is exact integer addition;
* durations are integer nanoseconds (``time.perf_counter_ns``) in a
  ``[count, total_ns, min_ns, max_ns, {bucket: n}]`` record with
  power-of-two bucket upper bounds, so histogram merge is elementwise
  integer addition plus min/max;
* gauges are per-process floats ("last set value"); cross-process merge
  *sums* them (right for sizes and totals, the only gauges recorded).

Every read-modify-write of the registry runs under one module-level
lock, taken only after the :data:`ENABLED` check: ``repro serve`` runs
studies on threads against this one registry, and unlocked ``+=`` on a
shared dict loses increments under thread switches.  The disabled path
never touches the lock.  The lock is a
:class:`~repro.concurrency.ForkSafeLock`, so a fleet worker forked while
another thread records starts with it unlocked.

Nothing here imports numpy or any simulation module, so importing the
registry from a hot path costs nothing at module load.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.concurrency import ForkSafeLock
from repro.obs.snapshot import SNAPSHOT_SCHEMA

#: Master switch.  Checked (module attribute load) before any work at
#: every instrumentation site; flipped only by :func:`enable`/
#: :func:`disable`.
ENABLED = False

_COUNTERS: Dict[str, int] = {}
_GAUGES: Dict[str, float] = {}
#: name -> [count, total_ns, min_ns, max_ns, buckets]; buckets maps the
#: stringified power-of-two upper bound (ns) to an occurrence count.
_DURATIONS: Dict[str, List] = {}
_SEQ = 0
#: Guards every read-modify-write of the three dicts and ``_SEQ``.
_LOCK = ForkSafeLock()

#: Bucket exponent clamp: 2**10 ns (~1 us) .. 2**40 ns (~18 min).
_BUCKET_MIN_EXP = 10
_BUCKET_MAX_EXP = 40


def enable() -> None:
    """Turn observability on (registry keeps whatever it already holds)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn observability off; every instrumentation site goes quiet."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    return ENABLED


def reset_metrics() -> None:
    """Drop all recorded values (the enabled flag is left as is)."""
    global _SEQ
    with _LOCK:
        _COUNTERS.clear()
        _GAUGES.clear()
        _DURATIONS.clear()
        _SEQ = 0


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while disabled)."""
    if not ENABLED:
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins in-process)."""
    if not ENABLED:
        return
    value = float(value)
    with _LOCK:
        _GAUGES[name] = value


def _bucket(ns: int) -> str:
    exp = ns.bit_length()
    if exp < _BUCKET_MIN_EXP:
        exp = _BUCKET_MIN_EXP
    elif exp > _BUCKET_MAX_EXP:
        exp = _BUCKET_MAX_EXP
    return str(1 << exp)


def observe_ns(name: str, ns: int) -> None:
    """Record one duration observation (integer nanoseconds)."""
    if not ENABLED:
        return
    ns = int(ns)
    if ns < 0:
        ns = 0
    b = _bucket(ns)
    with _LOCK:
        h = _DURATIONS.get(name)
        if h is None:
            h = _DURATIONS[name] = [0, 0, ns, ns, {}]
        h[0] += 1
        h[1] += ns
        if ns < h[2]:
            h[2] = ns
        if ns > h[3]:
            h[3] = ns
        h[4][b] = h[4].get(b, 0) + 1


def snapshot() -> dict:
    """A self-describing copy of the registry (see :mod:`.snapshot`).

    ``pid``/``seq`` identify the producing process and the snapshot's
    position in that process's stream — what lets a consumer holding
    several *cumulative* snapshots from the same worker keep only the
    latest (:class:`~repro.fleet.runner.FleetRunner` does exactly this).
    """
    global _SEQ
    with _LOCK:
        _SEQ += 1
        return {
            "schema": SNAPSHOT_SCHEMA,
            "pid": os.getpid(),
            "seq": _SEQ,
            "counters": dict(_COUNTERS),
            "gauges": dict(_GAUGES),
            "durations": {
                name: {
                    "count": h[0],
                    "total_ns": h[1],
                    "min_ns": h[2],
                    "max_ns": h[3],
                    "buckets": dict(h[4]),
                }
                for name, h in _DURATIONS.items()
            },
        }


def absorb(snap: dict) -> None:
    """Fold a snapshot (typically a worker's) into the live registry.

    Counter-for-counter integer addition, duration histograms merged
    elementwise, gauges summed — the in-registry twin of
    :func:`repro.obs.snapshot.merge`.  No-op while disabled.
    """
    if not ENABLED:
        return
    with _LOCK:
        for key, val in snap.get("counters", {}).items():
            _COUNTERS[key] = _COUNTERS.get(key, 0) + int(val)
        for key, val in snap.get("gauges", {}).items():
            _GAUGES[key] = _GAUGES.get(key, 0.0) + float(val)
        for name, d in snap.get("durations", {}).items():
            h = _DURATIONS.get(name)
            if h is None:
                h = _DURATIONS[name] = [0, 0, int(d["min_ns"]),
                                        int(d["max_ns"]), {}]
            h[0] += int(d["count"])
            h[1] += int(d["total_ns"])
            if int(d["min_ns"]) < h[2]:
                h[2] = int(d["min_ns"])
            if int(d["max_ns"]) > h[3]:
                h[3] = int(d["max_ns"])
            for b, n in d.get("buckets", {}).items():
                h[4][b] = h[4].get(b, 0) + int(n)
