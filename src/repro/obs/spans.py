"""Typed view over ``SPAN`` events: worker-attributed measured intervals.

:class:`~repro.obs.events.EventKind.SPAN` events are the raw material of
overhead attribution (:mod:`repro.obs.attribution`): each one records a
named *phase* and its wall-clock duration, attributed to the worker that
spent the time.  Phases currently emitted:

==============  ======================================================
``attach``      worker-side resolution of pushed inputs: caching
                values, attaching shm descriptors (both remote runtimes)
``fetch``       worker-side wait in lazy fetches of bare refs it did
                not hold; measured *inside* ``kernel``
``kernel``      ``spec.compute`` wall time inside the worker process;
                ``cpu`` carries the worker's process-CPU seconds
``serialize``   worker-side pickling of the output payload
``dispatch``    parent-side full remote round trip (queue wait + ship
                + kernel + reply); carries ``t0`` on the log clock
``queued``      parent-estimated time a pipelined job sat behind its
                channel-mates in the worker's inbound window (inside
                the dispatch bracket; subtracted from its overhead)
``recovery``    FT scheduler's RECOVERTASK routine (install + rescan)
``detect``      one replication-detection attempt (replicas + votes)
``worker_loop`` one runtime worker's whole in-loop lifetime (threaded /
                procpool); carries no task key -- its residue over
                busy + parked time is the work-finding cost
``run``         the full budget window (``execute`` start -> quiesce)
                on the log clock, emitted once by the runtime; the gap
                between it and a worker_loop span is that worker's
                thread start/stop latency
==============  ======================================================

Durations for worker-process phases are measured on the *worker's*
clock and shipped back over the result pipe -- the parent merges them
into the event log attributed to the awaiting scheduler thread, which
is also the thread that owns the task's compute bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.obs.events import Event, EventKind

__all__ = ["Span", "spans_of", "wall_by_phase", "wall_by_worker_phase"]


@dataclass(frozen=True)
class Span:
    """One measured interval, decoded from a SPAN event."""

    seq: int
    worker: int
    phase: str
    wall: float
    key: Hashable = None
    life: int = 0
    cpu: float | None = None
    """Process-CPU seconds (kernel spans only)."""
    t0: float | None = None
    """Start on the log clock (parent-measured spans only)."""


def spans_of(events: Iterable[Event]) -> list[Span]:
    """Decode every SPAN event into a :class:`Span` (emission order)."""
    out: list[Span] = []
    for e in events:
        if e.kind is not EventKind.SPAN:
            continue
        out.append(
            Span(
                seq=e.seq,
                worker=e.worker,
                phase=str(e.data.get("phase", "unknown")),
                wall=float(e.data.get("wall", 0.0)),
                key=e.key,
                life=e.life,
                cpu=e.data.get("cpu"),
                t0=e.data.get("t0"),
            )
        )
    return out


def wall_by_phase(events: Iterable[Event]) -> dict[str, float]:
    """Total wall seconds per span phase."""
    totals: dict[str, float] = {}
    for s in spans_of(events):
        totals[s.phase] = totals.get(s.phase, 0.0) + s.wall
    return totals


def wall_by_worker_phase(events: Iterable[Event]) -> dict[int, dict[str, float]]:
    """Per-worker totals: ``{worker: {phase: seconds}}``."""
    out: dict[int, dict[str, float]] = {}
    for s in spans_of(events):
        per = out.setdefault(s.worker, {})
        per[s.phase] = per.get(s.phase, 0.0) + s.wall
    return out
