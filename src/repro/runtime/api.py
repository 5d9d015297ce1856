"""Runtime interfaces shared by the inline, simulated, and threaded executors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class ExecutionContext(Protocol):
    """What scheduler code may do while running inside a frame."""

    @property
    def workers(self) -> int:
        """Number of workers (the paper's P)."""
        ...

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None:
        """Push the child frame ``fn(*args)`` onto the current worker's
        deque bottom.  ``label`` names it on timeline-recording runtimes."""
        ...

    def charge(self, amount: float) -> None:
        """Account ``amount`` virtual time to the currently running frame.

        No-op on wall-clock runtimes.
        """
        ...


@dataclass
class RunResult:
    """Outcome of one ``Runtime.execute`` call."""

    makespan: float
    """Completion time: virtual time of the last frame completion for the
    simulator, wall-clock seconds for the threaded runtime, accumulated
    charge for the inline runtime."""

    frames: int = 0
    steals: int = 0
    failed_steals: int = 0
    workers: int = 1
    busy_time: list[float] = field(default_factory=list)
    """Per-worker accumulated frame-execution time (virtual time on the
    simulator/inline runtimes, wall-clock seconds on the threaded one)."""

    worker_frames: list[int] = field(default_factory=list)
    """Per-worker frame counts (sums to ``frames`` when populated)."""

    worker_steals: list[int] = field(default_factory=list)
    """Per-worker successful steals, attributed to the thief (sums to
    ``steals`` when populated)."""

    parks: int = 0
    """Transitions into idleness (a worker found nothing to run or steal)."""

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan each worker spent executing frames."""
        if not self.busy_time or self.makespan <= 0:
            return 1.0
        return sum(self.busy_time) / (self.makespan * len(self.busy_time))


class Runtime(Protocol):
    """A frame executor: calls ``root()``, runs the frames it spawns and
    their descendants to quiescence, then reports timing."""

    @property
    def workers(self) -> int: ...

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None: ...

    def charge(self, amount: float) -> None: ...

    def execute(self, root: Callable[[], None]) -> RunResult: ...
