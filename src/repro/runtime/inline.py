"""Serial reference executor.

Runs frames depth-first from an explicit LIFO stack of ``(fn, args)``
tuples -- the schedule a single Cilk worker produces -- without touching
threads or the event loop.
Virtual charges are still accumulated so ``makespan`` equals total charged
work, which for one worker coincides with the simulator's result modulo
steal bookkeeping.  Used by unit tests and as the P=1 oracle.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.api import RunResult


class InlineRuntime:
    """Depth-first serial frame executor."""

    #: Frames run one at a time in the caller's thread; schedulers may
    #: drop per-bump trace locking (``ExecutionTrace.assume_serial``).
    concurrent_frames = False

    def __init__(self) -> None:
        self._stack: list[tuple[Callable[..., None], tuple]] = []
        self._total = 0.0
        self._frames = 0
        self._running = False

    @property
    def workers(self) -> int:
        return 1

    # -- observability surface ------------------------------------------------------

    def obs_now(self) -> float:
        """Virtual time = charge accumulated so far."""
        return self._total

    def obs_worker(self) -> int:
        return 0

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None:
        if not self._running:
            raise RuntimeError("spawn called outside execute()")
        self._stack.append((fn, args))

    def charge(self, amount: float) -> None:
        self._total += amount

    def execute(self, root: Callable[[], None]) -> RunResult:
        if self._running:
            raise RuntimeError("InlineRuntime is not reentrant")
        self._running = True
        self._total = 0.0
        self._frames = 0
        self._stack = [(root, ())]
        stack = self._stack  # spawn() appends to the same list object
        frames = 0
        try:
            while stack:
                fn, args = stack.pop()
                frames += 1
                fn(*args)
        finally:
            self._frames = frames
            self._running = False
        return RunResult(
            makespan=self._total,
            frames=self._frames,
            workers=1,
            busy_time=[self._total],
        )
