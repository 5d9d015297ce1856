"""Application base classes and configuration.

An *application* bundles a task-graph spec with everything an experiment
needs around it: input generation, store seeding (pinned, resilient input
blocks), result extraction, an independent sequential reference, and the
memory policies the paper evaluates for it (baseline vs fault-tolerant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.graph.taskspec import Key, TaskSpecBase
from repro.memory.allocator import AllocationPolicy, SingleAssignment
from repro.memory.blockstore import BlockStore


@dataclass(frozen=True)
class AppConfig:
    """Problem-size configuration (the knobs of the paper's Table I)."""

    n: int
    """Matrix / sequence size."""

    block: int
    """Block (tile) size; ``n`` must be a multiple of it."""

    seed: int = 1234
    """Input-data seed."""

    def __post_init__(self) -> None:
        if self.n < 1 or self.block < 1:
            raise ValueError("n and block must be positive")
        if self.n % self.block:
            raise ValueError(f"n={self.n} must be a multiple of block={self.block}")

    @property
    def blocks(self) -> int:
        """Blocks per dimension (the paper's implicit ``B``)."""
        return self.n // self.block


class generated(cached_property):
    """A generated bulk input (``a0``, ``d0``): a pure function of
    ``config``, hence derived state exactly like ``plans`` -- built on
    first use, kept for the instance's lifetime and left out of its
    pickle.  What crosses a wire to a worker is what ``compute`` needs;
    a copy that does touch the input regenerates it from the seed."""


class Application(TaskSpecBase):
    """A benchmark: a TaskGraphSpec plus its experiment-facing surface.

    Subclasses implement the spec methods (``sink_key``, ``predecessors``,
    ``successors``, ``inputs``, ``outputs``, ``producer``, ``cost``,
    ``compute``) plus:

    * :meth:`seed_store` -- pin resilient input blocks;
    * :meth:`reference` -- independently computed expected result;
    * :meth:`extract` -- pull the comparable result out of a store;
    * :attr:`baseline_policy` / :attr:`ft_policy` -- the memory policies
      the paper used for the two scheduler variants.
    """

    name: str = "app"

    #: Memory policy for the non-fault-tolerant baseline runs.
    baseline_policy: AllocationPolicy = SingleAssignment()
    #: Memory policy for fault-tolerant runs.
    ft_policy: AllocationPolicy = SingleAssignment()

    def __init__(self, config: AppConfig, light: bool = False) -> None:
        self.config = config
        self.light = light

    def __getstate__(self) -> dict:
        cls = type(self)
        return {
            name: value
            for name, value in super().__getstate__().items()
            if not isinstance(getattr(cls, name, None), generated)
        }

    # -- compute dispatch -------------------------------------------------------------

    def compute(self, key: Key, ctx: Any) -> None:
        """Run the task body.

        In *light* mode the numerical kernel is replaced by a token write:
        every declared input is still read through the store (so memory
        reuse, overwrite detection, and corruption detection behave
        identically) and every declared output is written, but the payload
        is a placeholder.  Virtual costs are analytic, so timing figures
        are unaffected; use full mode whenever results are verified.
        """
        if self.light:
            for raw in self.inputs(key):
                ctx.read(raw)
            for raw in self.outputs(key):
                ctx.write(raw, ("token", key))
            return
        self.compute_full(key, ctx)

    def compute_full(self, key: Key, ctx: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- experiment surface ----------------------------------------------------------

    def make_store(self, fault_tolerant: bool = True, shared: bool = False) -> BlockStore:
        """A store with the right policy, seeded with pinned inputs.

        ``shared=True`` returns a
        :class:`~repro.memory.shm.SharedMemoryBlockStore`, whose array
        payloads live in shared-memory segments that
        :class:`~repro.runtime.procpool.ProcessRuntime` workers map
        zero-copy (any store works with any runtime; a non-shared store
        simply ships payloads to workers by pickle).
        """
        policy = self.ft_policy if fault_tolerant else self.baseline_policy
        if shared:
            from repro.memory.shm import SharedMemoryBlockStore

            store: BlockStore = SharedMemoryBlockStore(policy)
        else:
            store = BlockStore(policy)
        self.seed_store(store)
        return store

    def seed_store(self, store: BlockStore) -> None:
        """Pin the application's input blocks (default: none)."""
        return None

    def reference(self) -> Any:  # pragma: no cover - abstract
        """Sequential, independently-coded expected result."""
        raise NotImplementedError

    def extract(self, store: BlockStore) -> Any:  # pragma: no cover - abstract
        """Comparable result from a finished execution's store."""
        raise NotImplementedError

    def verify(self, store: BlockStore, rtol: float = 1e-9, atol: float = 1e-9) -> None:
        """Assert the executed result matches the reference."""
        got = self.extract(store)
        want = self.reference()
        if isinstance(want, np.ndarray):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
        elif got != want:
            raise AssertionError(f"{self.name}: result {got!r} != reference {want!r}")

    # -- misc helpers ----------------------------------------------------------------------

    def describe(self) -> str:
        c = self.config
        return f"{self.name}(n={c.n}, block={c.block}, B={c.blocks})"


def ordered_preds(*candidates: tuple[bool, Key]) -> tuple[Key, ...]:
    """Filter a fixed-order predecessor candidate list by validity flags.

    Keeping predecessor order *fixed and deterministic* matters: the FT
    scheduler's notification bit vector indexes the ordered list.
    """
    return tuple(key for ok, key in candidates if ok)
