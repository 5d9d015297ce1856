"""The seven named workloads of the end-to-end benchmark.

Each workload is one (graph, runtime kind, fault regime) triple chosen so
that a *different* layer of ``src/repro/`` does most of the work -- see
``README.md`` for the reasoning and the per-layer predictions.  Sizes are
set so that 50 fault-tolerant runs plus 20 NABBIT reference runs (each one
verified) fit inside the 10 s measuring window on a 2-core host with BLAS
pinned to one thread; ``quick`` sizes are for the smoke test only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    app: str
    """``"grid"`` (no-op ``grid_graph``) or a ``repro.apps`` registry name."""
    size: tuple[int, int]
    """``(n, block)``; for the grid, ``(rows, cols)``."""
    quick: tuple[int, int]
    runtime: str
    """``inline`` | ``threaded`` | ``procpool`` | ``cluster``."""
    event_log: bool = False
    """Pass a live ``EventLog`` to the FT scheduler in the timed ft arm."""
    fault_fraction: float = 0.0
    """``plan_faults(after_notify, v=rand, fraction=...)`` when non-zero."""
    crashes: int = 0
    """Number of seeded ``die_on`` keys (worker deaths per run)."""
    inflight: int | None = None
    """``ProcessRuntime(inflight=...)``; ``None`` keeps the runtime's default."""

    @property
    def remote(self) -> bool:
        return self.runtime in ("procpool", "cluster")


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "grid_inline",
        "bookkeeping-bound: no-op grid on InlineRuntime, core does all the work "
        "(the paper's fault-free FT-vs-NABBIT overhead in its worst case)",
        "grid", (48, 48), (12, 12), "inline",
    ),
    Workload(
        "grid_inline_traced",
        "same grid with a live EventLog on the FT scheduler: the cost of watching "
        "(event emission in core/obs); grid_inline must not move with it",
        "grid", (48, 48), (12, 12), "inline", event_log=True,
    ),
    Workload(
        "lu_inline_faults",
        "recovery-bound: LU under a 20% after-notify v=rand fault plan; recovery path of "
        "core/ft.py, recovery_table, faults and memory overwrite tracking do the extra work",
        "lu", (224, 16), (64, 16), "inline", fault_fraction=0.20,
    ),
    Workload(
        "cholesky_threaded",
        "kernel-bound control: 288 KiB Cholesky tiles on ThreadedRuntime(2); apps/kernels "
        "dominate, so a core, comm or dispatch optimisation must move nothing here",
        "cholesky", (1536, 192), (128, 32), "threaded",
    ),
    Workload(
        "lcs_procpool",
        "dispatch-bound: tiny LCS tiles through ProcessRuntime(2) over a shared store; "
        "procpool/dispatch windows, pipe comm, small-frame codec, per-run pool fork",
        "lcs", (88, 8), (64, 8), "procpool",
    ),
    Workload(
        "lcs_procpool_crash",
        "worker-loss path: same graph with 8 seeded die_on keys (8 os._exit deaths and "
        "respawns per run) recovered through WORKER_DOWN -> RECOVERTASKONCE",
        "lcs", (88, 8), (64, 8), "procpool", crashes=8,
        # One job per worker at a time: with the default window of two, a
        # second thread can find the dying worker's pipe broken and replace
        # the channel while the drain leader is between poll() and read() on
        # it; the new pipe reuses the fd number and the leader blocks on it
        # for ever (seen about once per 10^4 deaths -- see README).  A
        # workload may not have operations that fail, so the crash workload
        # keeps every channel single-owner at the moment it dies.
        inflight=1,
    ),
    Workload(
        "cholesky_cluster_tcp",
        "data-plane-bound: 128 KiB Cholesky tiles on ClusterRuntime(2) against two worker "
        "servers over loopback TCP; lazy fetch, block caches, sendmsg/recv_into, OOB codec",
        "cholesky", (768, 128), (128, 32), "cluster",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
