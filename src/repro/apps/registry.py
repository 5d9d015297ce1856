"""Application registry and the standard experiment configurations.

``PAPER_CONFIGS`` are the exact Table I instances (used structure-only:
Table I is pure graph analytics).  ``DEFAULT_CONFIGS`` are the scaled
instances the execution experiments run at -- same block structure, small
enough that the discrete-event simulator finishes a figure's sweep in
seconds.  ``scaled_loss`` converts the paper's absolute loss sizes (1, 8,
64, 512 tasks) to the scaled graphs proportionally.
"""

from __future__ import annotations

import importlib

from repro.apps.base import AppConfig, Application

#: Where each app's class lives.  ``make_app`` imports only the module of
#: the app it builds, so a process never loads a kernel (or scipy, which
#: only LU and Cholesky need) that its run does not use.
_APP_MODULES: dict[str, tuple[str, str]] = {
    "lcs": ("repro.apps.lcs", "LCSApp"),
    "sw": ("repro.apps.smith_waterman", "SmithWatermanApp"),
    "fw": ("repro.apps.floyd_warshall", "FloydWarshallApp"),
    "lu": ("repro.apps.lu", "LUApp"),
    "cholesky": ("repro.apps.cholesky", "CholeskyApp"),
}

APP_NAMES: tuple[str, ...] = tuple(_APP_MODULES)


def _app_class(name: str) -> type[Application]:
    module, cls = _APP_MODULES[name]
    return getattr(importlib.import_module(module), cls)


def __getattr__(name: str) -> dict[str, type[Application]]:
    # ``APP_CLASSES`` (name -> class) imports every app, so it is built
    # only when asked for.
    if name == "APP_CLASSES":
        return {app: _app_class(app) for app in APP_NAMES}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Table I instances (paper scale).  SW's exact decomposition in the paper
#: follows a BSP strip scheme we could not reconstruct from the text; we
#: use the same blocked-wavefront structure as LCS (see EXPERIMENTS.md).
PAPER_CONFIGS: dict[str, AppConfig] = {
    "lcs": AppConfig(n=512 * 1024, block=2 * 1024),
    "sw": AppConfig(n=6144, block=128),
    "fw": AppConfig(n=5120, block=128),
    "lu": AppConfig(n=10240, block=128),
    "cholesky": AppConfig(n=10240, block=128),
}

#: Scaled instances for executed experiments (~1.5-3k tasks each).
DEFAULT_CONFIGS: dict[str, AppConfig] = {
    "lcs": AppConfig(n=1536, block=32),       # B=48, T=2304
    "sw": AppConfig(n=1536, block=32),        # B=48, T=2304
    "fw": AppConfig(n=192, block=16),         # B=12, T=1729
    "lu": AppConfig(n=320, block=16),         # B=20, T=2870
    "cholesky": AppConfig(n=384, block=16),   # B=24, T=2600
}

#: Larger instances for speedup studies: wavefront apps get structural
#: parallelism ~= B/2 = 48, so the Figure 4 curves keep climbing at 44
#: workers instead of saturating (see EXPERIMENTS.md).
LARGE_CONFIGS: dict[str, AppConfig] = {
    "lcs": AppConfig(n=3072, block=32),       # B=96, T=9216
    "sw": AppConfig(n=3072, block=32),        # B=96, T=9216
    "fw": AppConfig(n=256, block=16),         # B=16, T=4097
    "lu": AppConfig(n=448, block=16),         # B=28, T=7714
    "cholesky": AppConfig(n=512, block=16),   # B=32, T=6544
}

#: Tiny instances for fast tests.
TINY_CONFIGS: dict[str, AppConfig] = {
    "lcs": AppConfig(n=64, block=16),         # B=4
    "sw": AppConfig(n=64, block=16),          # B=4
    "fw": AppConfig(n=32, block=8),           # B=4
    "lu": AppConfig(n=40, block=8),           # B=5
    "cholesky": AppConfig(n=40, block=8),     # B=5
}


def make_app(
    name: str,
    config: AppConfig | None = None,
    scale: str = "default",
    light: bool = False,
) -> Application:
    """Instantiate a benchmark by name at a named scale or explicit config.

    ``light=True`` replaces numerical kernels with token writes (identical
    graph structure, store versioning, and fault-detection behaviour;
    results are not verifiable) -- used by the timing harness, where time
    is virtual anyway.
    """
    name = name.strip().lower()
    if name not in _APP_MODULES:
        raise ValueError(f"unknown app {name!r}; expected one of {APP_NAMES}")
    if config is None:
        table = {"default": DEFAULT_CONFIGS, "tiny": TINY_CONFIGS,
                 "large": LARGE_CONFIGS, "paper": PAPER_CONFIGS}
        if scale not in table:
            raise ValueError(f"unknown scale {scale!r}; expected default/tiny/large/paper")
        config = table[scale][name]
    app = _app_class(name)(config)
    app.light = light
    return app


#: Task counts the paper reports in Table I (the denominators for scaling
#: absolute loss sizes).  SW uses the paper's value directly because its
#: BSP strip decomposition is not reconstructible from the text.
PAPER_TASK_COUNTS: dict[str, int] = {
    "lcs": 65536,
    "sw": 132650,
    "fw": 64000,
    "lu": 173880,
    "cholesky": 88560,
}


def scaled_loss(name: str, paper_count: int, config: AppConfig | None = None) -> int:
    """Scale one of the paper's absolute loss sizes (e.g. 512 tasks of a
    65536-task LCS) to a scaled instance, preserving the lost fraction."""
    cfg = config or DEFAULT_CONFIGS[name]
    scaled_tasks = _task_count(name, cfg)
    return max(1, round(paper_count * scaled_tasks / PAPER_TASK_COUNTS[name]))


def _task_count(name: str, cfg: AppConfig) -> int:
    """Closed-form task counts (avoids materializing paper-scale graphs)."""
    B = cfg.blocks
    if name in ("lcs", "sw"):
        return B * B
    if name == "fw":
        return B * B * B + 1  # + the collection sink
    if name == "lu":
        return B * (B + 1) * (2 * B + 1) // 6
    if name == "cholesky":
        return sum(1 + (m - 1) + (m - 1) * m // 2 for m in range(1, B + 1))
    raise ValueError(name)
