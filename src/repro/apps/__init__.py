"""The paper's five benchmark applications as task-graph specs.

=============  ==========================================  =================
Benchmark      Structure                                   Memory policy
=============  ==========================================  =================
LCS            2-D wavefront, single assignment            single-assignment
Smith-         2-D wavefront, two-row rotating buffers     reuse
Waterman
Floyd-         3-phase blocked APSP, in-place blocks,      reuse (baseline) /
Warshall       WAR anti-dependence edges                   two-version (FT)
LU             right-looking tiles, unpivoted              reuse
Cholesky       right-looking tiles, lower                  reuse
=============  ==========================================  =================

``make_app(name, scale=...)`` instantiates any of them at test (``tiny``),
experiment (``default``) or Table I (``paper``) scale.

Apps load on demand: importing this package loads no app module, and
``make_app`` imports only the one it builds -- a grid, LCS, SW or FW run
never loads scipy, which only LU and Cholesky need.  Every other name in
``__all__`` resolves on first access by importing the module it lives in:
an app class through the registry's table of app modules.
"""

import importlib

from repro.apps.base import AppConfig, Application, ordered_preds
from repro.apps.registry import (
    APP_NAMES,
    DEFAULT_CONFIGS,
    LARGE_CONFIGS,
    PAPER_CONFIGS,
    TINY_CONFIGS,
    _APP_MODULES,
    _app_class,
    make_app,
    scaled_loss,
)

#: Lazily resolved helpers (not app classes) and the submodule each lives in.
_LAZY: dict[str, str] = {
    "lcs_reference": "lcs",
    "random_sequences": "lcs",
    "sw_reference": "smith_waterman",
    "fw_reference": "floyd_warshall",
    "random_distance_matrix": "floyd_warshall",
    "random_dd_matrix": "lu",
    "random_spd_matrix": "cholesky",
    "APP_CLASSES": "registry",
}


def __getattr__(name: str):
    for app, (_, cls) in _APP_MODULES.items():
        if cls == name:
            return _app_class(app)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "AppConfig",
    "Application",
    "ordered_preds",
    "LCSApp",
    "SmithWatermanApp",
    "FloydWarshallApp",
    "LUApp",
    "CholeskyApp",
    "lcs_reference",
    "sw_reference",
    "fw_reference",
    "random_sequences",
    "random_distance_matrix",
    "random_dd_matrix",
    "random_spd_matrix",
    "APP_CLASSES",
    "APP_NAMES",
    "DEFAULT_CONFIGS",
    "LARGE_CONFIGS",
    "PAPER_CONFIGS",
    "TINY_CONFIGS",
    "make_app",
    "scaled_loss",
]
