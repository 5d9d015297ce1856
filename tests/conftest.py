"""Shared fixtures: tiny applications, runtimes, and execution helpers."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.apps import APP_NAMES, make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def fresh_python(src_env):
    """Run a script in a new interpreter (this one imported everything
    long ago) against this checkout; returns its stdout."""
    def run(script: str) -> str:
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=src_env, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout
    return run


@pytest.fixture(params=APP_NAMES)
def tiny_app(request):
    """Each benchmark at tiny scale (full kernels)."""
    return make_app(request.param, scale="tiny")


def run_ft(app, workers=1, seed=0, plan=None, store=None, trace=None, cost_model=None):
    """Run the FT scheduler on the simulated runtime; returns (result, store)."""
    from repro.faults.injector import FaultInjector

    store = store if store is not None else app.make_store(True)
    trace = trace or ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    runtime = SimulatedRuntime(workers=workers, seed=seed, cost_model=cost_model)
    sched = FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace, cost_model=cost_model)
    return sched.run(), store


def run_baseline(app, workers=1, seed=0, store=None):
    store = store if store is not None else app.make_store(False)
    sched = NabbitScheduler(app, SimulatedRuntime(workers=workers, seed=seed), store=store)
    return sched.run(), store
