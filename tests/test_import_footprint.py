"""A process loads only what its run uses.

Each case runs in a fresh interpreter.  A grid, LCS, SW or FW process
must never load scipy (only LU and Cholesky need it) nor
``http.server`` (only a ``MetricsServer`` does); an LU or Cholesky
process must have scipy loaded by the time its app is built, so a
forked worker inherits it and no kernel imports on a task's path.  A
``python -m repro worker`` process loads no HTTP client
(``urllib.request``).
"""

import json
import textwrap

import pytest

HEAVY = ("scipy", "http.server")


@pytest.fixture
def loaded_after(fresh_python):
    """Which of ``modules`` a fresh interpreter has loaded after ``body``."""
    def check(body: str, modules: tuple[str, ...] = HEAVY) -> dict[str, bool]:
        script = textwrap.dedent(body) + textwrap.dedent(f"""
            import json, sys
            print(json.dumps({{m: m in sys.modules for m in {modules!r}}}))
        """)
        return json.loads(fresh_python(script).splitlines()[-1])
    return check


def test_importing_the_package_loads_neither(loaded_after):
    assert loaded_after("import repro\nfrom repro.apps import make_app\n") == {
        "scipy": False, "http.server": False,
    }


def test_a_grid_run_loads_neither(loaded_after):
    body = """
        from repro import FTScheduler, InlineRuntime, grid_graph
        from repro.apps import make_app
        FTScheduler(grid_graph(4, 4), InlineRuntime()).run()
    """
    assert loaded_after(body) == {"scipy": False, "http.server": False}


@pytest.mark.parametrize("name", ["lcs", "sw", "fw"])
def test_a_scipy_free_app_run_loads_neither(loaded_after, name):
    body = f"""
        from repro import FTScheduler, InlineRuntime
        from repro.apps import make_app
        app = make_app({name!r}, scale="tiny")
        store = app.make_store(True)
        FTScheduler(app, InlineRuntime(), store=store).run()
        app.verify(store)
    """
    assert loaded_after(body) == {"scipy": False, "http.server": False}


@pytest.mark.parametrize("name", ["lu", "cholesky"])
def test_building_a_lapack_app_loads_scipy_before_any_kernel(loaded_after, name):
    body = f"""
        from repro.apps import make_app
        make_app({name!r}, scale="tiny")
    """
    assert loaded_after(body, ("scipy.linalg", "http.server")) == {
        "scipy.linalg": True, "http.server": False,
    }


def test_the_worker_entry_point_loads_no_http_client(loaded_after):
    # Every ``python -m repro worker`` imports this module.  A worker
    # may serve /metrics, but nothing in it ever fetches a URL.
    assert loaded_after("import repro.runtime.cluster_cli\n", ("urllib.request",)) == {
        "urllib.request": False,
    }
