"""The real package, parsed and analyzed once per test session."""

import pytest

from repro.verify.report import load_modules
from repro.verify.static import run_static


@pytest.fixture(scope="session")
def package_modules():
    return tuple(load_modules())


@pytest.fixture(scope="session")
def package_findings(package_modules):
    """Every rule's findings on the real package, from one whole-package build."""
    return run_static(modules=package_modules)
