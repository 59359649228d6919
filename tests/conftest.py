"""Fixtures shared by every test module."""

import pytest

from subrad.protocol import component_outcome


@pytest.fixture(autouse=True)
def cold_outcome_cache():
    """Start every test with an empty per-process memo of component outcomes.

    protocol.run reuses the outcome of a (parameters, Fock level) pair within
    a process; clearing it keeps a test's calls and monkeypatches from
    depending on which tests ran before it.
    """
    component_outcome.cache_clear()
    yield
