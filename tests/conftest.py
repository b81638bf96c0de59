"""Shared fixtures and helpers of the tier-1 suite.

``verify_pass`` is the session's one run of every verification check at the
default units: tests/test_acceptance.py asserts its results, and the tests
of the ``verify`` command read it through ``shared_verify`` instead of
running a suite again.
"""

import numpy as np
import pytest

from landaustar import checks
from landaustar.phase_space import PhysParams
from landaustar.star import ProductRep


@pytest.fixture(scope="session")
def verify_pass():
    """Each suite's results, run once at the default units."""
    return {suite: checks.run_suite(suite, PhysParams()) for suite in checks.SUITES}


@pytest.fixture
def shared_verify(verify_pass, monkeypatch):
    """``checks.run_suite`` answers from the shared pass, so a ``verify``
    command prints its report without running a check."""
    def run_suite(name, params):
        assert params == PhysParams(), "the shared pass holds the default units only"
        return [r for suite in (checks.SUITES if name == "all" else (name,))
                for r in verify_pass[suite]]

    monkeypatch.setattr(checks, "run_suite", run_suite)


def padded(rep, cutoff):
    """rep with zero rows and columns up to ``cutoff``: the same state, with room
    that no word of a test can leave."""
    width = (0, cutoff - rep.cutoff)
    return ProductRep(cutoff, tuple((c, np.pad(a, width), np.pad(b, width))
                                    for c, a, b in rep.terms), rep.overflow)
