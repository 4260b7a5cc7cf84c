"""Shared fixtures: kernel warmup and the reusable derivative report."""
from __future__ import annotations

import time

import pytest

from mideriv import ChannelSpec, DiscreteJoint, gauss_hermite, mutual_information
from mideriv.verify import verify_derivatives


@pytest.fixture(scope="session")
def warmup():
    # First call fills the rule and grid caches so per-test timings
    # measure the work, not one-time setup.
    two = DiscreteJoint([[1.0], [-1.0]], [0.5, 0.5])
    mutual_information(two, ChannelSpec((0.5,)), gauss_hermite(16))
    return True


@pytest.fixture(scope="session")
def derivative_run(warmup):
    # (report, elapsed seconds); shared by the unit tests and by the
    # acceptance criteria that all read the same battery.
    start = time.perf_counter()
    report = verify_derivatives(seed=0)
    return report, time.perf_counter() - start
