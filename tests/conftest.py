"""Shared fixtures for the test suite.

Randomised tests derive their seeds from one session-wide base seed so a
failing run can be replayed exactly.  The base seed comes from the
``PYTEST_SEED`` environment variable (default 0) and is printed in the
pytest header; derived fixtures XOR their historical constants into it so
the default run is byte-identical to the suite before seeding existed.

    PYTEST_SEED=1234 python -m pytest tests/
"""

import random

import pytest

from repro import McCuckoo, MemoryModel
from repro.workloads import distinct_keys

from .seeding import base_seed as _base_seed


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock limit, enforced when "
        "pytest-timeout is installed (the CI reshard matrix installs it; "
        "a bare checkout ignores the mark)",
    )


def pytest_report_header(config):
    return f"PYTEST_SEED={_base_seed()} (set PYTEST_SEED=<n> to replay)"


@pytest.fixture(scope="session")
def session_seed() -> int:
    """The session's base seed, from ``PYTEST_SEED`` (default 0)."""
    return _base_seed()


@pytest.fixture
def rng(session_seed) -> random.Random:
    """A fresh seeded RNG per test — deterministic given ``PYTEST_SEED``."""
    return random.Random(session_seed * 0x9E3779B1 + 0x1234)


@pytest.fixture
def mem() -> MemoryModel:
    return MemoryModel()


@pytest.fixture
def small_mccuckoo(session_seed) -> McCuckoo:
    """A 3-ary table with 64 buckets per sub-table (capacity 192)."""
    return McCuckoo(n_buckets=64, d=3, maxloop=200, seed=session_seed ^ 1)


@pytest.fixture
def keys100(session_seed):
    return distinct_keys(100, seed=session_seed ^ 3)


@pytest.fixture
def keys1000(session_seed):
    return distinct_keys(1000, seed=session_seed ^ 5)


@pytest.fixture
def durable_store(session_seed):
    """A small durable LogStructuredStore whose log image is the crash disk."""
    from repro.apps import LogStructuredStore

    return LogStructuredStore(
        expected_items=256, seed=session_seed ^ 7, durable=True
    )
