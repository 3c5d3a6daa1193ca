"""Shared test configuration."""

import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    """Deterministic plain RNG for tests that only need reproducibility."""
    return random.Random(0xDF11)


class _RefusingSource:
    def randbytes(self, n):
        raise AssertionError(f"read {n} random bytes")


@pytest.fixture
def refusing_rng():
    """An RNG whose every read fails, for calls that must refuse before drawing."""
    return _RefusingSource()
