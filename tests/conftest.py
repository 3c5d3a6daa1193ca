"""Shared test configuration."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import dpfkit

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


# Imports come first, so the cap bounds only the calls under test.
_CAPPED_PRELUDE = """
import resource
import dpfkit.cli
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""


@pytest.fixture(scope="session")
def capped_python():
    """Runs Python source in a child process that caps its own address space
    at 1 GiB, so that an unbounded allocation fails there, not in the runner."""
    src = str(Path(dpfkit.__file__).resolve().parents[1])

    def run(source, timeout=60):
        return subprocess.run(
            [sys.executable, "-c", _CAPPED_PRELUDE + textwrap.dedent(source)],
            capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONPATH": src},
        )

    return run
