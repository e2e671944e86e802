"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.obs.metrics import FAMILIES


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dit_model():
    """A small DiT with few iterations, shared across read-only tests."""
    return build_model("dit", seed=0, total_iterations=9)


@pytest.fixture(scope="session")
def sd_model():
    """A Type-2 (ResBlock UNet) model, shared across read-only tests."""
    return build_model("stable_diffusion", seed=0, total_iterations=10)


@pytest.fixture(scope="session")
def mld_model():
    """A Type-1 (UNet without ResBlocks) model."""
    return build_model("mld", seed=0, total_iterations=10)


@pytest.fixture
def metric():
    """Read one series of a :class:`repro.obs.metrics.Metrics` fold by
    label values: a counter or gauge value (0.0 if never fed), or a
    histogram."""

    def read(metrics, name, **labels):
        key = tuple(str(labels[label]) for label in FAMILIES[name].labels)
        return metrics.series[name].get(key, 0.0)

    return read
