"""Shared fixtures and hypothesis settings for the test suite."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cavity2deg import EftConfig, SystemConfig

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# On a failing property, hypothesis' pytest plugin first imports this module
# while it makes the report, and the import raises a DeprecationWarning
# (mypy_extensions.TypedDict); under a test's filterwarnings("error") mark
# that ends the run in an INTERNALERROR in place of the falsifying example.
# Imported once here, it is cached before any mark applies.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def si_config():
    """Default SI configuration: N=1e8 electrons on 1e-8 m^2, 1 um gap."""
    return SystemConfig.si(
        n_electrons=100_000_000, area=1.0e-8, mirror_gap=1.0e-6,
        mode_frequency=2.0e13,
    )


@pytest.fixture
def ratio_config():
    """Dimensionless configuration pinned by omega_p/omega alone."""
    return SystemConfig.from_ratio(0.5)


@pytest.fixture
def eft_si_config(si_config):
    return EftConfig(system=si_config, lambda0=10.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def assert_matches_loop():
    """Checks an array-in sweep against the per-point scalar calls that are
    its oracle: each value within rel 1e-14 of its scalar, or within 1e-14
    of the column's largest magnitude (where the closed form cancels)."""
    def check(got, want):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        assert got.shape == want.shape
        scale = np.abs(want).max(initial=0.0)
        tol = np.maximum(1e-14 * np.abs(want), 1e-14 * scale)
        assert np.all(np.abs(got - want) <= tol)
    return check
