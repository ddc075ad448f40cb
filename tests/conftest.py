import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bbm5.coefficients import REFERENCE_COEFFICIENTS
from bbm5.spectral import Grid

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_collection_modifyitems(items):
    # a RuntimeWarning (overflow, invalid value) that the code under test leaks fails the
    # test; a test's own filterwarnings mark, applied after this one, takes precedence
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"), append=False)


@pytest.fixture
def ref():
    return REFERENCE_COEFFICIENTS


@pytest.fixture
def grid():
    return Grid(n=64, length=2.0 * math.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
