import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves without Hypothesis
    pass
else:
    # every run draws the same examples, stores none and times none out
    settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
    settings.load_profile("reproducible")


@pytest.fixture
def rng() -> np.random.Generator:
    # fixed seed: the suites are randomized but reproducible
    return np.random.default_rng(20260819)
