import numpy as np
import pytest

from cmnlab.zoo import random_density  # noqa: F401  (test modules import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
