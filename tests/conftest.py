import numpy as np
import pytest

# the generators live in the library; tests import them from here
from iopsim.ensembles import (  # noqa: F401
    random_hermitian,
    random_iop,
    random_pure,
    random_unitary,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
