import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def traced_peak():
    """Peak bytes traced while a callable runs; numpy reports its buffers to tracemalloc."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
