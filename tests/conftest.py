import math
import sys
from pathlib import Path

import numpy as np
import pytest

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: angle grid shared by the network-level suites
ACCEPT_THETAS = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)

#: every copy-number pair with 1 <= M < N <= 6
MN_PAIRS = tuple((m, n) for m in range(1, 6) for n in range(m + 1, 7))

ETA_GRID = (0.5, 0.7, 0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


def random_orthogonal(rng, dim: int) -> np.ndarray:
    """Haar-ish random real orthogonal matrix from the QR of a real Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diagonal(r))
