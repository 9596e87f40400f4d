import contextlib
import signal

import numpy as np
import pytest

from padic_heat import BallModel

# the four models used throughout: small enough for dense matrices,
# varied enough to cover p, ball radius, and operator order
STANDARD_MODELS = [
    (2, 0, 6, 1.0),
    (2, 1, 5, 0.5),
    (3, 0, 4, 2.0),
    (5, -1, 3, 1.5),
]


def rel_linf(a, b, floor=1.0):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(a))), floor))


@pytest.fixture(params=STANDARD_MODELS, ids=lambda m: f"p{m[0]}_N{m[1]}_M{m[2]}_a{m[3]}")
def model_alpha(request):
    p, N, M, alpha = request.param
    return BallModel(p, N, M), alpha


@contextlib.contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block once it runs past ``seconds``."""
    def fire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
