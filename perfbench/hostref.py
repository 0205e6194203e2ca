"""A fixed reference kernel that measures how fast the machine runs now.

It mixes what the workloads spend their time on: small matrix products of
the size field training uses, NumPy element-wise work on small arrays as
alignment does, and plain Python. It uses NumPy only, never jcr, so no
change to jcr can change its time.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((512, 39))
_W1 = _rng.standard_normal((39, 256)) * 0.1
_W2 = _rng.standard_normal((256, 4)) * 0.1
_M = _rng.standard_normal((24, 32, 3))


def _kernel():
    for _ in range(8):
        z = _X @ _W1
        a = np.maximum(z, 0.0)
        d = a @ _W2
        _ = a.T @ d
        _ = _X.T @ ((d @ _W2.T) * (z > 0))
    acc = 0.0
    for _ in range(400):
        r = np.sqrt((_M * _M).sum(axis=-1)) + 1e-3
        acc += float((_M / r[..., None]).mean())
    s = 0
    for i in range(120000):
        s += i * i % 7
    return acc + s


REPS = 5


def reference_s():
    """Seconds the reference kernel takes now: the median of REPS runs, so
    that one run slowed by an interruption does not count."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPS // 2]
