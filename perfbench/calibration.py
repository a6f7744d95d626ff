"""A fixed kernel whose running time measures how fast the machine is right now.

The kernel is a soavmud-free imitation of one FISTA iteration at paper scale:
two 70 x 100 matrix-vector products, a soft threshold and a short Python
loop, repeated ITERS times. A shared virtual machine can drift in speed by
2x over tens of seconds; timing this kernel in the same process just before
and just after a sweep measures that drift so it can be divided out.
"""

import time

import numpy as np

ITERS = 3000
REF_S = 0.06    # kernel time that defines reference speed


def calibrate():
    """Seconds the kernel takes now."""
    rng = np.random.default_rng(12345)
    B = rng.standard_normal((70, 100))
    y = rng.standard_normal(70)
    x = np.zeros(100)
    start = time.perf_counter()
    for _ in range(ITERS):
        z = x - 1e-3 * (B.T @ (B @ x - y))
        x = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
        acc = 0
        for i in range(100):
            acc += i * i
    return time.perf_counter() - start
