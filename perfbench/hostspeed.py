"""Fixed reference kernel: how fast the host runs at the moment it is called.

The benchmark's host is shared, and its speed drifts by tens of percent over
minutes.  ``reference_s`` times a fixed mix of the operations the program
spends its time on (spectral propagation steps, the complex exponential of
the ``r_1`` quadrature, a dense product and the per-sensor interpolation of
UBP), written with numpy and scipy only, so no change to the program moves
it.  The benchmark calls it between scenarios and scales its timings by
``NOMINAL_S / median(reference samples of the run)``.
"""

import time

import numpy as np
from scipy.fft import irfft2, rfft2

# A typical median of reference_s() on the host the benchmark was written on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31).
NOMINAL_S = 0.20

_N = 640
_RNG = np.random.default_rng(0)
_SPEC = rfft2(_RNG.standard_normal((_N, _N)))
_ABS_K = np.abs(_RNG.standard_normal(_SPEC.shape))
_LAGS = np.linspace(0.0, 6.0, 80)
_OMEGA = np.linspace(-60.0, 60.0, 2**14)
_A = _RNG.standard_normal((400, 400))
_PTS = _RNG.standard_normal((64 * 64, 2))
_SENSORS = 1.7 * np.stack([np.cos(np.arange(80)), np.sin(np.arange(80))], axis=1)
_NODES = np.linspace(0.0, 4.0, 800)
_PROFILE = _RNG.standard_normal(_NODES.size)


def reference_s():
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    for step in range(20):
        irfft2(_SPEC * np.cos(_ABS_K * (0.01 * step)), s=(_N, _N))
    np.exp(-1j * np.outer(_LAGS, _OMEGA)).sum()
    _A @ _A
    for sensor in _SENSORS:
        diff = sensor - _PTS
        np.interp(np.hypot(diff[:, 0], diff[:, 1]), _NODES, _PROFILE)
    return time.perf_counter() - t0
