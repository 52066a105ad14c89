"""Host-speed calibration: a fixed kernel timed between ops.

The development VM (2 vCPUs, shared host) switches between speed states
that last from seconds to minutes: the same op takes up to 1.9x longer in a
slow state, CPU time moves with wall time and steal stays near 0.  Raw wall
times of 30-s runs minutes apart spread by up to 48% (quartile distance
over median), beyond any useful regression bound.

The kernel below does not call liealg.  It has two parts that stand for the
two kinds of work the program does at the seed:

* ``interp``: Python-level loops over tiny arrays, float formatting, small
  Kronecker products and a pivot-free 64x64 rank-1 elimination, like the
  audit suite, the 1-D experiment and the matrix dumps;
* ``bulk``: rank-1 updates of a 256x256 matrix and a 128x128 product, like
  the 2-D LU factorization and assembly.

A slow state stretches the two parts by different factors, and each
workload mixes them differently, so the index is their geometric mean.
An op's wall time is rescaled by the mean index of the samples taken just
before and just after it.  Over sets of 30-s runs the rescaled op times
spread 1-5% across seeds, where raw wall times spread 8-48%.
"""

from __future__ import annotations

import math
import time

import numpy as np

# geometric-mean kernel time, in ms, on the reference host: the 2-core
# development VM (Intel Xeon, 2.1 GHz, numpy 2.4 with OpenBLAS, one BLAS
# thread) in its fast state.  Normalized times are wall times rescaled to it.
REFERENCE_MS = 2.9

_rng = np.random.default_rng(0)
_FLOATS = _rng.standard_normal(300)
_ROW = _rng.standard_normal(16)
_SMALL = _rng.standard_normal((4, 4))
_MEDIUM = _rng.standard_normal((64, 64))
_LARGE = _rng.standard_normal((256, 256))


def interp() -> float:
    text = " ".join(f"{v:.16e}" for v in _FLOATS)
    acc = 0.0
    for i in range(150):
        acc += float(np.abs(_ROW * i).sum())
    for _ in range(20):
        acc += np.kron(np.kron(_SMALL, np.eye(4)), _SMALL)[0, 0]
    m = _MEDIUM.copy()
    for k in range(63):
        m[k + 1:, k] /= m[k, k] + 100.0
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return acc + len(text) + m[-1, -1]


def bulk() -> float:
    m = _LARGE.copy()
    for k in range(0, 128, 4):
        m[k + 1:, k + 1:] -= 1e-3 * np.outer(m[k + 1:, k], m[k, k + 1:])
    return float((_LARGE[:128, :128] @ _LARGE[:128, :128]).sum() + m[-1, -1])


def sample() -> tuple[float, float]:
    """Times of both parts, in ms."""
    start = time.perf_counter()
    interp()
    middle = time.perf_counter()
    bulk()
    end = time.perf_counter()
    return 1e3 * (middle - start), 1e3 * (end - middle)


def index(parts: tuple[float, float]) -> float:
    """Host-speed index of one sample: geometric mean of its parts, in ms."""
    return math.sqrt(parts[0] * parts[1])
