"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark shares its host with other work, and the host's speed drifts
by tens of percent over minutes. ``run.py`` times this kernel next to every
set-up probe and every scan and scales its timings by
``REFERENCE_S / median(kernel times next to it)``: a time is then reported in seconds at
the speed the kernel has when it takes ``REFERENCE_S``, which cancels most
of the drift. The kernel mixes the kinds of work nvqaoa does: interpreter
loops, state-vector contractions on 2^14 amplitudes, multinomial and Poisson
sampling, and small-array numpy arithmetic. It uses no nvqaoa code, so a
change to the program cannot change it.
"""

import statistics
import time

import numpy as np

#: Kernel duration that defines the reporting speed: a round figure within
#: the range of its medians on a shared 2-vCPU Intel Xeon host (Python 3.11,
#: numpy 2.4), where it took 0.012 to 0.021 s as the host's load changed.
REFERENCE_S = 0.015

_ROTATION = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_INTENSITIES = np.array([5.0, 3.0, 2.0, 1.0])


def _interpreter() -> int:
    total = 0
    for k in range(50_000):
        total += k * k % 7
    return total


def _state_vector() -> np.ndarray:
    psi = np.full((2,) * 14, 1 / 128 + 0j)
    for q in range(30):
        psi = np.moveaxis(np.tensordot(_ROTATION, psi, axes=(1, q % 14)), 0, q % 14).copy()
    return psi


def _sampling() -> None:
    rng = np.random.default_rng(1)
    for _ in range(100):
        occupation = rng.multinomial(1000, [0.25] * 4, size=30)
        rng.poisson(occupation * _INTENSITIES).sum(axis=1)


def _small_arrays() -> float:
    a = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for k in range(2500):
        total += float((a * 1.0001 + 0.5)[k % 64])
    return total


def time_reference() -> float:
    """Seconds the reference kernel takes once."""
    started = time.perf_counter()
    _interpreter()
    _state_vector()
    _sampling()
    _small_arrays()
    return time.perf_counter() - started


def scale(kernel_times: list[float]) -> float:
    """Factor from host seconds to reference seconds, given kernel times measured alongside."""
    return REFERENCE_S / statistics.median(kernel_times)
