"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host, a busy neighbour on the sibling hardware thread or a
tenant elsewhere slows interpreter-heavy code by up to 40%, for seconds to
minutes at a time. ``worker.py`` times this kernel right before and right
after every repetition, and ``run.py`` divides each repetition's time by
the kernel's time around it, so the slowdown cancels.

The kernel does the kind of work the studies do, Python loops of small
numpy calls on a 4-qubit statevector, and imports nothing from sgslab, so
no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.03  # the kernel's time that rescaled figures assume
QUBITS = 4
LAYERS = 400
PASSES = 3  # kernel passes per gauge

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def kernel_s() -> float:
    """Wall seconds of one pass of the kernel: single-qubit rotations."""
    dim = 2**QUBITS
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    t0 = time.perf_counter()
    for layer in range(LAYERS):
        axis = _X if layer % 2 else _Z
        for q in range(QUBITS):
            angle = 0.1 * (layer + q)
            gate = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * axis
            split = state.reshape((2**q, 2, 2 ** (QUBITS - q - 1)))
            state = np.einsum("ab,ibj->iaj", gate, split).reshape(dim)
    return time.perf_counter() - t0


def gauge() -> list[float]:
    """Times of ``PASSES`` back-to-back passes of the kernel."""
    return [kernel_s() for _ in range(PASSES)]
