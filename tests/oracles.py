"""Slow reference implementations shared by the test modules.

``density_matrix_populations`` is the exact depolarizing channel on dense
density matrices (small n only), written out independently of
``noise.density_populations``. ``calibration_circuits`` builds the gate-level
basis preparations a scan reads as delta rows, and ``draw_shot_counts`` reads
populations one shot at a time, the slow path of ``readout.read_records``.
"""

import numpy as np

from nvqaoa._bitstrings import all_bitstrings
from nvqaoa.circuits import Circuit, append_flips
from nvqaoa.statevector import ROTATION_KINDS, Gate, gate_matrix, rz_matrix

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def calibration_circuits(num_qubits):
    """One preparation circuit per basis state, in index order: X gates writing that bit pattern."""
    empty = Circuit(num_qubits, ())
    return [append_flips(empty, pattern) for pattern in all_bitstrings(num_qubits)]


def draw_shot_counts(rng, intensities, pops, num_shots):
    """Photon count of every shot: an inverse-CDF basis state on ``pops``, then a Poisson count."""
    cdf = np.cumsum(pops)
    cdf[-1] = 1.0
    outcomes = np.searchsorted(cdf, rng.random(num_shots), side="right")
    return rng.poisson(intensities[outcomes])


def embed(matrix, targets, n):
    """The 2^n x 2^n operator acting as ``matrix`` on ``targets`` (qubit 0 is the most significant bit)."""
    dim = 1 << n

    def bits(s, qubits):
        return sum(((s >> (n - 1 - q)) & 1) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))

    others = [q for q in range(n) if q not in targets]
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if bits(i, others) == bits(j, others):
                full[i, j] = matrix[bits(i, targets), bits(j, targets)]
    return full


def density_matrix_populations(circuit, config):
    """Exact channel average: after each gate, rho -> (1-p) rho + (p/3) sum_P P rho P on each touched qubit."""
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    prob = config.depolarizing_prob

    def conjugate(rho, matrix, targets):
        full = embed(matrix, targets, n)
        return full @ rho @ full.conj().T

    for gate in circuit.gates:
        if gate.kind in ROTATION_KINDS:
            gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
        rho = conjugate(rho, gate_matrix(gate), gate.targets)
        for q in gate.targets:
            flipped = sum(conjugate(rho, pauli, (q,)) for pauli in PAULIS)
            rho = (1.0 - prob) * rho + (prob / 3.0) * flipped
        if len(gate.targets) == 2:
            rho = conjugate(rho, rz_matrix(config.phase_offset), (0,))
    return rho.diagonal().real
