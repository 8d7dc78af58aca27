"""Hardware-style imperfections of the gates and of the readout table.

Three gate-level knobs plus one readout knob:

* ``overrotation_frac``: every rotation angle is scaled by (1 + frac);
  deterministic, models systematic drive miscalibration.
* ``depolarizing_prob``: after each gate, each touched qubit independently
  suffers a uniformly random Pauli (X, Y or Z) with this probability;
  stochastic, so a shot's state is a draw from a mixed state.
* ``phase_offset``: a fixed RZ on qubit 0 after every two-qubit gate, standing
  in for the phase the electron spin picks up during entangling operations.
* ``calibration_sigma``: relative Gaussian jitter on the readout intensities.

The two deterministic channels, overrotation and phase offset, also fold into
``circuits.simulate_qaoa``, which makes the ansatz state of a scan without a
stochastic channel; ``simulate_noisy`` runs them gate by gate and is its
reference. Every shot is a fresh run of the circuit with its own Pauli errors,
so one shot's basis state has the law diag(rho) of the channel-averaged
density matrix. ``density_populations`` computes that diagonal exactly (small
registers only: rho has 4^n entries), and a depolarizing record is a
multinomial over it like any other. Both share one reading of a gate under the
deterministic channels (``_gate_operators``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .statevector import (
    PAULI_MATRICES,
    ROTATION_KINDS,
    Gate,
    StateVector,
    apply_matrix,
    gate_matrix,
    init_zero,
    rz_matrix,
)

_PAULIS = (PAULI_MATRICES["X"], PAULI_MATRICES["Y"], PAULI_MATRICES["Z"])


@dataclass(frozen=True)
class NoiseConfig:
    depolarizing_prob: float = 0.0
    overrotation_frac: float = 0.0
    phase_offset: float = 0.0
    calibration_sigma: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_prob", "overrotation_frac", "phase_offset", "calibration_sigma"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.depolarizing_prob <= 1.0:
            raise ValueError("depolarizing_prob must be in [0, 1]")
        if self.calibration_sigma < 0.0:
            raise ValueError("calibration_sigma must be nonnegative")

    @property
    def is_stochastic(self) -> bool:
        """True under the depolarizing channel, the only one that leaves a mixed state."""
        return self.depolarizing_prob > 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseConfig":
        return cls(**data)


def simulate_noisy(circuit, config: NoiseConfig) -> StateVector:
    """The circuit from |00...0> under the deterministic channels, gate by gate.

    A depolarizing channel has no single final state and raises ValueError
    (``density_populations`` averages over it). With all channels off this
    reproduces the exact simulator bit for bit: the angles are untouched and
    no extra operators are applied.
    """
    if config.is_stochastic:
        raise ValueError("simulate_noisy takes only deterministic noise; depolarizing needs density_populations")
    state = init_zero(circuit.num_qubits)
    for gate in circuit.gates:
        for matrix, targets in _gate_operators(gate, config):
            state = apply_matrix(state, matrix, targets)
    return state


def density_populations(circuit, config: NoiseConfig) -> np.ndarray:
    """Basis populations of the circuit from |00...0>, averaged exactly over the depolarizing channel.

    The density matrix rho is held as a 2n-qubit ``StateVector`` whose
    amplitude i * 2^n + j is rho[i, j]: the ket on qubits 0..n-1, the bra on
    n..2n-1. An operator U acts as U on its ket targets and conj(U) on the bra
    targets. After each gate every touched qubit q gets the depolarizing
    channel rho -> (1 - p) rho + (p/3) sum_P P rho P as one 4x4 superoperator on
    (q, q + n); it commutes with every unitary on q, so it may follow the
    phase offset's RZ. Returns diag(rho), the law of one shot's basis state.
    """
    n = circuit.num_qubits
    prob = config.depolarizing_prob
    channel = (1.0 - prob) * np.eye(4) + (prob / 3.0) * sum(np.kron(P, P.conj()) for P in _PAULIS)
    rho = init_zero(2 * n)
    for gate in circuit.gates:
        for matrix, targets in _gate_operators(gate, config):
            rho = apply_matrix(rho, matrix, targets)
            rho = apply_matrix(rho, matrix.conj(), tuple(q + n for q in targets))
        for q in gate.targets:
            rho = apply_matrix(rho, channel, (q, q + n))
    return rho.amplitudes[:: (1 << n) + 1].real.copy()


def perturb_calibration(table, sigma: float, seed):
    """Return a copy of the calibration with intensities scaled by 1 + N(0, sigma), floored at zero.

    ``sigma == 0`` returns the table unchanged. Import is deferred to keep the
    module dependency graph one-way.
    """
    from .readout import CalibrationTable

    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return table
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.normal(0.0, sigma, size=table.intensities.size)
    return CalibrationTable(np.maximum(table.intensities * factors, 0.0))


def _gate_operators(gate: Gate, config: NoiseConfig) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """``gate`` under the deterministic channels, as (matrix, targets) pairs in the order they act.

    Overrotation scales a rotation angle by 1 + frac; a two-qubit gate is
    followed by RZ(phase_offset) on qubit 0.
    """
    if config.overrotation_frac != 0.0 and gate.kind in ROTATION_KINDS:
        gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
    operators = [(gate_matrix(gate), gate.targets)]
    if config.phase_offset != 0.0 and len(gate.targets) == 2:
        operators.append((rz_matrix(config.phase_offset), (0,)))
    return operators
