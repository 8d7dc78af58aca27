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
``circuits.qaoa_amplitudes``, which makes the ansatz state of a scan without a
stochastic channel; ``simulate_noisy`` runs them gate by gate and is its
reference. Every shot is a fresh run of the circuit with its own Pauli errors,
so one shot's basis state has the law diag(rho) of the channel-averaged
density matrix. ``density_populations`` computes that diagonal exactly (small
registers only: rho has 4^n entries) by updating one flat rho in place, with
one kernel per gate kind and the depolarizing channel in closed form; a
depolarizing record is a multinomial over it like any other. Both share one
reading of a gate under the deterministic channels (``_gate_operators``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .statevector import (
    MAX_QUBITS,
    ROTATION_KINDS,
    Gate,
    StateVector,
    apply_matrix,
    butterfly,
    gate_matrix,
    init_zero,
)


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
        for op in _gate_operators(gate, config):
            state = apply_matrix(state, gate_matrix(op), op.targets)
    return state


def density_populations(circuit, config: NoiseConfig) -> np.ndarray:
    """Basis populations of the circuit from |00...0>, averaged exactly over the depolarizing channel.

    rho is one flat array of 4^n entries, entry i * 2^n + j holding rho[i, j]:
    read as a 2n-qubit register, the ket is on qubits 0..n-1 and the bra on
    n..2n-1. It is updated in place, one kernel per gate kind: a single-qubit
    U is a butterfly on ket qubit q and conj(U) on bra qubit n + q, an RZZ the
    phase d[i] conj(d[j]) of its diagonal d, a CNOT the same index permutation
    of rows and columns. After each gate every touched qubit q gets the
    depolarizing channel rho -> (1 - p) rho + (p/3) sum_P P rho P in closed
    form: where the ket and bra bits of q differ rho is scaled by 1 - 4p/3,
    and where they agree the two blocks move toward each other by 2p/3. The
    channel commutes with every unitary on q, so it may follow the phase
    offset's RZ. Returns diag(rho), the law of one shot's basis state.
    """
    n = circuit.num_qubits
    if 2 * n > MAX_QUBITS:
        raise ValueError(f"a density matrix on {n} qubits needs {2 * n} > {MAX_QUBITS} qubits of amplitudes")
    dim = 1 << n
    prob = config.depolarizing_prob
    keep, mix = 1.0 - 4.0 * prob / 3.0, 2.0 * prob / 3.0
    rho = np.zeros(dim * dim, dtype=complex)
    rho[0] = 1.0
    for gate in circuit.gates:
        for op in _gate_operators(gate, config):
            if op.kind == "RZZ":
                index = np.arange(dim)
                a, b = ((index >> (n - 1 - q)) & 1 for q in op.targets)
                phases = np.diagonal(gate_matrix(op))[2 * a + b]
                rho *= np.outer(phases, phases.conj()).reshape(-1)
            elif op.kind == "CNOT":
                control, target = op.targets
                _apply_cnot(rho, control, target)
                _apply_cnot(rho, control + n, target + n)
            else:
                matrix = gate_matrix(op)
                butterfly(rho, matrix, op.targets)
                butterfly(rho, matrix.conj(), (op.targets[0] + n,))
        for q in gate.targets:
            # axes 1 and 3 are the ket and bra bits of q
            blocks = rho.reshape(1 << q, 2, dim >> 1, 2, -1)
            blocks[:, 0, :, 1] *= keep
            blocks[:, 1, :, 0] *= keep
            low, high = blocks[:, 0, :, 0], blocks[:, 1, :, 1]
            shift = mix * (high - low)
            low += shift
            high -= shift
    return rho[:: dim + 1].real.copy()


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    """CNOT in place on a flat register: swap the halves of ``target`` where ``control`` is 1."""
    first, second = sorted((control, target))
    # axes 1 and 3 are the bits of ``first`` and ``second``
    view = amps.reshape(1 << first, 2, 1 << (second - first - 1), 2, -1)
    zero, one = view[:, 1, :, 0] if control < target else view[:, 0, :, 1], view[:, 1, :, 1]
    saved = zero.copy()
    zero[...] = one
    one[...] = saved


def perturb_calibration(intensities: np.ndarray, sigma: float, seed) -> np.ndarray:
    """Intensities scaled entry by entry by 1 + N(0, sigma), floored at zero.

    ``sigma == 0`` returns ``intensities`` unchanged. A large sigma can floor
    every entry, an all-dark table; it is read like any other, and
    ``reconstruction.reconstruct`` judges it degenerate.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return intensities
    rng = np.random.default_rng(seed)
    return np.maximum(intensities * (1.0 + rng.normal(0.0, sigma, size=len(intensities))), 0.0)


def _gate_operators(gate: Gate, config: NoiseConfig) -> list[Gate]:
    """``gate`` under the deterministic channels, as the gates that act, in order.

    Overrotation scales a rotation angle by 1 + frac; a two-qubit gate is
    followed by RZ(phase_offset) on qubit 0.
    """
    if config.overrotation_frac != 0.0 and gate.kind in ROTATION_KINDS:
        gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
    operators = [gate]
    if config.phase_offset != 0.0 and len(gate.targets) == 2:
        operators.append(Gate("RZ", (0,), config.phase_offset))
    return operators
