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

The two deterministic channels, overrotation and phase offset, fold into
``circuits.qaoa_amplitudes``, which makes the ansatz state of a scan without a
stochastic channel; ``circuits.simulate(circuit, noise)`` runs any circuit
under them gate by gate and is the reference. Every shot is a fresh run of the
ansatz with its own Pauli errors, so one shot's basis state has the law
diag(rho) of the channel-averaged density matrix. ``density_populations``, the
density-matrix twin of ``qaoa_amplitudes``, computes that diagonal exactly for
a stack of angles (small registers only: rho has 4^n entries) by walking the
ansatz's gates on one flat rho per point, with the depolarizing channel in
closed form; a depolarizing record is a multinomial over it like any other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .statevector import MAX_QUBITS, Gate, butterfly, gate_matrix, rz_matrix

# A perturbed intensity is I * (1 + N(0, sigma)), and experiment.MAX_RECORD_PHOTONS
# leaves a factor of about 9000 below numpy's Poisson limit for that jitter. At
# this cap a record's photon mean overflows only at a draw of 90 standard deviations.
MAX_CALIBRATION_SIGMA = 100.0


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
        if self.calibration_sigma > MAX_CALIBRATION_SIGMA:
            raise ValueError(f"calibration_sigma is capped at {MAX_CALIBRATION_SIGMA:g}")

    @property
    def is_stochastic(self) -> bool:
        """True under the depolarizing channel, the only one that leaves a mixed state."""
        return self.depolarizing_prob > 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseConfig":
        return cls(**data)


def density_populations(graph, betas, gammas, config: NoiseConfig) -> np.ndarray:
    """Basis populations ``(points, 2^n)`` of the ansatz at ``(points, p)`` angle stacks, exactly averaged over the depolarizing channel.

    Row k is the channel average of ``build_ansatz(graph, QaoaParams(betas[k],
    gammas[k]))`` read gate by gate as ``circuits.simulate`` reads it: the H wall,
    then per layer each edge's RZZ(gamma w) and the phase offset's RZ on qubit
    0, then RX(2 beta) on every qubit. rho is one flat row of 4^n entries per
    point, entry i * 2^n + j holding rho[i, j]: the ket is on qubits 0..n-1 of
    a 2n-qubit register and the bra on n..2n-1. A single-qubit U is a
    butterfly on ket qubit q and conj(U) on bra qubit n + q, an RZZ the phase
    d[i] conj(d[j]) of its diagonal d. After each gate every touched qubit q
    gets rho -> (1 - p) rho + (p/3) sum_P P rho P in closed form: where the ket
    and bra bits of q differ rho is scaled by 1 - 4p/3, and where they agree
    the two blocks move toward each other by 2p/3. The channel commutes with
    every unitary on q, so it may follow the offset's RZ. Returns diag(rho),
    the law of one shot's basis state.
    """
    n = graph.num_vertices
    if 2 * n > MAX_QUBITS:
        raise ValueError(f"a density matrix on {n} qubits needs {2 * n} > {MAX_QUBITS} qubits of amplitudes")
    betas, gammas = _angle_stacks(betas, gammas)
    dim = 1 << n
    prob, scale = config.depolarizing_prob, 1.0 + config.overrotation_frac
    keep, mix = 1.0 - 4.0 * prob / 3.0, 2.0 * prob / 3.0
    offset = rz_matrix(config.phase_offset) if config.phase_offset != 0.0 else None
    rho = np.zeros((betas.shape[0], dim * dim), dtype=complex)
    rho[:, 0] = 1.0

    def gate(matrix, q, channel):
        """``matrix`` (None: no unitary) on qubit q, then the channel on each qubit of ``channel``."""
        if matrix is not None:
            butterfly(rho, matrix, (q,))
            butterfly(rho, np.conj(matrix), (q + n,))
        for c in channel:
            # axes 2 and 4 are the ket and bra bits of c
            blocks = rho.reshape(-1, 1 << c, 2, dim >> 1, 2, dim >> (c + 1))
            blocks[:, :, 0, :, 1] *= keep
            blocks[:, :, 1, :, 0] *= keep
            low, high = blocks[:, :, 0, :, 0], blocks[:, :, 1, :, 1]
            shift = mix * (high - low)
            low += shift
            high -= shift

    for q in range(n):
        gate(gate_matrix(Gate("H", (q,))), q, (q,))
    index = np.arange(dim)
    for beta, gamma in zip(betas.T, gammas.T):
        for i, j, w in graph.edges():
            theta = (gamma * w) * scale
            parity = ((index >> (n - 1 - i)) ^ (index >> (n - 1 - j))) & 1
            phases = np.where(parity, np.exp(0.5j * theta)[:, None], np.exp(-0.5j * theta)[:, None])
            rho *= (phases[:, :, None] * phases.conj()[:, None, :]).reshape(rho.shape)
            gate(offset, 0, (i, j))  # the offset's RZ has no channel of its own
        half = (((2.0 * beta) * scale) / 2.0)[:, None, None]  # rounded as rx_matrix rounds theta / 2
        cos, minus_i_sin = np.cos(half), -1j * np.sin(half)
        rx = np.array(((cos, minus_i_sin), (minus_i_sin, cos)), dtype=complex)
        for q in range(n):
            gate(rx, q, (q,))
    return rho[:, :: dim + 1].real.copy()


def perturb_calibration(intensities: np.ndarray, sigma: float, seed) -> np.ndarray:
    """Intensities scaled entry by entry by 1 + N(0, sigma), floored at zero.

    ``intensities`` is one table or a stack of tables, one normal draw of its
    shape. ``sigma == 0`` returns ``intensities`` unchanged. A large sigma can floor
    every entry, an all-dark table; it is read like any other, and
    ``reconstruction.reconstruct`` judges it degenerate.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return intensities
    rng = np.random.default_rng(seed)
    return np.maximum(intensities * (1.0 + rng.normal(0.0, sigma, size=np.shape(intensities))), 0.0)


def _angle_stacks(betas, gammas) -> tuple[np.ndarray, np.ndarray]:
    """``betas`` and ``gammas`` as float ``(points, p)`` arrays; unequal, empty or non-finite stacks raise ValueError."""
    betas, gammas = np.asarray(betas, dtype=float), np.asarray(gammas, dtype=float)
    if betas.ndim != 2 or betas.shape != gammas.shape or not betas.size or not np.isfinite([betas, gammas]).all():
        raise ValueError(f"angles must be finite, nonempty (points, p) stacks, got {betas.shape} and {gammas.shape}")
    return betas, gammas
