"""Hardware-style imperfections applied per trajectory.

Three gate-level knobs plus one readout knob:

* ``overrotation_frac``: every rotation angle is scaled by (1 + frac);
  deterministic, models systematic drive miscalibration.
* ``depolarizing_prob``: after each gate, each touched qubit independently
  suffers a uniformly random Pauli (X, Y or Z) with this probability;
  stochastic, so expectation values need trajectory averaging.
* ``phase_offset``: a fixed RZ on qubit 0 after every two-qubit gate, standing
  in for the phase the electron spin picks up during entangling operations.
* ``calibration_sigma``: relative Gaussian jitter on the readout intensities.

The two deterministic channels, overrotation and phase offset, also fold into
``circuits.simulate_qaoa``, which makes the ansatz state of a scan without a
stochastic channel; ``simulate_noisy`` runs them gate by gate and is its
reference. ``TrajectorySampler`` is the only code that draws Pauli errors. It
makes batches of trajectories of one circuit: it draws the errors of the whole
batch in one call, gives every error-free trajectory the cached error-free
final state, and replays any other only from its first error on, starting from
the cached error-free state before that gate (the unravelling of Dalibard,
Castin & Molmer, PRL 68, 580, 1992: a trajectory leaves the error-free
evolution only at its first jump). A replay makes the same floating-point
operations as a gate-by-gate run of the same errors, so their states agree bit
for bit. ``simulate_noisy`` is one such trajectory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .statevector import (
    PAULI_MATRICES,
    ROTATION_KINDS,
    Gate,
    StateVector,
    apply_gate,
    apply_matrix,
    init_zero,
    populations,
    rz_matrix,
)

_PAULI_CHOICES = (PAULI_MATRICES["X"], PAULI_MATRICES["Y"], PAULI_MATRICES["Z"])


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
        """True when individual trajectories differ (only the depolarizing channel draws randomness)."""
        return self.depolarizing_prob > 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseConfig":
        return cls(**data)


def simulate_noisy(circuit, config: NoiseConfig, rng: np.random.Generator | None = None) -> StateVector:
    """One noisy trajectory of the circuit from |00...0>: ``TrajectorySampler(circuit, config).sample(rng)``.

    A depolarizing channel draws its errors from ``rng`` and raises ValueError
    without one. With all channels off this reproduces the exact simulator bit
    for bit: the angles are untouched and no extra operators are applied.
    """
    if rng is None and config.is_stochastic:
        raise ValueError("a depolarizing channel needs an rng to draw its errors from")
    return TrajectorySampler(circuit, config).sample(rng)


class TrajectorySampler:
    """Batches of noisy trajectories of one circuit that share its error-free prefix states.

    Every gate target is an error slot. ``draw_errors`` hits slot k of a
    trajectory when its uniform draw u < p, with X, Y or Z as 3u/p falls in
    [0, 1), [1, 2) or [2, 3): given u < p, u/p is uniform, so this is the
    depolarizing law. ``replay`` computes the error-free states once, on first
    need, and keeps them (up to one per gate plus one). Every error-free
    trajectory gets the same observed object, so callers must not modify it.
    """

    def __init__(self, circuit, config: NoiseConfig, observe=lambda state: state):
        self.circuit = circuit
        self.config = config
        self.observe = observe
        self._prefix = [init_zero(circuit.num_qubits)]  # error-free state before gate k
        self._error_free = None
        targets = [gate.targets for gate in circuit.gates]
        self._slot_gate = np.repeat(np.arange(len(targets)), [len(t) for t in targets])
        self._slot_qubit = np.array([q for t in targets for q in t], dtype=int)

    def draw_errors(self, rng: np.random.Generator, num: int) -> np.ndarray:
        """Pauli index (0, 1, 2 for X, Y, Z; -1 for none) per trajectory and error slot; no draw at p = 0."""
        prob = self.config.depolarizing_prob
        if prob == 0.0:
            return np.full((num, self._slot_gate.size), -1, dtype=np.int8)
        u = rng.random((num, self._slot_gate.size))
        return np.where(u < prob, np.minimum(3.0 * u / prob, 2.0).astype(np.int8), np.int8(-1))

    def replay(self, errors: np.ndarray):
        """``observe`` of the final state of one trajectory with the given row of ``draw_errors``."""
        gates = self.circuit.gates
        if errors.max(initial=-1) < 0:
            if self._error_free is None:
                self._error_free = self.observe(self._error_free_before(len(gates)))
            return self._error_free
        hit = np.flatnonzero(errors >= 0)
        first = int(self._slot_gate[hit[0]])
        state = self._error_free_before(first)
        drawn = [[] for _ in gates]
        for slot in hit:
            drawn[self._slot_gate[slot]].append((int(self._slot_qubit[slot]), int(errors[slot])))
        for gate, errors_here in zip(gates[first:], drawn[first:]):
            state = _noisy_step(state, gate, self.config, errors_here)
        return self.observe(state)

    def sample_many(self, rng: np.random.Generator, num: int) -> list:
        """``observe`` of ``num`` independent trajectories, all errors drawn in one call."""
        return [self.replay(errors) for errors in self.draw_errors(rng, num)]

    def sample(self, rng: np.random.Generator):
        """One trajectory: ``sample_many(rng, 1)[0]``."""
        return self.sample_many(rng, 1)[0]

    def _error_free_before(self, k: int) -> StateVector:
        while len(self._prefix) <= k:
            gate = self.circuit.gates[len(self._prefix) - 1]
            self._prefix.append(_noisy_step(self._prefix[-1], gate, self.config, ()))
        return self._prefix[k]


def trajectory_mean_populations(circuit, config: NoiseConfig, num_trajectories: int, seed) -> np.ndarray:
    """Basis populations averaged over independent noisy trajectories.

    One generator made from ``seed`` draws every trajectory's errors in one
    call (``TrajectorySampler.sample_many``); the sum runs in trajectory order.
    """
    if num_trajectories < 1:
        raise ValueError("need at least one trajectory")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sampler = TrajectorySampler(circuit, config, populations)
    total = np.zeros(1 << circuit.num_qubits)
    for pops in sampler.sample_many(np.random.default_rng(root), num_trajectories):
        total += pops
    return total / num_trajectories


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


def _noisy_step(state: StateVector, gate: Gate, config: NoiseConfig, errors) -> StateVector:
    """One gate under the deterministic channels, with the drawn Pauli ``errors`` applied after it."""
    if config.overrotation_frac != 0.0 and gate.kind in ROTATION_KINDS:
        gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
    state = apply_gate(state, gate)
    for q, pauli in errors:
        state = apply_matrix(state, _PAULI_CHOICES[pauli], (q,))
    if config.phase_offset != 0.0 and len(gate.targets) == 2:
        state = apply_matrix(state, rz_matrix(config.phase_offset), (0,))
    return state
