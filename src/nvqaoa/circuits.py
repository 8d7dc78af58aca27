"""Circuit construction for the variational MAX-CUT ansatz.

The ansatz alternates a diagonal cost layer (one RZZ per edge, angle scaled by
the edge weight) with a transverse mixing layer (RX(2 beta) on every qubit),
starting from the uniform superposition. A second builder expands each RZZ
into the native CNOT - RZ - CNOT sequence; the two must agree up to global
phase, which is one of the library's standing self-checks.

``simulate_qaoa`` produces the ansatz state without building a circuit: one
multiply by the cost-diagonal phase and n in-place RX butterflies per layer.
It folds in the deterministic noise channels (overrotation and phase offset),
so it makes every deterministic ansatz state of a scan, exact or sampled. The
gate-level ``simulate(build_ansatz(...))`` and
``noise.simulate_noisy(build_ansatz(...))`` stay as its reference. A
depolarizing channel leaves a mixed state, which a sampled scan reads from
``noise.density_populations(build_ansatz(...))`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bitstrings import BitString, as_bit_array
from .graph_problem import Graph
from .noise import NoiseConfig
from .statevector import Gate, StateVector, apply_gate, butterfly, init_zero, rz_matrix


@dataclass(frozen=True)
class QaoaParams:
    """Variational angles, one (beta, gamma) pair per layer."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        gammas = tuple(float(g) for g in self.gammas)
        if len(betas) != len(gammas) or not betas:
            raise ValueError("betas and gammas must be equal-length and nonempty")
        if not all(np.isfinite(betas)) or not all(np.isfinite(gammas)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self) -> int:
        return len(self.betas)

    @classmethod
    def single(cls, beta: float, gamma: float) -> "QaoaParams":
        return cls((beta,), (gamma,))


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not isinstance(self.num_qubits, int) or self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        gates = tuple(self.gates)
        for gate in gates:
            if any(t >= self.num_qubits for t in gate.targets):
                raise ValueError(f"gate {gate.kind} targets {gate.targets} exceed {self.num_qubits} qubits")
        object.__setattr__(self, "gates", gates)


def build_ansatz(graph: Graph, params: QaoaParams) -> Circuit:
    """Hadamard wall, then per layer: RZZ(gamma * w) on each edge, RX(2 beta) on each qubit."""
    n = graph.num_vertices
    gates: list[Gate] = [Gate("H", (q,)) for q in range(n)]
    for beta, gamma in zip(params.betas, params.gammas):
        for i, j, w in graph.edges():
            gates.append(Gate("RZZ", (i, j), gamma * w))
        for q in range(n):
            gates.append(Gate("RX", (q,), 2.0 * beta))
    return Circuit(n, tuple(gates))


def build_ansatz_native(graph: Graph, params: QaoaParams) -> Circuit:
    """Same ansatz with every RZZ expanded as CNOT, RZ on the target, CNOT.

    The control is the lower-numbered qubit of each edge. Agrees with
    ``build_ansatz`` up to global phase.
    """
    n = graph.num_vertices
    gates: list[Gate] = [Gate("H", (q,)) for q in range(n)]
    for beta, gamma in zip(params.betas, params.gammas):
        for i, j, w in graph.edges():
            gates.append(Gate("CNOT", (i, j)))
            gates.append(Gate("RZ", (j,), gamma * w))
            gates.append(Gate("CNOT", (i, j)))
        for q in range(n):
            gates.append(Gate("RX", (q,), 2.0 * beta))
    return Circuit(n, tuple(gates))


def append_flips(circuit: Circuit, pattern: BitString) -> Circuit:
    """Append an X on every qubit where ``pattern`` has a 1 (qubit 0 = leftmost bit)."""
    bits = as_bit_array(pattern, circuit.num_qubits)
    extra = tuple(Gate("X", (q,)) for q in range(circuit.num_qubits) if bits[q])
    return Circuit(circuit.num_qubits, circuit.gates + extra)


def simulate(circuit: Circuit) -> StateVector:
    """Run the circuit on |00...0> and return the exact final state."""
    state = init_zero(circuit.num_qubits)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def simulate_qaoa(
    costs: np.ndarray, params: QaoaParams, noise: NoiseConfig | None = None, num_edges: int | None = None
) -> StateVector:
    """Ansatz state from the cost diagonal ``costs = diagonal_costs(graph)``.

    Starting from the uniform amplitude 2^(-n/2), each layer multiplies by
    exp(-i gamma C), which is the product of the edge RZZ(gamma w) gates up to
    the global phase e^(-i gamma W / 2) (W the total edge weight), then applies
    RX(2 beta) to every qubit in place. Agrees with
    ``simulate(build_ansatz(graph, params))`` up to global phase.

    ``noise`` folds in the deterministic channels, matching
    ``simulate_noisy(build_ansatz(graph, params), noise)`` up to global phase:
    overrotation scales every beta and gamma by 1 + frac, and the RZ(offset) on
    qubit 0 after each of the ``num_edges = len(graph.edges())`` RZZ gates of a
    layer becomes one diagonal RZ(num_edges * offset) next to the cost phase. A
    phase offset without ``num_edges`` and a depolarizing channel raise
    ValueError.
    """
    costs = np.asarray(costs, dtype=float)
    size = costs.size
    if costs.ndim != 1 or size < 2 or size & (size - 1):
        raise ValueError(f"cost diagonal must have a power-of-two length >= 2, got shape {costs.shape}")
    scale, offset = 1.0, 0.0
    if noise is not None:
        if noise.is_stochastic:
            raise ValueError("simulate_qaoa takes only deterministic noise; depolarizing needs density_populations")
        if noise.phase_offset != 0.0 and num_edges is None:
            raise ValueError("a phase offset needs num_edges, the number of two-qubit gates per layer")
        scale, offset = 1.0 + noise.overrotation_frac, noise.phase_offset * (num_edges or 0)
    # RZ on qubit 0, the most significant bit of the index: one phase per half
    offset_phases = np.diagonal(rz_matrix(offset))[:, None]
    n = size.bit_length() - 1
    amps = np.full(size, 2.0 ** (-0.5 * n), dtype=complex)
    for beta, gamma in zip(params.betas, params.gammas):
        beta, gamma = scale * beta, scale * gamma
        amps *= np.exp(-1j * gamma * costs)
        if offset:
            halves = amps.reshape(2, -1)
            halves *= offset_phases
        cos, minus_i_sin = math.cos(beta), -1j * math.sin(beta)
        mixer = ((cos, minus_i_sin), (minus_i_sin, cos))  # RX(2 beta)
        butterfly(amps, mixer, range(n))
    return StateVector(n, amps)
