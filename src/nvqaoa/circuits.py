"""Circuit construction for the variational MAX-CUT ansatz.

The ansatz alternates a diagonal cost layer (one RZZ per edge, angle scaled by
the edge weight) with a transverse mixing layer (RX(2 beta) on every qubit),
starting from the uniform superposition. A second builder expands each RZZ
into the native CNOT - RZ - CNOT sequence; the two must agree up to global
phase, which is one of the library's standing self-checks.

``qaoa_amplitudes`` makes a stack of ansatz states without building a circuit:
per layer, one multiply by the cost-diagonal phase (``_cost_phase``) and RX on
every qubit in constant geometry (``statevector.butterfly_all``), each row with
its own angles. It folds in overrotation and phase
offset, so it makes every deterministic ansatz state of a scan, exact or
sampled; ``simulate_qaoa`` is its one-row case. Without a phase offset, on a
cost diagonal equal to its own reverse (every ``diagonal_costs`` output), it
simulates only the half of each row with qubit 0 clear and mirrors it
(``_even_amplitudes``), bit for bit what the loop over the whole register
gives. The gate-level ``simulate(build_ansatz(...), noise)``, which takes the
same deterministic channels gate by gate, stays as its reference. A
depolarizing channel leaves a mixed state, which a sampled scan reads from
the density-matrix twin ``noise.density_populations`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bitstrings import BitString, as_bit_array
from .graph_problem import Graph
from .noise import NoiseConfig, _angle_stacks
from .statevector import ROTATION_KINDS, Gate, StateVector, apply_gate, butterfly_all, init_zero, rz_matrix


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


def simulate(circuit: Circuit, noise: NoiseConfig | None = None) -> StateVector:
    """Run the circuit on |00...0> gate by gate and return the final state.

    ``noise`` applies the deterministic channels: overrotation scales every
    rotation angle by 1 + frac, and a phase offset applies RZ(offset) on qubit
    0 after each two-qubit gate. A depolarizing channel has no single final
    state and raises ValueError (``noise.density_populations`` averages over
    it). With every channel off the gates run as written, bit for bit.
    """
    noise = noise or NoiseConfig()
    if noise.is_stochastic:
        raise ValueError("simulate takes only deterministic noise; depolarizing needs density_populations")
    state = init_zero(circuit.num_qubits)
    for gate in circuit.gates:
        if noise.overrotation_frac != 0.0 and gate.kind in ROTATION_KINDS:
            gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + noise.overrotation_frac))
        state = apply_gate(state, gate)
        if noise.phase_offset != 0.0 and len(gate.targets) == 2:
            state = apply_gate(state, Gate("RZ", (0,), noise.phase_offset))
    return state


def qaoa_amplitudes(
    costs: np.ndarray, betas, gammas, noise: NoiseConfig | None = None, num_edges: int | None = None
) -> np.ndarray:
    """Ansatz amplitudes ``(points, 2^n)`` at ``(points, p)`` angle stacks, from ``costs = diagonal_costs(graph)``.

    Starting from the uniform amplitude 2^(-n/2), each layer multiplies by
    exp(-i gamma C), which is the product of the edge RZZ(gamma w) gates up to
    the global phase e^(-i gamma W / 2) (W the total edge weight), then applies
    RX(2 beta) to every qubit (``butterfly_all``, with the bits of one
    butterfly per qubit). Row k equals the one-row call on row k
    bit for bit, and agrees with ``simulate(build_ansatz(graph, params))`` up
    to global phase at ``params = QaoaParams(betas[k], gammas[k])``.

    ``noise`` folds in the deterministic channels, matching
    ``simulate(build_ansatz(graph, params), noise)`` up to global phase:
    overrotation scales every beta and gamma by 1 + frac, and the RZ(offset) on
    qubit 0 after each of the ``num_edges = len(graph.edges())`` RZZ gates of a
    layer becomes one diagonal RZ(num_edges * offset) next to the cost phase.
    Unequal, empty or non-finite angle stacks, a phase offset without
    ``num_edges`` and a depolarizing channel raise ValueError.

    Without a phase offset, and with ``costs`` equal to ``costs[::-1]``, every
    amplitude equals its mirror's under flipping all qubits, and only the half
    with qubit 0 clear is simulated (``_even_amplitudes``); the result is the
    same bit for bit. Its layers take their cost phases from outside, so a
    scan makes one per block of points for every layer, or per gamma where a
    block is one point (``experiment.run_scan``). The loop over all 2^n
    amplitudes runs otherwise: for a phase offset, whose RZ on qubit 0 breaks
    the symmetry, and for a diagonal that is not its own reverse.
    """
    costs = np.asarray(costs, dtype=float)
    size = costs.size
    if costs.ndim != 1 or size < 2 or size & (size - 1):
        raise ValueError(f"cost diagonal must have a power-of-two length >= 2, got shape {costs.shape}")
    betas, gammas = _angle_stacks(betas, gammas)
    scale, offset = 1.0, 0.0
    if noise is not None:
        if noise.is_stochastic:
            raise ValueError("qaoa_amplitudes takes only deterministic noise; depolarizing needs density_populations")
        if noise.phase_offset != 0.0 and num_edges is None:
            raise ValueError("a phase offset needs num_edges, the number of two-qubit gates per layer")
        scale, offset = 1.0 + noise.overrotation_frac, noise.phase_offset * (num_edges or 0)
    betas, gammas = scale * betas, scale * gammas
    n = size.bit_length() - 1
    if not offset and np.array_equal(costs, costs[::-1]):
        half = costs[: size >> 1]
        return _even_amplitudes(n, (_cost_phase(half, gamma) for gamma in gammas.T), betas)
    # RZ on qubit 0, the most significant bit of the index: one phase per half
    offset_phases = np.diagonal(rz_matrix(offset))[:, None]
    amps = np.full((betas.shape[0], size), 2.0 ** (-0.5 * n), dtype=complex)
    for beta, gamma in zip(betas.T, gammas.T):
        amps *= _cost_phase(costs, gamma)
        if offset:
            halves = amps.reshape(-1, 2, size >> 1)
            halves *= offset_phases
        butterfly_all(amps, _rx_entries(beta))
    return amps


def _cost_phase(costs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """exp(-i gamma C) on ``costs``, one row per entry of the ``(rows,)`` stack ``gamma``."""
    return np.exp(-1j * gamma[:, None] * costs)


def _rx_entries(beta: np.ndarray):
    """RX(2 beta) as nested pairs of ``(rows, 1)`` entries, one matrix per entry of the ``(rows,)`` stack ``beta``."""
    beta = beta[:, None]
    cos, minus_i_sin = np.cos(beta), -1j * np.sin(beta)
    return (cos, minus_i_sin), (minus_i_sin, cos)


def _even_amplitudes(n: int, phases, betas: np.ndarray) -> np.ndarray:
    """``qaoa_amplitudes`` without a phase offset for costs equal to their reverse, from the half with qubit 0 clear.

    ``phases`` holds each layer's cost phase on the half diagonal
    (``_cost_phase``), ``(rows, 2^(n-1))`` or one ``(1, 2^(n-1))`` row for
    every row of the ``(rows, p)`` stack ``betas``. It may be lazy, and a scan
    passes one phase for all layers, or for a grid column of one-point blocks.

    Flipping every qubit maps index z to its mirror 2^n - 1 - z. Such a cost
    diagonal, the |+>^n start and every RX commute with that flip, so each
    amplitude equals its mirror's. Qubit 0's RX pairs z with z + 2^(n-1),
    whose amplitude is the mirror entry of the half. Each entry takes the full
    loop's operations in its order, so the result equals it bit for bit: RX has
    equal diagonal and equal off-diagonal entries, and complex multiplication
    and addition are commutative.
    """
    lo = np.full((betas.shape[0], 1 << (n - 1)), 2.0 ** (-0.5 * n), dtype=complex)
    for phase, beta in zip(phases, betas.T):
        lo *= phase
        rx = _rx_entries(beta)
        (cos, minus_i_sin), _ = rx
        lo = cos * lo + minus_i_sin * lo[..., ::-1]
        butterfly_all(lo, rx)
    return np.concatenate((lo, lo[..., ::-1]), axis=-1)


def simulate_qaoa(
    costs: np.ndarray, params: QaoaParams, noise: NoiseConfig | None = None, num_edges: int | None = None
) -> StateVector:
    """The ansatz state of ``params``: the one-row case of ``qaoa_amplitudes``."""
    amps = qaoa_amplitudes(costs, [params.betas], [params.gammas], noise, num_edges)[0]
    return StateVector(amps.size.bit_length() - 1, amps)
