import math

import numpy as np
import pytest

from nvqaoa import circuits
from nvqaoa._bitstrings import all_bitstrings
from nvqaoa.circuits import (
    Circuit,
    QaoaParams,
    append_flips,
    build_ansatz,
    build_ansatz_native,
    qaoa_amplitudes,
    simulate,
    simulate_qaoa,
)
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import NoiseConfig
from nvqaoa.statevector import Gate, fidelity, populations
from oracles import calibration_circuits, full_loop_amplitudes

K2 = Graph.complete(2)
K3 = Graph.complete(3)


def closed_form(beta, gamma):
    return -0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma)


def test_params_validation():
    with pytest.raises(ValueError):
        QaoaParams((), ())
    with pytest.raises(ValueError):
        QaoaParams((0.1,), (0.2, 0.3))
    with pytest.raises(ValueError):
        QaoaParams((float("inf"),), (0.0,))
    params = QaoaParams.single(0.1, 0.2)
    assert params.p == 1


def test_ansatz_gate_sequence_k2():
    circuit = build_ansatz(K2, QaoaParams.single(0.3, 0.7))
    kinds = [g.kind for g in circuit.gates]
    assert kinds == ["H", "H", "RZZ", "RX", "RX"]
    rzz = circuit.gates[2]
    assert rzz.targets == (0, 1)
    assert rzz.angle == pytest.approx(0.7)
    assert circuit.gates[3].angle == pytest.approx(0.6)  # RX carries 2*beta


def test_ansatz_layer_count():
    params = QaoaParams((0.1, 0.2), (0.3, 0.4))
    circuit = build_ansatz(K3, params)
    # 3 H + 2 layers of (3 RZZ + 3 RX)
    assert len(circuit.gates) == 3 + 2 * 6
    angles = [g.angle for g in circuit.gates if g.kind == "RZZ"]
    assert angles == pytest.approx([0.3, 0.3, 0.3, 0.4, 0.4, 0.4])


def test_weighted_edges_scale_rzz():
    g = Graph.from_edges(2, [(0, 1, 2.5)])
    circuit = build_ansatz(g, QaoaParams.single(0.1, 0.4))
    rzz = [gate for gate in circuit.gates if gate.kind == "RZZ"][0]
    assert rzz.angle == pytest.approx(1.0)


def test_zero_angles_give_uniform_state():
    circuit = build_ansatz(K2, QaoaParams.single(0.0, 0.0))
    np.testing.assert_allclose(populations(simulate(circuit)), np.full(4, 0.25), atol=1e-14)


def test_native_expansion_structure():
    circuit = build_ansatz_native(K2, QaoaParams.single(0.3, 0.7))
    kinds = [g.kind for g in circuit.gates]
    assert kinds == ["H", "H", "CNOT", "RZ", "CNOT", "RX", "RX"]
    cnot = circuit.gates[2]
    assert cnot.targets == (0, 1)  # control is the lower-numbered vertex
    assert circuit.gates[3].targets == (1,)


def test_builders_agree_k2_k3():
    rng = np.random.default_rng(14)
    for graph in (K2, K3):
        for _ in range(100):
            beta = float(rng.uniform(0, np.pi))
            gamma = float(rng.uniform(0, 2 * np.pi))
            params = QaoaParams.single(beta, gamma)
            plain = simulate(build_ansatz(graph, params))
            native = simulate(build_ansatz_native(graph, params))
            assert fidelity(plain, native) >= 1 - 1e-12


def test_known_point_populations():
    params = QaoaParams.single(math.pi / 8, 1.5 * math.pi)
    pops = populations(simulate(build_ansatz(K2, params)))
    np.testing.assert_allclose(pops, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_expectation_matches_closed_form_on_grid():
    diag = diagonal_costs(K2)
    betas = 0.1 * np.pi + 0.025 * np.pi * np.arange(21)
    gammas = 0.1 * np.pi + 0.05 * np.pi * np.arange(41)
    worst = 0.0
    for beta in betas[::4]:
        for gamma in gammas[::5]:
            state = simulate(build_ansatz(K2, QaoaParams.single(beta, gamma)))
            worst = max(worst, abs(populations(state) @ diag - closed_form(beta, gamma)))
    assert worst < 1e-10


def test_landscape_periodicity():
    diag = diagonal_costs(K2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        beta = float(rng.uniform(0, np.pi))
        gamma = float(rng.uniform(0, 2 * np.pi))

        def value(b, g):
            return populations(simulate(build_ansatz(K2, QaoaParams.single(b, g)))) @ diag

        assert value(beta + np.pi / 2, gamma) == pytest.approx(value(beta, gamma), abs=1e-10)
        assert value(beta, gamma + 2 * np.pi) == pytest.approx(value(beta, gamma), abs=1e-10)


def test_append_flips():
    base = build_ansatz(K2, QaoaParams.single(0.2, 0.5))
    unchanged = append_flips(base, "00")
    assert unchanged.gates == base.gates
    flipped = append_flips(base, "10")
    assert flipped.gates[-1].kind == "X"
    assert flipped.gates[-1].targets == (0,)
    both = append_flips(base, "11")
    assert len(both.gates) == len(base.gates) + 2
    with pytest.raises(ValueError):
        append_flips(base, "101")


def test_flip_moves_populations():
    base = build_ansatz(K2, QaoaParams.single(0.2, 0.5))
    pops = populations(simulate(base))
    flipped = populations(simulate(append_flips(base, "01")))
    # flipping qubit 1 permutes basis indices by XOR with 01
    np.testing.assert_allclose(flipped, pops[[1, 0, 3, 2]], atol=1e-13)


def test_flip_patterns_order():
    # flip pattern x is read in basis-index order, qubit 0 the leftmost bit
    assert all_bitstrings(2) == ["00", "01", "10", "11"]


def test_calibration_circuits_prepare_basis_states():
    circuits = calibration_circuits(2)
    assert len(circuits) == 4
    assert circuits[0].gates == ()
    for index, circuit in enumerate(circuits):
        pops = populations(simulate(circuit))
        expected = np.zeros(4)
        expected[index] = 1.0
        np.testing.assert_allclose(pops, expected, atol=1e-15)


def test_circuit_target_validation():
    with pytest.raises(ValueError):
        Circuit(1, (Gate("H", (1,)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_edgeless_graph_has_no_entanglers():
    g = Graph(3, np.zeros((3, 3)))
    circuit = build_ansatz_native(g, QaoaParams.single(0.3, 0.9))
    assert all(gate.kind in ("H", "RX") for gate in circuit.gates)


def random_weighted_graph(rng, n):
    edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    return Graph.from_edges(n, edges)


# the deterministic channels folded into simulate_qaoa: none, and overrotation
# with a phase offset of either sign
DETERMINISTIC_NOISE = (
    None,
    NoiseConfig(overrotation_frac=0.07, phase_offset=0.3),
    NoiseConfig(overrotation_frac=-0.04, phase_offset=-0.45),
)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_structured_simulator_matches_gate_level_oracle(n, p):
    rng = np.random.default_rng(1000 * n + p)
    for graph in (random_weighted_graph(rng, n), Graph(n, np.zeros((n, n)))):
        costs = diagonal_costs(graph)
        num_edges = len(graph.edges())
        for _ in range(3):
            params = QaoaParams(tuple(rng.uniform(-math.pi, math.pi, p)), tuple(rng.uniform(-math.pi, math.pi, p)))
            fast = simulate_qaoa(costs, params)
            gate = simulate(build_ansatz(graph, params))
            native = simulate(build_ansatz_native(graph, params))
            assert fast.shape == (1 << n,)
            assert fidelity(fast, gate) >= 1 - 1e-12
            assert fidelity(fast, native) >= 1 - 1e-12
            np.testing.assert_allclose(populations(fast), populations(gate), rtol=0, atol=1e-12)
            np.testing.assert_allclose(populations(fast), populations(native), rtol=0, atol=1e-12)
            # the RZZ product is exp(-i gamma C) times the global phase e^(-i gamma W / 2) per layer
            phase = np.exp(-0.5j * graph.total_weight() * sum(params.gammas))
            np.testing.assert_allclose(gate, phase * fast, rtol=0, atol=1e-12)
            for noise in DETERMINISTIC_NOISE:
                folded = simulate_qaoa(costs, params, noise, num_edges)
                oracle = simulate(build_ansatz(graph, params), noise)
                assert fidelity(folded, oracle) >= 1 - 1e-12
                np.testing.assert_allclose(populations(folded), populations(oracle), rtol=0, atol=1e-12)
            with pytest.raises(ValueError, match="depolarizing"):
                simulate_qaoa(costs, params, NoiseConfig(depolarizing_prob=0.01), num_edges)


@pytest.mark.parametrize("noise", DETERMINISTIC_NOISE, ids=["noiseless", "positive", "negative"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_stacked_kernel_rows_equal_one_row_calls(n, p, noise):
    # every row of a (points, p) stack is the one-row simulate_qaoa of its angles bit for bit,
    # and the gate-level state up to global phase
    rng = np.random.default_rng(100 * n + p)
    graph = random_weighted_graph(rng, n)
    costs, num_edges = diagonal_costs(graph), len(graph.edges())
    betas, gammas = rng.uniform(-math.pi, math.pi, (2, 7, p))
    stack = qaoa_amplitudes(costs, betas, gammas, noise, num_edges)
    assert stack.shape == (7, 1 << n)
    for row, beta, gamma in zip(stack, betas, gammas):
        params = QaoaParams(tuple(beta), tuple(gamma))
        np.testing.assert_array_equal(row, simulate_qaoa(costs, params, noise, num_edges))
        oracle = simulate(build_ansatz(graph, params), noise)
        overlap = np.vdot(row, oracle)
        np.testing.assert_allclose(oracle, overlap / abs(overlap) * row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_half_register_path_equals_the_full_loop_bit_for_bit(n):
    # a diagonal_costs output equals its reverse, so the state is simulated on the half with qubit 0 clear
    rng = np.random.default_rng(2000 + n)
    for trial in range(25):
        graph = random_weighted_graph(rng, n)
        costs = diagonal_costs(graph)
        p, rows = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        betas, gammas = rng.uniform(-math.pi, math.pi, (2, rows, p))
        noise = NoiseConfig(overrotation_frac=float(rng.uniform(-0.2, 0.2))) if trial % 2 else None
        fast = qaoa_amplitudes(costs, betas, gammas, noise)
        slow = full_loop_amplitudes(costs, betas, gammas, noise)
        np.testing.assert_array_equal(populations(fast), populations(slow))
        np.testing.assert_array_equal(fast, slow)


def test_phase_offset_and_asymmetric_diagonals_take_the_full_loop(monkeypatch):
    def half_path(*args):
        raise AssertionError("half-register path taken")

    monkeypatch.setattr(circuits, "_even_amplitudes", half_path)
    rng = np.random.default_rng(31)
    graph = random_weighted_graph(rng, 5)
    costs, num_edges = diagonal_costs(graph), len(graph.edges())
    betas, gammas = rng.uniform(-math.pi, math.pi, (2, 3, 2))
    # a caller's diagonal that is not its own reverse
    lopsided = costs + np.linspace(0.0, 0.5, costs.size)
    np.testing.assert_array_equal(
        qaoa_amplitudes(lopsided, betas, gammas), full_loop_amplitudes(lopsided, betas, gammas)
    )
    noise = NoiseConfig(overrotation_frac=0.03, phase_offset=0.2)
    folded = qaoa_amplitudes(costs, betas, gammas, noise, num_edges)
    np.testing.assert_array_equal(folded, full_loop_amplitudes(costs, betas, gammas, noise, num_edges))
    for row, beta, gamma in zip(folded, betas, gammas):
        oracle = simulate(build_ansatz(graph, QaoaParams(tuple(beta), tuple(gamma))), noise)
        np.testing.assert_allclose(populations(row), populations(oracle), rtol=0, atol=1e-12)
    with pytest.raises(AssertionError, match="half-register"):
        qaoa_amplitudes(costs, betas, gammas)


def test_stacked_kernel_rejects_mismatched_or_empty_angles():
    costs = diagonal_costs(K2)
    shapes = [((3, 1), (2, 1)), ((3, 2), (3, 1)), ((0, 1), (0, 1)), ((2, 0), (2, 0)), ((3,), (3,)), ((1, 1, 1), (1, 1, 1))]
    for beta_shape, gamma_shape in shapes:
        with pytest.raises(ValueError, match="stacks"):
            qaoa_amplitudes(costs, np.zeros(beta_shape), np.zeros(gamma_shape))
    with pytest.raises(ValueError, match="finite"):
        qaoa_amplitudes(costs, [[0.1, math.nan]], [[0.2, 0.3]])


def test_structured_simulator_k2_closed_form():
    costs = diagonal_costs(K2)
    rng = np.random.default_rng(22)
    for beta, gamma in rng.uniform(-2 * math.pi, 2 * math.pi, (50, 2)):
        state = simulate_qaoa(costs, QaoaParams.single(beta, gamma))
        assert populations(state) @ costs == pytest.approx(closed_form(beta, gamma), abs=1e-12)
    # at beta = pi/8, gamma = 3pi/2 the state is an equal superposition of the two cuts
    pops = populations(simulate_qaoa(costs, QaoaParams.single(math.pi / 8, 1.5 * math.pi)))
    np.testing.assert_allclose(pops, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_structured_simulator_rejects_bad_cost_diagonal():
    params = QaoaParams.single(0.1, 0.2)
    for costs in (np.zeros(1), np.zeros(3), np.zeros(6), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="power-of-two"):
            simulate_qaoa(costs, params)


def test_structured_simulator_needs_num_edges_for_a_phase_offset():
    params = QaoaParams.single(0.1, 0.2)
    with pytest.raises(ValueError, match="num_edges"):
        simulate_qaoa(diagonal_costs(K2), params, NoiseConfig(phase_offset=0.1))
    # overrotation alone does not depend on the edge count
    folded = simulate_qaoa(diagonal_costs(K2), params, NoiseConfig(overrotation_frac=0.1))
    oracle = simulate(build_ansatz(K2, params), NoiseConfig(overrotation_frac=0.1))
    np.testing.assert_allclose(populations(folded), populations(oracle), rtol=0, atol=1e-12)
