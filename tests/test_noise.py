import itertools
import math

import numpy as np
import pytest

from nvqaoa import noise, statevector
from nvqaoa.circuits import Circuit, QaoaParams, build_ansatz, simulate
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import MAX_CALIBRATION_SIGMA, NoiseConfig, density_populations, perturb_calibration
from nvqaoa.readout import CalibrationTable, check_rows, default_calibration, read_records
from nvqaoa.statevector import ROTATION_KINDS, Gate, apply_gate, apply_matrix, gate_matrix, init_zero, populations, rz_matrix
from oracles import density_matrix_populations

K2 = Graph.complete(2)


def closed_form(beta, gamma):
    return -0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(depolarizing_prob=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(depolarizing_prob=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(calibration_sigma=-1.0)
    assert NoiseConfig(calibration_sigma=MAX_CALIBRATION_SIGMA).calibration_sigma == MAX_CALIBRATION_SIGMA
    with pytest.raises(ValueError, match="capped at 100"):
        NoiseConfig(calibration_sigma=np.nextafter(MAX_CALIBRATION_SIGMA, math.inf))
    with pytest.raises(ValueError):
        NoiseConfig(overrotation_frac=float("nan"))
    assert not NoiseConfig().is_stochastic
    assert not NoiseConfig(overrotation_frac=0.1, phase_offset=0.2, calibration_sigma=0.1).is_stochastic
    jumpy = NoiseConfig(depolarizing_prob=0.2)
    assert jumpy.is_stochastic


def test_config_dict_round_trip():
    config = NoiseConfig(0.1, 0.05, 0.3, 0.02)
    again = NoiseConfig.from_dict(config.to_dict())
    assert again == config


def test_trivial_config_bit_identical_to_exact():
    rng = np.random.default_rng(12)
    for _ in range(10):
        beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        circuit = build_ansatz(K2, QaoaParams.single(beta, gamma))
        exact = simulate(circuit)
        quiet = simulate(circuit, NoiseConfig(calibration_sigma=0.1))
        assert np.array_equal(exact.amplitudes, quiet.amplitudes)
    for n in (1, 2, 3, 4):
        circuit = random_circuit(n, rng, num_gates=20)
        assert np.array_equal(simulate(circuit).amplitudes, simulate(circuit, NoiseConfig()).amplitudes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_deterministic_channels_follow_each_gate_bit_for_bit(n):
    # the loop written out: each rotation angle scaled, then RZ(offset) on qubit 0 after each two-qubit gate
    rng = np.random.default_rng(40 + n)
    for trial in range(10):
        circuit = random_circuit(n, rng, num_gates=20)
        config = NoiseConfig(overrotation_frac=float(rng.uniform(-0.2, 0.2)), phase_offset=float(rng.uniform(-1, 1)))
        expected = init_zero(n)
        for gate in circuit.gates:
            if gate.kind in ROTATION_KINDS:
                gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
            expected = apply_matrix(expected, gate_matrix(gate), gate.targets)
            if len(gate.targets) == 2:
                expected = apply_matrix(expected, rz_matrix(config.phase_offset), (0,))
        assert np.array_equal(simulate(circuit, config).amplitudes, expected.amplitudes)


def test_overrotation_scales_rotation_angles_only():
    eps = 0.07
    config = NoiseConfig(overrotation_frac=eps)
    diag = diagonal_costs(K2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0)
        circuit = build_ansatz(K2, QaoaParams.single(beta, gamma))
        state = simulate(circuit, config)
        value = float(np.dot(populations(state), diag))
        # H gates are untouched, so the state is the exact ansatz at scaled angles
        assert value == pytest.approx(closed_form(beta * (1 + eps), gamma * (1 + eps)), abs=1e-9)


def test_phase_offset_follows_two_qubit_gates():
    phi = 0.83
    config = NoiseConfig(phase_offset=phi)
    circuit = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    noisy = simulate(circuit, config)
    expected = init_zero(2)
    expected = apply_gate(expected, Gate("H", (0,)))
    expected = apply_gate(expected, Gate("CNOT", (0, 1)))
    expected = apply_matrix(expected, rz_matrix(phi), (0,))
    np.testing.assert_allclose(noisy.amplitudes, expected.amplitudes, atol=1e-14)

    # single-qubit gates must not pick up the offset
    single = Circuit(2, (Gate("H", (0,)),))
    noisy = simulate(single, config)
    np.testing.assert_allclose(noisy.amplitudes, simulate(single).amplitudes, atol=1e-15)


def test_depolarizing_single_gate_statistics():
    # one RX on one qubit: X and Y flips swap populations, Z leaves them
    theta, prob = 1.1, 0.3
    circuit = Circuit(1, (Gate("RX", (0,), theta),))
    p0 = math.cos(theta / 2) ** 2
    expected0 = (1 - prob) * p0 + prob * (p0 / 3 + 2 * (1 - p0) / 3)
    # the channel on an arbitrary circuit is the dense oracle's; the kernel is held to it below
    pops = density_matrix_populations(circuit, NoiseConfig(depolarizing_prob=prob))
    np.testing.assert_allclose(pops, [expected0, 1 - expected0], rtol=0, atol=1e-12)


def test_full_depolarizing_drives_to_uniform():
    (pops,) = density_populations(K2, [[0.15 * math.pi]], [[1.5 * math.pi]], NoiseConfig(depolarizing_prob=1.0))
    np.testing.assert_allclose(pops, np.full(4, 0.25), atol=0.05)


def test_simulate_rejects_depolarizing():
    # a depolarizing channel leaves a mixed state, which only density_populations describes
    circuit = build_ansatz(K2, QaoaParams.single(0.3, 1.2))
    with pytest.raises(ValueError, match="depolarizing"):
        simulate(circuit, NoiseConfig(depolarizing_prob=0.5, overrotation_frac=0.05))


def test_perturb_calibration():
    intensities = default_calibration().intensities
    assert perturb_calibration(intensities, 0.0, seed=1) is intensities
    a = perturb_calibration(intensities, 0.05, seed=2)
    b = perturb_calibration(intensities, 0.05, seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, intensities)
    # large jitter must be floored at zero, never negative
    wild = perturb_calibration(intensities, 5.0, seed=3)
    assert (wild >= 0).all() and (wild == 0).any()
    with pytest.raises(ValueError):
        perturb_calibration(intensities, -0.1, seed=0)


def test_perturbed_table_is_valid_calibration():
    intensities = default_calibration().intensities
    perturbed = perturb_calibration(intensities, 0.02, seed=11)
    assert perturbed.shape == intensities.shape
    assert CalibrationTable(perturbed).num_qubits == 2


# --- the exact channel average against independent oracles ---

DEPOLARIZING = (0.0, 0.01, 0.02, 0.3, 1.0)


def random_circuit(n, rng, num_gates=14):
    """Random gates drawn from every kind the simulator knows."""
    kinds = ["H", "X", "RX", "RY", "RZ"] + (["RZZ", "CNOT"] if n > 1 else [])
    gates = []
    for _ in range(num_gates):
        kind = kinds[rng.integers(len(kinds))]
        targets = tuple(rng.choice(n, 2, replace=False)) if kind in ("RZZ", "CNOT") else (int(rng.integers(n)),)
        angle = float(rng.uniform(-math.pi, 2 * math.pi)) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, targets, angle))
    return Circuit(n, tuple(gates))


def random_ansatz(n, rng, points=3, p=None):
    """A random weighted graph on ``n`` vertices and ``(points, p)`` angle stacks, p from 1 to 3 unless given."""
    edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    p = p or int(rng.integers(1, 4))
    return Graph.from_edges(n, edges), rng.uniform(-math.pi, math.pi, (points, p)), rng.uniform(-4.0, 4.0, (points, p))


def oracle_rows(graph, betas, gammas, config):
    """The dense oracle's populations of ``build_ansatz`` at each row of the angle stacks."""
    circuits = (build_ansatz(graph, QaoaParams(tuple(b), tuple(g))) for b, g in zip(betas, gammas))
    return np.array([density_matrix_populations(circuit, config) for circuit in circuits])


def noise_config(prob, deterministic):
    if deterministic:
        return NoiseConfig(depolarizing_prob=prob, overrotation_frac=0.06, phase_offset=-0.4)
    return NoiseConfig(depolarizing_prob=prob)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trajectory_sampler_matches_gate_level_oracle(n, prob, deterministic):
    # density_populations on a 2n-qubit vector per point against the dense density-matrix oracle
    config = noise_config(prob, deterministic)
    graph, betas, gammas = random_ansatz(n, np.random.default_rng(100 * n + int(1000 * prob)))
    pops = density_populations(graph, betas, gammas, config)
    assert pops.shape == (3, 1 << n)
    np.testing.assert_allclose(pops, oracle_rows(graph, betas, gammas, config), rtol=0, atol=1e-12)
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def forbid_dense_operators(monkeypatch):
    def dense(*args):
        raise AssertionError("density_populations applied a dense operator")

    # every binding of the dense operators that the kernel's module could reach
    for module in (statevector, noise):
        for name in ("apply_matrix", "apply_gate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_density_populations_runs_without_dense_operators(monkeypatch, n):
    # a complete weighted graph, so every pair of qubits meets in an RZZ, against the oracle
    rng = np.random.default_rng(900 + n)
    graph = Graph.from_edges(n, [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n)])
    betas, gammas = rng.uniform(-math.pi, math.pi, (2, 4, 2))
    config = NoiseConfig(depolarizing_prob=0.02, overrotation_frac=0.06, phase_offset=-0.4)
    expected = oracle_rows(graph, betas, gammas, config)
    forbid_dense_operators(monkeypatch)
    np.testing.assert_allclose(density_populations(graph, betas, gammas, config), expected, rtol=0, atol=1e-12)


def test_density_populations_of_a_five_qubit_ansatz(monkeypatch):
    graph = Graph.from_edges(5, [(0, 1, 0.7), (1, 2, 1.2), (2, 3, 0.9), (3, 4, 1.1), (4, 0, 0.6), (1, 3, 1.3)])
    betas, gammas = [(0.3, 0.8), (1.1, -0.2)], [(0.7, 1.9), (2.3, 0.4)]
    config = NoiseConfig(depolarizing_prob=0.02, overrotation_frac=0.05, phase_offset=0.1)
    expected = oracle_rows(graph, betas, gammas, config)
    forbid_dense_operators(monkeypatch)
    np.testing.assert_allclose(density_populations(graph, betas, gammas, config), expected, rtol=0, atol=1e-12)


def test_density_populations_rejects_a_register_past_the_limit():
    # rho on 13 qubits has 4^13 entries, a 26-qubit register
    with pytest.raises(ValueError, match="26"):
        density_populations(Graph.from_edges(13, []), [[0.1]], [[0.2]], NoiseConfig(0.01))


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.07, 0.3), (-0.04, -0.45)], ids=["plain", "positive", "negative"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_stacked_density_rows_equal_one_row_calls(n, p, noise):
    # every row of a (points, p) stack is the one-row call of its angles bit for bit
    graph, betas, gammas = random_ansatz(n, np.random.default_rng(300 * n + p), points=5, p=p)
    config = NoiseConfig(depolarizing_prob=0.03, overrotation_frac=noise[0], phase_offset=noise[1])
    stack = density_populations(graph, betas, gammas, config)
    assert stack.shape == (5, 1 << n)
    for row, beta, gamma in zip(stack, betas, gammas):
        np.testing.assert_array_equal(row, density_populations(graph, [beta], [gamma], config)[0])


def test_density_populations_rejects_mismatched_or_empty_angles():
    for beta_shape, gamma_shape in (((3, 1), (2, 1)), ((0, 1), (0, 1)), ((3,), (3,))):
        with pytest.raises(ValueError, match="stacks"):
            density_populations(K2, np.zeros(beta_shape), np.zeros(gamma_shape), NoiseConfig(0.01))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stochastic_measure_circuit_matches_simulate_noisy_loop(n, prob, deterministic, split):
    # a circuit is read as read_records of its exact channel-averaged
    # populations, which without depolarizing are the gate-by-gate state's
    config = noise_config(prob, deterministic)
    graph, betas, gammas = random_ansatz(n, np.random.default_rng(7 * n + int(100 * prob)), points=1)
    intensities = np.linspace(4.0, 0.5, 1 << n)
    (pops,) = density_populations(graph, betas, gammas, config)
    if prob == 0.0:
        circuit = build_ansatz(graph, QaoaParams(tuple(betas[0]), tuple(gammas[0])))
        np.testing.assert_allclose(pops, populations(simulate(circuit, config)), rtol=0, atol=1e-12)
    # 11 full blocks and a 70-shot tail
    rows = check_rows(pops[None], pops.size)
    means, checkpoints = read_records(intensities, rows, 2270, 31, 32 if split else None, 200)
    assert checkpoints is None if not split else checkpoints.shape == (1, 11)
    # the split runs on its own generator and leaves the record's mean as it is
    np.testing.assert_array_equal(means, read_records(intensities, rows, 2270, 31)[0])
    mean = pops @ intensities
    var = mean + pops @ intensities**2 - mean**2
    assert abs(means[0] - mean) <= 5.0 * math.sqrt(var / 2270)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
def test_trajectory_mean_matches_simulate_noisy_loop(prob, deterministic):
    # The channel average is the mean over trajectories: sum over every Pauli
    # error pattern of its probability times the populations of simulate
    # on the circuit with those errors written in as fixed gates (Z = HXH and
    # Y = XZ up to phase; fixed gates are neither overrotated nor followed by
    # the phase offset). The channel on an arbitrary circuit is the dense
    # oracle's; the kernel is held to the oracle above.
    config = noise_config(prob, deterministic)
    quiet = NoiseConfig(overrotation_frac=config.overrotation_frac, phase_offset=config.phase_offset)
    gates = (Gate("H", (0,)), Gate("RZZ", (0, 1), 1.3), Gate("RX", (1,), 0.8))
    circuit = Circuit(2, gates)
    slots = [(k, q) for k, gate in enumerate(gates) for q in gate.targets]
    paulis = {1: ("X",), 2: ("H", "X", "H", "X"), 3: ("H", "X", "H")}  # X, Y, Z
    expected = np.zeros(4)
    for errors in itertools.product(range(4), repeat=len(slots)):
        weight = math.prod(prob / 3 if e else 1 - prob for e in errors)
        if weight == 0.0:
            continue
        noisy = []
        for k, gate in enumerate(gates):
            noisy.append(gate)
            noisy += [Gate(kind, (q,)) for (g, q), e in zip(slots, errors) if g == k and e for kind in paulis[e]]
        expected += weight * populations(simulate(Circuit(2, tuple(noisy)), quiet))
    np.testing.assert_allclose(density_matrix_populations(circuit, config), expected, rtol=0, atol=1e-12)


# --- record means of a circuit's populations against the density-matrix oracle ---


def test_density_matrix_oracle_is_the_exact_state_without_depolarizing():
    circuit = random_circuit(3, np.random.default_rng(2))
    graph, betas, gammas = random_ansatz(3, np.random.default_rng(3))
    for config in (NoiseConfig(), NoiseConfig(overrotation_frac=0.06, phase_offset=-0.4)):
        exact = populations(simulate(circuit, config))
        np.testing.assert_allclose(density_matrix_populations(circuit, config), exact, atol=1e-12)
        circuits = (build_ansatz(graph, QaoaParams(tuple(b), tuple(g))) for b, g in zip(betas, gammas))
        exact = [populations(simulate(c, config)) for c in circuits]
        np.testing.assert_allclose(density_populations(graph, betas, gammas, config), exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", [0.02, 0.2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trajectory_mean_matches_density_matrix_oracle(n, prob, deterministic):
    # every shot is a fresh trajectory, so a record's mean count is an
    # average of i.i.d. counts with the oracle's mean and variance
    config = noise_config(prob, deterministic)
    graph, betas, gammas = random_ansatz(n, np.random.default_rng(50 + n), points=1)
    intensities = np.linspace(4.0, 0.5, 1 << n)
    shots = 200_000
    (got,), _ = read_records(intensities, check_rows(density_populations(graph, betas, gammas, config), 1 << n), shots, 17)
    (exact,) = oracle_rows(graph, betas, gammas, config)
    mean = exact @ intensities
    var = mean + exact @ intensities**2 - mean**2  # Poisson noise plus the spread over basis states
    assert abs(got - mean) <= 5.0 * math.sqrt(var / shots), (got, mean)
