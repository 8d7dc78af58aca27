import math

import numpy as np
import pytest

from nvqaoa import readout
from nvqaoa.circuits import Circuit, QaoaParams, append_flips, build_ansatz, simulate
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import (
    NoiseConfig,
    TrajectorySampler,
    perturb_calibration,
    simulate_noisy,
    trajectory_mean_populations,
)
from nvqaoa.readout import CalibrationTable, default_calibration, measure_circuit
from nvqaoa.statevector import ROTATION_KINDS, Gate, apply_gate, apply_matrix, init_zero, populations, rz_matrix
from oracles import density_matrix_populations, replay_from_scratch

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
        quiet = simulate_noisy(circuit, NoiseConfig(), np.random.default_rng(0))
        assert np.array_equal(exact.amplitudes, quiet.amplitudes)


def test_overrotation_scales_rotation_angles_only():
    eps = 0.07
    config = NoiseConfig(overrotation_frac=eps)
    diag = diagonal_costs(K2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0)
        circuit = build_ansatz(K2, QaoaParams.single(beta, gamma))
        state = simulate_noisy(circuit, config, np.random.default_rng(0))
        value = float(np.dot(populations(state), diag))
        # H gates are untouched, so the state is the exact ansatz at scaled angles
        assert value == pytest.approx(closed_form(beta * (1 + eps), gamma * (1 + eps)), abs=1e-9)


def test_phase_offset_follows_two_qubit_gates():
    phi = 0.83
    config = NoiseConfig(phase_offset=phi)
    circuit = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    noisy = simulate_noisy(circuit, config, np.random.default_rng(0))
    expected = init_zero(2)
    expected = apply_gate(expected, Gate("H", (0,)))
    expected = apply_gate(expected, Gate("CNOT", (0, 1)))
    expected = apply_matrix(expected, rz_matrix(phi), (0,))
    np.testing.assert_allclose(noisy.amplitudes, expected.amplitudes, atol=1e-14)

    # single-qubit gates must not pick up the offset
    single = Circuit(2, (Gate("H", (0,)),))
    noisy = simulate_noisy(single, config, np.random.default_rng(0))
    np.testing.assert_allclose(noisy.amplitudes, simulate(single).amplitudes, atol=1e-15)


def test_depolarizing_single_gate_statistics():
    # one RX on one qubit: X and Y flips swap populations, Z leaves them
    theta, prob, trials = 1.1, 0.3, 20_000
    circuit = Circuit(1, (Gate("RX", (0,), theta),))
    p0 = math.cos(theta / 2) ** 2
    expected0 = (1 - prob) * p0 + prob * (p0 / 3 + 2 * (1 - p0) / 3)
    mean = trajectory_mean_populations(circuit, NoiseConfig(depolarizing_prob=prob), trials, seed=8)
    assert mean[0] == pytest.approx(expected0, abs=5 / math.sqrt(trials))


def test_full_depolarizing_drives_to_uniform():
    params = QaoaParams.single(0.15 * math.pi, 1.5 * math.pi)
    circuit = build_ansatz(K2, params)
    mean = trajectory_mean_populations(circuit, NoiseConfig(depolarizing_prob=1.0), 2000, seed=3)
    np.testing.assert_allclose(mean, np.full(4, 0.25), atol=0.05)


def test_trajectory_mean_deterministic():
    circuit = build_ansatz(K2, QaoaParams.single(0.3, 1.2))
    config = NoiseConfig(depolarizing_prob=0.2)
    a = trajectory_mean_populations(circuit, config, 200, seed=42)
    b = trajectory_mean_populations(circuit, config, 200, seed=42)
    c = trajectory_mean_populations(circuit, config, 200, seed=43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        trajectory_mean_populations(circuit, config, 0, seed=1)


def test_simulate_noisy_is_one_sampler_trajectory():
    circuit = build_ansatz(K2, QaoaParams.single(0.3, 1.2))
    config = NoiseConfig(depolarizing_prob=0.5, overrotation_frac=0.05)
    with pytest.raises(ValueError, match="rng"):
        simulate_noisy(circuit, config)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = simulate_noisy(circuit, config, rng)
        expected = TrajectorySampler(circuit, config).sample(np.random.default_rng(seed))
        np.testing.assert_array_equal(state.amplitudes, expected.amplitudes)
    # deterministic channels draw nothing, so they need no generator and leave a given one untouched
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    drifted = NoiseConfig(overrotation_frac=0.1, phase_offset=0.2)
    np.testing.assert_array_equal(
        simulate_noisy(circuit, drifted, rng).amplitudes, simulate_noisy(circuit, drifted).amplitudes
    )
    assert rng.bit_generator.state == before


def test_perturb_calibration():
    cal = default_calibration()
    assert perturb_calibration(cal, 0.0, seed=1) is cal
    a = perturb_calibration(cal, 0.05, seed=2)
    b = perturb_calibration(cal, 0.05, seed=2)
    np.testing.assert_array_equal(a.intensities, b.intensities)
    assert not np.array_equal(a.intensities, cal.intensities)
    # large jitter must be floored at zero, never negative
    wild = perturb_calibration(cal, 5.0, seed=3)
    assert (wild.intensities >= 0).all()
    with pytest.raises(ValueError):
        perturb_calibration(cal, -0.1, seed=0)


def test_perturbed_table_is_valid_calibration():
    cal = default_calibration()
    perturbed = perturb_calibration(cal, 0.02, seed=11)
    assert isinstance(perturbed, CalibrationTable)
    assert perturbed.num_qubits == 2


# --- the trajectory sampler against the gate-by-gate oracle ---

DEPOLARIZING = (0.0, 0.01, 0.3, 1.0)


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


def noise_config(prob, deterministic):
    if deterministic:
        return NoiseConfig(depolarizing_prob=prob, overrotation_frac=0.06, phase_offset=-0.4)
    return NoiseConfig(depolarizing_prob=prob)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trajectory_sampler_matches_gate_level_oracle(n, prob, deterministic):
    # The batch replays only from each trajectory's first error; a from-scratch
    # gate-by-gate run of the same drawn errors must give the same state bit for bit.
    config = noise_config(prob, deterministic)
    circuit = random_circuit(n, np.random.default_rng(100 * n + int(1000 * prob)))
    sampler = TrajectorySampler(circuit, config)
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    states = sampler.sample_many(rng, 60)
    errors = TrajectorySampler(circuit, config).draw_errors(twin, 60)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert errors.shape == (60, sum(len(gate.targets) for gate in circuit.gates))
    for state, row in zip(states, errors, strict=True):
        np.testing.assert_array_equal(state.amplitudes, replay_from_scratch(circuit, config, row).amplitudes)
    # every error-free trajectory is the one cached state; the others are replays
    error_free = sum(state is sampler._error_free for state in states)
    assert error_free == np.count_nonzero((errors < 0).all(axis=1))
    if prob == 0.0:
        assert error_free == 60
    elif prob == 0.01:
        assert 0 < error_free < 60  # both paths taken
    elif prob == 1.0:
        assert error_free == 0
    # one trajectory is the batch of one
    np.testing.assert_array_equal(
        sampler.sample(np.random.default_rng(7)).amplitudes,
        sampler.sample_many(np.random.default_rng(7), 1)[0].amplitudes,
    )


def test_error_mask_has_the_depolarizing_law():
    circuit = random_circuit(3, np.random.default_rng(4), num_gates=20)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    quiet = TrajectorySampler(circuit, NoiseConfig()).draw_errors(rng, 5)
    assert (quiet == -1).all() and rng.bit_generator.state == before  # no draw at p = 0
    prob, num = 0.3, 4000
    errors = TrajectorySampler(circuit, NoiseConfig(depolarizing_prob=prob)).draw_errors(rng, num)
    hits = errors[errors >= 0]
    slots = errors.size
    assert abs(hits.size / slots - prob) <= 4 * math.sqrt(prob * (1 - prob) / slots)
    shares = np.bincount(hits, minlength=3) / hits.size
    assert np.all(np.abs(shares - 1 / 3) <= 4 * math.sqrt((2 / 9) / hits.size)), shares
    # slots are independent: adjacent slots are hit together at rate prob^2
    both = np.count_nonzero((errors[:, :-1] >= 0) & (errors[:, 1:] >= 0)) / (num * (errors.shape[1] - 1))
    assert abs(both - prob**2) <= 4 * math.sqrt(prob**2 * (1 - prob**2) / (num * (errors.shape[1] - 1)))
    always = TrajectorySampler(circuit, NoiseConfig(depolarizing_prob=1.0)).draw_errors(rng, 50)
    assert (always >= 0).all() and set(np.unique(always)) == {0, 1, 2}
    # a circuit without gates has no error slots: every trajectory is the initial state
    empty = TrajectorySampler(Circuit(2, ()), NoiseConfig(depolarizing_prob=1.0), populations)
    np.testing.assert_array_equal(empty.sample_many(rng, 3), np.tile([1.0, 0, 0, 0], (3, 1)))


def reference_record(circuit, calibration, num_shots, seed, checkpoint_every, config, retain_counts):
    """measure_circuit with each block's trajectory run gate by gate from |0...0>."""
    num_full, remainder = divmod(num_shots, checkpoint_every)
    sizes = [checkpoint_every] * num_full + ([remainder] if remainder else [])
    rng = np.random.default_rng(seed)
    intensities = calibration.intensities
    errors = TrajectorySampler(circuit, config).draw_errors(rng, len(sizes))
    p = np.array([
        readout._validate_pops(populations(replay_from_scratch(circuit, config, row)), intensities.size, True)
        for row in errors
    ])
    if retain_counts:
        counts = np.concatenate([readout._draw_shot_counts(rng, intensities, pk, size) for pk, size in zip(p, sizes)])
        return readout._record_from_counts(counts, checkpoint_every)
    totals = rng.poisson(rng.multinomial(sizes, p) @ intensities)
    return readout._assemble_record(totals[:num_full], int(totals[num_full:].sum()), num_shots, checkpoint_every)


@pytest.mark.parametrize("retain_counts", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stochastic_measure_circuit_matches_simulate_noisy_loop(n, prob, deterministic, retain_counts):
    config = noise_config(prob, deterministic)
    circuit = random_circuit(n, np.random.default_rng(7 * n + int(100 * prob)), num_gates=10)
    calibration = CalibrationTable(np.linspace(4.0, 0.5, 1 << n))
    # 11 full blocks and a 70-shot tail
    record = measure_circuit(circuit, calibration, 2270, 31, 200, config, retain_counts)
    expected = reference_record(circuit, calibration, 2270, 31, 200, config, retain_counts)
    assert record.num_shots == expected.num_shots
    assert record.running_mean == expected.running_mean
    np.testing.assert_array_equal(record.checkpoints, expected.checkpoints)
    if retain_counts:
        np.testing.assert_array_equal(record.counts, expected.counts)
    else:
        assert record.counts is None and expected.counts is None


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", DEPOLARIZING)
def test_trajectory_mean_matches_simulate_noisy_loop(prob, deterministic):
    config = noise_config(prob, deterministic)
    circuit = append_flips(build_ansatz(Graph.complete(3), QaoaParams((0.4, 0.9), (1.1, 2.3))), "101")
    num_trajectories = 150
    expected = np.zeros(8)
    for row in TrajectorySampler(circuit, config).draw_errors(np.random.default_rng(21), num_trajectories):
        expected += populations(replay_from_scratch(circuit, config, row))
    expected /= num_trajectories
    np.testing.assert_array_equal(trajectory_mean_populations(circuit, config, num_trajectories, 21), expected)


# --- trajectory averages against the depolarizing channel on density matrices ---


def test_density_matrix_oracle_is_the_exact_state_without_depolarizing():
    circuit = random_circuit(3, np.random.default_rng(2))
    for config in (NoiseConfig(), NoiseConfig(overrotation_frac=0.06, phase_offset=-0.4)):
        exact = populations(simulate_noisy(circuit, config, np.random.default_rng(0)))
        np.testing.assert_allclose(density_matrix_populations(circuit, config), exact, atol=1e-12)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("prob", [0.02, 0.2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trajectory_mean_matches_density_matrix_oracle(n, prob, deterministic):
    config = noise_config(prob, deterministic)
    circuit = random_circuit(n, np.random.default_rng(50 + n), num_gates=8)
    num_trajectories, seed = 2000, 17
    mean = trajectory_mean_populations(circuit, config, num_trajectories, seed)
    # the spread of single-trajectory populations, from the first 400 of the same trajectories
    sampler = TrajectorySampler(circuit, config, populations)
    children = np.random.SeedSequence(seed).spawn(num_trajectories)[:400]
    samples = np.array([sampler.sample(np.random.default_rng(child)) for child in children])
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(num_trajectories)
    exact = density_matrix_populations(circuit, config)
    assert np.all(np.abs(mean - exact) <= 5.0 * stderr + 1e-12), (mean, exact, stderr)
