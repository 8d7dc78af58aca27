import numpy as np
import pytest

from nvqaoa.statevector import (
    Gate,
    StateVector,
    apply_gate,
    apply_matrix,
    butterfly,
    butterfly_all,
    expectation_diagonal,
    fidelity,
    gate_matrix,
    init_zero,
    populations,
    rx_matrix,
)

ALL_KINDS = ("H", "X", "RX", "RY", "RZ", "CNOT", "RZZ")


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def random_gate(rng, n, kind=None):
    kind = kind or ALL_KINDS[rng.integers(len(ALL_KINDS))]
    if kind in ("CNOT", "RZZ"):
        targets = tuple(rng.choice(n, size=2, replace=False).tolist())
    else:
        targets = (int(rng.integers(n)),)
    angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if kind in ("RX", "RY", "RZ", "RZZ") else None
    return Gate(kind, targets, angle)


def test_init_zero():
    state = init_zero(3)
    assert state.num_qubits == 3
    np.testing.assert_array_equal(state.amplitudes, np.eye(8, dtype=complex)[0])


def test_init_zero_capacity():
    with pytest.raises(ValueError):
        init_zero(0)
    with pytest.raises(ValueError):
        init_zero(25)


def test_hadamard_and_x():
    plus = apply_gate(init_zero(1), Gate("H", (0,)))
    np.testing.assert_allclose(plus.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    one = apply_gate(init_zero(1), Gate("X", (0,)))
    np.testing.assert_allclose(one.amplitudes, [0, 1], atol=1e-15)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of |00> must give index 2 = |10>
    state = apply_gate(init_zero(2), Gate("X", (0,)))
    np.testing.assert_allclose(populations(state), [0, 0, 1, 0], atol=1e-15)
    state = apply_gate(init_zero(2), Gate("X", (1,)))
    np.testing.assert_allclose(populations(state), [0, 1, 0, 0], atol=1e-15)


def test_cnot_truth_table():
    for control_in, expected in ((0, 0), (1, 3)):
        state = init_zero(2)
        if control_in:
            state = apply_gate(state, Gate("X", (0,)))
        state = apply_gate(state, Gate("CNOT", (0, 1)))
        assert populations(state)[expected] == pytest.approx(1.0, abs=1e-15)


def test_cnot_orientation():
    # control on qubit 1: |01> -> |11>
    state = apply_gate(init_zero(2), Gate("X", (1,)))
    state = apply_gate(state, Gate("CNOT", (1, 0)))
    np.testing.assert_allclose(populations(state), [0, 0, 0, 1], atol=1e-15)


def test_rzz_phase_convention():
    theta = 0.831
    state = apply_gate(init_zero(2), Gate("RZZ", (0, 1), theta))
    np.testing.assert_allclose(state.amplitudes[0], np.exp(-0.5j * theta), atol=1e-15)
    state = apply_gate(apply_gate(init_zero(2), Gate("X", (1,))), Gate("RZZ", (0, 1), theta))
    np.testing.assert_allclose(state.amplitudes[1], np.exp(+0.5j * theta), atol=1e-15)


def test_rotation_convention_rx():
    theta = 1.234
    state = apply_gate(init_zero(1), Gate("RX", (0,), theta))
    np.testing.assert_allclose(
        state.amplitudes, [np.cos(theta / 2), -1j * np.sin(theta / 2)], atol=1e-15
    )


def test_all_gate_matrices_unitary():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        gate = random_gate(rng, 3, kind)
        u = gate_matrix(gate)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-14)


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        for _ in range(12):
            kind = ALL_KINDS[rng.integers(len(ALL_KINDS))]
            if n == 1 and kind in ("CNOT", "RZZ"):
                continue
            state = apply_gate(state, random_gate(rng, n, kind))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_inverse_recovery():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        state = random_state(rng, n)
        gate = random_gate(rng, n)
        forward = apply_gate(state, gate)
        if gate.kind in ("RX", "RY", "RZ", "RZZ"):
            inverse = Gate(gate.kind, gate.targets, -gate.angle)
        else:
            inverse = gate  # H, X, CNOT are involutions
        recovered = apply_gate(forward, inverse)
        np.testing.assert_allclose(recovered.amplitudes, state.amplitudes, atol=1e-12)


def test_rzz_equals_cnot_rz_cnot():
    rng = np.random.default_rng(21)
    from nvqaoa.statevector import rz_matrix

    for _ in range(50):
        theta = float(rng.uniform(-6, 6))
        state = random_state(rng, 2)
        direct = apply_gate(state, Gate("RZZ", (0, 1), theta))
        chained = apply_gate(state, Gate("CNOT", (0, 1)))
        chained = apply_matrix(chained, rz_matrix(theta), (1,))
        chained = apply_gate(chained, Gate("CNOT", (0, 1)))
        assert fidelity(direct, chained) == pytest.approx(1.0, abs=1e-12)
        # in this construction the phases agree exactly, not just up to a global factor
        np.testing.assert_allclose(direct.amplitudes, chained.amplitudes, atol=1e-12)


def test_diagonal_gates_leave_populations():
    rng = np.random.default_rng(33)
    state = random_state(rng, 3)
    before = populations(state)
    state = apply_gate(state, Gate("RZ", (1,), 0.7))
    state = apply_gate(state, Gate("RZZ", (0, 2), -1.1))
    np.testing.assert_allclose(populations(state), before, atol=1e-13)


def test_populations_and_expectation():
    state = apply_gate(init_zero(2), Gate("H", (0,)))
    pops = populations(state)
    np.testing.assert_allclose(pops, [0.5, 0, 0.5, 0], atol=1e-15)
    assert pops.sum() == pytest.approx(1.0, abs=1e-15)
    diag = np.array([0.0, -1.0, -1.0, 0.0])
    assert expectation_diagonal(state, diag) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(ValueError):
        expectation_diagonal(state, np.zeros(5))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("FOO", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0,), 1.0)  # angle on a fixed gate
    with pytest.raises(ValueError):
        Gate("RX", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("RX", (0,), float("nan"))
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError):
        Gate("RZ", (-1,), 0.3)


def test_apply_matrix_validation():
    state = init_zero(2)
    with pytest.raises(ValueError):
        apply_matrix(state, np.eye(2), (2,))  # target out of range
    with pytest.raises(ValueError):
        apply_matrix(state, np.eye(3), (0,))  # wrong shape
    with pytest.raises(ValueError):
        apply_gate(state, Gate("RZZ", (0, 3), 0.1))


def test_state_is_immutable():
    state = init_zero(1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_no_silent_renormalization():
    state = StateVector(1, np.array([2.0, 0.0], dtype=complex))
    assert populations(state).sum() == pytest.approx(4.0)


def test_fidelity_global_phase():
    rng = np.random.default_rng(2)
    state = random_state(rng, 2)
    rotated = StateVector(2, state.amplitudes * np.exp(0.4j))
    assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_butterfly_applies_each_rows_matrix(n):
    # row k of a stack gets the 2x2 matrix of entries [k], bit for bit as a flat call
    # with that row's scalars, and as apply_matrix on each qubit in turn
    rng = np.random.default_rng(60 + n)
    rows = 5
    stack = np.array([random_state(rng, n).amplitudes for _ in range(rows)])
    entries = rng.normal(size=(2, 2, rows, 1, 1)) + 1j * rng.normal(size=(2, 2, rows, 1, 1))
    qubits = rng.permutation(n).tolist()
    got = stack.copy()
    butterfly(got, entries, qubits)
    for k in range(rows):
        flat = stack[k].copy()
        butterfly(flat, entries[:, :, k, 0, 0], qubits)
        np.testing.assert_array_equal(got[k], flat)
        want = StateVector(n, stack[k])
        for q in qubits:
            want = apply_matrix(want, entries[:, :, k, 0, 0], (q,))
        np.testing.assert_allclose(got[k], want.amplitudes, rtol=0, atol=1e-12)


HADAMARD = gate_matrix(Gate("H", (0,)))


def _rx_rows(beta):
    """RX(2 beta) per row as ``(rows, 1)`` entries, and its complex conjugate."""
    cos, sin = np.cos(beta)[:, None], np.sin(beta)[:, None]
    return ((cos, -1j * sin), (-1j * sin, cos)), ((cos + 0j, 1j * sin), (1j * sin, cos + 0j))


@pytest.mark.parametrize("m", range(1, 15))
@pytest.mark.simd_baseline
def test_constant_geometry_kernel_equals_butterfly_on_every_qubit(m):
    # butterfly(amps, M, range(m)) is the oracle, bit for bit; odd m ends in the scratch state and is copied back
    rng = np.random.default_rng(80 + m)
    for rows in (1, 3, 66):
        stack = rng.normal(size=(rows, 1 << m)) + 1j * rng.normal(size=(rows, 1 << m))
        general = rng.normal(size=(2, 2, rows, 1)) + 1j * rng.normal(size=(2, 2, rows, 1))
        rx, conj_rx = _rx_rows(rng.uniform(-np.pi, np.pi, rows))
        scalars = [HADAMARD, np.conj(rx_matrix(0.7)), general[:, :, 0, 0]]
        per_row = [rx, conj_rx, general]
        for matrix in scalars + per_row:
            got, want = stack.copy(), stack.copy()
            butterfly_all(got, matrix)
            # butterfly takes a per-row entry as (rows, 1, 1)
            butterfly(want, [[np.asarray(entry)[..., None] for entry in pair] for pair in matrix], range(m))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    flat = stack[0].copy()
    butterfly_all(flat, HADAMARD)
    want = stack[0].copy()
    butterfly(want, HADAMARD, range(m))
    assert np.array_equal(flat.view(np.int64), want.view(np.int64))
