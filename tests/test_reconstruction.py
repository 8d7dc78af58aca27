import numpy as np
import pytest

from nvqaoa._bitstrings import all_bitstrings
from nvqaoa.circuits import QaoaParams, append_flips, build_ansatz, simulate
from nvqaoa.graph_problem import Graph
from nvqaoa.readout import DEGENERACY_TOLERANCE, CalibrationTable, check_rows, default_calibration, read_records
from nvqaoa.reconstruction import (
    DegenerateCalibrationError,
    forward_means,
    fwht,
    reconstruct,
    walsh_coefficients,
)
from nvqaoa.statevector import populations
from oracles import calibration_circuits, parity_signs

CAL = default_calibration()


def random_calibration(rng, n):
    return CalibrationTable(rng.uniform(0.5, 10.0, size=1 << n))


def test_fwht_matches_parity_matrix():
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        signs = parity_signs(n)
        for _ in range(10):
            v = rng.normal(size=1 << n)
            np.testing.assert_allclose(fwht(v), signs @ v, atol=1e-12)


def test_fwht_involution():
    rng = np.random.default_rng(23)
    v = rng.normal(size=8)
    np.testing.assert_allclose(fwht(fwht(v)) / 8.0, v, atol=1e-12)


def test_fwht_input_validation():
    with pytest.raises(ValueError):
        fwht(np.zeros(3))
    with pytest.raises(ValueError):
        fwht(np.zeros((2, 2)))


def test_walsh_coefficients_known_tables():
    np.testing.assert_allclose(walsh_coefficients(CAL), [2.75, 0.75, 1.25, 0.25], atol=1e-15)
    degenerate = CalibrationTable(np.array([4.0, 3.0, 2.0, 1.0]))
    c = walsh_coefficients(degenerate)
    np.testing.assert_allclose(c, [2.5, 0.5, 1.0, 0.0], atol=1e-15)


def test_forward_means_examples():
    np.testing.assert_allclose(forward_means(CAL, np.array([1.0, 0, 0, 0])), [5, 3, 2, 1], atol=1e-12)
    np.testing.assert_allclose(forward_means(CAL, np.array([0, 0, 0, 1.0])), [1, 2, 3, 5], atol=1e-12)
    np.testing.assert_allclose(forward_means(CAL, np.full(4, 0.25)), np.full(4, 2.75), atol=1e-12)


def test_forward_means_is_xor_convolution():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        cal = random_calibration(rng, n)
        pops = rng.dirichlet(np.ones(1 << n))
        direct = np.array(
            [sum(cal.intensities[s ^ x] * pops[s] for s in range(1 << n)) for x in range(1 << n)]
        )
        np.testing.assert_allclose(forward_means(cal, pops), direct, atol=1e-12)


def test_forward_means_validation():
    with pytest.raises(ValueError):
        forward_means(CAL, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        forward_means(CAL, np.array([0.5, 0.6, 0.0, 0.0]))


def test_reconstruct_exact_basis_state():
    estimate = reconstruct(CAL, np.array([5.0, 3.0, 2.0, 1.0]))
    np.testing.assert_allclose(estimate.pops, [1, 0, 0, 0], atol=1e-13)
    assert estimate.norm == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(estimate.correlators, [1, 1, 1, 1], atol=1e-13)


def test_round_trip_random():
    rng = np.random.default_rng(99)
    for n in (1, 2, 3):
        for _ in range(50):
            cal = random_calibration(rng, n)
            pops = rng.dirichlet(np.ones(1 << n))
            estimate = reconstruct(cal, forward_means(cal, pops))
            np.testing.assert_allclose(estimate.pops, pops, atol=1e-12)
            assert estimate.norm == pytest.approx(1.0, abs=1e-12)


def test_degenerate_calibration_raises():
    degenerate = CalibrationTable(np.array([4.0, 3.0, 2.0, 1.0]))
    with pytest.raises(DegenerateCalibrationError) as excinfo:
        reconstruct(degenerate, np.array([2.0, 2.0, 2.0, 2.0]))
    assert excinfo.value.t_label == "11"
    assert "t=11" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


def test_degeneracy_tolerance_is_the_floor():
    # c_11 = (4 - 3 - 2 + I_11) / 4, twice and half DEGENERACY_TOLERANCE
    above = CalibrationTable(np.array([4.0, 3.0, 2.0, 1.0 + 8 * DEGENERACY_TOLERANCE]))
    reconstruct(above, forward_means(above, np.full(4, 0.25)))
    below = CalibrationTable(np.array([4.0, 3.0, 2.0, 1.0 + 2 * DEGENERACY_TOLERANCE]))
    with pytest.raises(DegenerateCalibrationError) as excinfo:
        reconstruct(below, forward_means(below, np.full(4, 0.25)))
    assert excinfo.value.t_label == "11" and excinfo.value.tolerance == DEGENERACY_TOLERANCE


def test_reconstruct_is_linear_in_means():
    rng = np.random.default_rng(31)
    cal = random_calibration(rng, 2)
    m1, m2 = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.3, 1.7
    combined = reconstruct(cal, a * m1 + b * m2)
    e1, e2 = reconstruct(cal, m1), reconstruct(cal, m2)
    np.testing.assert_allclose(combined.pops, a * e1.pops + b * e2.pops, atol=1e-12)
    np.testing.assert_allclose(
        combined.correlators, a * e1.correlators + b * e2.correlators, atol=1e-12
    )


def test_agrees_with_direct_linear_solve():
    # the flip-pattern means satisfy M @ pops = means with M[x, s] = I[s XOR x]
    rng = np.random.default_rng(55)
    for _ in range(25):
        cal = random_calibration(rng, 2)
        matrix = np.array([[cal.intensities[s ^ x] for s in range(4)] for x in range(4)])
        means = rng.normal(1.0, 2.0, size=4)
        solved = np.linalg.solve(matrix, means)
        estimate = reconstruct(cal, means)
        np.testing.assert_allclose(estimate.pops, solved, atol=1e-10)


def test_no_clipping_or_renormalization():
    # noisy means can legitimately produce slightly negative populations
    estimate = reconstruct(CAL, np.array([5.1, 2.9, 2.05, 0.9]))
    assert estimate.pops.min() < 0 or abs(estimate.pops.sum() - estimate.norm) < 1e-12
    assert estimate.norm == pytest.approx(estimate.pops.sum(), abs=1e-12)


def test_means_validation():
    with pytest.raises(ValueError):
        reconstruct(CAL, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        reconstruct(CAL, np.array([1.0, 2.0, np.inf, 3.0]))


def test_norm_from_sampled_data_stays_near_one():
    graph = Graph.complete(2)
    params = QaoaParams.single(0.15 * np.pi, 1.5 * np.pi)
    ansatz = build_ansatz(graph, params)
    circuits = calibration_circuits(2) + [append_flips(ansatz, pattern) for pattern in all_bitstrings(2)]
    rows = check_rows([populations(simulate(c)) for c in circuits], 4)
    in_window = 0
    trials = 40
    for seed in range(trials):
        records, _ = read_records(CAL.intensities, rows, 300_000, seed)
        empirical, means = records[:4], records[4:]
        estimate = reconstruct(CalibrationTable(empirical), means)
        if 0.97 <= estimate.norm <= 1.03:
            in_window += 1
    assert in_window >= 0.95 * trials


def per_row_reconstruct(tables, means):
    """The row-by-row loop that stacked reconstruction replaces: NaN where a row's table is degenerate."""
    pops, norms = np.full(means.shape, np.nan), np.full(means.shape[:-1], np.nan)
    for index in np.ndindex(means.shape[:-1]):
        try:
            table = tables if isinstance(tables, CalibrationTable) else CalibrationTable(tables[index])
            estimate = reconstruct(table, means[index])
        except DegenerateCalibrationError:
            continue
        pops[index], norms[index] = estimate.pops, estimate.norm
    return pops, norms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_rows_match_per_row_reconstruct_and_linear_solve(n):
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    tables = rng.uniform(0.5, 10.0, size=(3, 5, size))
    means = rng.normal(2.0, 1.0, size=(3, 5, size))
    for calibration in (CalibrationTable(tables[0, 0]), tables):
        stacked = reconstruct(calibration, means)
        pops, norms = per_row_reconstruct(calibration, means)
        np.testing.assert_array_equal(stacked.pops, pops)
        np.testing.assert_array_equal(stacked.norm, norms)
        assert stacked.correlators.shape == means.shape and stacked.norm.shape == (3, 5)
        for index in np.ndindex(3, 5):
            row = calibration.intensities if isinstance(calibration, CalibrationTable) else tables[index]
            matrix = np.array([[row[s ^ x] for s in range(size)] for x in range(size)])
            np.testing.assert_allclose(stacked.pops[index], np.linalg.solve(matrix, means[index]), atol=1e-10)
            single = reconstruct(CalibrationTable(row), means[index])
            np.testing.assert_array_equal(stacked.correlators[index], single.correlators)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degenerate_stacked_rows_are_nan_and_leave_the_others_untouched(n):
    rng = np.random.default_rng(200 + n)
    size = 1 << n
    tables = rng.uniform(0.5, 10.0, size=(6, size))
    means = rng.normal(2.0, 1.0, size=(6, size))
    tables[1] = 3.0  # all equal: c_t = 0 exactly for every t != 0
    tables[3, size // 2 :] = tables[3, : size // 2] + 2e-12  # c_t of the first qubit's parity about -1e-12
    tables[4] = 0.0  # all dark
    assert 0 < abs(walsh_coefficients(CalibrationTable(tables[3]))[size // 2]) <= 1e-9
    stacked = reconstruct(tables, means)
    pops, norms = per_row_reconstruct(tables, means)
    np.testing.assert_array_equal(stacked.pops, pops)
    np.testing.assert_array_equal(stacked.norm, norms)
    np.testing.assert_array_equal(np.isnan(stacked.norm), [False, True, False, True, True, False])
    assert np.isnan(stacked.pops[[1, 3, 4]]).all() and np.isnan(stacked.correlators[[1, 3, 4]]).all()
    assert np.isfinite(stacked.pops[[0, 2, 5]]).all()
    # a degenerate table shared by every row leaves every row NaN, and one vector still raises
    shared = CalibrationTable(tables[3])
    assert np.isnan(reconstruct(shared, means).pops).all()
    with pytest.raises(DegenerateCalibrationError):
        reconstruct(shared, means[0])
    with pytest.raises(DegenerateCalibrationError):
        reconstruct(tables[1], means[1])


def test_stacked_reconstruct_validation():
    tables = np.tile(CAL.intensities, (3, 1))
    means = np.tile([5.0, 3.0, 2.0, 1.0], (3, 1))
    with pytest.raises(ValueError, match="shape"):
        reconstruct(tables, means[:2])
    with pytest.raises(ValueError, match="shape"):
        reconstruct(CAL, means[:, :2])
    with pytest.raises(ValueError, match="shape"):
        reconstruct(tables[:, :3], means[:, :3])
    bad = means.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="means must be finite"):
        reconstruct(CAL, bad)
    for value in (-1.0, np.inf):
        bad = tables.copy()
        bad[1, 2] = value
        with pytest.raises(ValueError, match="intensities"):
            reconstruct(bad, means)
