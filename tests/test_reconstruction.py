import numpy as np
import pytest

from nvqaoa._bitstrings import all_bitstrings
from nvqaoa.circuits import QaoaParams, append_flips, build_ansatz, simulate
from nvqaoa.graph_problem import Graph
from nvqaoa.readout import check_rows, default_calibration, read_records
from nvqaoa.reconstruction import (
    DEGENERACY_TOLERANCE,
    DegenerateCalibrationError,
    forward_means,
    fwht,
    reconstruct,
    walsh_coefficients,
)
from nvqaoa.statevector import populations
from oracles import calibration_circuits, parity_signs

CAL = default_calibration().intensities


def random_calibration(rng, n):
    return rng.uniform(0.5, 10.0, size=1 << n)


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
    c = walsh_coefficients(np.array([4.0, 3.0, 2.0, 1.0]))
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
            [sum(cal[s ^ x] * pops[s] for s in range(1 << n)) for x in range(1 << n)]
        )
        np.testing.assert_allclose(forward_means(cal, pops), direct, atol=1e-12)


def test_forward_means_validation():
    with pytest.raises(ValueError):
        forward_means(CAL, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        forward_means(CAL, np.array([0.5, 0.6, 0.0, 0.0]))
    for value in (-1.0, np.inf):
        with pytest.raises(ValueError, match="intensities"):
            forward_means(np.array([5.0, value, 2.0, 1.0]), np.full(4, 0.25))


def test_reconstruct_exact_basis_state():
    pops, correlators = reconstruct(CAL, np.array([5.0, 3.0, 2.0, 1.0]))
    np.testing.assert_allclose(pops, [1, 0, 0, 0], atol=1e-13)
    assert correlators[0] == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(correlators, [1, 1, 1, 1], atol=1e-13)


def test_round_trip_random():
    rng = np.random.default_rng(99)
    for n in (1, 2, 3):
        for _ in range(50):
            cal = random_calibration(rng, n)
            pops = rng.dirichlet(np.ones(1 << n))
            estimate, correlators = reconstruct(cal, forward_means(cal, pops))
            np.testing.assert_allclose(estimate, pops, atol=1e-12)
            assert correlators[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_calibration_raises():
    with pytest.raises(DegenerateCalibrationError) as excinfo:
        reconstruct(np.array([4.0, 3.0, 2.0, 1.0]), np.array([2.0, 2.0, 2.0, 2.0]))
    assert excinfo.value.t_label == "11"
    assert "t=11" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


def test_degeneracy_tolerance_is_the_floor():
    # c_11 = (4 - 3 - 2 + I_11) / 4, twice and half DEGENERACY_TOLERANCE
    above = np.array([4.0, 3.0, 2.0, 1.0 + 8 * DEGENERACY_TOLERANCE])
    reconstruct(above, forward_means(above, np.full(4, 0.25)))
    below = np.array([4.0, 3.0, 2.0, 1.0 + 2 * DEGENERACY_TOLERANCE])
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
    for k in range(2):  # the populations, then the correlators
        np.testing.assert_allclose(combined[k], a * e1[k] + b * e2[k], atol=1e-12)


def test_agrees_with_direct_linear_solve():
    # the flip-pattern means satisfy M @ pops = means with M[x, s] = I[s XOR x]
    rng = np.random.default_rng(55)
    for _ in range(25):
        cal = random_calibration(rng, 2)
        matrix = np.array([[cal[s ^ x] for s in range(4)] for x in range(4)])
        means = rng.normal(1.0, 2.0, size=4)
        solved = np.linalg.solve(matrix, means)
        pops, _ = reconstruct(cal, means)
        np.testing.assert_allclose(pops, solved, atol=1e-10)


def test_no_clipping_or_renormalization():
    # noisy means can legitimately produce slightly negative populations
    pops, correlators = reconstruct(CAL, np.array([5.1, 2.9, 2.05, 0.9]))
    assert pops.min() < 0 or abs(pops.sum() - correlators[0]) < 1e-12
    assert correlators[0] == pytest.approx(pops.sum(), abs=1e-12)


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
        records, _ = read_records(CAL, rows, 300_000, seed)
        empirical, means = records[:4], records[4:]
        _, correlators = reconstruct(empirical, means)
        if 0.97 <= correlators[0] <= 1.03:
            in_window += 1
    assert in_window >= 0.95 * trials


def per_row_reconstruct(tables, means):
    """The row-by-row loop that stacked reconstruction replaces: NaN where a row's table is degenerate."""
    tables = np.broadcast_to(tables, means.shape)
    pops, norms = np.full(means.shape, np.nan), np.full(means.shape[:-1], np.nan)
    for index in np.ndindex(means.shape[:-1]):
        try:
            pops[index], correlators = reconstruct(tables[index], means[index])
        except DegenerateCalibrationError:
            continue
        norms[index] = correlators[0]
    return pops, norms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_rows_match_per_row_reconstruct_and_linear_solve(n):
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    tables = rng.uniform(0.5, 10.0, size=(3, 5, size))
    means = rng.normal(2.0, 1.0, size=(3, 5, size))
    for calibration in (tables[0, 0], tables):
        stacked, correlators = reconstruct(calibration, means)
        pops, norms = per_row_reconstruct(calibration, means)
        np.testing.assert_array_equal(stacked, pops)
        np.testing.assert_array_equal(correlators[..., 0], norms)
        assert correlators.shape == means.shape
        for index in np.ndindex(3, 5):
            row = np.broadcast_to(calibration, means.shape)[index]
            matrix = np.array([[row[s ^ x] for s in range(size)] for x in range(size)])
            np.testing.assert_allclose(stacked[index], np.linalg.solve(matrix, means[index]), atol=1e-10)
            np.testing.assert_array_equal(correlators[index], reconstruct(row, means[index])[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degenerate_stacked_rows_are_nan_and_leave_the_others_untouched(n):
    rng = np.random.default_rng(200 + n)
    size = 1 << n
    tables = rng.uniform(0.5, 10.0, size=(6, size))
    means = rng.normal(2.0, 1.0, size=(6, size))
    tables[1] = 3.0  # all equal: c_t = 0 exactly for every t != 0
    tables[3, size // 2 :] = tables[3, : size // 2] + 2e-12  # c_t of the first qubit's parity about -1e-12
    tables[4] = 0.0  # all dark
    assert 0 < abs(walsh_coefficients(tables[3])[size // 2]) <= 1e-9
    stacked, correlators = reconstruct(tables, means)
    pops, norms = per_row_reconstruct(tables, means)
    np.testing.assert_array_equal(stacked, pops)
    np.testing.assert_array_equal(correlators[:, 0], norms)
    np.testing.assert_array_equal(np.isnan(correlators[:, 0]), [False, True, False, True, True, False])
    assert np.isnan(stacked[[1, 3, 4]]).all() and np.isnan(correlators[[1, 3, 4]]).all()
    assert np.isfinite(stacked[[0, 2, 5]]).all()
    # a degenerate table shared by every row leaves every row NaN, and one vector still raises
    shared = tables[3]
    assert np.isnan(reconstruct(shared, means)[0]).all()
    with pytest.raises(DegenerateCalibrationError):
        reconstruct(shared, means[0])
    with pytest.raises(DegenerateCalibrationError):
        reconstruct(tables[1], means[1])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_broadcast_tables_equal_their_repeated_rows_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    size = 1 << n
    means = rng.normal(2.0, 1.0, size=(4, 7, size))
    per_point = rng.uniform(0.5, 10.0, size=(4, 1, size))
    per_point[1] = 3.0  # all equal: c_t = 0 exactly for every t != 0
    per_point[2, 0, size // 2 :] = per_point[2, 0, : size // 2] + 2e-12  # one c_t about -1e-12
    # a shared table, a degenerate shared table and one table per point, against each repeated for every row
    for tables in (per_point[0, 0], per_point[1, 0], per_point):
        repeated = np.broadcast_to(tables, means.shape).copy()
        for got, want in zip(reconstruct(tables, means), reconstruct(repeated, means)):
            assert got.shape == means.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    pops, correlators = reconstruct(per_point, means)
    assert np.isnan(pops[1:3]).all() and np.isnan(correlators[1:3]).all()
    assert np.isfinite(pops[[0, 3]]).all()
    with pytest.raises(ValueError, match="broadcast"):
        reconstruct(per_point[:3], means)


def test_stacked_reconstruct_validation():
    tables = np.tile(CAL, (3, 1))
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
