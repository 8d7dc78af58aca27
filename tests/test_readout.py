import math

import numpy as np
import pytest
from scipy.stats import chi2

from nvqaoa import reconstruction
from nvqaoa.circuits import Circuit, QaoaParams, build_ansatz
from nvqaoa.graph_problem import Graph
from nvqaoa.noise import NoiseConfig
from nvqaoa.readout import (
    CalibrationTable,
    DegenerateCalibrationError,
    ShotRecord,
    default_calibration,
    draw_totals,
    format_calibration,
    load_calibration,
    measure_circuit,
    observable_expectation,
    parse_calibration,
    sample_shots,
    save_calibration,
    split_totals,
)
from nvqaoa.statevector import Gate

CAL = default_calibration()


def mixture_std(intensities, pops, num_shots):
    """Exact std of the running mean: Var = sum p(I + I^2) - (sum p I)^2 per shot."""
    mean = float(np.dot(pops, intensities))
    var = float(np.dot(pops, intensities + intensities**2) - mean**2)
    return math.sqrt(var / num_shots)


def test_calibration_validation():
    with pytest.raises(ValueError):
        CalibrationTable(np.array([1.0, 2.0, 3.0]))  # not a power of two
    with pytest.raises(ValueError):
        CalibrationTable(np.array([5.0]))
    with pytest.raises(ValueError):
        CalibrationTable(np.array([1.0, -0.5]))
    with pytest.raises(DegenerateCalibrationError, match="t=01"):
        CalibrationTable(np.array([2.0, 2.0, 2.0, 2.0]))  # information-free: c_t = 0 for every t != 0
    with pytest.raises(DegenerateCalibrationError, match="t=001"):
        CalibrationTable(np.zeros(8))
    assert reconstruction.DegenerateCalibrationError is DegenerateCalibrationError
    assert issubclass(DegenerateCalibrationError, ValueError)
    assert CAL.num_qubits == 2
    with pytest.raises(ValueError):
        CAL.intensities[0] = 9.0


def test_observable_expectation():
    assert observable_expectation(CAL, np.array([1.0, 0, 0, 0])) == 5.0
    assert observable_expectation(CAL, np.full(4, 0.25)) == pytest.approx(2.75)
    with pytest.raises(ValueError):
        observable_expectation(CAL, np.full(2, 0.5))
    with pytest.raises(ValueError):
        observable_expectation(CAL, np.array([0.5, 0.6, 0.0, 0.0]))  # sums to 1.1
    with pytest.raises(ValueError):
        observable_expectation(CAL, np.array([1.2, -0.2, 0.0, 0.0]))


def test_sample_shots_deterministic():
    pops = np.array([0.1, 0.4, 0.3, 0.2])
    for retain in (False, True):
        a = sample_shots(CAL, pops, 5000, seed=123, retain_counts=retain)
        b = sample_shots(CAL, pops, 5000, seed=123, retain_counts=retain)
        assert a.running_mean == b.running_mean
        np.testing.assert_array_equal(a.checkpoints, b.checkpoints)
        if retain:
            np.testing.assert_array_equal(a.counts, b.counts)
        else:
            assert a.counts is None


def test_sample_shots_mean_converges():
    pops = np.array([1.0, 0.0, 0.0, 0.0])
    record = sample_shots(CAL, pops, 300_000, seed=0)
    bound = 5 * mixture_std(CAL.intensities, pops, 300_000)
    assert abs(record.running_mean - 5.0) <= bound

    uniform = np.full(4, 0.25)
    record = sample_shots(CAL, uniform, 300_000, seed=1)
    assert abs(record.running_mean - 2.75) <= 5 * mixture_std(CAL.intensities, uniform, 300_000)


def test_sample_shots_respects_mixture_variance():
    # the sampled spread must match the Poisson-mixture formula, not plain Poisson
    pops = np.array([0.5, 0.0, 0.0, 0.5])
    means = [sample_shots(CAL, pops, 2000, seed=s).running_mean for s in range(150)]
    expected = mixture_std(CAL.intensities, pops, 2000)
    observed = np.std(means, ddof=1)
    assert 0.7 * expected < observed < 1.3 * expected


def test_zero_intensity_state_yields_zero_counts():
    cal = CalibrationTable(np.array([0.0, 3.0, 2.0, 1.0]))
    pops = np.array([1.0, 0.0, 0.0, 0.0])
    record = sample_shots(cal, pops, 4000, seed=7, retain_counts=True)
    assert record.running_mean == 0.0
    np.testing.assert_array_equal(record.counts, np.zeros(4000, dtype=record.counts.dtype))


def test_checkpoint_cadence():
    pops = np.full(4, 0.25)
    record = sample_shots(CAL, pops, 5500, seed=3, checkpoint_every=1000)
    assert record.checkpoints.shape == (5,)  # entry k covers (k + 1) * 1000 shots
    record = sample_shots(CAL, pops, 999, seed=3, checkpoint_every=1000)
    assert record.checkpoints.shape == (0,)


def test_checkpoints_match_retained_counts():
    pops = np.array([0.2, 0.3, 0.4, 0.1])
    record = sample_shots(CAL, pops, 3210, seed=9, checkpoint_every=500, retain_counts=True)
    cumulative = np.cumsum(record.counts)
    marks = 500 * np.arange(1, 7)
    np.testing.assert_allclose(record.checkpoints, cumulative[marks - 1] / marks, rtol=0, atol=1e-12)
    assert record.running_mean == pytest.approx(record.counts.mean(), abs=1e-12)
    assert record.num_shots == 3210


def test_retained_and_aggregate_agree_statistically():
    pops = np.array([0.3, 0.3, 0.2, 0.2])
    slow = [sample_shots(CAL, pops, 3000, seed=s, retain_counts=True).running_mean for s in range(60)]
    fast = [sample_shots(CAL, pops, 3000, seed=1000 + s).running_mean for s in range(60)]
    expected = observable_expectation(CAL, pops)
    tol = 4 * mixture_std(CAL.intensities, pops, 3000) / math.sqrt(60)
    assert abs(np.mean(slow) - expected) < 4 * tol
    assert abs(np.mean(fast) - expected) < 4 * tol
    assert abs(np.mean(slow) - np.mean(fast)) < 6 * tol


def test_shot_argument_validation():
    pops = np.full(4, 0.25)
    with pytest.raises(ValueError):
        sample_shots(CAL, pops, 0, seed=0)
    with pytest.raises(ValueError):
        sample_shots(CAL, pops, 100, seed=0, checkpoint_every=0)
    with pytest.raises(ValueError):
        sample_shots(CAL, np.array([0.5, 0.5]), 100, seed=0)


def test_measure_circuit_basic():
    graph = Graph.complete(2)
    empty = Circuit(2, ())
    record = measure_circuit(empty, CAL, 200_000, seed=4)
    assert abs(record.running_mean - 5.0) <= 5 * mixture_std(CAL.intensities, np.eye(4)[0], 200_000)

    both_on = Circuit(2, (Gate("X", (0,)), Gate("X", (1,))))
    record = measure_circuit(both_on, CAL, 200_000, seed=5)
    assert abs(record.running_mean - 1.0) <= 5 * mixture_std(CAL.intensities, np.eye(4)[3], 200_000)

    ansatz = build_ansatz(graph, QaoaParams.single(0.0, 0.0))  # uniform state
    record = measure_circuit(ansatz, CAL, 200_000, seed=6)
    uniform = np.full(4, 0.25)
    assert abs(record.running_mean - 2.75) <= 5 * mixture_std(CAL.intensities, uniform, 200_000)


def test_measure_circuit_dimension_check():
    with pytest.raises(ValueError):
        measure_circuit(Circuit(1, ()), CAL, 100, seed=0)


def test_trivial_noise_is_bit_identical():
    circuit = build_ansatz(Graph.complete(2), QaoaParams.single(0.2, 0.9))
    quiet = NoiseConfig()
    a = measure_circuit(circuit, CAL, 5000, seed=11)
    b = measure_circuit(circuit, CAL, 5000, seed=11, noise=quiet)
    assert a.running_mean == b.running_mean
    np.testing.assert_array_equal(a.checkpoints, b.checkpoints)


def test_stochastic_noise_deterministic_per_seed():
    circuit = build_ansatz(Graph.complete(2), QaoaParams.single(0.2, 0.9))
    noisy = NoiseConfig(depolarizing_prob=0.05)
    a = measure_circuit(circuit, CAL, 3000, seed=21, noise=noisy)
    b = measure_circuit(circuit, CAL, 3000, seed=21, noise=noisy)
    c = measure_circuit(circuit, CAL, 3000, seed=22, noise=noisy)
    assert a.running_mean == b.running_mean
    np.testing.assert_array_equal(a.checkpoints, b.checkpoints)
    assert a.running_mean != c.running_mean


def test_stochastic_noise_retains_counts():
    circuit = build_ansatz(Graph.complete(2), QaoaParams.single(0.2, 0.9))
    noisy = NoiseConfig(depolarizing_prob=0.1)
    record = measure_circuit(circuit, CAL, 2500, seed=31, noise=noisy, retain_counts=True)
    assert record.counts.size == 2500
    assert record.running_mean == pytest.approx(record.counts.mean(), abs=1e-12)
    assert len(record.checkpoints) == 2


def test_seed_sequence_argument_is_not_mutated():
    # a SeedSequence passed in is read, never spawned from, so passing it again repeats the record
    circuit = build_ansatz(Graph.complete(2), QaoaParams.single(0.2, 0.9))
    for noise in (NoiseConfig(depolarizing_prob=0.05), None):
        seed = np.random.SeedSequence(5)
        first = measure_circuit(circuit, CAL, 3000, seed, 500, noise)
        second = measure_circuit(circuit, CAL, 3000, seed, 500, noise)
        assert first.running_mean == second.running_mean
        np.testing.assert_array_equal(first.checkpoints, second.checkpoints)
        assert seed.n_children_spawned == 0
    assert first.running_mean == measure_circuit(circuit, CAL, 3000, 5, 500).running_mean


def test_sample_shots_is_the_batched_draw_and_split_of_one_row():
    pops = np.array([0.1, 0.2, 0.3, 0.4])
    record = sample_shots(CAL, pops, 2_345, seed=17, checkpoint_every=500)
    rng = np.random.default_rng(17)
    occupations, totals = draw_totals(rng, CAL.intensities, pops[None], 2_345)
    blocks, tails = split_totals(rng, CAL.intensities, occupations, totals, 500)
    assert occupations.shape == (1, 4) and occupations.sum() == 2_345
    assert blocks.shape == (1, 4) and blocks.sum() + tails[0] == totals[0]
    assert record.running_mean == totals[0] / 2_345
    np.testing.assert_array_equal(record.checkpoints, np.cumsum(blocks[0]) / (500 * np.arange(1, 5)))


def test_split_of_a_dark_record_is_all_zero():
    # sum L = 0 forces T = 0: the split draws nothing and divides by nothing
    dark = CalibrationTable(np.array([0.0, 0.0, 0.0, 1.0]))
    rows = np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0, 1.0]])
    rng = np.random.default_rng(3)
    occupations, totals = draw_totals(rng, dark.intensities, rows, 1_000)
    blocks, tails = split_totals(rng, dark.intensities, occupations, totals, 300)
    assert totals[0] == totals[1] == 0 and totals[2] > 0
    assert not blocks[:2].any() and not tails[:2].any()
    assert blocks[2].sum() + tails[2] == totals[2]


# The record-level distribution gate. F is a deterministic function of the
# record means, so records equal in distribution give F equal in distribution.
# Each seed draws two records, as a point draws its rows, with mirrored pops.
GATE_POPS = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
GATE_CAL = CalibrationTable(np.array([5.0, 3.0, 2.0, 1.0]))
GATE_SEEDS = 3000
GATE_SHOTS, GATE_EVERY = 1_050, 100  # 10 full blocks and a 50-shot tail


def gate_records():
    """Block totals, tails and totals, indexed [seed, record], drawn and split as a point does."""
    blocks, tails, totals = [], [], []
    for seed in range(GATE_SEEDS):
        draws, split = np.random.SeedSequence(seed).spawn(2)
        occupations, total = draw_totals(np.random.default_rng(draws), GATE_CAL.intensities, GATE_POPS, GATE_SHOTS)
        block, tail = split_totals(np.random.default_rng(split), GATE_CAL.intensities, occupations, total, GATE_EVERY)
        blocks.append(block)
        tails.append(tail)
        totals.append(total)
    return np.array(blocks), np.array(tails), np.array(totals)


def chi2_bounds(dof, tail=3e-5):
    """Two-sided bounds on the ratio sample variance / true variance with ``dof`` degrees of freedom."""
    return chi2.ppf(tail, dof) / dof, chi2.isf(tail, dof) / dof


def assert_mean_and_variance(values, mean, variance):
    values = np.asarray(values, dtype=float).ravel()
    assert abs(values.mean() - mean) <= 4 * math.sqrt(variance / values.size), (values.mean(), mean)
    lo, hi = chi2_bounds(values.size - 1)
    assert lo <= values.var(ddof=1) / variance <= hi, (values.var(ddof=1), variance)


def test_record_distribution_gate():
    intensity = GATE_CAL.intensities
    blocks, tails, totals = gate_records()
    np.testing.assert_array_equal(blocks.sum(axis=2) + tails, totals)
    tail_shots = GATE_SHOTS % GATE_EVERY
    for r, pops in enumerate(GATE_POPS):
        mean_i = float(pops @ intensity)
        # a shot's count is Poisson(I_s) with s ~ pops: variance E[I] + Var_p[I]
        per_shot_var = mean_i + float(pops @ intensity**2) - mean_i**2
        assert_mean_and_variance(totals[:, r] / GATE_SHOTS, mean_i, per_shot_var / GATE_SHOTS)
        assert_mean_and_variance(blocks[:, r], GATE_EVERY * mean_i, GATE_EVERY * per_shot_var)
        assert_mean_and_variance(tails[:, r], tail_shots * mean_i, tail_shots * per_shot_var)
        # blocks of one record are independent: adjacent-block correlation about 0
        left, right = blocks[:, r, :-1].ravel(), blocks[:, r, 1:].ravel()
        assert abs(np.corrcoef(left, right)[0, 1]) <= 4 / math.sqrt(left.size)
        assert abs(np.corrcoef(blocks[:, r, -1], tails[:, r])[0, 1]) <= 4 / math.sqrt(GATE_SEEDS)
    # and so are the two records
    assert abs(np.corrcoef(totals[:, 0], totals[:, 1])[0, 1]) <= 4 / math.sqrt(GATE_SEEDS)


def test_shot_record_is_plain_data():
    record = ShotRecord(10, 2.5, ((10, 2.5),))
    assert record.counts is None


CAL_FILE = """\
# two-qubit intensity table
00 5
01 3.0
10 2
11 1
"""


def test_parse_calibration():
    table = parse_calibration(CAL_FILE)
    np.testing.assert_array_equal(table.intensities, [5.0, 3.0, 2.0, 1.0])


def test_parse_calibration_errors():
    with pytest.raises(ValueError, match="duplicate"):
        parse_calibration("0 1\n0 2\n1 3\n")
    with pytest.raises(ValueError, match="missing"):
        parse_calibration("00 5\n01 3\n10 2\n")
    with pytest.raises(ValueError, match="bad intensity"):
        parse_calibration("0 five\n1 3\n")
    with pytest.raises(ValueError, match="bad basis label"):
        parse_calibration("0x 5\n")
    with pytest.raises(ValueError, match="width"):
        parse_calibration("00 5\n01 3\n10 2\n111 1\n")
    with pytest.raises(ValueError, match="no entries"):
        parse_calibration("# empty\n")
    with pytest.raises(ValueError, match="invalid calibration"):
        parse_calibration("0 2\n1 2\n")  # all equal


def test_calibration_round_trip(tmp_path):
    path = tmp_path / "cal.txt"
    save_calibration(path, CAL)
    again = load_calibration(path)
    np.testing.assert_array_equal(again.intensities, CAL.intensities)
    assert format_calibration(CAL).splitlines()[0] == "00 5"
