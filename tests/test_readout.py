import math

import numpy as np
import pytest
from scipy.stats import chi2

from nvqaoa import readout, reconstruction
from nvqaoa.circuits import QaoaParams, build_ansatz, simulate
from nvqaoa.graph_problem import Graph
from nvqaoa.noise import NoiseConfig, density_populations
from nvqaoa.readout import (
    CalibrationTable,
    DegenerateCalibrationError,
    check_rows,
    default_calibration,
    draw_totals,
    format_calibration,
    load_calibration,
    parse_calibration,
    read_records,
    save_calibration,
    split_totals,
)
from nvqaoa.statevector import populations
from oracles import draw_shot_counts

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


def test_sample_shots_deterministic():
    rows = check_rows(np.array([[0.1, 0.4, 0.3, 0.2], [0.4, 0.1, 0.2, 0.3]]), 4)
    means, checkpoints = read_records(CAL.intensities, rows, 5000, 123, 124, 1000)
    again, again_checkpoints = read_records(CAL.intensities, rows, 5000, 123, 124, 1000)
    np.testing.assert_array_equal(means, again)
    np.testing.assert_array_equal(checkpoints, again_checkpoints)
    # the split runs on its own generator, so the means do not depend on it
    unsplit, none = read_records(CAL.intensities, rows, 5000, 123)
    np.testing.assert_array_equal(unsplit, means)
    assert none is None
    assert not np.array_equal(read_records(CAL.intensities, rows, 5000, 125)[0], means)


def test_sample_shots_mean_converges():
    pops = np.array([1.0, 0.0, 0.0, 0.0])
    (mean,), _ = read_records(CAL.intensities, check_rows(pops[None], 4), 300_000, 0)
    assert abs(mean - 5.0) <= 5 * mixture_std(CAL.intensities, pops, 300_000)

    uniform = np.full(4, 0.25)
    (mean,), _ = read_records(CAL.intensities, check_rows(uniform[None], 4), 300_000, 1)
    assert abs(mean - 2.75) <= 5 * mixture_std(CAL.intensities, uniform, 300_000)


def test_sample_shots_respects_mixture_variance():
    # the sampled spread must match the Poisson-mixture formula, not plain Poisson
    pops = np.array([0.5, 0.0, 0.0, 0.5])
    means, _ = read_records(CAL.intensities, check_rows(np.tile(pops, (150, 1)), 4), 2000, 0)
    expected = mixture_std(CAL.intensities, pops, 2000)
    observed = np.std(means, ddof=1)
    assert 0.7 * expected < observed < 1.3 * expected


def test_zero_intensity_state_yields_zero_counts():
    cal = CalibrationTable(np.array([0.0, 3.0, 2.0, 1.0]))
    pops = np.array([1.0, 0.0, 0.0, 0.0])
    counts = draw_shot_counts(np.random.default_rng(7), cal.intensities, pops, 4000)
    np.testing.assert_array_equal(counts, np.zeros(4000, dtype=counts.dtype))
    means, checkpoints = read_records(cal.intensities, check_rows(pops[None], 4), 4000, 7, 8, 1000)
    assert means[0] == 0.0
    np.testing.assert_array_equal(checkpoints, np.zeros((1, 4)))


def test_checkpoint_cadence():
    rows = check_rows(np.full((1, 4), 0.25), 4)
    _, checkpoints = read_records(CAL.intensities, rows, 5500, 3, 4, 1000)
    assert checkpoints.shape == (1, 5)  # entry k covers (k + 1) * 1000 shots; the 500-shot tail adds none
    _, checkpoints = read_records(CAL.intensities, rows, 999, 3, 4, 1000)
    assert checkpoints.shape == (1, 0)


def test_checkpoints_match_retained_counts():
    # each checkpoint of the batched records has the law of the per-shot running mean
    pops = np.array([0.2, 0.3, 0.4, 0.1])
    num = 200
    _, checkpoints = read_records(CAL.intensities, check_rows(np.tile(pops, (num, 1)), 4), 3210, 9, 10, 500)
    rng = np.random.default_rng(11)
    counts = np.array([draw_shot_counts(rng, CAL.intensities, pops, 3210) for _ in range(num)])
    marks = 500 * np.arange(1, 7)
    retained = np.cumsum(counts, axis=1)[:, marks - 1] / marks
    assert checkpoints.shape == retained.shape == (num, 6)
    expected = float(pops @ CAL.intensities)
    for k, mark in enumerate(marks):
        sigma = mixture_std(CAL.intensities, pops, mark) / math.sqrt(num)
        assert abs(checkpoints[:, k].mean() - expected) <= 5 * sigma
        assert abs(retained[:, k].mean() - expected) <= 5 * sigma
        assert 0.7 < checkpoints[:, k].std(ddof=1) / retained[:, k].std(ddof=1) < 1.4


def test_retained_and_aggregate_agree_statistically():
    pops = np.array([0.3, 0.3, 0.2, 0.2])
    slow = [draw_shot_counts(np.random.default_rng(s), CAL.intensities, pops, 3000).mean() for s in range(60)]
    fast, _ = read_records(CAL.intensities, check_rows(np.tile(pops, (60, 1)), 4), 3000, 1000)
    expected = float(pops @ CAL.intensities)
    tol = 4 * mixture_std(CAL.intensities, pops, 3000) / math.sqrt(60)
    assert abs(np.mean(slow) - expected) < 4 * tol
    assert abs(np.mean(fast) - expected) < 4 * tol
    assert abs(np.mean(slow) - np.mean(fast)) < 6 * tol


def test_shot_argument_validation():
    for rows in (
        np.full(4, 0.25),  # one vector, not rows
        np.full((1, 2), 0.5),  # wrong width
        np.array([[0.5, 0.6, 0.0, 0.0]]),  # sums to 1.1
        np.array([[1.2, -0.2, 0.0, 0.0]]),  # negative
        np.array([[np.nan, 1.0, 0.0, 0.0]]),
    ):
        with pytest.raises(ValueError, match="populations"):
            check_rows(rows, 4)
    # a stack of row blocks is checked row by row, each exactly as on its own
    rng = np.random.default_rng(2)
    stack = rng.dirichlet(np.ones(4), size=(3, 5)) * (1 + rng.uniform(-1e-10, 1e-10, (3, 5, 1)))
    np.testing.assert_array_equal(check_rows(stack, 4), [check_rows(block, 4) for block in stack])
    stack[2, 1, 0] += 1e-8  # one row of one block sums off
    with pytest.raises(ValueError, match="sum to 1"):
        check_rows(stack, 4)


def test_measure_circuit_basic():
    # |00>, |11> and the uniform state
    uniform = populations(simulate(build_ansatz(Graph.complete(2), QaoaParams.single(0.0, 0.0))))
    rows = check_rows([np.eye(4)[0], np.eye(4)[3], uniform], 4)
    means, _ = read_records(CAL.intensities, rows, 200_000, 4)
    for mean, pops, exact in zip(means, (np.eye(4)[0], np.eye(4)[3], np.full(4, 0.25)), (5.0, 1.0, 2.75)):
        assert abs(mean - exact) <= 5 * mixture_std(CAL.intensities, pops, 200_000)


def test_measure_circuit_dimension_check():
    with pytest.raises(ValueError, match="shape"):
        check_rows(np.eye(2)[:1], CAL.intensities.size)


def test_stochastic_noise_deterministic_per_seed():
    rows = check_rows(density_populations(Graph.complete(2), [[0.2]], [[0.9]], NoiseConfig(depolarizing_prob=0.05)), 4)
    a = read_records(CAL.intensities, rows, 3000, 21, 23, 1000)
    b = read_records(CAL.intensities, rows, 3000, 21, 23, 1000)
    c = read_records(CAL.intensities, rows, 3000, 22, 23, 1000)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[0][0] != c[0][0]


def test_seed_sequence_argument_is_not_mutated():
    # a SeedSequence passed in is read, never spawned from, so passing it again repeats the records
    noisy = density_populations(Graph.complete(2), [[0.2]], [[0.9]], NoiseConfig(depolarizing_prob=0.05))
    exact = populations(simulate(build_ansatz(Graph.complete(2), QaoaParams.single(0.2, 0.9))))[None]
    for pops in (noisy, exact):
        rows = check_rows(pops, 4)
        draws, split = np.random.SeedSequence(5), np.random.SeedSequence(6)
        first = read_records(CAL.intensities, rows, 3000, draws, split, 500)
        second = read_records(CAL.intensities, rows, 3000, draws, split, 500)
        for got, want in zip(first, second):
            np.testing.assert_array_equal(got, want)
        assert draws.n_children_spawned == split.n_children_spawned == 0
        # an int seed is the SeedSequence of that int
        for got, want in zip(read_records(CAL.intensities, rows, 3000, 5, 6, 500), first):
            np.testing.assert_array_equal(got, want)


def test_sample_shots_is_the_batched_draw_and_split_of_one_row():
    rows = check_rows(np.array([[0.1, 0.2, 0.3, 0.4]]), 4)
    means, checkpoints = read_records(CAL.intensities, rows, 2_345, 17, 18, 500)
    occupations, totals = draw_totals(np.random.default_rng(17), CAL.intensities, rows, 2_345)
    blocks = split_totals(np.random.default_rng(18), CAL.intensities, occupations, totals, 500)
    assert occupations.shape == (1, 4) and occupations.sum() == 2_345
    # four full blocks; the 345-shot tail holds the rest of the total
    assert blocks.shape == (1, 4) and 0 <= totals[0] - blocks.sum() <= totals[0]
    np.testing.assert_array_equal(means, totals / 2_345)
    np.testing.assert_array_equal(checkpoints, np.cumsum(blocks, axis=1) / (500 * np.arange(1, 5)))


def method_split(rng, intensities, occupations, totals, checkpoint_every):
    """``split_totals`` as a loop of ``Generator.multivariate_hypergeometric`` calls, one running sum per record.

    ``intensities`` is one row for every record or one row per record.
    """
    num_shots = int(occupations[0].sum())
    full, tail = divmod(num_shots, checkpoint_every)
    cells = np.array([checkpoint_every] * full + ([tail] if tail else []))
    means = np.zeros((len(occupations), cells.size))
    tables = np.broadcast_to(intensities, occupations.shape)
    for r, row in enumerate(occupations):
        free = cells.copy()
        *drawn_states, last = np.flatnonzero(row)
        for s in drawn_states:
            drawn = rng.multivariate_hypergeometric(free, row[s])
            means[r] += drawn * tables[r, s]
            free -= drawn
        means[r] += free * tables[r, last]
    total = means.sum(axis=1, keepdims=True)
    p = np.divide(means, total, out=np.full_like(means, 1.0 / cells.size), where=total > 0)
    return rng.multinomial(totals, p)[:, :full]


class SharesSpy(np.random.Generator):
    """A generator that keeps the cell shares of its last multinomial draw."""

    def multinomial(self, n, pvals, size=None):
        self.shares = np.array(pvals)
        return super().multinomial(n, pvals, size)


@pytest.mark.parametrize("through_method", [False, True], ids=["c_routine", "method"])
@pytest.mark.simd_baseline
def test_split_draws_what_the_generator_method_draws(monkeypatch, through_method):
    # 2 to 32 states a record, split into 1 to 300 cells, with dark states
    if through_method:
        monkeypatch.setattr(readout, "_marginals", lambda: None)
    else:
        assert readout._marginals() is not None
    cases = np.random.default_rng(29)
    for trial in range(60):
        size = 1 << int(cases.integers(1, 6))
        intensities = cases.uniform(0.0, 3.0, size) * (cases.random(size) > 0.2)
        rows = check_rows(cases.dirichlet(np.full(size, cases.choice([0.1, 1.0, 5.0])), 2 * size), size)
        shots = int(cases.choice([1, 7, 100, 1_000, 50_000]))
        every = int(cases.choice([max(shots // 300, 1), max(shots // 7, 1), shots // 2 + 1, shots]))
        occupations, totals = draw_totals(np.random.default_rng(trial), intensities, rows, shots)
        split, method = SharesSpy(np.random.PCG64(trial + 1)), SharesSpy(np.random.PCG64(trial + 1))
        got = split_totals(split, intensities, occupations, totals, every)
        want = method_split(method, intensities, occupations, totals, every)
        np.testing.assert_array_equal(got, want)
        # each cell's mean sums its states one at a time, in state order, so the shares keep their bits
        np.testing.assert_array_equal(split.shares.view(np.int64), method.shares.view(np.int64))
    # records of unequal shot counts, or too many shots, never reach the draws
    occupations = np.array([[3, 2], [4, 2]])
    with pytest.raises(ValueError, match="one shot count"):
        split_totals(np.random.default_rng(0), np.ones(2), occupations, np.array([5, 6]), 2)
    with pytest.raises(ValueError, match="one shot count"):
        split_totals(np.random.default_rng(0), np.ones(2), np.array([[10**9, 0]]), np.array([5]), 10**6)


def test_split_of_a_stack_splits_its_records_in_stack_order():
    # three points' records, each point read with its own table, as draw_totals draws a block
    cases = np.random.default_rng(31)
    tables = cases.uniform(0.0, 3.0, (3, 8))
    rows = check_rows(cases.dirichlet(np.ones(8), (3, 16)), 8)
    occupations, totals = draw_totals(np.random.default_rng(1), tables, rows, 2_050)
    got = split_totals(np.random.default_rng(2), tables, occupations, totals, 100)
    flat = occupations.reshape(-1, 8)
    want = method_split(np.random.default_rng(2), np.repeat(tables, 16, axis=0), flat, totals.ravel(), 100)
    assert got.shape == (3, 16, 20)
    np.testing.assert_array_equal(got, want.reshape(3, 16, 20))
    # one table for the whole stack splits as the flat records do
    occupations, totals = draw_totals(np.random.default_rng(1), tables[0], rows, 2_050)
    flat_split = split_totals(np.random.default_rng(2), tables[0], occupations.reshape(-1, 8), totals.ravel(), 100)
    stacked = split_totals(np.random.default_rng(2), tables[0], occupations, totals, 100)
    np.testing.assert_array_equal(stacked, flat_split.reshape(3, 16, 20))


def test_split_of_a_dark_record_is_all_zero():
    # sum L = 0 forces T = 0: the split draws nothing and divides by nothing
    dark = CalibrationTable(np.array([0.0, 0.0, 0.0, 1.0]))
    rows = check_rows(np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0, 1.0]]), 4)
    rng = np.random.default_rng(3)
    occupations, totals = draw_totals(rng, dark.intensities, rows, 1_000)
    blocks = split_totals(rng, dark.intensities, occupations, totals, 300)
    assert blocks.shape == (3, 3)  # three full blocks and a 100-shot tail
    assert totals[0] == totals[1] == 0 and totals[2] > 0
    assert not blocks[:2].any()
    assert blocks[2].sum() <= totals[2]


# The record-level distribution gate. F is a deterministic function of the
# record means, so records equal in distribution give F equal in distribution.
# Each seed reads two records, as a point reads its rows, with mirrored pops.
GATE_POPS = check_rows(np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]), 4)
GATE_CAL = CalibrationTable(np.array([5.0, 3.0, 2.0, 1.0]))
GATE_SEEDS = 3000
GATE_SHOTS, GATE_EVERY = 1_050, 100  # 10 full blocks and a 50-shot tail


def gate_records():
    """Block totals, tails and totals, indexed [seed, record], read as a point reads them."""
    means, checkpoints = [], []
    for seed in range(GATE_SEEDS):
        draws, split = np.random.SeedSequence(seed).spawn(2)
        mean, checkpoint = read_records(GATE_CAL.intensities, GATE_POPS, GATE_SHOTS, draws, split, GATE_EVERY)
        means.append(mean)
        checkpoints.append(checkpoint)
    # the running means are whole photon counts over whole shots, so the counts come back exactly
    totals = np.rint(np.array(means) * GATE_SHOTS).astype(int)
    cumulative = np.rint(np.array(checkpoints) * (GATE_EVERY * np.arange(1, GATE_SHOTS // GATE_EVERY + 1))).astype(int)
    return np.diff(cumulative, axis=2, prepend=0), totals - cumulative[..., -1], totals


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
    assert blocks.shape == (GATE_SEEDS, 2, GATE_SHOTS // GATE_EVERY)
    assert (blocks >= 0).all() and (tails >= 0).all()
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
    with pytest.raises(ValueError, match="missing index 3"):
        parse_calibration("00 5\n01 3\n10 2\n")
    with pytest.raises(ValueError, match=r"covers 2 of 4 states \(missing index 1\)"):
        parse_calibration("11 5\n00 3\n")
    # a label wider than the largest register is refused at its line, before 2^width states are counted
    with pytest.raises(ValueError, match="line 1: basis label has 25 bits; labels are capped at 24"):
        parse_calibration("0" * 25 + " 5\n")
    with pytest.raises(ValueError, match=r"covers 1 of 16777216 states \(missing index 1\)"):
        parse_calibration("0" * 24 + " 5\n")
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
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"line 2: intensity '{bad}' is not finite"):
            parse_calibration(f"0 2\n1 {bad}\n")


def test_calibration_round_trip(tmp_path):
    path = tmp_path / "cal.txt"
    save_calibration(path, CAL)
    again = load_calibration(path)
    np.testing.assert_array_equal(again.intensities, CAL.intensities)
    assert format_calibration(CAL).splitlines()[0] == "00 5"
