import io
import math

import numpy as np
import pytest

from nvqaoa.circuits import QaoaParams, append_flips, build_ansatz, calibration_circuits, flip_patterns
from nvqaoa.experiment import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GAMMA_RANGE,
    LandscapeGrid,
    ScanConfig,
    closed_form_cost_k2,
    config_from_dict,
    config_to_dict,
    convergence_profile,
    grid_axis,
    ideal_cost,
    landscape_error,
    measure_point,
    optimize,
    run_scan,
    scan_summary,
    write_convergence_csv,
    write_landscape_csv,
    _measure_subcircuits,
    _point_streams,
    _realization_stats,
)
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import NoiseConfig
from nvqaoa.readout import CalibrationTable, default_calibration, measure_circuit

K2 = Graph.complete(2)
K3 = Graph.complete(3)
CAL = default_calibration()

# frozen from an independent dense-grid (201x201) evaluation of the triangle landscape
K3_DENSE_GRID_BEST_F = -1.999471790789043

POINT = QaoaParams.single(0.15 * math.pi, 1.5 * math.pi)
POINT_F_IDEAL = -0.9755282581475764
POINT_POPS = (0.01223587092621159, 0.48776412907378825, 0.48776412907378825, 0.01223587092621159)


def sampled_config(**overrides):
    base = dict(
        graph=K2,
        mode="sampled",
        calibration=CAL,
        shots=20_000,
        realizations=1,
        master_seed=5,
    )
    base.update(overrides)
    return ScanConfig(**base)


def test_grid_axis_counts():
    assert grid_axis(DEFAULT_BETA_RANGE).size == 21
    assert grid_axis(DEFAULT_GAMMA_RANGE).size == 41
    np.testing.assert_allclose(grid_axis((0.0, 1.0, 0.25)), [0, 0.25, 0.5, 0.75, 1.0])
    assert grid_axis((0.3, 0.3, 1.0)).size == 1


def test_grid_axis_validation():
    with pytest.raises(ValueError):
        grid_axis((0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        grid_axis((1.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        grid_axis((0.0, float("inf"), 0.1))


def test_closed_form_special_values():
    assert closed_form_cost_k2(0.0, 1.23) == pytest.approx(-0.5, abs=1e-15)
    assert closed_form_cost_k2(math.pi / 4, 2.0) == pytest.approx(-0.5, abs=1e-12)
    assert closed_form_cost_k2(math.pi / 8, 1.5 * math.pi) == pytest.approx(-1.0, abs=1e-12)
    assert closed_form_cost_k2(math.pi / 8, 0.5 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_ideal_cost_matches_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(20):
        beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        value = ideal_cost(K2, QaoaParams.single(beta, gamma))
        assert value == pytest.approx(closed_form_cost_k2(beta, gamma), abs=1e-12)


def test_ideal_cost_frozen_point():
    assert ideal_cost(K2, POINT) == pytest.approx(POINT_F_IDEAL, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(graph=K2, mode="bogus")
    with pytest.raises(ValueError):
        ScanConfig(graph=K2, mode="sampled")  # no calibration
    with pytest.raises(ValueError):
        ScanConfig(graph=K3, mode="sampled", calibration=CAL)  # wrong width
    with pytest.raises(ValueError):
        ScanConfig(graph=K2, p=0)
    with pytest.raises(ValueError):
        ScanConfig(graph=K2, shots=0)


def test_ideal_scan_matches_closed_form_everywhere():
    grid = run_scan(ScanConfig(graph=K2, mode="ideal"))
    assert grid.F_measured.shape == grid.norm.shape == (21, 41, 1)
    assert grid.pops.shape == (21, 41, 1, 4)
    assert grid.realizations == 1
    assert grid.valid.all()
    np.testing.assert_array_equal(grid.F_measured[:, :, 0], grid.F_ideal)
    for bi, beta in enumerate(grid.betas):
        for gi, gamma in enumerate(grid.gammas):
            assert grid.F_measured[bi, gi, 0] == pytest.approx(closed_form_cost_k2(beta, gamma), abs=1e-9)
    np.testing.assert_allclose(grid.norm, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(grid.norm, grid.pops.sum(axis=-1))
    assert landscape_error(grid) == 0.0


def test_ideal_scan_ordering_beta_major():
    cfg = ScanConfig(graph=K2, mode="ideal", beta_range=(0.1, 0.3, 0.1), gamma_range=(0.5, 0.7, 0.1))
    grid = run_scan(cfg)
    np.testing.assert_allclose(grid.betas, [0.1, 0.2, 0.3])
    np.testing.assert_allclose(grid.gammas, [0.5, 0.6, 0.7])
    for bi, gi in np.ndindex(3, 3):  # axis 0 is beta, axis 1 is gamma
        assert grid.F_measured[bi, gi, 0] == pytest.approx(closed_form_cost_k2(grid.betas[bi], grid.gammas[gi]))
    buffer = io.StringIO()
    write_landscape_csv(grid, buffer)
    coords = [(round(float(row.split(",")[0]), 6), round(float(row.split(",")[1]), 6))
              for row in buffer.getvalue().splitlines()[1:]]
    assert coords == [
        (0.1, 0.5), (0.1, 0.6), (0.1, 0.7),
        (0.2, 0.5), (0.2, 0.6), (0.2, 0.7),
        (0.3, 0.5), (0.3, 0.6), (0.3, 0.7),
    ]


def test_measure_point_requires_sampled_mode():
    with pytest.raises(ValueError):
        measure_point(ScanConfig(graph=K2, mode="ideal"), POINT)


def test_measure_point_accuracy():
    cfg = sampled_config(shots=300_000)
    for seed in (0, 1):
        record = measure_point(sampled_config(shots=300_000, master_seed=seed), POINT)
        assert record.valid
        assert record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
        assert abs(record.F_measured - record.F_ideal) <= 0.02
        assert 0.97 <= record.norm <= 1.03
        np.testing.assert_allclose(record.pops, POINT_POPS, atol=0.03)
    # identical arguments reproduce identical results
    a = measure_point(cfg, POINT, 0, point_index=7)
    b = measure_point(cfg, POINT, 0, point_index=7)
    assert a.F_measured == b.F_measured
    np.testing.assert_array_equal(a.pops, b.pops)
    # realization and point index shift the substreams
    c = measure_point(cfg, POINT, 1, point_index=7)
    d = measure_point(cfg, POINT, 0, point_index=8)
    assert len({a.F_measured, c.F_measured, d.F_measured}) == 3


def test_measure_point_exact_calibration_mode():
    noisy = sampled_config(shots=50_000, noise=NoiseConfig(calibration_sigma=0.05))
    record = measure_point(noisy, POINT)
    assert record.valid
    exact = sampled_config(shots=50_000, noise=NoiseConfig(calibration_sigma=0.05), exact_calibration=True)
    record_exact = measure_point(exact, POINT)
    assert record_exact.valid
    # the exact table removes calibration-estimation error, so both stay close to ideal
    assert abs(record_exact.F_measured - record_exact.F_ideal) <= 0.05


def test_single_point_grid_equals_measure_point():
    beta, gamma = 0.15 * math.pi, 1.5 * math.pi
    cfg = sampled_config(
        beta_range=(beta, beta, 1.0),
        gamma_range=(gamma, gamma, 1.0),
        realizations=2,
    )
    grid = run_scan(cfg)
    assert grid.F_measured.shape == (1, 1, 2)
    for realization in range(2):
        direct = measure_point(cfg, QaoaParams.single(beta, gamma), realization, point_index=0)
        assert grid.F_measured[0, 0, realization] == direct.F_measured
        assert grid.norm[0, 0, realization] == direct.norm
        assert grid.F_ideal[0, 0] == direct.F_ideal
        np.testing.assert_array_equal(grid.pops[0, 0, realization], direct.pops)


def landscape_of(F_measured, F_ideal):
    """Grid over beta [0.1, ...] x gamma [0.5, ...] with the given [beta, gamma, realization] costs."""
    F_measured = np.array(F_measured, dtype=float)
    norm = np.where(np.isnan(F_measured), math.nan, 1.0)
    return LandscapeGrid(
        betas=0.1 * np.arange(1, F_measured.shape[0] + 1),
        gammas=0.5 * np.arange(1, F_measured.shape[1] + 1),
        F_measured=F_measured,
        norm=norm,
        pops=0.25 * norm[..., None].repeat(4, axis=-1),
        F_ideal=np.array(F_ideal, dtype=float),
        cost_range=1.0,
    )


def test_landscape_error_realization_averaging():
    # averaging happens at the cost level: +d and -d cancel before the absolute value
    assert landscape_error(landscape_of([[[-0.4, -0.6]]], [[-0.5]])) == 0.0
    assert landscape_error(landscape_of([[[-0.4, -0.3]]], [[-0.5]])) == pytest.approx(0.15, abs=1e-12)


def test_landscape_error_zero_cost_range():
    edgeless = Graph(2, np.zeros((2, 2)))
    grid = run_scan(ScanConfig(graph=edgeless, mode="ideal", beta_range=(0.1, 0.2, 0.1), gamma_range=(0.1, 0.2, 0.1)))
    assert grid.cost_range == 0.0
    assert landscape_error(grid) == 0.0


def test_landscape_error_skips_invalid_points():
    nan = math.nan
    grid = landscape_of([[[-0.45, nan]]], [[-0.5]])
    np.testing.assert_array_equal(grid.valid, [[[True, False]]])
    assert landscape_error(grid) == pytest.approx(0.05, abs=1e-12)
    # a point with no valid realization drops out of the mean
    assert landscape_error(landscape_of([[[-0.45, nan], [nan, nan]]], [[-0.5, -0.9]])) == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ValueError):
        landscape_error(landscape_of([[[nan]]], [[-0.5]]))


def test_realization_stats_match_numpy_on_valid_entries():
    rng = np.random.default_rng(3)
    for realizations in range(1, 8):
        values = rng.normal(size=(realizations, 5, 3))
        values[rng.random(values.shape[:2]) < 0.4] = math.nan  # whole rows invalid, as in a scan
        mean, std = _realization_stats(values, 0)
        for k, j in np.ndindex(5, 3):
            good = values[:, k, j][np.isfinite(values[:, k, j])]
            assert mean[k, j] == good.mean() if good.size else math.isnan(mean[k, j])
            assert std[k, j] == good.std(ddof=1) if good.size > 1 else math.isnan(std[k, j])
        moved_mean, moved_std = _realization_stats(np.moveaxis(values, 0, 2), 2)
        np.testing.assert_array_equal(moved_mean, mean)
        np.testing.assert_array_equal(moved_std, std)


def test_optimize_ideal_k2_reaches_minimum():
    result = optimize(ScanConfig(graph=K2, mode="ideal"))
    assert result.best_F == pytest.approx(-1.0, abs=1e-6)
    beta, gamma = result.best_params.betas[0], result.best_params.gammas[0]
    assert math.sin(4 * beta) * math.sin(gamma) == pytest.approx(-1.0, abs=1e-5)
    assert result.evaluations > 861  # coarse grid plus refinement


def test_optimize_simplex_matches():
    result = optimize(ScanConfig(graph=K2, mode="ideal"), strategy="simplex")
    assert result.best_F == pytest.approx(-1.0, abs=1e-6)


def test_optimize_grid_argmin_on_analytic_minimum():
    # both analytic minima of the closed form sit exactly on the default grid
    result = optimize(ScanConfig(graph=K2, mode="ideal"))
    beta, gamma = result.best_params.betas[0], result.best_params.gammas[0]
    candidates = [(0.125 * math.pi, 1.5 * math.pi), (0.375 * math.pi, 0.5 * math.pi)]
    assert any(abs(beta - b) < 2e-3 and abs(gamma - g) < 2e-3 for b, g in candidates)


def test_optimize_k3_matches_dense_grid_oracle():
    result = optimize(ScanConfig(graph=K3, mode="ideal"))
    assert abs(result.best_F - K3_DENSE_GRID_BEST_F) < 1e-3
    assert result.best_F <= K3_DENSE_GRID_BEST_F + 1e-9  # refinement can only improve
    assert result.best_F >= -2.0 - 1e-9  # bounded by the true optimum


def test_optimize_edgeless_graph():
    edgeless = Graph(2, np.zeros((2, 2)))
    result = optimize(ScanConfig(graph=edgeless, mode="ideal", beta_range=(0.1, 0.2, 0.1), gamma_range=(0.1, 0.2, 0.1)))
    assert result.best_F == pytest.approx(0.0, abs=1e-12)


def test_optimize_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        optimize(ScanConfig(graph=K2, mode="ideal"), strategy="annealing")


def test_optimize_sampled_smoke():
    cfg = sampled_config(
        beta_range=(0.1 * math.pi, 0.35 * math.pi, 0.25 * math.pi),
        gamma_range=(1.3 * math.pi, 1.55 * math.pi, 0.25 * math.pi),
        shots=2_000,
        checkpoint_every=1000,
    )
    result = optimize(cfg)
    assert result.best_F < -0.5
    assert result.trace  # sampled evaluations recorded


def test_optimize_p2_refines_all_four_coordinates():
    cfg = ScanConfig(
        graph=K2,
        mode="ideal",
        p=2,
        beta_range=(0.05 * math.pi, 0.15 * math.pi, 0.05 * math.pi),
        gamma_range=(0.4 * math.pi, 0.6 * math.pi, 0.1 * math.pi),
    )
    result = optimize(cfg)
    assert result.best_params.p == 2
    # two layers can do at least as well as the best single-layer value on K2
    assert result.best_F <= -0.99


def test_convergence_profile_checkpoints():
    cfg = sampled_config(shots=5_000, realizations=3, checkpoint_every=1000)
    profile = convergence_profile(cfg, POINT)
    np.testing.assert_array_equal(profile.checkpoint_shots, [1000, 2000, 3000, 4000, 5000])
    assert profile.mean_pops.shape == (5, 4)
    assert np.isfinite(profile.mean_norm).all()
    assert np.isfinite(profile.std_norm).all()
    # estimates should be in the right neighborhood even at modest shot counts
    np.testing.assert_allclose(profile.mean_pops[-1], POINT_POPS, atol=0.1)


def test_convergence_final_checkpoint_matches_measure_point():
    cfg = sampled_config(shots=4_000, realizations=2, checkpoint_every=1000)
    profile = convergence_profile(cfg, POINT)
    records = [measure_point(cfg, POINT, r, point_index=0) for r in range(2)]
    expected_pops = np.mean([rec.pops for rec in records], axis=0)
    np.testing.assert_allclose(profile.mean_pops[-1], expected_pops, atol=1e-12)
    assert profile.mean_norm[-1] == pytest.approx(np.mean([rec.norm for rec in records]), abs=1e-12)


def test_convergence_requires_sampled_mode_and_enough_shots():
    with pytest.raises(ValueError):
        convergence_profile(ScanConfig(graph=K2, mode="ideal"), POINT)
    with pytest.raises(ValueError):
        convergence_profile(sampled_config(shots=500, checkpoint_every=1000), POINT)


def test_landscape_csv_format():
    cfg = ScanConfig(graph=K2, mode="ideal", beta_range=(0.1, 0.1, 1.0), gamma_range=(0.5, 0.5, 1.0))
    grid = run_scan(cfg)
    buffer = io.StringIO()
    write_landscape_csv(grid, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "0.1"
    assert fields[2] == "0"
    assert len(fields[7].split("|")) == 4
    value = float(fields[3])
    assert value == pytest.approx(closed_form_cost_k2(0.1, 0.5), abs=1e-9)


def test_convergence_csv_format():
    cfg = sampled_config(shots=2_000, realizations=2, checkpoint_every=1000)
    profile = convergence_profile(cfg, POINT)
    buffer = io.StringIO()
    write_convergence_csv(profile, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "shots,p00,p01,p10,p11,norm,std_p00,std_p01,std_p10,std_p11,std_norm"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1000"


def test_scan_summary_contents():
    cfg = sampled_config(beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.5, 1.0), shots=3_000, realizations=2)
    grid = run_scan(cfg)
    summary = scan_summary(grid, cfg)
    assert summary["points_total"] == 4
    assert summary["points_invalid"] == 0
    assert summary["num_beta"] == 2
    assert summary["num_gamma"] == 1
    assert summary["realizations"] == 2
    assert summary["cost_range"] == 1.0
    assert summary["config"]["mode"] == "sampled"
    assert summary["landscape_error"] >= 0.0


def test_config_dict_round_trip():
    cfg = sampled_config(
        noise=NoiseConfig(depolarizing_prob=0.01, overrotation_frac=0.05, seed=3),
        p=2,
        exact_calibration=True,
    )
    data = config_to_dict(cfg)
    again = config_from_dict(data)
    assert config_to_dict(again) == data
    assert again.noise == cfg.noise
    assert again.p == 2
    assert again.exact_calibration is True
    np.testing.assert_array_equal(again.calibration.intensities, CAL.intensities)
    np.testing.assert_array_equal(again.graph.adjacency, K2.adjacency)


def test_scan_with_stochastic_noise_stays_deterministic():
    cfg = sampled_config(
        beta_range=(0.3, 0.3, 1.0),
        gamma_range=(1.0, 1.0, 1.0),
        shots=3_000,
        noise=NoiseConfig(depolarizing_prob=0.02, seed=1),
        realizations=2,
    )
    a = run_scan(cfg)
    b = run_scan(cfg)
    assert a.F_measured.shape == (1, 1, 2)
    np.testing.assert_array_equal(a.F_measured, b.F_measured)
    np.testing.assert_array_equal(a.pops, b.pops)


@pytest.mark.parametrize(
    "noise",
    [None, NoiseConfig(overrotation_frac=0.07, phase_offset=-0.2), NoiseConfig(calibration_sigma=0.05)],
    ids=["noiseless", "overrotation+phase", "cal-sigma"],
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_subcircuit_permutations_match_gate_level_oracle(n, noise):
    # One simulated state read out under index permutations and delta vectors
    # must reproduce, bit for bit, every appended-X sub-circuit on the same streams.
    rng = np.random.default_rng(100 + n)
    edges = [(i, j, float(rng.uniform(0.5, 1.5))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    graph = Graph.from_edges(n, edges or [(0, 1, 1.0)])
    cfg = ScanConfig(
        graph=graph,
        mode="sampled",
        calibration=CalibrationTable(rng.uniform(0.5, 5.0, 1 << n)),
        shots=2_500,
        checkpoint_every=1_000,
        noise=noise,
        master_seed=int(rng.integers(1000)),
    )
    size = 1 << n
    for trial in range(3):
        p = 1 + trial % 2
        params = QaoaParams(tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, 2 * math.pi, p)))
        true_cal, streams = _point_streams(cfg, trial, trial)
        cal_records, flip_records, pops = _measure_subcircuits(cfg, params, true_cal, streams)
        ansatz = build_ansatz(graph, params)
        oracle = [measure_circuit(circuit, true_cal, cfg.shots, streams[s], cfg.checkpoint_every, noise)
                  for s, circuit in enumerate(calibration_circuits(n))]
        oracle += [
            measure_circuit(append_flips(ansatz, pattern), true_cal, cfg.shots, streams[size + x],
                            cfg.checkpoint_every, noise)
            for x, pattern in enumerate(flip_patterns(n))
        ]
        for got, want in zip(cal_records + flip_records, oracle, strict=True):
            assert got.running_mean == want.running_mean
            np.testing.assert_array_equal(got.checkpoints, want.checkpoints)
        if noise is not None and noise.overrotation_frac:
            assert pops is None
        else:
            assert float(np.dot(pops, diagonal_costs(graph))) == ideal_cost(graph, params)
