import io
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nvqaoa import experiment
from nvqaoa._bitstrings import all_bitstrings
from nvqaoa._format10g import SMALL, write_rows
from nvqaoa.circuits import (
    QaoaParams,
    append_flips,
    build_ansatz,
    simulate,
    simulate_qaoa,
)
from nvqaoa.experiment import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GAMMA_RANGE,
    MAX_DEPOLARIZING_VERTICES,
    ConvergenceProfile,
    LandscapeGrid,
    OptimizeResult,
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
    write_trace_csv,
    _child_seed,
    _measure_subcircuits,
    _point_streams,
    _realization_stats,
    _sampled_state_pops,
)
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import NoiseConfig, perturb_calibration, simulate_noisy
from nvqaoa.readout import CalibrationTable, DegenerateCalibrationError, default_calibration, read_records
from nvqaoa.reconstruction import fwht, reconstruct, walsh_coefficients
from nvqaoa.statevector import populations
from oracles import (
    calibration_circuits,
    convergence_csv_text,
    density_matrix_populations,
    format_10g,
    landscape_csv_text,
    trace_csv_text,
)

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
    ring = Graph.from_edges(11, [(i, (i + 1) % 11) for i in range(11)])
    depolarizing = NoiseConfig(depolarizing_prob=0.01)
    with pytest.raises(ValueError, match=f"capped at {MAX_DEPOLARIZING_VERTICES}"):
        ScanConfig(graph=ring, mode="sampled", calibration=CalibrationTable(np.arange(2048.0)), noise=depolarizing)


@pytest.mark.parametrize("p", [1.5, 2.0, True, "2", None, np.float64(1.0)])
def test_config_rejects_non_integer_p(p):
    # the same check guards every integer field of ScanConfig
    with pytest.raises(ValueError, match=r"\bp\b"):
        ScanConfig(graph=K2, p=p)
    for field in ("shots", "realizations", "checkpoint_every", "master_seed"):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            ScanConfig(graph=K2, **{field: p})
    assert ScanConfig(graph=K2, shots=np.int64(1500)).shots == 1500
    assert type(ScanConfig(graph=K2, master_seed=np.int64(7)).master_seed) is int


def test_ideal_scan_matches_gate_level_populations():
    graph = Graph.from_edges(4, [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 1.1), (0, 3, 0.9), (0, 2, 1.6)])
    grid = run_scan(ScanConfig(graph=graph, p=2, beta_range=(0.1, 0.5, 0.2), gamma_range=(0.3, 1.5, 0.6)))
    diag = diagonal_costs(graph)
    for bi, gi in np.ndindex(grid.F_ideal.shape):
        params = QaoaParams((float(grid.betas[bi]),) * 2, (float(grid.gammas[gi]),) * 2)
        oracle = populations(simulate(build_ansatz(graph, params)))
        np.testing.assert_allclose(grid.pops[bi, gi, 0], oracle, rtol=0, atol=1e-12)
        assert grid.F_ideal[bi, gi] == pytest.approx(float(np.dot(oracle, diag)), abs=1e-12)
        assert ideal_cost(graph, params) == grid.F_ideal[bi, gi]


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
    # every F is exactly 0.0, so no later grid point beats the first pair
    assert {entry[2] for entry in result.trace} == {0.0}
    assert result.best_params == QaoaParams.single(0.1, 0.1)


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
    for noise in (None, NoiseConfig(depolarizing_prob=0.05)):
        cfg = sampled_config(shots=4_000, realizations=2, checkpoint_every=1000, noise=noise)
        profile = convergence_profile(cfg, POINT)
        records = [measure_point(cfg, POINT, r, point_index=0) for r in range(2)]
        expected_pops = np.mean([rec.pops for rec in records], axis=0)
        np.testing.assert_array_equal(profile.mean_pops[-1], expected_pops)
        assert profile.mean_norm[-1] == np.mean([rec.norm for rec in records])


def test_all_zero_empirical_calibration_gives_invalid_point():
    # intensities this dim record no photon in 2000 shots, so every empirical
    # table entry is 0 and the table is degenerate along every parity
    cfg = sampled_config(calibration=CalibrationTable(np.array([0.0, 0.0, 0.0, 1e-12])), shots=2_000)
    record = measure_point(cfg, POINT)
    assert not record.valid
    assert isinstance(record.error, DegenerateCalibrationError) and "degenerate" in str(record.error)
    assert np.isnan(record.F_measured) and np.isnan(record.norm) and np.isnan(record.pops).all()
    assert record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
    profile = convergence_profile(replace(cfg, realizations=2), POINT)
    assert np.isnan(profile.mean_pops).all() and np.isnan(profile.mean_norm).all()
    assert profile.checkpoints_invalid == 2 * 2  # every checkpoint of both realizations


def test_all_dark_perturbed_calibration_gives_invalid_realization():
    # at master seed 1, sigma = 3 floors every intensity of the perturbed table
    # of point 4, realization 3 at zero, so the generating table is degenerate
    cfg = sampled_config(
        shots=2_000, realizations=4, master_seed=1, noise=NoiseConfig(calibration_sigma=3.0),
        beta_range=(0.1, 0.1, 0.1), gamma_range=(0.1, 0.5, 0.1),
    )
    record = measure_point(cfg, POINT, realization_index=3, point_index=4)
    assert not record.valid
    assert isinstance(record.error, DegenerateCalibrationError) and "t=01" in str(record.error)
    assert np.isnan(record.F_measured) and np.isnan(record.norm) and np.isnan(record.pops).all()
    assert record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
    # the scan keeps going, with only that realization invalid
    grid = run_scan(cfg)
    invalid = np.zeros(grid.F_measured.shape, dtype=bool)
    invalid[0, 4, 3] = True
    np.testing.assert_array_equal(~grid.valid, invalid)
    # the profile skips the realization: it equals the profile of the other three
    profile = convergence_profile(cfg, POINT, point_index=4)
    three = convergence_profile(replace(cfg, realizations=3), POINT, point_index=4)
    assert np.isfinite(profile.mean_pops).all()
    np.testing.assert_array_equal(profile.mean_pops, three.mean_pops)
    np.testing.assert_array_equal(profile.std_norm, three.std_norm)
    # the skipped realization counts all of its checkpoints as invalid
    assert profile.checkpoints_invalid == 2 and three.checkpoints_invalid == 0


def per_checkpoint_runs(config, params, point_index=0):
    """The checkpoint-by-checkpoint reconstruction that the stacked call replaced, kept as its oracle."""
    size = 1 << config.graph.num_vertices
    num_checkpoints = config.shots // config.checkpoint_every
    pops_runs = np.full((config.realizations, num_checkpoints, size), math.nan)
    norm_runs = np.full((config.realizations, num_checkpoints), math.nan)
    pops = _sampled_state_pops(config, params, diagonal_costs(config.graph))
    for realization in range(config.realizations):
        try:
            true_cal, root = _point_streams(config, realization, point_index)
        except DegenerateCalibrationError:
            continue
        draws, split = _child_seed(root, 1), _child_seed(root, 2)
        _, checkpoints = _measure_subcircuits(config, true_cal, draws, pops, split)
        for k in range(num_checkpoints):
            try:
                table = true_cal if config.exact_calibration else CalibrationTable(checkpoints[:size, k])
                estimate = reconstruct(table, checkpoints[size:, k])
            except DegenerateCalibrationError:
                continue
            pops_runs[realization, k] = estimate.pops
            norm_runs[realization, k] = estimate.norm
    return pops_runs, norm_runs


@pytest.mark.parametrize("noise", [None, NoiseConfig(calibration_sigma=0.3)], ids=["noiseless", "cal-sigma"])
@pytest.mark.parametrize("exact", [False, True], ids=["empirical", "exact"])
def test_convergence_profile_matches_per_checkpoint_oracle(noise, exact):
    # a table this dim records no photon in the first 10-shot blocks of every realization
    cfg = sampled_config(
        calibration=CalibrationTable(np.array([0.04, 0.02, 0.01, 0.0])), shots=400, checkpoint_every=10,
        realizations=3, master_seed=1, noise=noise, exact_calibration=exact,
    )
    profile = convergence_profile(cfg, POINT)
    pops_runs, norm_runs = per_checkpoint_runs(cfg, POINT)
    np.testing.assert_array_equal([profile.mean_pops, profile.std_pops], _realization_stats(pops_runs, 0))
    np.testing.assert_array_equal([profile.mean_norm, profile.std_norm], _realization_stats(norm_runs, 0))
    assert profile.checkpoints_invalid == np.count_nonzero(np.isnan(norm_runs))
    if not exact:
        # early checkpoints are degenerate and later ones are not
        assert np.isnan(norm_runs[:, 0]).any() and np.isfinite(norm_runs[:, -1]).all()
        assert 0 < profile.checkpoints_invalid < norm_runs.size


@pytest.mark.parametrize("realizations, point_index, calls", [(3, 0, 3), (4, 4, 3)], ids=["valid", "one-all-dark"])
def test_convergence_reconstructs_once_per_valid_realization(monkeypatch, realizations, point_index, calls):
    # at master seed 1 the perturbed table of point 4, realization 3 is all dark (see above)
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(experiment, "reconstruct", counting)
    cfg = sampled_config(
        shots=2_000, checkpoint_every=100, realizations=realizations, master_seed=1,
        noise=NoiseConfig(calibration_sigma=3.0),
    )
    convergence_profile(cfg, POINT, point_index=point_index)
    assert len(seen) == calls  # one stacked call per valid realization, not one per checkpoint
    assert all(means.shape == (20, 4) for _, means in seen)


def test_non_degenerate_reconstruction_error_propagates(monkeypatch):
    def broken(calibration, means):
        raise ValueError("not a calibration problem")

    monkeypatch.setattr(experiment, "reconstruct", broken)
    cfg = sampled_config(shots=2_000)
    with pytest.raises(ValueError, match="not a calibration problem"):
        measure_point(cfg, POINT)
    with pytest.raises(ValueError, match="not a calibration problem"):
        convergence_profile(cfg, POINT)


def kernel_text(values, seps, texts=None):
    buffer = io.StringIO()
    write_rows(buffer, np.reshape(values, (-1, len(seps))), seps, texts)
    return buffer.getvalue()


def per_value_text(values, seps):
    return "".join(map(str.__add__, format_10g(values), itertools.cycle(seps)))


def test_format_10g_matches_format_byte_for_byte():
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 2.2250738585072014e-308]
    # values whose 11th significant digit is a 5: the rounding direction is decided by the binary tail
    boundaries = [0.12345678905, 1.0000000005, 9.9999999995, 99999.999995, 1234567890.5, 12345678905.0, 2.5e-10]
    # both sides of the switch between fixed and scientific notation
    boundaries += [1e-4, 9.9999999995e-5, 1e10, 9999999999.5]
    # the ends of the kernel's exact-scaling range, e = floor(log10|v|) in -13..31, and just outside
    boundaries += [1e-13, 9.999999999e-14, 1.0000000001e-13, 9.999999999e31, 9.9999999996e31, 1e32, 1e-14]
    boundaries += [np.nextafter(v, d) for v in boundaries for d in (-math.inf, math.inf)]
    # 10^e and its neighbours 1 and 2 ulp away, for every decimal exponent of a double
    powers = []
    for e in range(-330, 309):
        below = above = float(f"1e{e}")
        powers.append(below)
        for _ in range(2):
            below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
            powers += [below, above]
    rng = np.random.default_rng(10)
    # 11-digit decimal ties, exact or nearest to the decimal, at every exponent of the range
    digits, exponents = rng.integers(10**9, 10**10, 3000).tolist(), rng.integers(-23, 23, 3000).tolist()
    ties = [float(f"{d}5e{k}") for d, k in zip(digits, exponents)]
    randoms = list(rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500))
    # every float64 bit pattern is as likely: NaN payloads, subnormals and every exponent
    patterns = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([specials, boundaries, powers, ties, randoms, patterns, -patterns[:1000]])
    # seven fields a row: chunks start and end mid-row
    values = values[: values.size - values.size % 7]
    seps = ",,|||,\n"
    text = kernel_text(values, seps)
    assert re.split("[,|\n]", text)[:-1] == format_10g(values)
    assert text == per_value_text(values, seps)
    # a table under SMALL values is formatted value by value, to the same bytes
    assert kernel_text(values[: SMALL - 1], "\n") == per_value_text(values[: SMALL - 1], "\n")
    assert kernel_text(np.float64(-0.0), "\n") == "-0\n"


def test_write_rows_puts_text_columns_in_place():
    rng = np.random.default_rng(4)
    for rows in (10, 900):  # the per-value loop and the kernel
        table = rng.standard_normal((rows, 3))
        # an integer column keeps every digit: %.10g would print 10**10 as 1e+10; the
        # longest texts do not fit the kernel's fixed width
        column = [str(10**10 + r) if r % 3 else str(10**20 * r) for r in range(rows)]
        text = kernel_text(table, ",,\n", {1: column})
        fields = zip(format_10g(table[:, 0]), column, format_10g(table[:, 2]))
        expected = "".join(f"{a},{c},{b}\n" for a, c, b in fields)
        assert text == expected


def test_csv_writers_match_per_value_oracles():
    def same_text(write, oracle, result):
        buffer = io.StringIO()
        write(result, buffer)
        assert buffer.getvalue() == oracle(result)

    # ideal n = 10: 1024 populations a row, more than one chunk
    rng = np.random.default_rng(12)
    weights = np.triu(rng.uniform(0.5, 1.5, size=(10, 10)), k=1)
    graph = Graph(10, weights + weights.T)
    ideal = ScanConfig(graph=graph, mode="ideal", beta_range=(0.1, 0.3, 0.2), gamma_range=(0.5, 0.9, 0.4))
    same_text(write_landscape_csv, landscape_csv_text, run_scan(ideal))
    # sampled grids with an invalid (NaN) row, through the per-value loop and the kernel
    for betas in ((0.1, 0.1, 0.1), (0.1, 1.0, 0.1)):
        cfg = sampled_config(
            shots=2_000, realizations=4, master_seed=1, noise=NoiseConfig(calibration_sigma=3.0),
            beta_range=betas, gamma_range=(0.1, 0.5, 0.1),
        )
        grid = run_scan(cfg)
        assert not grid.valid[0, 4, 3]
        same_text(write_landscape_csv, landscape_csv_text, grid)
    # one realization: every standard deviation is NaN; 11 fields a checkpoint
    profile = convergence_profile(sampled_config(shots=20_000, checkpoint_every=200), POINT)
    assert np.isnan(profile.std_pops).all() and 11 * profile.checkpoint_shots.size > SMALL
    same_text(write_convergence_csv, convergence_csv_text, profile)
    # shot counts of 10**10 and more print as integers
    for checkpoints in (2, 600):
        shots = 10**10 * np.arange(1, checkpoints + 1)
        pops = rng.random((checkpoints, 2))
        big = ConvergenceProfile(shots, pops, pops / 3, pops.sum(axis=1), pops[:, 0], 1, 1, 0)
        buffer = io.StringIO()
        write_convergence_csv(big, buffer)
        assert buffer.getvalue().splitlines()[1].startswith("10000000000,")
        assert buffer.getvalue().splitlines()[2].startswith("20000000000,")
        same_text(write_convergence_csv, convergence_csv_text, big)
    # a trace with +-inf, NaN and -0.0, long enough for the kernel
    angles = rng.standard_normal((400, 3)).tolist()
    angles[7] = [math.inf, -0.0, math.nan]
    angles[300] = [-math.inf, 0.0, -0.0]
    trace = tuple(((b,), (g,), f) for b, g, f in angles)
    same_text(write_trace_csv, trace_csv_text, OptimizeResult(QaoaParams((0.1,), (1.0,)), -1.0, trace))


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


def test_trace_csv_format():
    # one row per evaluation, every angle and F at 10 significant digits as format(v, ".10g") prints them
    trace = (
        ((0.1, 0.30000000000000004), (1.0, -0.0), -0.123456789012345),
        ((np.float64(math.pi / 7),) * 2, (2.5e-10, 1e300), math.nan),
        ((1.0000000005, 0.0), (-math.inf, 3.0), -1.0),
    )
    buffer = io.StringIO()
    write_trace_csv(OptimizeResult(QaoaParams((0.1, 0.2), (1.0, 2.0)), -1.0, trace), buffer)
    rows = [",".join([str(i), *(format(v, ".10g") for v in (*b, *g, f))]) for i, (b, g, f) in enumerate(trace)]
    assert buffer.getvalue() == "\n".join(["index,beta0,beta1,gamma0,gamma1,F", *rows]) + "\n"


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


def test_scan_summary_error_is_none_only_without_valid_points(monkeypatch):
    cfg = sampled_config()
    nan = math.nan
    assert scan_summary(landscape_of([[[nan, nan]]], [[-0.5]]), cfg)["landscape_error"] is None
    assert scan_summary(landscape_of([[[-0.45, nan]]], [[-0.5]]), cfg)["landscape_error"] == pytest.approx(0.05)

    def broken(grid):
        raise ValueError("an unrelated bug")

    # any other ValueError is a bug and propagates
    monkeypatch.setattr(experiment, "landscape_error", broken)
    with pytest.raises(ValueError, match="an unrelated bug"):
        scan_summary(landscape_of([[[-0.45, nan]]], [[-0.5]]), cfg)


def test_config_dict_round_trip():
    cfg = sampled_config(
        noise=NoiseConfig(depolarizing_prob=0.01, overrotation_frac=0.05),
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
        noise=NoiseConfig(depolarizing_prob=0.02),
        realizations=2,
    )
    a = run_scan(cfg)
    b = run_scan(cfg)
    assert a.F_measured.shape == (1, 1, 2)
    np.testing.assert_array_equal(a.F_measured, b.F_measured)
    np.testing.assert_array_equal(a.pops, b.pops)


def random_graph(n, rng):
    edges = [(i, j, float(rng.uniform(0.5, 1.5))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    return Graph.from_edges(n, edges or ([(0, 1, 1.0)] if n > 1 else []))


def subcircuits(graph, params):
    """The gate-level sub-circuits of a point, in record order: basis preparations, then flip variants."""
    ansatz = build_ansatz(graph, params)
    n = graph.num_vertices
    return calibration_circuits(n) + [append_flips(ansatz, pattern) for pattern in all_bitstrings(n)]


@pytest.mark.parametrize(
    "noise",
    [
        None,
        NoiseConfig(overrotation_frac=0.07, phase_offset=-0.2),
        NoiseConfig(calibration_sigma=0.05),
        NoiseConfig(depolarizing_prob=0.3, overrotation_frac=0.07, phase_offset=-0.2),
    ],
    ids=["noiseless", "overrotation+phase", "cal-sigma", "depolarizing"],
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_subcircuit_permutations_match_gate_level_oracle(monkeypatch, n, noise):
    # One simulated state read out under index permutations and delta vectors
    # must reproduce, bit for bit, the records read_records makes of the
    # appended-X sub-circuits' gate-level populations on the same seeds.
    # Under depolarizing noise the rows of that one draw are the sub-circuits'
    # exact channel-averaged populations, X gates included.
    rng = np.random.default_rng(100 + n)
    graph = random_graph(n, rng)
    cfg = ScanConfig(
        graph=graph,
        mode="sampled",
        calibration=CalibrationTable(rng.uniform(0.5, 5.0, 1 << n)),
        shots=2_500,
        checkpoint_every=1_000,
        noise=noise,
        master_seed=int(rng.integers(1000)),
    )
    diag = diagonal_costs(graph)
    stochastic = noise is not None and noise.is_stochastic
    fed = []

    def recording(intensities, rows, *args):
        fed.append(rows)
        return read_records(intensities, rows, *args)

    monkeypatch.setattr(experiment, "read_records", recording)
    for trial in range(3):
        p = 1 + trial % 2
        params = QaoaParams(tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, 2 * math.pi, p)))
        true_cal, root = _point_streams(cfg, trial, trial)
        draws, split = _child_seed(root, 1), _child_seed(root, 2)
        pops = _sampled_state_pops(cfg, params, diag)
        fed.clear()
        means, checkpoints = _measure_subcircuits(cfg, true_cal, draws, pops, split)
        ansatz = build_ansatz(graph, params)
        circuits = subcircuits(graph, params)
        assert len(fed) == 1  # every record of the point in one draw
        if stochastic:
            rows = fed[0]
            oracle = [density_matrix_populations(c, noise) for c in circuits]
            np.testing.assert_allclose(rows, oracle, rtol=0, atol=1e-12)
            oracle_pops = density_matrix_populations(ansatz, noise)
        else:
            rows = [populations(simulate(c) if noise is None else simulate_noisy(c, noise)) for c in circuits]
            oracle_pops = populations(simulate_noisy(ansatz, noise or NoiseConfig()))
        oracle_means, oracle_checkpoints = read_records(true_cal.intensities, rows, cfg.shots, draws, split, 1_000)
        np.testing.assert_array_equal(means, oracle_means)
        np.testing.assert_array_equal(checkpoints, oracle_checkpoints)
        assert checkpoints.shape == (2 << n, 2)
        # the point reads the structured state with every channel folded in
        np.testing.assert_allclose(pops, oracle_pops, rtol=0, atol=1e-12)
        if noise is None or not (noise.overrotation_frac or noise.phase_offset or stochastic):
            assert float(np.dot(pops, diag)) == ideal_cost(graph, params)


@pytest.mark.parametrize("deterministic", [False, True], ids=["depolarizing", "with-overrotation+phase"])
@pytest.mark.parametrize("prob", [0.02, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_depolarizing_record_means_match_density_matrix_oracle(monkeypatch, n, prob, deterministic):
    # Each record of a depolarizing point is a multinomial over the exact
    # channel-averaged populations of its gate-level sub-circuit, X gates
    # included, so its mean photon count has the oracle's mean and variance.
    rng = np.random.default_rng(40 + n)
    graph = random_graph(n, rng)
    extra = dict(overrotation_frac=0.07, phase_offset=-0.2) if deterministic else {}
    noise = NoiseConfig(depolarizing_prob=prob, **extra)
    cal = CalibrationTable(rng.uniform(0.5, 5.0, 1 << n))
    cfg = ScanConfig(graph=graph, mode="sampled", calibration=cal, shots=40_000, noise=noise)
    params = QaoaParams.single(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
    fed = []

    def recording(intensities, rows, *args):
        fed.append(rows)
        return read_records(intensities, rows, *args)

    monkeypatch.setattr(experiment, "read_records", recording)
    pops = _sampled_state_pops(cfg, params, diagonal_costs(graph))
    means, _ = _measure_subcircuits(cfg, cal, np.random.SeedSequence(7 + n), pops)
    oracle = np.array([density_matrix_populations(c, noise) for c in subcircuits(graph, params)])
    (rows,) = fed
    np.testing.assert_allclose(rows, oracle, rtol=0, atol=1e-12)
    exact = oracle @ cal.intensities
    variance = exact + oracle @ cal.intensities**2 - exact**2  # per shot: Poisson plus the spread over states
    z = (means - exact) / np.sqrt(variance / cfg.shots)
    assert np.all(np.abs(z) <= 4.0), z


def test_depolarizing_errors_are_independent_per_shot():
    # Every shot is a fresh run with its own Pauli errors, so F's spread over
    # realizations is the closed form for i.i.d. shots, whatever the checkpoint
    # blocks. With the exact table F = sum_x w_x m_x, w = fwht(fwht(C) / c) / 4^n,
    # and a flip record's mean m_x has variance (E[I] + Var[I]) / shots under
    # the oracle's populations of that sub-circuit.
    from scipy import stats

    noise = NoiseConfig(depolarizing_prob=0.05)
    params = QaoaParams.single(0.3, 0.7)
    shots, num = 300_000, 400
    cfg = sampled_config(shots=shots, noise=noise, exact_calibration=True, master_seed=3)
    one_block = replace(cfg, checkpoint_every=shots)
    F = np.array([measure_point(cfg, params, r).F_measured for r in range(num)])
    np.testing.assert_array_equal(F, [measure_point(one_block, params, r).F_measured for r in range(num)])
    size = 4
    rows = np.array([density_matrix_populations(c, noise) for c in subcircuits(K2, params)[size:]])
    mean_I = rows @ CAL.intensities
    var_I = rows @ CAL.intensities**2 - mean_I**2
    w = fwht(fwht(diagonal_costs(K2)) / walsh_coefficients(CAL)) / size**2
    sigma_F = math.sqrt(np.sum(w**2 * (mean_I + var_I)) / shots)
    ratio = (num - 1) * F.var(ddof=1) / sigma_F**2
    assert stats.chi2.ppf(1e-4, num - 1) <= ratio <= stats.chi2.isf(1e-4, num - 1), (F.std(ddof=1), sigma_F)


@pytest.mark.parametrize(
    "noise, calls",
    [
        (None, 1),
        (NoiseConfig(calibration_sigma=0.05), 1),
        (NoiseConfig(depolarizing_prob=0.02, overrotation_frac=0.05), 1),
        (NoiseConfig(overrotation_frac=0.05), 2),
        (NoiseConfig(phase_offset=0.1), 2),
    ],
    ids=["noiseless", "cal-sigma", "depolarizing", "overrotation", "phase-offset"],
)
def test_measure_point_simulates_one_noiseless_state(monkeypatch, noise, calls):
    # F_ideal's state is the state the point reads unless a deterministic channel changes it
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return simulate_qaoa(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_qaoa", counting)
    cfg = sampled_config(shots=2_000, noise=noise)
    record = measure_point(cfg, POINT)
    assert len(seen) == calls
    assert record.valid and record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
    seen.clear()
    convergence_profile(replace(cfg, realizations=3), POINT)
    assert len(seen) == (noise is None or not noise.is_stochastic)  # one state for every realization
    seen.clear()
    run_scan(replace(cfg, beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.7, 0.2), realizations=3))
    assert len(seen) == calls * 4  # a 2x2 grid reads each point's states in all three realizations


def test_point_streams_are_three_children_of_the_point_seed():
    cfg = sampled_config(noise=NoiseConfig(calibration_sigma=0.1), master_seed=9)
    true_cal, root = _point_streams(cfg, 2, 5)
    children = np.random.SeedSequence(9, spawn_key=(5, 2)).spawn(3)
    for k, want in enumerate(children):
        got = _child_seed(root, k)
        assert got.spawn_key == (5, 2, k)
        np.testing.assert_array_equal(got.generate_state(4), want.generate_state(4))
    assert root.n_children_spawned == 0
    # child 0 perturbs the table exactly as before the draws were batched
    np.testing.assert_array_equal(true_cal.intensities, perturb_calibration(CAL, 0.1, children[0]).intensities)
