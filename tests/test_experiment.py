import io
import itertools
import math
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from nvqaoa import _format10g, circuits, experiment, readout
from nvqaoa._bitstrings import all_bitstrings
from nvqaoa._format10g import CHUNK, SMALL, write_rows
from nvqaoa.circuits import (
    QaoaParams,
    append_flips,
    build_ansatz,
    qaoa_amplitudes,
    simulate,
    simulate_qaoa,
)
from nvqaoa.experiment import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GAMMA_RANGE,
    MAX_DEPOLARIZING_VERTICES,
    MAX_GRID_POINTS,
    MAX_LAYERS,
    MAX_RECORD_PHOTONS,
    MAX_SAMPLED_VERTICES,
    MAX_SCAN_ENTRIES,
    MAX_SHOTS,
    STRATEGIES,
    ConfigError,
    ConvergenceProfile,
    LandscapeGrid,
    OptimizeResult,
    ScanConfig,
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
    _check_cost_phase,
    _check_scan_entries,
    _block_points,
    _point_rows,
    _read_point,
    _realization_stats,
)
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import NoiseConfig, density_populations, perturb_calibration
from nvqaoa.readout import CalibrationTable, DegenerateCalibrationError, check_rows, default_calibration, read_records
from nvqaoa.reconstruction import fwht, reconstruct, walsh_coefficients
from nvqaoa.statevector import populations
from oracles import (
    calibration_circuits,
    convergence_csv_text,
    density_matrix_populations,
    format_10g,
    k2_cost,
    landscape_csv_text,
    measure_grid_per_block,
    measure_point_per_point,
    optimize_grid_per_point,
    p1_cost,
    point_rows,
    point_streams,
    realization_stats,
    trace_csv_text,
)
from test_readout import chi2_bounds

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


def test_grid_is_capped_before_any_array_exists():
    # an axis or a grid of more than MAX_GRID_POINTS points raises ValueError from the ranges alone
    assert MAX_GRID_POINTS == 10**6
    assert grid_axis((0.0, MAX_GRID_POINTS - 1.0, 1.0)).size == MAX_GRID_POINTS
    at_limit = ScanConfig(graph=K2, beta_range=(0.0, 999.0, 1.0), gamma_range=(0.0, 999.0, 1.0))
    assert at_limit.betas().size * at_limit.gammas().size == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="capped at 1000000"):
        ScanConfig(graph=K2, beta_range=(0.0, 100.0, 1.0), gamma_range=(0.0, 9900.0, 1.0))  # 101 x 9901 points
    for huge in ((0.0, 1.0, 1e-12), (0.0, 1e300, 1e-300), (0.0, float(MAX_GRID_POINTS), 1.0)):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            grid_axis(huge)
        with pytest.raises(ValueError, match="more than 1000000 points"):
            ScanConfig(graph=K2, beta_range=huge)


def test_scan_populations_are_capped_before_any_array_exists():
    # points x realizations x 2^n, counted from the config alone; nothing is run
    assert MAX_SCAN_ENTRIES == 1 << 27
    k14 = Graph.complete(14)
    at_limit = ScanConfig(graph=k14, beta_range=(0.0, 8191.0, 1.0), gamma_range=(0.0, 0.0, 1.0))
    assert at_limit.betas().size << 14 == MAX_SCAN_ENTRIES
    _check_scan_entries(at_limit)
    above = ScanConfig(graph=k14, beta_range=(0.0, 8192.0, 1.0), gamma_range=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="8193 x 1 x 2\\^14 = 134234112 populations"):
        _check_scan_entries(above)
    with pytest.raises(ValueError, match="8193 x 1 x 2\\^14"):
        run_scan(above)
    # a sampled scan holds every realization, an ideal scan one
    one_point = dict(graph=K2, beta_range=(0.1, 0.1, 1.0), gamma_range=(0.2, 0.2, 1.0), realizations=1 << 25)
    _check_scan_entries(ScanConfig(mode="sampled", calibration=CAL, **one_point))
    _check_scan_entries(ScanConfig(**{**one_point, "realizations": (1 << 25) + 1}))
    with pytest.raises(ValueError, match="capped at 134217728"):
        _check_scan_entries(ScanConfig(mode="sampled", calibration=CAL, **{**one_point, "realizations": (1 << 25) + 1}))


def test_scan_bound_leaves_optimize_and_convergence_alone(monkeypatch):
    # the bound on what run_scan holds leaves a config valid: optimize, which
    # holds one state at a time, runs it, and convergence_profile meets only
    # its own count
    k18 = ScanConfig(graph=Graph.complete(18))  # the default 21 x 41 grid
    with pytest.raises(ValueError, match="861 x 1 x 2\\^18"):
        _check_scan_entries(k18)
    monkeypatch.setattr(experiment, "MAX_SCAN_ENTRIES", 8)
    # 2 points x 2 realizations x 2^2 = 16 populations; 1 checkpoint x 2 x 2^2 = 8 entries
    cfg = sampled_config(
        beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.5, 1.0), shots=2_000, realizations=2, checkpoint_every=2_000
    )
    with pytest.raises(ValueError, match="capped at 8"):
        run_scan(cfg)
    assert optimize(cfg).evaluations >= 2
    assert optimize(replace(cfg, mode="ideal")).evaluations >= 2
    assert convergence_profile(cfg, POINT).realizations == 2
    with pytest.raises(ValueError, match="2 x 2 x 2\\^2 = 16 entries; capped at 8"):
        convergence_profile(replace(cfg, checkpoint_every=1_000), POINT)


def test_convergence_arrays_are_capped_before_any_array_exists():
    # checkpoints x max(realizations, 2) x 2^n, counted from the config alone: one
    # realization counts as two, for split_totals' 2^(n+1) records
    at_limit = sampled_config(shots=1 << 24, checkpoint_every=1)
    assert (1 << 24) * 2 * 4 == MAX_SCAN_ENTRIES
    _check_scan_entries(at_limit, checkpoints=True)
    with pytest.raises(ValueError, match="16777217 x 2 x 2\\^2 = 134217736 entries"):
        _check_scan_entries(replace(at_limit, shots=(1 << 24) + 1), checkpoints=True)
    with pytest.raises(ValueError, match="x 3 x 2\\^2"):
        _check_scan_entries(replace(at_limit, realizations=3), checkpoints=True)
    # 10^8 one-shot checkpoints on K2 would take more than 17 GB; refused before any draw
    with pytest.raises(ValueError, match="100000000 x 2 x 2\\^2 = 800000000 entries"):
        convergence_profile(sampled_config(shots=10**8, checkpoint_every=1), POINT)


def test_shots_and_photon_means_are_capped_before_any_draw():
    assert ScanConfig(graph=K2, shots=MAX_SHOTS).shots == MAX_SHOTS == 10**9 - 1
    for mode in ("ideal", "sampled"):
        with pytest.raises(ValueError, match="1000000000 shots; records are capped at 999999999"):
            ScanConfig(graph=K2, mode=mode, calibration=CAL, shots=MAX_SHOTS + 1)
        with pytest.raises(ValueError, match="records are capped at 999999999"):
            ScanConfig(graph=K2, mode=mode, calibration=CAL, shots=10**20)
    # shots x the brightest intensity at the cap, and one ulp above
    bright = CalibrationTable(np.array([MAX_RECORD_PHOTONS / 1000, 3.0, 2.0, 1.0]))
    sampled_config(calibration=bright, shots=1000)
    above = CalibrationTable(np.array([np.nextafter(MAX_RECORD_PHOTONS / 1000, math.inf), 3.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="photons a record; records are capped at 1e\\+15"):
        sampled_config(calibration=above, shots=1000)
    ScanConfig(graph=K2, calibration=above, shots=1000)  # an ideal scan draws no photons
    with pytest.raises(ValueError, match="capped at 1e\\+15"):
        sampled_config(calibration=CalibrationTable(np.array([1e15, 3.0, 2.0, 1.0])), shots=300_000)


def test_sampled_registers_are_capped():
    ring = [(i, (i + 1) % 13) for i in range(13)]
    cal13 = CalibrationTable(np.arange(1.0, 8193.0))
    with pytest.raises(ValueError, match="13 vertices; sampled scans are capped at 12"):
        ScanConfig(graph=Graph.from_edges(13, ring), mode="sampled", calibration=cal13)
    assert MAX_SAMPLED_VERTICES == 12
    ScanConfig(graph=Graph.from_edges(13, ring))  # ideal scans are not
    ScanConfig(graph=Graph.complete(12), mode="sampled", calibration=CalibrationTable(np.arange(1.0, 4097.0)))


def test_closed_form_special_values():
    assert k2_cost(0.0, 1.23) == pytest.approx(-0.5, abs=1e-15)
    assert k2_cost(math.pi / 4, 2.0) == pytest.approx(-0.5, abs=1e-12)
    assert k2_cost(math.pi / 8, 1.5 * math.pi) == pytest.approx(-1.0, abs=1e-12)
    assert k2_cost(math.pi / 8, 0.5 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_ideal_cost_matches_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(20):
        beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        value = ideal_cost(K2, QaoaParams.single(beta, gamma))
        assert value == pytest.approx(k2_cost(beta, gamma), abs=1e-12)


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


def test_ideal_scan_computes_one_cost_phase_per_gamma(monkeypatch):
    # one-point blocks (n >= 6) are read a gamma column at a time and share the column's phase;
    # a block of more points makes one stacked phase, shared by every layer
    phases = []

    def counted_phase(costs, gamma):
        phases.append(gamma.tolist())
        return cost_phase(costs, gamma)

    cost_phase = circuits._cost_phase
    monkeypatch.setattr(circuits, "_cost_phase", counted_phase)
    monkeypatch.setattr(experiment, "_cost_phase", counted_phase)
    ranges = {"beta_range": (0.1, 0.4, 0.1), "gamma_range": (0.2, 0.8, 0.1)}
    ring6 = Graph.from_edges(6, [(k, (k + 1) % 6, 0.5 + 0.2 * k) for k in range(6)])
    cal6 = CalibrationTable(np.linspace(2.0, 1.0, 64))
    for config in (ScanConfig(graph=ring6, p=2, **ranges),
                   ScanConfig(graph=ring6, p=2, mode="sampled", calibration=cal6, shots=100, **ranges)):
        phases.clear()
        grid = run_scan(config)
        assert grid.F_ideal.shape == (4, 7)
        assert phases == [[gamma] for gamma in grid.gammas.tolist()]
    phases.clear()
    ring5 = Graph.from_edges(5, [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.6), (3, 4, 1.1), (0, 4, 0.9)])
    grid = run_scan(ScanConfig(graph=ring5, p=2, **ranges))
    assert _block_points(32) == 4
    point_gammas = grid.gammas[np.arange(28) % 7].tolist()
    assert phases == [point_gammas[start : start + 4] for start in range(0, 28, 4)]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", range(1, 8))
def test_ideal_scan_equals_per_point_simulation_bit_for_bit(n):
    # the 3 x 3 grid is one block up to n = 4, blocks of 4, 4 and 1 points at n = 5, one-point blocks from n = 6;
    # ideal mode applies no noise channel, so a config's noise changes no bit
    rng = np.random.default_rng(2700 + n)
    edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    graph = Graph.from_edges(n, edges)
    diag = diagonal_costs(graph)
    noise = NoiseConfig(depolarizing_prob=0.01, overrotation_frac=0.1, phase_offset=0.2, calibration_sigma=0.05)
    for p in (1, 2, 3):
        config = ScanConfig(graph=graph, p=p, beta_range=(-0.3, 0.5, 0.4), gamma_range=(0.2, 1.4, 0.6))
        grid = run_scan(config)
        noisy = run_scan(replace(config, noise=noise))
        for name in ("pops", "F_ideal", "F_measured", "norm"):
            assert np.array_equal(_bits(getattr(noisy, name)), _bits(getattr(grid, name))), name
        for bi, gi in np.ndindex(grid.F_ideal.shape):
            params = QaoaParams((float(grid.betas[bi]),) * p, (float(grid.gammas[gi]),) * p)
            pops = populations(simulate_qaoa(diag, params))
            cost = float(np.dot(pops, diag))
            assert np.array_equal(_bits(grid.pops[bi, gi, 0]), _bits(pops))
            assert _bits(grid.F_ideal[bi, gi]) == _bits(grid.F_measured[bi, gi, 0]) == _bits(cost)
            assert _bits(grid.norm[bi, gi, 0]) == _bits(pops.sum())


def test_ideal_scan_matches_closed_form_everywhere():
    grid = run_scan(ScanConfig(graph=K2, mode="ideal"))
    assert grid.F_measured.shape == grid.norm.shape == (21, 41, 1)
    assert grid.pops.shape == (21, 41, 1, 4)
    assert grid.realizations == 1
    assert grid.valid.all()
    np.testing.assert_array_equal(grid.F_measured[:, :, 0], grid.F_ideal)
    for bi, beta in enumerate(grid.betas):
        for gi, gamma in enumerate(grid.gammas):
            assert grid.F_measured[bi, gi, 0] == pytest.approx(k2_cost(beta, gamma), abs=1e-9)
    np.testing.assert_allclose(grid.norm, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(grid.norm, grid.pops.sum(axis=-1))
    assert landscape_error(grid) == 0.0


def test_ideal_k14_scan_matches_the_closed_form_p1_oracle():
    rng = np.random.default_rng(140)
    weights = np.triu(rng.uniform(0.5, 1.5, (14, 14)), k=1)
    graph = Graph(14, weights + weights.T)
    grid = run_scan(ScanConfig(graph=graph, beta_range=(0.1 * math.pi, 0.6 * math.pi, 0.25 * math.pi),
                               gamma_range=(0.1 * math.pi, 2.1 * math.pi, 0.8 * math.pi)))
    expected = [[p1_cost(graph, beta, gamma) for gamma in grid.gammas] for beta in grid.betas]
    np.testing.assert_allclose(grid.F_ideal, expected, rtol=0, atol=1e-12 * graph.total_weight())


@pytest.mark.parametrize("n", range(2, 15))
def test_ideal_scan_matches_the_closed_form_p1_oracle(n):
    rng = np.random.default_rng(1400 + n)
    for _ in range(3):
        edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        graph = Graph.from_edges(n, edges)
        beta, gamma = rng.uniform(-math.pi, math.pi, 2)
        grid = run_scan(ScanConfig(graph=graph, beta_range=(beta, beta, 1.0), gamma_range=(gamma, gamma, 1.0)))
        assert abs(grid.F_ideal[0, 0] - p1_cost(graph, beta, gamma)) <= 1e-12 * graph.total_weight()


def test_overflowing_cost_phase_is_rejected_before_any_state(monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("a state was simulated")

    monkeypatch.setattr(experiment, "qaoa_amplitudes", simulate)
    monkeypatch.setattr(experiment, "_cost_phase", simulate)
    monkeypatch.setattr(experiment, "_even_amplitudes", simulate)
    heavy = Graph.complete(2, 1e308)
    cal = CalibrationTable([5.0, 3.0, 2.0, 1.0])
    grid = {"beta_range": (0.1, 0.2, 0.1), "gamma_range": (2.0, 6.0, 4.0)}
    for mode in ("ideal", "sampled"):
        config = ScanConfig(graph=heavy, mode=mode, calibration=cal, **grid)
        with pytest.raises(ValueError, match="cost phase overflows"):
            run_scan(config)
        with pytest.raises(ValueError, match="cost phase overflows"):
            optimize(config)
    config = ScanConfig(graph=heavy, mode="sampled", calibration=cal, shots=1000)
    with pytest.raises(ValueError, match="cost phase overflows"):
        convergence_profile(config, QaoaParams.single(0.3, -6.0))
    # the bound counts overrotation: 1.5 x 1e308 is finite, 1.5 x 1.2 x 1e308 is not
    _check_cost_phase(config, [1.5])
    with pytest.raises(ValueError, match=r"\|overrotation\| 0.2\)"):
        _check_cost_phase(replace(config, noise=NoiseConfig(overrotation_frac=-0.2)), [-1.5])
    # the grid's largest |gamma| may be at either end
    _check_cost_phase(replace(config, gamma_range=(-1.7, 1.0, 0.1)))
    with pytest.raises(ValueError, match=r"\|gamma\| 1.8 "):
        _check_cost_phase(replace(config, gamma_range=(-1.8, 1.0, 0.1)))


def _bound_cases() -> dict:
    """Each entry point's bounds under MAX_SCAN_ENTRIES = 8, each case breaking one: (call, message)."""
    # 2 points x 2 realizations x 2^2 = 16 populations; 1 checkpoint x 2 x 2^2 = 8 entries
    sampled = ScanConfig(graph=K2, mode="sampled", calibration=CAL, shots=2000, realizations=2, checkpoint_every=2000,
                         beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.5, 1.0))
    # 1 point x 2 gammas x 1 realization x 2^2 = 8 populations, and gamma = 6 overflows
    heavy = replace(sampled, graph=Graph.complete(2, 1e308), realizations=1, beta_range=(0.1, 0.1, 1.0),
                    gamma_range=(2.0, 6.0, 4.0))
    far = QaoaParams.single(0.3, -6.0)
    ideal = replace(sampled, mode="ideal")
    return {
        "run_scan-entries": (lambda: run_scan(sampled), "2 x 2 x 2^2 = 16 populations; capped at 8"),
        "run_scan-cost-phase": (lambda: run_scan(heavy), "cost phase overflows"),
        "optimize-strategy": (lambda: optimize(sampled, "anneal"), "one of grid_then_refine, simplex, got 'anneal'"),
        "optimize-cost-phase": (lambda: optimize(heavy), "cost phase overflows"),
        "convergence_profile-mode": (lambda: convergence_profile(ideal, POINT), "requires mode 'sampled'"),
        "convergence_profile-block": (
            lambda: convergence_profile(replace(sampled, checkpoint_every=4000), POINT),
            "one full checkpoint block: 2000 shots < checkpoint every 4000",
        ),
        "convergence_profile-entries": (
            lambda: convergence_profile(replace(sampled, checkpoint_every=1000), POINT),
            "2 x 2 x 2^2 = 16 entries; capped at 8",
        ),
        "convergence_profile-cost-phase": (lambda: convergence_profile(heavy, far), "cost phase overflows"),
        "measure_point-mode": (lambda: measure_point(ideal, POINT), "requires mode 'sampled'"),
        "measure_point-cost-phase": (lambda: measure_point(heavy, far), "cost phase overflows"),
        "measure_point-index": (lambda: measure_point(sampled, POINT, 0, -1), "point_index must be at least 0, got -1"),
        "measure_point-bool-index": (lambda: measure_point(sampled, POINT, True), "realization_index must be an integer"),
        "measure_point-float-index": (lambda: measure_point(sampled, POINT, 0, 1.5), "point_index must be an integer"),
        "convergence_profile-index": (
            lambda: convergence_profile(sampled, POINT, -1), "point_index must be at least 0, got -1"
        ),
    }


@pytest.mark.parametrize("case", list(_bound_cases()))
def test_each_entry_point_raises_config_error_before_any_state(monkeypatch, case):
    def diagonal(*args, **kwargs):
        raise AssertionError("a cost diagonal was made")

    monkeypatch.setattr(experiment, "MAX_SCAN_ENTRIES", 8)
    call, message = _bound_cases()[case]
    monkeypatch.setattr(experiment, "diagonal_costs", diagonal)
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()


def test_scan_config_bounds_raise_config_error():
    assert ScanConfig(graph=K2, p=MAX_LAYERS).p == MAX_LAYERS == 1000
    for fields_ in ({"p": 0}, {"p": MAX_LAYERS + 1}, {"shots": MAX_SHOTS + 1}, {"mode": "bogus"},
                    {"beta_range": (0.0, 1.0, 1e-12)}, {"beta_range": (1.0, 0.0, 0.1)}, {"master_seed": -1},
                    {"realizations": 1.5}):
        with pytest.raises(ConfigError):
            ScanConfig(graph=K2, **fields_)
    with pytest.raises(ConfigError, match="'config.p'"):
        config_from_dict({**config_to_dict(ScanConfig(graph=K2)), "p": "2"})
    assert MAX_SHOTS == readout._MAX_SPLIT_SHOTS - 1


def test_ideal_scan_ordering_beta_major():
    cfg = ScanConfig(graph=K2, mode="ideal", beta_range=(0.1, 0.3, 0.1), gamma_range=(0.5, 0.7, 0.1))
    grid = run_scan(cfg)
    np.testing.assert_allclose(grid.betas, [0.1, 0.2, 0.3])
    np.testing.assert_allclose(grid.gammas, [0.5, 0.6, 0.7])
    for bi, gi in np.ndindex(3, 3):  # axis 0 is beta, axis 1 is gamma
        assert grid.F_measured[bi, gi, 0] == pytest.approx(k2_cost(grid.betas[bi], grid.gammas[gi]))
    buffer = io.BytesIO()
    write_landscape_csv(grid, buffer)
    coords = [(round(float(row.split(",")[0]), 6), round(float(row.split(",")[1]), 6))
              for row in buffer.getvalue().decode("ascii").splitlines()[1:]]
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


def ring(n):
    return Graph.from_edges(n, [(q, (q + 1) % n, 0.6 + 0.1 * q) for q in range(n)])


def random_table(n, seed):
    return CalibrationTable(np.random.default_rng(seed).uniform(0.5, 5.0, 1 << n))


GRID_CASES = {
    "k2-one-point": dict(beta_range=(0.15 * math.pi,) * 2 + (1.0,), gamma_range=(1.5 * math.pi,) * 2 + (1.0,)),
    "k2-empirical": dict(realizations=3),
    "k2-exact": dict(realizations=3, exact_calibration=True),
    "ring4-empirical": dict(graph=ring(4), calibration=random_table(4, 1)),
    "ring4-exact": dict(graph=ring(4), calibration=random_table(4, 2), exact_calibration=True),
    "ring4-overrotation": dict(
        graph=ring(4), calibration=random_table(4, 3), noise=NoiseConfig(overrotation_frac=0.07, phase_offset=-0.2)
    ),
    "ring4-p2-overrotation": dict(
        graph=ring(4), calibration=random_table(4, 7), p=2, noise=NoiseConfig(overrotation_frac=-0.04, phase_offset=0.3)
    ),
    "k2-depolarizing": dict(realizations=3, noise=NoiseConfig(depolarizing_prob=0.05, overrotation_frac=0.05)),
    "ring4-depolarizing-exact": dict(
        graph=ring(4), calibration=random_table(4, 4), exact_calibration=True,
        noise=NoiseConfig(depolarizing_prob=0.02, calibration_sigma=0.05),
    ),
    # at master seed 6098, sigma = 3 turns the perturbed table of point 4,
    # realization 3 all dark, both in the grid's block and read on its own
    "cal-sigma-all-dark": dict(
        realizations=4, master_seed=6098, noise=NoiseConfig(calibration_sigma=3.0),
        beta_range=(0.1, 0.1, 0.1), gamma_range=(0.1, 0.5, 0.1),
    ),
    # the same all-zero table, now the one reconstruct inverts
    "cal-sigma-all-dark-exact": dict(
        realizations=4, master_seed=6098, noise=NoiseConfig(calibration_sigma=3.0), exact_calibration=True,
        beta_range=(0.1, 0.1, 0.1), gamma_range=(0.1, 0.5, 0.1),
    ),
    # c_01 = (5 - 3 + 2 - 4) / 4 = 0, off the cost's support {00, 11}
    "degenerate-off-support-exact": dict(calibration=CalibrationTable(np.array([5.0, 3, 2, 4])), exact_calibration=True),
    "degenerate-off-support-empirical": dict(calibration=CalibrationTable(np.array([5.0, 3, 2, 4]))),
    # 2 * 4^5 row entries a point: 4 points per block, so the 3x3 grid reads blocks of 4, 4 and 1
    "ring5-partial-chunk": dict(graph=ring(5), calibration=random_table(5, 5), beta_range=(0.1, 0.5, 0.2)),
    "ring6-one-point-chunks": dict(graph=ring(6), calibration=random_table(6, 6), beta_range=(0.1, 0.3, 0.2)),
}


def grid_cells(grid):
    return grid.pops, grid.norm, grid.F_measured, grid.F_ideal


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_single_point_grid_equals_measure_point(case):
    # a grid draws each stream block stacked and equals the stream-block oracle;
    # a one-point grid is measure_point bit for bit, and measure_point at every
    # cell's index is the per-point oracle, NaN for NaN
    overrides = dict(beta_range=(0.1, 0.5, 0.2), gamma_range=(0.3, 1.3, 0.5), realizations=2, shots=3_000)
    cfg = sampled_config(**{**overrides, **GRID_CASES[case]})
    grid = run_scan(cfg)
    assert grid.F_measured.shape == (grid.betas.size, grid.gammas.size, cfg.realizations)
    for got, want in zip(grid_cells(grid), measure_grid_per_block(cfg)):
        np.testing.assert_array_equal(got, want)
    first = replace(cfg, beta_range=(cfg.beta_range[0],) * 2 + (1.0,), gamma_range=(cfg.gamma_range[0],) * 2 + (1.0,))
    one_point = run_scan(first)
    for bi, gi, r in itertools.product(range(grid.betas.size), range(grid.gammas.size), range(cfg.realizations)):
        params = QaoaParams((float(grid.betas[bi]),) * cfg.p, (float(grid.gammas[gi]),) * cfg.p)
        index = bi * grid.gammas.size + gi
        direct = measure_point(cfg, params, r, point_index=index)
        got = (direct.pops, direct.norm, direct.F_measured, direct.F_ideal)
        for value, want in zip(got, measure_point_per_point(cfg, params, r, index)):
            np.testing.assert_array_equal(value, want)
        assert direct.valid == np.isfinite(direct.F_measured)
        if index == 0:
            cell = (one_point.pops[0, 0, r], one_point.norm[0, 0, r], one_point.F_measured[0, 0, r],
                    one_point.F_ideal[0, 0])
            for value, want in zip(got, cell):
                np.testing.assert_array_equal(value, want)
        if case.startswith("cal-sigma-all-dark"):
            assert direct.valid != (index == 4 and r == 3)
    invalid = ~grid.valid
    if case.startswith("cal-sigma-all-dark"):
        assert np.flatnonzero(invalid).tolist() == [4 * 4 + 3]
    elif case == "degenerate-off-support-exact":
        assert invalid.all()
    elif cfg.graph.num_vertices <= 4:  # at n = 6, 3000 shots an empirical c_t can vanish exactly
        assert not invalid.any()
    # K2 and ring-4 grids are one block; from n = 6 on every cell is read as measure_point reads it
    n = cfg.graph.num_vertices
    assert _block_points(1 << n) == {5: 4, 6: 1}[n] if n >= 5 else _block_points(1 << n) >= grid.F_ideal.size


def test_stream_block_sizes_are_pinned():
    # a block's size sets which cells share a generator, so it is part of every
    # sampled output: 2^13 // (2 * 4^n) points, whatever the realization count
    assert [_block_points(1 << n) for n in (1, 2, 3, 4, 5, 6, 7, 12)] == [1024, 256, 64, 16, 4, 1, 1, 1]


def test_cells_do_not_depend_on_the_realization_count():
    # 17 x 16 = 272 K2 points cross the block boundary at 256; realizations 0
    # and 1 draw on the same substreams whatever the count
    cfg = sampled_config(
        shots=500, realizations=2, noise=NoiseConfig(calibration_sigma=0.05),
        beta_range=(0.1, 1.7, 0.1), gamma_range=(0.1, 1.6, 0.1),
    )
    assert cfg.betas().size * cfg.gammas().size == 272 > _block_points(4)
    two, nine = run_scan(cfg), run_scan(replace(cfg, realizations=9))
    for got, want in zip(grid_cells(nine), grid_cells(two)):
        np.testing.assert_array_equal(got[:, :, :2] if got.ndim > 2 else got, want)
    # the block after the boundary draws on its own substreams
    assert not np.array_equal(two.F_measured.flat[256:258], two.F_measured.flat[:2])


def closed_form_stderr(config):
    """``F_ideal`` and sigma_F of every grid point of a noiseless sampled scan with the exact table, both [beta, gamma].

    F = sum_x w_x m_x, where w_x is F of the populations ``reconstruct`` makes
    of the unit means e_x, and a flip record's mean m_x has variance (E[I] +
    Var_p[I]) / shots over its row p.
    """
    diag = diagonal_costs(config.graph)
    weights = reconstruct(config.calibration, np.eye(diag.size)).pops @ diag
    intensities = config.calibration.intensities
    F_ideal, sigma = [], []
    for beta, gamma in itertools.product(config.betas(), config.gammas()):
        F, rows = point_rows(config, QaoaParams((float(beta),) * config.p, (float(gamma),) * config.p))
        flips = rows[diag.size:]
        mean = flips @ intensities
        variance = mean + flips @ intensities**2 - mean**2
        F_ideal.append(F)
        sigma.append(math.sqrt(np.sum(weights**2 * variance) / config.shots))
    shape = (config.betas().size, config.gammas().size)
    return np.reshape(F_ideal, shape), np.reshape(sigma, shape)


def landscape_gate_failures(config, seeds):
    """The checks of the landscape distribution gate that F_measured fails over ``seeds`` master seeds.

    Per cell: mean z against F_ideal within 4 / sqrt(N), and the variance of F
    within a chi^2 bound of the closed form sigma_F^2; between neighbouring
    point indices: the correlation of the errors within 4 / sqrt(N).
    """
    F_ideal, sigma = closed_form_stderr(config)
    F = np.array([run_scan(replace(config, master_seed=seed)).F_measured[..., 0] for seed in seeds])
    z = ((F - F_ideal) / sigma).reshape(len(seeds), -1)
    bound = 4 / math.sqrt(len(seeds))
    lo, hi = chi2_bounds(len(seeds) - 1)
    failures = [f"mean z {m:.3f} at point {i}" for i, m in enumerate(z.mean(axis=0)) if abs(m) > bound]
    failures += [f"var z {v:.3f} at point {i}" for i, v in enumerate(z.var(axis=0, ddof=1)) if not lo <= v <= hi]
    for i in range(z.shape[1] - 1):
        correlation = np.corrcoef(z[:, i], z[:, i + 1])[0, 1]
        if abs(correlation) > bound:
            failures.append(f"correlation {correlation:.3f} of points {i} and {i + 1}")
    return failures


GATE_GRIDS = {
    "k2": dict(calibration=CAL),
    "ring4": dict(graph=ring(4), calibration=random_table(4, 1)),
}


@pytest.mark.parametrize("case", list(GATE_GRIDS))
def test_landscape_distribution_gate(monkeypatch, case):
    # each 3 x 3 grid is one stream block; 200 master seeds with the exact table
    cfg = sampled_config(
        shots=5_000, exact_calibration=True, beta_range=(0.1, 0.5, 0.2), gamma_range=(0.3, 1.3, 0.5),
        **GATE_GRIDS[case],
    )
    assert _block_points(cfg.calibration.intensities.size) >= 9
    seeds = range(200)
    assert landscape_gate_failures(cfg, seeds) == []
    if case != "k2":
        # a reused seed correlates ring-4 neighbours by only about 0.1: their
        # 16-outcome rows differ enough that numpy's binomial draws fall out of
        # step, below what 200 seeds resolve
        return

    # mutation: every point of a block drawn on a generator of the block's one draw seed
    def reused(intensities, rows, num_shots, draws, *args):
        if rows.ndim == 2:
            return read_records(intensities, rows, num_shots, draws, *args)
        return np.stack([read_records(intensities, point, num_shots, draws)[0] for point in rows]), None

    monkeypatch.setattr(experiment, "read_records", reused)
    assert any(failure.startswith("correlation") for failure in landscape_gate_failures(cfg, seeds))


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


def test_realization_stats_equal_the_whole_array_form_bit_for_bit():
    # a NaN-holed stack, along the first axis and along a later one
    rng = np.random.default_rng(4)
    values = rng.normal(size=(4, 4096, 16))
    values[rng.random(values.shape) < 0.3] = math.nan
    values[:, :7] = math.nan  # no valid realization
    values[1:, 7:11] = math.nan  # one valid realization
    want = np.array(realization_stats(values, 0))
    np.testing.assert_array_equal(np.array(_realization_stats(values, 0)).view(np.int64), want.view(np.int64))
    values = rng.normal(size=(6, 11, 3))
    values[rng.random(values.shape) < 0.3] = math.nan
    got, want = np.array(_realization_stats(values, 2)), np.array(realization_stats(values, 2))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_realization_stats_hold_one_realization_at_a_time():
    # the sums take one realization's temporaries at a time, so the peak does not grow with the realization count;
    # the whole-array form holds about three copies of every realization
    rng = np.random.default_rng(5)
    one = 4096 * 4 * 8  # bytes of one realization
    for realizations in (4, 32):
        values = rng.normal(size=(realizations, 4096, 4))
        values[rng.random(values.shape) < 0.1] = math.nan
        tracemalloc.start()
        try:
            _realization_stats(values, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * one, (realizations, peak / one)


def test_optimize_ideal_k2_reaches_minimum():
    result = optimize(ScanConfig(graph=K2, mode="ideal"))
    assert result.best_F == pytest.approx(-1.0, abs=1e-6)
    beta, gamma = result.best_params.betas[0], result.best_params.gammas[0]
    assert math.sin(4 * beta) * math.sin(gamma) == pytest.approx(-1.0, abs=1e-5)
    assert result.evaluations > 861  # coarse grid plus refinement


def test_optimize_simplex_matches():
    result = optimize(ScanConfig(graph=K2, mode="ideal"), strategy="simplex")
    assert result.best_F == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("weight, fatol", [(1.0, 1e-12), (1e6, 1e-12 * 1e6), (0.0, 1e-12)])
def test_simplex_value_tolerance_is_relative_to_the_cost_range(monkeypatch, weight, fatol):
    import scipy.optimize

    options = []
    minimize = scipy.optimize.minimize

    def recording(*args, **kwargs):
        options.append(kwargs["options"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    graph = Graph(2, np.array([[0.0, weight], [weight, 0.0]]))
    cfg = ScanConfig(graph=graph, mode="ideal", beta_range=(0.3, 0.6, 0.3), gamma_range=(1.5, 1.79, 0.29))
    optimize(cfg, strategy="simplex")
    assert options == [{"xatol": 1e-7, "fatol": fatol, "maxfev": 20_000}]


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


@pytest.mark.parametrize("mode", ["ideal", "sampled"])
def test_optimize_computes_the_cost_diagonal_once(monkeypatch, mode):
    calls = []

    def counting(graph):
        calls.append(graph)
        return diagonal_costs(graph)

    monkeypatch.setattr(experiment, "diagonal_costs", counting)
    cfg = sampled_config(mode=mode, beta_range=(0.1, 0.3, 0.1), gamma_range=(0.5, 0.9, 0.2), shots=2_000)
    assert optimize(cfg).evaluations > 9
    assert calls == [K2]


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


GRID_TRACE_CASES = {
    "ideal": dict(mode="ideal"),
    "sampled": dict(),
    "sampled-overrotation": dict(noise=NoiseConfig(overrotation_frac=0.05)),
    "sampled-phase-offset": dict(noise=NoiseConfig(phase_offset=0.1)),
}


@pytest.mark.parametrize("case", list(GRID_TRACE_CASES))
@pytest.mark.parametrize("n", [2, 4, 5, 6])
def test_optimize_grid_equals_a_one_realization_landscape(n, case):
    # the 5 x 5 grid is one partial block at n = 2, blocks of 16 and 9 at n = 4, six blocks of 4 and one of 1
    # at n = 5, and one-point blocks read by gamma column at n = 6; optimize reads one realization of each
    cfg = sampled_config(graph=ring(n) if n > 2 else K2, calibration=random_table(n, n), shots=3_000, realizations=3,
                         beta_range=(0.1, 0.9, 0.2), gamma_range=(0.3, 2.3, 0.5), **GRID_TRACE_CASES[case])
    grid = run_scan(replace(cfg, realizations=1))
    trace = optimize(cfg).trace[: grid.F_ideal.size]
    assert [entry[:2] for entry in trace] == [((b,), (g,)) for b in grid.betas.tolist() for g in grid.gammas.tolist()]
    assert np.array_equal(_bits([value for *_, value in trace]), _bits(grid.F_measured.ravel()))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case", ["ideal", "sampled", "sampled-overrotation"])
@pytest.mark.parametrize("n", [2, 6])
def test_optimize_trials_are_blocks_of_one(monkeypatch, n, case, strategy):
    # trial k past a grid of G points is read as a block of one at point index G + k: its trace row equals
    # measure_point there bit for bit, NaN for NaN, and ideal_cost in ideal mode. Ring-6 grids are one-point blocks.
    import scipy.optimize

    minimize = scipy.optimize.minimize

    def short(fun, x0, **kwargs):  # a shot-noise simplex runs to maxfev; 100 trials are enough here
        return minimize(fun, x0, **{**kwargs, "options": {**kwargs["options"], "maxfev": 100}})

    monkeypatch.setattr(scipy.optimize, "minimize", short)
    cfg = sampled_config(graph=ring(n) if n > 2 else K2, calibration=random_table(n, n), shots=3_000,
                         beta_range=(0.1, 0.5, 0.2), gamma_range=(0.3, 1.3, 0.5), **GRID_TRACE_CASES[case])
    size = cfg.betas().size * cfg.gammas().size
    trials = optimize(cfg, strategy).trace[size:]
    assert len(trials) >= 20
    for k, (betas, gammas, value) in enumerate(trials):
        params = QaoaParams(betas, gammas)
        if cfg.mode == "ideal":
            direct = ideal_cost(cfg.graph, params)
        else:
            direct = measure_point(cfg, params, 0, size + k).F_measured
        assert _bits(value) == _bits(direct), k


@pytest.mark.parametrize("n", range(1, 8))
def test_optimize_grid_equals_the_per_point_walk(n):
    # the walk optimize made before its grid went through run_scan's blocks: ideal traces equal it bit for
    # bit at every n, sampled ones where every block is one point, on the seeds of (grid index, 0)
    rng = np.random.default_rng(2800 + n)
    edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    grid = dict(graph=Graph.from_edges(n, edges), beta_range=(-0.3, 0.5, 0.4), gamma_range=(0.2, 1.4, 0.6))
    configs = [ScanConfig(p=p, **grid) for p in (1, 2)]
    if n >= 6:
        configs.append(sampled_config(calibration=random_table(n, n), shots=3_000, **grid))
    for cfg in configs:
        values = [value for *_, value in optimize(cfg).trace[:9]]
        assert np.array_equal(_bits(values), _bits(optimize_grid_per_point(cfg)))


def darken_rows(monkeypatch, indices):
    """Make experiment's stacked reconstruct calls see an all-zero table at the given grid indices.

    Only a block of several points is darkened: a trial off the grid inverts a stacked table of one row.
    """

    def dark(table, flips):
        if np.ndim(flips) > 1 and len(flips) > 1:
            table = np.array(table)
            table[indices] = 0.0
        return reconstruct(table, flips)

    monkeypatch.setattr(experiment, "reconstruct", dark)


def test_an_invalid_grid_point_is_nan_in_the_trace_and_never_the_start(monkeypatch):
    # the 3 x 3 K2 grid is one block; its argmin and its first point go dark
    cfg = sampled_config(beta_range=(0.1, 0.9, 0.4), gamma_range=(3.7, 5.7, 1.0), shots=3_000)
    clean = [value for *_, value in optimize(cfg).trace[:9]]
    best, second = np.argsort(clean)[:2]
    darken_rows(monkeypatch, [0, best])
    result = optimize(cfg)
    values = [value for *_, value in result.trace[:9]]
    assert np.isnan(values).tolist() == [k in (0, best) for k in range(9)]
    assert np.array_equal(_bits(np.delete(values, [0, best])), _bits(np.delete(clean, [0, best])))
    # the descent starts from the best valid point: its first trial steps beta down
    (beta,), (gamma,), _ = result.trace[second]
    assert result.trace[9][:2] == ((beta - cfg.beta_range[2],), (gamma,))
    assert math.isfinite(result.best_F) and result.best_F <= clean[second]


def test_simplex_best_skips_invalid_evaluations(monkeypatch):
    # an unfiltered min would keep the first entry, the dark grid point, since NaN compares false
    import scipy.optimize

    returned = []

    def two_trials(objective, x0, **kwargs):
        returned.extend(objective(x0 + delta) for delta in (0.0, 0.01))

    monkeypatch.setattr(scipy.optimize, "minimize", two_trials)
    read_block = experiment._read_block

    def second_trial_dark(config, diag, betas, gammas, start, *args):
        if start == 10:  # the second trial, a block of one, records no photon on any calibration row
            config = replace(config, calibration=CalibrationTable(np.array([0.0, 0.0, 0.0, 1e-12])))
        return read_block(config, diag, betas, gammas, start, *args)

    monkeypatch.setattr(experiment, "_read_block", second_trial_dark)
    darken_rows(monkeypatch, [0])
    cfg = sampled_config(beta_range=(0.1, 0.9, 0.4), gamma_range=(3.7, 5.7, 1.0), shots=3_000)
    result = optimize(cfg, "simplex")
    assert result.evaluations == 11 and math.isnan(result.trace[0][2]) and math.isnan(result.trace[10][2])
    assert returned[1] == math.inf
    assert result.best_F == min(value for *_, value in result.trace if not math.isnan(value))


def test_convergence_profile_checkpoints():
    cfg = sampled_config(shots=5_000, realizations=3, checkpoint_every=1000)
    profile = convergence_profile(cfg, POINT)
    np.testing.assert_array_equal(profile.checkpoint_shots, [1000, 2000, 3000, 4000, 5000])
    assert profile.mean_pops.shape == (5, 4)
    assert np.isfinite(profile.mean_norm).all()
    assert np.isfinite(profile.std_norm).all()
    # estimates should be in the right neighborhood even at modest shot counts
    np.testing.assert_allclose(profile.mean_pops[-1], POINT_POPS, atol=0.1)


def test_convergence_final_checkpoint_matches_measure_point(monkeypatch):
    # under every channel, on one split worker and on two: 1024 blocks of 8 records pass the thread gate
    cases = [
        dict(), dict(noise=NoiseConfig(depolarizing_prob=0.05)), dict(exact_calibration=True),
        dict(noise=NoiseConfig(calibration_sigma=0.1)), dict(noise=NoiseConfig(overrotation_frac=0.05)),
        dict(noise=NoiseConfig(phase_offset=0.1)),
    ]
    for case, workers in itertools.product(cases, (1, 2)):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: workers)
        cfg = sampled_config(shots=4_096, realizations=3, checkpoint_every=4, **case)
        assert experiment._split_workers(cfg) == workers
        profile = convergence_profile(cfg, POINT, point_index=3)
        records = [measure_point(cfg, POINT, r, point_index=3) for r in range(3)]
        assert all(rec.valid for rec in records)
        expected_pops = np.mean([rec.pops for rec in records], axis=0)
        np.testing.assert_array_equal(profile.mean_pops[-1], expected_pops)
        assert profile.mean_norm[-1] == np.mean([rec.norm for rec in records])
        pops_stats = realization_stats(np.array([rec.pops for rec in records]), 0)
        np.testing.assert_array_equal([profile.mean_pops[-1], profile.std_pops[-1]], pops_stats)
        norm_stats = realization_stats(np.array([rec.norm for rec in records]), 0)
        np.testing.assert_array_equal([profile.mean_norm[-1], profile.std_norm[-1]], norm_stats)


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
    # at master seed 6098, sigma = 3 floors every intensity of the perturbed
    # table of point 4, realization 3 at zero, both read on its own and in the
    # grid's stream block. The all-dark records are drawn like any others, and
    # the all-zero table, empirical or exact, has c_00 = 0.
    cfg = sampled_config(
        shots=2_000, realizations=4, master_seed=6098, noise=NoiseConfig(calibration_sigma=3.0),
        beta_range=(0.1, 0.1, 0.1), gamma_range=(0.1, 0.5, 0.1),
    )
    for exact in (False, True):
        record = measure_point(replace(cfg, exact_calibration=exact), POINT, realization_index=3, point_index=4)
        assert not record.valid
        assert isinstance(record.error, DegenerateCalibrationError) and "t=00" in str(record.error)
        assert np.isnan(record.F_measured) and np.isnan(record.norm) and np.isnan(record.pops).all()
        assert record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
    # the scan keeps going, with only that realization invalid
    grid = run_scan(cfg)
    invalid = np.zeros(grid.F_measured.shape, dtype=bool)
    invalid[0, 4, 3] = True
    np.testing.assert_array_equal(~grid.valid, invalid)
    # the profile leaves the realization out: it equals the profile of the other three
    profile = convergence_profile(cfg, POINT, point_index=4)
    three = convergence_profile(replace(cfg, realizations=3), POINT, point_index=4)
    assert np.isfinite(profile.mean_pops).all()
    np.testing.assert_array_equal(profile.mean_pops, three.mean_pops)
    np.testing.assert_array_equal(profile.std_norm, three.std_norm)
    # the all-dark realization counts all of its checkpoints as invalid
    assert profile.checkpoints_invalid == 2 and three.checkpoints_invalid == 0


def per_checkpoint_runs(config, params, point_index=0):
    """The checkpoint-by-checkpoint reconstruction that the stacked call replaced, kept as its oracle."""
    size = 1 << config.graph.num_vertices
    num_checkpoints = config.shots // config.checkpoint_every
    pops_runs = np.full((config.realizations, num_checkpoints, size), math.nan)
    norm_runs = np.full((config.realizations, num_checkpoints), math.nan)
    (rows,) = _point_rows(config, diagonal_costs(config.graph), [params.betas], [params.gammas])
    for realization in range(config.realizations):
        intensities, draws, split = point_streams(config, realization, point_index)
        _, checkpoints = read_records(intensities, rows, config.shots, draws, split, config.checkpoint_every)
        for k in range(num_checkpoints):
            try:
                table = CalibrationTable(intensities if config.exact_calibration else checkpoints[:size, k])
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
    np.testing.assert_array_equal([profile.mean_pops, profile.std_pops], realization_stats(pops_runs, 0))
    np.testing.assert_array_equal([profile.mean_norm, profile.std_norm], realization_stats(norm_runs, 0))
    assert profile.checkpoints_invalid == np.count_nonzero(np.isnan(norm_runs))
    if not exact:
        # early checkpoints are degenerate and later ones are not
        assert np.isnan(norm_runs[:, 0]).any() and np.isfinite(norm_runs[:, -1]).all()
        assert 0 < profile.checkpoints_invalid < norm_runs.size


@pytest.mark.parametrize("realizations, point_index", [(3, 0), (4, 4)], ids=["valid", "one-all-dark"])
def test_convergence_reconstructs_once_per_realization(monkeypatch, realizations, point_index):
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
    # one stacked call per realization, all-dark included, not one per checkpoint
    assert len(seen) == realizations
    assert all(means.shape == (1, 20, 4) for _, means in seen)  # a block of one point


def test_non_degenerate_reconstruction_error_propagates(monkeypatch):
    def broken(calibration, means):
        raise ValueError("not a calibration problem")

    monkeypatch.setattr(experiment, "reconstruct", broken)
    cfg = sampled_config(shots=2_000)
    with pytest.raises(ValueError, match="not a calibration problem"):
        measure_point(cfg, POINT)
    with pytest.raises(ValueError, match="not a calibration problem"):
        convergence_profile(cfg, POINT)


WORKER_CASES = {
    "empirical": dict(),
    "exact": dict(exact_calibration=True),
    # at master seed 1 the perturbed table of point 4, realization 3 is all dark (see above)
    "cal-sigma-all-dark": dict(master_seed=1, noise=NoiseConfig(calibration_sigma=3.0)),
    "depolarizing": dict(noise=NoiseConfig(depolarizing_prob=0.05)),
}


@pytest.mark.parametrize("realizations", [1, 3, 4, 5])
@pytest.mark.parametrize("case", list(WORKER_CASES))
def test_convergence_profile_does_not_depend_on_the_worker_count(monkeypatch, case, realizations):
    # 1024 one-shot blocks of 8 records: long enough a split to go to a thread
    cfg = sampled_config(shots=1_024, checkpoint_every=1, realizations=realizations, **WORKER_CASES[case])
    point_index = 4 if case == "cal-sigma-all-dark" else 0
    on_main = {}

    def spying(config, rows, realization, *args, **kwargs):
        on_main[realization] = threading.current_thread() is threading.main_thread()
        return _read_point(config, rows, realization, *args, **kwargs)

    monkeypatch.setattr(experiment, "_read_point", spying)
    profiles = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: workers)
        on_main.clear()
        profiles.append(convergence_profile(cfg, POINT, point_index=point_index))
        # W = min(workers, realizations) workers: the calling thread, worker 0, reads each r with r mod W = 0
        share = min(workers, realizations)
        assert on_main == {r: r % share == 0 for r in range(realizations)}
    for profile in profiles[1:]:
        for field in fields(ConvergenceProfile):
            np.testing.assert_array_equal(getattr(profile, field.name), getattr(profiles[0], field.name))
    pops_runs, norm_runs = per_checkpoint_runs(cfg, POINT, point_index)
    np.testing.assert_array_equal([profiles[0].mean_pops, profiles[0].std_pops], realization_stats(pops_runs, 0))
    np.testing.assert_array_equal([profiles[0].mean_norm, profiles[0].std_norm], realization_stats(norm_runs, 0))
    assert profiles[0].checkpoints_invalid == np.count_nonzero(np.isnan(norm_runs))
    if case == "cal-sigma-all-dark" and realizations == 4:
        assert np.isnan(norm_runs[3]).all() and np.isfinite(norm_runs[:3, -1]).all()


def test_convergence_profile_holds_under_thread_stress(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    cfg = sampled_config(graph=ring(3), calibration=random_table(3, 2), shots=1_024, checkpoint_every=1, realizations=8)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
    serial = convergence_profile(cfg, POINT)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = convergence_profile(cfg, POINT)
    finally:
        sys.setswitchinterval(interval)
    for field in fields(ConvergenceProfile):
        np.testing.assert_array_equal(getattr(threaded, field.name), getattr(serial, field.name))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_convergence_reads_each_realization_once_from_worker_r_mod_w(monkeypatch, workers):
    # one _map_threads call over the workers, with no barrier: worker k reads k, k + W, ... in turn
    maps, reads, lock = [], [], threading.Lock()
    map_threads = experiment._map_threads

    def counting(function, items):
        maps.append(list(items))
        return map_threads(function, items)

    def spying(config, rows, realization, *args, **kwargs):
        with lock:
            reads.append((realization, threading.current_thread()))
        return _read_point(config, rows, realization, *args, **kwargs)

    monkeypatch.setattr(experiment, "_map_threads", counting)
    monkeypatch.setattr(experiment, "_read_point", spying)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: workers)
    convergence_profile(sampled_config(shots=1_024, checkpoint_every=1, realizations=7), POINT)
    assert maps == [list(range(workers))]
    by_thread = {}
    for realization, thread in reads:
        by_thread.setdefault(thread, []).append(realization)
    assert sorted(by_thread.values()) == [list(range(k, 7, workers)) for k in range(workers)]
    assert by_thread[threading.main_thread()] == list(range(0, 7, workers))


@pytest.mark.parametrize("noise", [None, NoiseConfig(depolarizing_prob=0.05)], ids=["noiseless", "depolarizing"])
def test_convergence_workers_share_one_set_of_rows(monkeypatch, noise):
    # the point's exact state, channel populations and rows are made once, not once per worker
    calls = []

    def counting(name):
        function = getattr(experiment, name)
        monkeypatch.setattr(experiment, name, lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs))

    for name in ("_exact_states", "_point_rows", "density_populations"):
        counting(name)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 3)
    cfg = sampled_config(shots=1_024, checkpoint_every=1, realizations=7, noise=noise)
    assert experiment._split_workers(cfg) == 3
    convergence_profile(cfg, POINT)
    assert sorted(calls) == ["_exact_states", "_point_rows"] + (["density_populations"] if noise else [])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_convergence_holds_one_round_of_blocks_at_a_time(monkeypatch, workers):
    # a read that starts sees at most one realization's block arrays on each other worker
    lock, live, seen = threading.Lock(), [0], []

    def released():
        with lock:
            live[0] -= 1

    def tracking(*args, **kwargs):
        with lock:
            seen.append(live[0])
        table, flips = _read_point(*args, **kwargs)
        with lock:
            live[0] += 1
        weakref.finalize(flips.base, released)
        return table, flips

    monkeypatch.setattr(experiment, "_read_point", tracking)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: workers)
    convergence_profile(sampled_config(shots=1_024, checkpoint_every=1, realizations=7), POINT)
    assert len(seen) == 7 and max(seen) <= workers - 1
    assert live[0] == 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failed_split_is_raised_after_every_thread_is_joined(monkeypatch, workers):
    def failing(rng, *args):
        # spawn key (point, realization, 2): realization 2 reads on a worker thread when workers = 3
        if rng.bit_generator.seed_seq.spawn_key[1] == 2:
            raise RuntimeError("split failed")
        return split_totals(rng, *args)

    split_totals = readout.split_totals
    monkeypatch.setattr(readout, "split_totals", failing)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="split failed"):
        convergence_profile(sampled_config(shots=1_024, checkpoint_every=1, realizations=4), POINT)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "graph, shots, workers",
    [(K2, 1_023, 1), (K2, 1_024, 3), (ring(4), 255, 1), (ring(4), 256, 3), (ring(6), 255, 1), (ring(6), 256, 3)],
)
def test_only_long_splits_go_to_threads(monkeypatch, graph, shots, workers):
    # a record must split into 256 blocks, and a realization's 2^(n+1) records into 2^13
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
    cfg = sampled_config(graph=graph, calibration=random_table(graph.num_vertices, 1), shots=shots, checkpoint_every=1,
                         realizations=3)
    assert experiment._split_workers(cfg) == workers
    assert experiment._split_workers(replace(cfg, realizations=1)) == 1
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
    assert experiment._split_workers(cfg) == 1


def kernel_text(values, seps):
    buffer = io.BytesIO()
    write_rows(buffer, np.reshape(values, (-1, len(seps))), seps)
    return buffer.getvalue().decode("ascii")


def per_value_text(values, seps):
    return "".join(map(str.__add__, format_10g(values), itertools.cycle(seps)))


def special_values():
    """Values that stress the kernel: specials, rounding boundaries, powers of ten, ties, and random bit patterns."""
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
    return np.concatenate([specials, boundaries, powers, ties, randoms, patterns, -patterns[:1000]])


def test_format_10g_matches_format_byte_for_byte():
    values = special_values()
    # seven fields a row: chunks start and end mid-row
    values = values[: values.size - values.size % 7]
    seps = ",,|||,\n"
    text = kernel_text(values, seps)
    assert_same_text(re.split("[,|\n]", text)[:-1], format_10g(values))
    assert_same_text(text, per_value_text(values, seps))
    # a table under SMALL values is formatted value by value, to the same bytes
    assert_same_text(kernel_text(values[: SMALL - 1], "\n"), per_value_text(values[: SMALL - 1], "\n"))
    assert kernel_text(np.float64(-0.0), "\n") == "-0\n"


def test_join_equals_the_mask_path_with_every_separator():
    def masked(text, seps):
        # the mask path _join replaced, kept as its oracle
        text[:, _format10g._WIDTH] = seps
        return text[text != 0].tobytes()

    values = special_values()
    for start in range(0, values.size, CHUNK):
        text = _format10g._format_chunk(values[start : start + CHUNK])
        for seps in (b",", b"|", b";", b"\n", b",|;\n"):
            codes = np.resize(np.frombuffer(seps, dtype=np.uint8), len(text))
            assert _format10g._join(text.copy(), codes) == masked(text.copy(), codes)


def assert_same_text(text, expected):
    """``text == expected`` for strings or lists, naming the first difference.

    pytest's own diff of megabyte texts takes minutes.
    """
    if text != expected:
        at = next((i for i, pair in enumerate(zip(text, expected)) if pair[0] != pair[1]), min(len(text), len(expected)))
        near = slice(max(at - 20, 0), at + 20)
        raise AssertionError(f"first difference at {at}: {text[near]!r} != {expected[near]!r}")


def assert_mapped_text(table, seps, columns, expected):
    buffer = io.BytesIO()
    write_rows(buffer, table, seps, columns)
    assert_same_text(buffer.getvalue().decode("ascii"), expected)


@pytest.mark.parametrize(
    "rows, width",
    [
        (3, 7),  # under SMALL fields: value by value
        (1000, 7),  # blocks of 292 rows: block edges mid-table, a short last block
        (40, 300),  # blocks of 6 rows
        (3, CHUNK - 1),
        (3, CHUNK),  # one row a block, one kernel call a row
        (3, CHUNK + 1),  # one row a block; the 1-value remainder joins the kernel call
        (3, CHUNK + CHUNK // 2 - 1),  # the longest piece
        (3, CHUNK + CHUNK // 2),  # two kernel calls a row
        (2, 2 * CHUNK + 5),
        (2, 2 * CHUNK + 7),  # the 7-value remainder of an ideal row joins the second piece
    ],
)
def test_write_rows_column_map_matches_per_value_oracle(rows, width):
    rng = np.random.default_rng(width)
    table = np.resize(rng.permutation(special_values()), (rows, width))
    mirror = np.concatenate((np.arange(width), np.arange(width - 1, width // 2, -1)))
    maps = {
        "identity": np.arange(width),
        "reversed": np.arange(width)[::-1],
        "mirror": mirror,
        "repeats": rng.integers(0, width, 2 * width + 3),
        "one column": np.full(5, width - 1),
    }
    for name, columns in maps.items():
        seps = "".join(rng.choice(list(",|;"), columns.size - 1)) + "\n"
        expected = per_value_text(table[:, columns].ravel(), seps)
        assert_mapped_text(table, seps, columns, expected)
        assert_mapped_text(table, seps, list(columns), expected)
    seps = "".join(rng.choice(list(",|;"), width - 1)) + "\n"
    assert_mapped_text(table, seps, None, per_value_text(table.ravel(), seps))


@pytest.mark.parametrize(
    "width, pieces",
    [
        (CHUNK + 1, [CHUNK + 1]),
        (CHUNK + CHUNK // 2 - 1, [CHUNK + CHUNK // 2 - 1]),
        (CHUNK + CHUNK // 2, [CHUNK, CHUNK // 2]),
        (2 * CHUNK + 7, [CHUNK, CHUNK + 7]),
        (7 + 4 * CHUNK, [CHUNK, CHUNK, CHUNK, CHUNK + 7]),  # a mirrored ideal K14 row
    ],
)
def test_a_short_row_remainder_joins_the_last_piece(monkeypatch, width, pieces):
    # in the kernel calls and in the writes alike
    formatted, written = [], []
    format_chunk = _format10g._format_chunk

    def counting(values):
        formatted.append(values.size)
        return format_chunk(values)

    class Handle:
        def write(self, data):
            written.append(data.count(b",") + data.count(b"\n"))

    monkeypatch.setattr(_format10g, "_format_chunk", counting)
    write_rows(Handle(), np.ones((2, width)), "," * (width - 1) + "\n")
    assert formatted == pieces * 2 and written == pieces * 2


def test_ideal_landscape_formats_each_mirrored_population_once(monkeypatch):
    formatted = []
    format_chunk = _format10g._format_chunk

    def counting(values):
        formatted.append(values.size)
        return format_chunk(values)

    monkeypatch.setattr(_format10g, "_format_chunk", counting)
    rng = np.random.default_rng(14)
    weights = np.triu(rng.uniform(0.5, 1.5, size=(10, 10)), k=1)
    ideal = ScanConfig(graph=Graph(10, weights + weights.T), beta_range=(0.1, 0.5, 0.2), gamma_range=(0.5, 1.3, 0.4))
    grid = run_scan(ideal)
    buffer = io.BytesIO()
    write_landscape_csv(grid, buffer)
    assert sum(formatted) == 9 * (7 + 512)
    assert buffer.getvalue().decode("ascii") == landscape_csv_text(grid)
    # a sampled grid's rows are not palindromes: every field is formatted
    formatted.clear()
    grid = run_scan(sampled_config(graph=ring(4), calibration=random_table(4, 14), realizations=2,
                                   beta_range=(0.1, 0.5, 0.2), gamma_range=(0.5, 1.3, 0.05)))
    buffer = io.BytesIO()
    write_landscape_csv(grid, buffer)
    assert sum(formatted) == grid.pops[..., 0].size * (7 + 16)
    assert buffer.getvalue().decode("ascii") == landscape_csv_text(grid)


def test_mirrored_rows_must_match_bit_for_bit():
    # -0.0 == 0.0, yet they print differently: such a row is not mirrored
    grid = run_scan(ScanConfig(graph=ring(4), beta_range=(0.1, 0.5, 0.2), gamma_range=(0.5, 1.3, 0.05)))
    zeros = grid.pops.copy()
    zeros[0, 0, 0, [3, -4]] = 0.0, -0.0
    # a NaN pair with equal bits mirrors like any other value
    nans = grid.pops.copy()
    nans[1, 2, 0, [5, -6]] = math.nan
    for pops in (zeros, -zeros, nans):
        changed = replace(grid, pops=pops)
        buffer = io.BytesIO()
        write_landscape_csv(changed, buffer)
        assert buffer.getvalue().decode("ascii") == landscape_csv_text(changed)


def test_csv_writers_match_per_value_oracles():
    def same_text(write, oracle, result):
        buffer = io.BytesIO()
        write(result, buffer)
        assert_same_text(buffer.getvalue().decode("ascii"), oracle(result))

    # ideal n = 10: 1024 populations a row, more than one chunk
    rng = np.random.default_rng(12)
    weights = np.triu(rng.uniform(0.5, 1.5, size=(10, 10)), k=1)
    graph = Graph(10, weights + weights.T)
    ideal = ScanConfig(graph=graph, mode="ideal", beta_range=(0.1, 0.3, 0.2), gamma_range=(0.5, 0.9, 0.4))
    same_text(write_landscape_csv, landscape_csv_text, run_scan(ideal))
    # sampled grids with an invalid (NaN) row, through the per-value loop and the kernel
    for betas in ((0.1, 0.1, 0.1), (0.1, 1.0, 0.1)):
        cfg = sampled_config(
            shots=2_000, realizations=4, master_seed=6098, noise=NoiseConfig(calibration_sigma=3.0),
            beta_range=betas, gamma_range=(0.1, 0.5, 0.1),
        )
        grid = run_scan(cfg)
        assert not grid.valid[0, 4, 3]
        same_text(write_landscape_csv, landscape_csv_text, grid)
    # one realization: every standard deviation is NaN; 11 fields a checkpoint
    profile = convergence_profile(sampled_config(shots=20_000, checkpoint_every=200), POINT)
    assert np.isnan(profile.std_pops).all() and 11 * profile.checkpoint_shots.size > SMALL
    same_text(write_convergence_csv, convergence_csv_text, profile)
    # shot counts up to MAX_SHOTS print as integers, through the per-value loop and the kernel
    for every, checkpoints in ((333_333_333, 3), (1_666_666, 600)):
        shots = every * np.arange(1, checkpoints + 1)
        pops = rng.random((checkpoints, 2))
        big = ConvergenceProfile(shots, pops, pops / 3, pops.sum(axis=1), pops[:, 0], 1, 1, 0)
        buffer = io.BytesIO()
        write_convergence_csv(big, buffer)
        assert buffer.getvalue().decode("ascii").splitlines()[-1].startswith(f"{shots[-1]},")
        same_text(write_convergence_csv, convergence_csv_text, big)
    assert 3 * 333_333_333 == MAX_SHOTS
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
    buffer = io.BytesIO()
    write_landscape_csv(grid, buffer)
    lines = buffer.getvalue().decode("ascii").splitlines()
    assert lines[0] == "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "0.1"
    assert fields[2] == "0"
    assert len(fields[7].split("|")) == 4
    value = float(fields[3])
    assert value == pytest.approx(k2_cost(0.1, 0.5), abs=1e-9)


def test_convergence_csv_format():
    cfg = sampled_config(shots=2_000, realizations=2, checkpoint_every=1000)
    profile = convergence_profile(cfg, POINT)
    buffer = io.BytesIO()
    write_convergence_csv(profile, buffer)
    lines = buffer.getvalue().decode("ascii").splitlines()
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
    buffer = io.BytesIO()
    write_trace_csv(OptimizeResult(QaoaParams((0.1, 0.2), (1.0, 2.0)), -1.0, trace), buffer)
    rows = [",".join([str(i), *(format(v, ".10g") for v in (*b, *g, f))]) for i, (b, g, f) in enumerate(trace)]
    assert buffer.getvalue().decode("ascii") == "\n".join(["index,beta0,beta1,gamma0,gamma1,F", *rows]) + "\n"


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
        intensities, draws, split = point_streams(cfg, trial, trial)
        (rows,) = _point_rows(cfg, diag, [params.betas], [params.gammas])
        pops = rows[1 << n]  # flip pattern 0 reads the point's populations as they are
        fed.clear()
        means = np.concatenate(_read_point(cfg, rows, trial, trial))
        assert len(fed) == 1  # every record of the point in one draw
        checkpoints = np.hstack(_read_point(cfg, rows, trial, trial, checkpoints=True)).T
        ansatz = build_ansatz(graph, params)
        circuits = subcircuits(graph, params)
        if stochastic:
            oracle_rows = fed[0]
            oracle = [density_matrix_populations(c, noise) for c in circuits]
            np.testing.assert_allclose(oracle_rows, oracle, rtol=0, atol=1e-12)
            oracle_pops = density_matrix_populations(ansatz, noise)
        else:
            oracle_rows = check_rows([populations(simulate(c, noise)) for c in circuits], 1 << n)
            oracle_pops = populations(simulate(ansatz, noise))
        oracle_means, oracle_checkpoints = read_records(intensities, oracle_rows, cfg.shots, draws, split, 1000)
        np.testing.assert_array_equal(means, oracle_means)
        np.testing.assert_array_equal(checkpoints, oracle_checkpoints)
        assert checkpoints.shape == (2 << n, 2)
        # the point reads the structured state with every channel folded in
        np.testing.assert_allclose(pops, oracle_pops, rtol=0, atol=1e-12)
        if noise is None or not (noise.overrotation_frac or noise.phase_offset or stochastic):
            # F_ideal's state, handed in, makes the same rows bit for bit
            ideal, _ = experiment._exact_states(diag, [params.betas], [params.gammas])
            np.testing.assert_array_equal(_point_rows(cfg, diag, [params.betas], [params.gammas], ideal), [rows])


@pytest.mark.parametrize("deterministic", [False, True], ids=["depolarizing", "with-overrotation+phase"])
@pytest.mark.parametrize("prob", [0.02, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_depolarizing_record_means_match_density_matrix_oracle(n, prob, deterministic):
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
    (rows,) = _point_rows(cfg, diagonal_costs(graph), [params.betas], [params.gammas])
    means, _ = read_records(cal.intensities, rows, cfg.shots, np.random.SeedSequence(7 + n))
    oracle = np.array([density_matrix_populations(c, noise) for c in subcircuits(graph, params)])
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
        return qaoa_amplitudes(*args, **kwargs)

    monkeypatch.setattr(experiment, "qaoa_amplitudes", counting)
    cfg = sampled_config(shots=2_000, noise=noise)
    record = measure_point(cfg, POINT)
    assert len(seen) == calls
    assert record.valid and record.F_ideal == pytest.approx(POINT_F_IDEAL, abs=1e-12)
    seen.clear()
    convergence_profile(replace(cfg, realizations=3), POINT)
    assert len(seen) == calls  # read as measure_point reads: one block of one for every realization
    seen.clear()
    run_scan(replace(cfg, beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.7, 0.2), realizations=3))
    # a 2x2 grid is one chunk, read by all three realizations; its exact states come from the half-register code
    # on the chunk's shared cost phase, so only a deterministic channel's states make one stacked call of all 4 points
    assert len(seen) == calls - 1
    assert all(np.shape(betas) == np.shape(gammas) == (4, 1) for _, betas, gammas, *_ in seen)


def test_depolarizing_chunk_makes_one_density_call(monkeypatch):
    # a chunk's channel-averaged populations come from one stacked call of all its points
    seen = []

    def counting(graph, betas, gammas, noise):
        seen.append((np.shape(betas), np.shape(gammas)))
        return density_populations(graph, betas, gammas, noise)

    monkeypatch.setattr(experiment, "density_populations", counting)
    cfg = sampled_config(p=2, shots=2_000, realizations=3, noise=NoiseConfig(depolarizing_prob=0.02))
    run_scan(replace(cfg, beta_range=(0.1, 0.2, 0.1), gamma_range=(0.5, 0.7, 0.2)))
    assert seen == [((4, 2), (4, 2))]


def test_read_point_draws_on_three_children_of_the_point_seed(monkeypatch):
    seeds = []

    def recording(intensities, rows, shots, draws, split, every):
        seeds.append((draws, split))
        return read_records(intensities, rows, shots, draws, split, every)

    monkeypatch.setattr(experiment, "read_records", recording)
    cfg = sampled_config(noise=NoiseConfig(calibration_sigma=0.1), master_seed=9, exact_calibration=True)
    (rows,) = _point_rows(cfg, diagonal_costs(K2), [POINT.betas], [POINT.gammas])
    table, _ = _read_point(cfg, rows, 2, 5, checkpoints=True)
    children = np.random.SeedSequence(9, spawn_key=(5, 2)).spawn(3)
    for k, got in zip((1, 2), seeds.pop()):
        assert got.spawn_key == (5, 2, k) and got.pool_size == children[k].pool_size
        np.testing.assert_array_equal(got.generate_state(4), children[k].generate_state(4))
    # child 0 perturbs the table exactly as before the draws were batched
    np.testing.assert_array_equal(table[-1], perturb_calibration(CAL.intensities, 0.1, children[0]))
    # without checkpoints there is no split substream, and the same draw substream
    table, _ = _read_point(cfg, rows, 2, 5)
    (draws, split), = seeds
    assert split is None
    np.testing.assert_array_equal(draws.generate_state(4), children[1].generate_state(4))
    np.testing.assert_array_equal(table, perturb_calibration(CAL.intensities, 0.1, children[0]))
    # a block of three points draws its three tables in one normal draw on the same child
    table, _ = _read_point(cfg, np.stack([rows] * 3), 2, 5)
    np.testing.assert_array_equal(table, perturb_calibration(np.tile(CAL.intensities, (3, 1)), 0.1, children[0]))
