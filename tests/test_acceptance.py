"""Acceptance gate: ten end-to-end behavioral checks of the whole package.

Each check prints exactly one ``[criterion NN] PASS/FAIL`` line on the real
stdout (bypassing pytest capture), so a plain ``pytest -v`` run always shows
the per-criterion verdicts. Statistical checks run against frozen seed sets
and are therefore fully deterministic.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nvqaoa import (
    CalibrationTable,
    DegenerateCalibrationError,
    Graph,
    NoiseConfig,
    QaoaParams,
    ScanConfig,
    build_ansatz,
    build_ansatz_native,
    default_calibration,
    diagonal_costs,
    fidelity,
    forward_means,
    ideal_cost,
    landscape_error,
    measure_point,
    populations,
    reconstruct,
    run_scan,
    simulate,
    trajectory_mean_populations,
    walsh_coefficients,
)
from nvqaoa.cli import main as cli_main

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
POINT = QaoaParams.single(0.15 * math.pi, 1.5 * math.pi)


def _emit(capsys, index: int, status: str, text: str) -> None:
    # capsys.disabled() lifts pytest's capture so the verdict always reaches
    # the terminal, not just the report of a failing test
    with capsys.disabled():
        print(f"\n[criterion {index:02d}] {status} {text}", flush=True)


@contextmanager
def criterion(capsys, index: int, title: str):
    """Print one pass/fail line for the enclosed checks, then re-raise failures."""
    info: dict = {}
    try:
        yield info
    except BaseException as exc:
        summary = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        _emit(capsys, index, "FAIL", f"{title}: {summary}")
        raise
    detail = info.get("detail")
    _emit(capsys, index, "PASS", f"{title}{f' ({detail})' if detail else ''}")


def test_criterion_01_ideal_grid_matches_closed_form(capsys):
    with criterion(capsys, 1, "ideal K2 scan matches the closed-form landscape within 1e-9") as info:
        config = ScanConfig(K2)  # default grid: beta 0.1pi:0.6pi:0.025pi, gamma 0.1pi:2.1pi:0.05pi
        started = time.perf_counter()
        grid = run_scan(config)
        elapsed = time.perf_counter() - started
        assert grid.F_measured.shape == (21, 41, 1), f"expected a 21 x 41 grid, got {grid.F_measured.shape}"
        beta, gamma = np.meshgrid(grid.betas, grid.gammas, indexing="ij")
        closed = -0.5 + 0.5 * np.sin(4 * beta) * np.sin(gamma)
        worst = float(np.abs(grid.F_measured[:, :, 0] - closed).max())
        assert worst <= 1e-9, f"worst closed-form deviation {worst:.3e} exceeds 1e-9"
        assert elapsed < 5.0, f"single-threaded scan took {elapsed:.2f} s (budget 5 s)"
        info["detail"] = f"861 points, worst deviation {worst:.2e}, {elapsed:.2f} s"


def test_criterion_02_landscape_extrema(capsys):
    with criterion(capsys, 2, "ideal F reaches -1 at the extrema and -1/2 on the nodal lines") as info:
        worst_min = 0.0
        for beta, gamma in [
            (math.pi / 8, 1.5 * math.pi),  # sin(4b) = +1, sin(g) = -1
            (3 * math.pi / 8, 0.5 * math.pi),  # sin(4b) = -1, sin(g) = +1
        ]:
            value = ideal_cost(K2, QaoaParams.single(beta, gamma))
            worst_min = max(worst_min, abs(value + 1.0))
        assert worst_min <= 1e-9, f"minimum deviates from -1 by {worst_min:.3e}"

        worst_flat = 0.0
        for gamma in (0.0, math.pi, 2 * math.pi):
            for beta in (0.13, 0.71, 1.29):
                value = ideal_cost(K2, QaoaParams.single(beta, gamma))
                worst_flat = max(worst_flat, abs(value + 0.5))
        for beta in (0.0, math.pi / 4, math.pi / 2):
            for gamma in (0.31, 1.17, 2.93):
                value = ideal_cost(K2, QaoaParams.single(beta, gamma))
                worst_flat = max(worst_flat, abs(value + 0.5))
        assert worst_flat <= 1e-9, f"nodal-line value deviates from -1/2 by {worst_flat:.3e}"
        info["detail"] = f"extrema off by {worst_min:.2e}, nodal lines by {worst_flat:.2e}"


def test_criterion_03_reconstruction_round_trip(capsys):
    with criterion(capsys, 3, "1000 random reconstruction round trips recover populations to 1e-12") as info:
        rng = np.random.default_rng(321)
        worst = 0.0
        smallest_c = math.inf
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            size = 1 << n
            while True:
                cal = CalibrationTable(rng.uniform(0.2, 8.0, size))
                coeffs = walsh_coefficients(cal).c
                if np.min(np.abs(coeffs)) > 1e-6:
                    break
            smallest_c = min(smallest_c, float(np.min(np.abs(coeffs))))
            pops = rng.dirichlet(np.ones(size))
            estimate = reconstruct(cal, forward_means(cal, pops))
            worst = max(worst, float(np.max(np.abs(estimate.pops - pops))))
        assert worst <= 1e-12, f"worst round-trip error {worst:.3e} exceeds 1e-12"

        degenerate = CalibrationTable([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(DegenerateCalibrationError) as excinfo:
            reconstruct(degenerate, np.array([4.0, 3.0, 2.0, 1.0]))
        assert excinfo.value.t_label == "11", f"error named t={excinfo.value.t_label}, expected 11"
        info["detail"] = f"worst error {worst:.2e}, min |c_t| seen {smallest_c:.2e}, I=(4,3,2,1) raises at t=11"


def test_criterion_04_two_qubit_linear_system_oracle(capsys):
    with criterion(capsys, 4, "two-qubit reconstruction agrees with a direct 4x4 linear solve to 1e-10") as info:
        rng = np.random.default_rng(654)
        worst = 0.0
        for _ in range(100):
            while True:
                cal = CalibrationTable(rng.uniform(0.2, 8.0, 4))
                if np.min(np.abs(walsh_coefficients(cal).c)) > 1e-3:
                    break
            pops = rng.dirichlet(np.ones(4))
            # forward map built from scratch: mean under flip pattern x is sum_s p_s I_{s^x}
            system = np.empty((4, 4))
            for x in range(4):
                for s in range(4):
                    system[x, s] = cal.intensities[s ^ x]
            means = system @ pops
            direct = np.linalg.solve(system, means)
            estimate = reconstruct(cal, means)
            worst = max(worst, float(np.max(np.abs(estimate.pops - direct))))
        assert worst <= 1e-10, f"worst disagreement {worst:.3e} exceeds 1e-10"
        info["detail"] = f"100 instances, worst disagreement {worst:.2e}"


def test_criterion_05_native_decomposition_equivalence(capsys):
    with criterion(capsys, 5, "native-gate ansatz matches the direct ansatz to fidelity 1 - 1e-12") as info:
        rng = np.random.default_rng(987)
        worst = 1.0
        for graph in (K2, K3):
            for _ in range(100):
                params = QaoaParams.single(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                direct = simulate(build_ansatz(graph, params))
                native = simulate(build_ansatz_native(graph, params))
                worst = min(worst, fidelity(direct, native))
        assert worst >= 1.0 - 1e-12, f"worst fidelity {worst!r} below 1 - 1e-12"
        info["detail"] = f"200 random parameter draws, worst fidelity 1 - {1.0 - worst:.2e}"


SHOT_LADDER = (1_000, 10_000, 100_000)
CONVERGENCE_SEEDS = tuple(range(20))


def _sampled_k2(shots: int, seed: int) -> ScanConfig:
    return ScanConfig(
        K2,
        shots=shots,
        realizations=1,
        mode="sampled",
        calibration=default_calibration(),
        master_seed=seed,
    )


def test_criterion_06_shot_convergence(capsys):
    with criterion(capsys, 6, "sampled K2 point is accurate at 3e5 shots and tightens with shot count") as info:
        f_ideal = ideal_cost(K2, POINT)
        worst_diff = 0.0
        norms = []
        for seed in CONVERGENCE_SEEDS:
            record = measure_point(_sampled_k2(300_000, seed), POINT)
            assert record.valid, f"seed {seed} produced an invalid point"
            worst_diff = max(worst_diff, abs(record.F_measured - f_ideal))
            norms.append(record.norm)
        assert worst_diff <= 0.02, f"|F_measured - F_ideal| reached {worst_diff:.4f} (cap 0.02)"
        assert 0.97 <= min(norms) and max(norms) <= 1.03, (
            f"norm range [{min(norms):.4f}, {max(norms):.4f}] leaves [0.97, 1.03]"
        )

        stds = []
        for shots in SHOT_LADDER:
            values = [measure_point(_sampled_k2(shots, seed), POINT).F_measured for seed in CONVERGENCE_SEEDS]
            stds.append(float(np.std(values, ddof=1)))
        m = len(CONVERGENCE_SEEDS)
        for lo, hi in ((0, 1), (1, 2)):
            drop = stds[lo] - stds[hi]
            # standard error of a sample std is about s / sqrt(2(m-1))
            gate = 3.0 * math.sqrt((stds[lo] ** 2 + stds[hi] ** 2) / (2 * (m - 1)))
            assert drop > gate, (
                f"std {stds[lo]:.4f} -> {stds[hi]:.4f} over {SHOT_LADDER[lo]} -> {SHOT_LADDER[hi]} shots "
                f"is not a 3-sigma decrease (needs > {gate:.4f})"
            )
        info["detail"] = (
            f"worst |dF| {worst_diff:.4f}, norms [{min(norms):.3f}, {max(norms):.3f}], "
            f"std ladder {stds[0]:.4f} > {stds[1]:.4f} > {stds[2]:.4f} at 3 sigma"
        )


def test_criterion_07_depolarizing_fixed_point(capsys):
    with criterion(capsys, 7, "full depolarizing drives K2 to uniform populations and F = -1/2") as info:
        noise = NoiseConfig(depolarizing_prob=1.0)
        circuit = build_ansatz(K2, POINT)
        pops = trajectory_mean_populations(circuit, noise, num_trajectories=20_000, seed=42)
        worst = float(np.max(np.abs(pops - 0.25)))
        assert worst <= 0.02, f"population deviates from 1/4 by {worst:.4f} (cap 0.02)"
        f_noisy = float(pops @ diagonal_costs(K2))
        assert abs(f_noisy + 0.5) <= 0.03, f"F = {f_noisy:.4f} is not within 0.03 of -1/2"
        info["detail"] = f"20000 trajectories, max |p - 1/4| = {worst:.4f}, F = {f_noisy:.4f}"


def test_criterion_08_brute_force_consistency(capsys):
    with criterion(capsys, 8, "ansatz expectation equals the population-weighted enumerated costs") as info:
        rng = np.random.default_rng(246)
        worst = 0.0
        graphs = 0
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            # every 0/1 weight assignment on up to 4 vertices, not just a sample
            for mask in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
                graph = Graph.from_edges(n, edges)
                graphs += 1
                for _ in range(3):
                    params = QaoaParams.single(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                    state = simulate(build_ansatz(graph, params))
                    via_operator = ideal_cost(graph, params)
                    probs = populations(state)
                    by_hand = 0.0
                    for index, probability in enumerate(probs):
                        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
                        cost = 0.0
                        for i, j in pairs:
                            if graph.adjacency[i, j]:
                                cost -= graph.adjacency[i, j] * (bits[i] + bits[j] - 2 * bits[i] * bits[j])
                        by_hand += probability * cost
                    worst = max(worst, abs(via_operator - by_hand))
        assert worst <= 1e-10, f"worst route disagreement {worst:.3e} exceeds 1e-10"
        info["detail"] = f"{graphs} graphs x 3 parameter draws, worst disagreement {worst:.2e}"


EPSILON_SWEEP = (0.0, 0.05, 0.1)
SWEEP_SEEDS = tuple(range(10))
SUBGRID_BETA = (0.1 * math.pi, 0.6 * math.pi, 0.1 * math.pi)
SUBGRID_GAMMA = (0.1 * math.pi, 2.1 * math.pi, 0.25 * math.pi)


def test_criterion_09_landscape_error_behavior(capsys):
    with criterion(capsys, 9, "landscape error: 0 ideal, <= 0.01 sampled, increasing with overrotation") as info:
        ideal = landscape_error(run_scan(ScanConfig(K2)))
        assert ideal == 0.0, f"ideal-mode landscape error is {ideal!r}, expected exactly 0"

        sampled = landscape_error(
            run_scan(
                ScanConfig(
                    K2,
                    shots=300_000,
                    realizations=1,
                    mode="sampled",
                    calibration=default_calibration(),
                )
            )
        )
        assert sampled <= 0.01, f"noiseless sampled landscape error {sampled:.5f} exceeds 0.01"

        averages = []
        for epsilon in EPSILON_SWEEP:
            noise = NoiseConfig(overrotation_frac=epsilon) if epsilon else None
            errors = []
            for seed in SWEEP_SEEDS:
                config = ScanConfig(
                    K2,
                    beta_range=SUBGRID_BETA,
                    gamma_range=SUBGRID_GAMMA,
                    shots=300_000,
                    realizations=1,
                    mode="sampled",
                    noise=noise,
                    calibration=default_calibration(),
                    master_seed=seed,
                )
                errors.append(landscape_error(run_scan(config)))
            averages.append(float(np.mean(errors)))
        assert averages[0] < averages[1] < averages[2], (
            f"seed-averaged landscape error {averages} is not strictly increasing with overrotation"
        )
        info["detail"] = (
            f"ideal 0, sampled {sampled:.5f}, overrotation sweep "
            + " < ".join(f"{value:.5f}" for value in averages)
        )


def test_criterion_10_manifest_rerun_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "rerunning a manifest reproduces CSV output byte for byte across thread counts") as info:
        graph_file = tmp_path / "k2.txt"
        graph_file.write_text("n 2\n0 1\n")
        cal_file = tmp_path / "cal.txt"
        cal_file.write_text("00 5\n01 3\n10 2\n11 1\n")

        first = tmp_path / "first"
        argv = [
            "landscape", "--graph", str(graph_file), "--mode", "sampled", "--cal", str(cal_file),
            "--beta-range", "0.1pi:0.3pi:0.1pi", "--gamma-range", "0.5pi:1.5pi:0.5pi",
            "--shots", "3000", "--realizations", "2", "--threads", "1", "--out", str(first),
        ]
        assert cli_main(argv) == 0
        replay = tmp_path / "replay"
        assert cli_main([
            "rerun", "--manifest", str(first / "manifest.txt"),
            "--out", str(replay), "--threads", "4",
        ]) == 0
        landscape_bytes = (first / "landscape.csv").read_bytes()
        assert landscape_bytes == (replay / "landscape.csv").read_bytes(), (
            "landscape.csv changed between a run and its threaded manifest rerun"
        )

        conv_first = tmp_path / "conv"
        assert cli_main([
            "convergence", "--graph", str(graph_file), "--cal", str(cal_file),
            "--beta", "0.15pi", "--gamma", "1.5pi", "--shots", "4000",
            "--realizations", "2", "--out", str(conv_first),
        ]) == 0
        conv_replay = tmp_path / "conv_replay"
        assert cli_main([
            "rerun", "--manifest", str(conv_first / "manifest.txt"), "--out", str(conv_replay),
        ]) == 0
        assert (conv_first / "convergence.csv").read_bytes() == (conv_replay / "convergence.csv").read_bytes(), (
            "convergence.csv changed between a run and its manifest rerun"
        )
        manifest = json.loads((first / "manifest.txt").read_text())
        info["detail"] = (
            f"landscape ({len(landscape_bytes)} bytes) and convergence CSVs identical; "
            f"config echoed with master_seed {manifest['config']['master_seed']}"
        )
