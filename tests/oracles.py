"""Slow reference implementations shared by the test modules.

``density_matrix_populations`` is the exact depolarizing channel on dense
density matrices (small n only), written out independently of
``noise.density_populations``. ``calibration_circuits`` builds the gate-level
basis preparations a scan reads as delta rows, and ``draw_shot_counts`` reads
populations one shot at a time, the slow path of ``readout.read_records``.
``measure_point_per_point`` is one sampled point read on its own: its state
simulated, its rows built and checked, its records drawn with one multinomial
and one Poisson call, and reconstructed, for that point alone, on seeds
spawned from the point's SeedSequence (``point_streams``). It is the slow path of
``experiment.measure_point``, which reads a stream block of one point.
``measure_grid_per_block`` is the slow path of ``experiment.run_scan``: it
simulates and builds every point's rows on its own, draws each stream block's
records stacked on the block's seeds, and reconstructs point by point.
``optimize_grid_per_point`` is the per-point grid walk ``experiment.optimize``
made before it read its grid through ``run_scan``'s blocks: one exact state or
one ``measure_point_per_point`` read at each grid index in turn. Their
depolarizing state is a one-row ``density_populations`` call, so there they
are not independent of the kernel; ``density_matrix_populations`` holds the
kernel to the channel.
``full_loop_amplitudes`` is ``circuits.qaoa_amplitudes``' loop over all 2^n
amplitudes, the slow path of its half-register path for mirror-symmetric cost
diagonals. ``p1_cost`` is the closed-form expected cost of a one-layer ansatz
state, built from per-edge correlators that share no code with the simulator.
``k2_cost`` is its two-vertex case. ``realization_stats`` is
``experiment._realization_stats`` in its whole-array form, which holds every
realization's temporaries at once. ``parity_signs`` is the dense character
table that ``reconstruction.fwht`` applies in place.
``landscape_csv_text``, ``convergence_csv_text`` and ``trace_csv_text`` are the
per-value CSV writers, the slow path of the ``experiment.write_*_csv`` writers:
every float is ``format(v, ".10g")`` and every integer column ``str(int)``.
"""

import math

import numpy as np

from nvqaoa._bitstrings import all_bitstrings
from nvqaoa.circuits import Circuit, QaoaParams, append_flips, simulate_qaoa
from nvqaoa.noise import _angle_stacks
from nvqaoa.experiment import CSV_HEADER
from nvqaoa.graph_problem import Graph, diagonal_costs
from nvqaoa.noise import density_populations, perturb_calibration
from nvqaoa.readout import check_rows
from nvqaoa.reconstruction import DegenerateCalibrationError, reconstruct
from nvqaoa.statevector import ROTATION_KINDS, Gate, butterfly, gate_matrix, populations, rz_matrix

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def calibration_circuits(num_qubits):
    """One preparation circuit per basis state, in index order: X gates writing that bit pattern."""
    empty = Circuit(num_qubits, ())
    return [append_flips(empty, pattern) for pattern in all_bitstrings(num_qubits)]


def draw_shot_counts(rng, intensities, pops, num_shots):
    """Photon count of every shot: an inverse-CDF basis state on ``pops``, then a Poisson count."""
    cdf = np.cumsum(pops)
    cdf[-1] = 1.0
    outcomes = np.searchsorted(cdf, rng.random(num_shots), side="right")
    return rng.poisson(intensities[outcomes])


def embed(matrix, targets, n):
    """The 2^n x 2^n operator acting as ``matrix`` on ``targets`` (qubit 0 is the most significant bit)."""
    dim = 1 << n

    def bits(s, qubits):
        return sum(((s >> (n - 1 - q)) & 1) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))

    others = [q for q in range(n) if q not in targets]
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if bits(i, others) == bits(j, others):
                full[i, j] = matrix[bits(i, targets), bits(j, targets)]
    return full


def density_matrix_populations(circuit, config):
    """Exact channel average: after each gate, rho -> (1-p) rho + (p/3) sum_P P rho P on each touched qubit."""
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    prob = config.depolarizing_prob

    def conjugate(rho, matrix, targets):
        full = embed(matrix, targets, n)
        return full @ rho @ full.conj().T

    for gate in circuit.gates:
        if gate.kind in ROTATION_KINDS:
            gate = Gate(gate.kind, gate.targets, gate.angle * (1.0 + config.overrotation_frac))
        rho = conjugate(rho, gate_matrix(gate), gate.targets)
        for q in gate.targets:
            flipped = sum(conjugate(rho, pauli, (q,)) for pauli in PAULIS)
            rho = (1.0 - prob) * rho + (prob / 3.0) * flipped
        if len(gate.targets) == 2:
            rho = conjugate(rho, rz_matrix(config.phase_offset), (0,))
    return rho.diagonal().real


def point_rows(config, params):
    """``F_ideal`` and the checked record rows of one point: 2^n basis preparations, then 2^n flip patterns."""
    diag = diagonal_costs(config.graph)
    size = diag.size
    noise = config.noise
    F_ideal = float(np.dot(populations(simulate_qaoa(diag, params)), diag))
    if noise is not None and noise.is_stochastic:
        (pops,) = density_populations(config.graph, [params.betas], [params.gammas], noise)
    else:
        pops = populations(simulate_qaoa(diag, params, noise, len(config.graph.edges())))
    idx = np.arange(size)
    rows = np.concatenate([np.eye(size), pops[idx ^ idx[:, None]]])
    undo = 2.0 * noise.depolarizing_prob / 3.0 if noise is not None else 0.0
    if undo:
        for bit in (1 << np.arange(size.bit_length() - 1)).tolist():
            pairs = rows.reshape(-1, 2, bit, size)
            pairs[:, 1] = (1.0 - undo) * pairs[:, 1] + undo * pairs[:, 0]
    return F_ideal, check_rows(rows, size)


def invert_means(config, intensities, means):
    """``(pops, norm, F_measured)`` of one point's record means, NaN for a degenerate table."""
    diag = diagonal_costs(config.graph)
    size = diag.size
    try:
        pops, correlators = reconstruct(intensities if config.exact_calibration else means[:size], means[size:])
    except DegenerateCalibrationError:
        return np.full(size, math.nan), math.nan, math.nan
    return pops, float(correlators[0]), float(np.dot(pops, diag))


def point_streams(config, realization_index=0, point_index=0):
    """True, possibly perturbed, intensities of one point, and its draw and split seeds, spawned from its SeedSequence."""
    perturb, draws, split = np.random.SeedSequence(config.master_seed, spawn_key=(point_index, realization_index)).spawn(3)
    intensities = config.calibration.intensities
    if config.noise is not None and config.noise.calibration_sigma > 0.0:
        intensities = perturb_calibration(intensities, config.noise.calibration_sigma, perturb)
    return intensities, draws, split


def measure_point_per_point(config, params, realization_index=0, point_index=0):
    """``(pops, norm, F_measured, F_ideal)`` of one sampled point read on its own, NaN for a degenerate table."""
    F_ideal, rows = point_rows(config, params)
    intensities, draws, _ = point_streams(config, realization_index, point_index)
    rng = np.random.default_rng(draws)
    occupations = rng.multinomial(config.shots, rows)
    means = rng.poisson(occupations @ intensities) / config.shots
    return (*invert_means(config, intensities, means), F_ideal)


def measure_grid_per_block(config):
    """``(pops, norm, F_measured, F_ideal)`` arrays of a sampled grid, each stream block drawn stacked.

    A stream block is 2^13 // (2 * 4^n) consecutive grid points, at least one.
    Realization r of the block whose first grid index is i draws on the
    children of SeedSequence(master_seed, spawn_key=(i, r)): one normal draw of
    shape (points, 2^n) perturbs the tables on child 0, and one multinomial
    over all the block's rows and one Poisson over all its records draw on
    child 1.
    """
    betas, gammas, size = config.betas(), config.gammas(), 1 << config.graph.num_vertices
    num_points, realizations = betas.size * gammas.size, config.realizations
    pops, norm = np.empty((num_points, realizations, size)), np.empty((num_points, realizations))
    F_measured, F_ideal = np.empty((num_points, realizations)), np.empty(num_points)
    block = max(1, (1 << 13) // (2 * size * size))
    for first in range(0, num_points, block):
        indices = range(first, min(first + block, num_points))
        made = [
            point_rows(config, QaoaParams((float(betas[i // gammas.size]),) * config.p,
                                          (float(gammas[i % gammas.size]),) * config.p))
            for i in indices
        ]
        F_ideal[indices] = [F for F, _ in made]
        rows = np.stack([rows for _, rows in made])
        for r in range(realizations):
            perturb, draws, _ = np.random.SeedSequence(config.master_seed, spawn_key=(first, r)).spawn(3)
            intensities = np.broadcast_to(config.calibration.intensities, (len(indices), size))
            if config.noise is not None and config.noise.calibration_sigma > 0.0:
                intensities = perturb_calibration(intensities, config.noise.calibration_sigma, perturb)
            rng = np.random.default_rng(draws)
            occupations = rng.multinomial(config.shots, rows.reshape(-1, size)).reshape(rows.shape)
            totals = rng.poisson(np.array([point @ table for point, table in zip(occupations, intensities)]))
            for j, i in enumerate(indices):
                means = totals[j] / config.shots
                pops[i, r], norm[i, r], F_measured[i, r] = invert_means(config, intensities[j], means)
    shape = (betas.size, gammas.size, realizations)
    return pops.reshape(shape + (size,)), norm.reshape(shape), F_measured.reshape(shape), F_ideal.reshape(shape[:2])


def optimize_grid_per_point(config):
    """``optimize``'s grid values walked point by point in (beta, gamma) order, NaN for a degenerate table.

    Ideal mode scores each point's own ``simulate_qaoa`` state; sampled mode
    reads grid index k as a point of its own, realization 0 on the seeds of
    (k, 0).
    """
    diag, p = diagonal_costs(config.graph), config.p
    values = []
    for k, (beta, gamma) in enumerate((b, g) for b in config.betas() for g in config.gammas()):
        params = QaoaParams((float(beta),) * p, (float(gamma),) * p)
        if config.mode == "ideal":
            values.append(float(np.dot(populations(simulate_qaoa(diag, params)), diag)))
        else:
            values.append(measure_point_per_point(config, params, 0, k)[2])
    return values


def full_loop_amplitudes(costs, betas, gammas, noise=None, num_edges=None):
    """``qaoa_amplitudes`` with every layer applied to all 2^n amplitudes of each row."""
    costs = np.asarray(costs, dtype=float)
    size = costs.size
    if costs.ndim != 1 or size < 2 or size & (size - 1):
        raise ValueError(f"cost diagonal must have a power-of-two length >= 2, got shape {costs.shape}")
    betas, gammas = _angle_stacks(betas, gammas)
    scale, offset = 1.0, 0.0
    if noise is not None:
        if noise.is_stochastic:
            raise ValueError("qaoa_amplitudes takes only deterministic noise; depolarizing needs density_populations")
        if noise.phase_offset != 0.0 and num_edges is None:
            raise ValueError("a phase offset needs num_edges, the number of two-qubit gates per layer")
        scale, offset = 1.0 + noise.overrotation_frac, noise.phase_offset * (num_edges or 0)
    # RZ on qubit 0, the most significant bit of the index: one phase per half
    offset_phases = np.diagonal(rz_matrix(offset))[:, None]
    n = size.bit_length() - 1
    amps = np.full((betas.shape[0], size), 2.0 ** (-0.5 * n), dtype=complex)
    for beta, gamma in zip((scale * betas).T, (scale * gammas).T):
        amps *= np.exp(-1j * gamma[:, None] * costs)
        if offset:
            halves = amps.reshape(-1, 2, size >> 1)
            halves *= offset_phases
        beta = beta[:, None, None]  # one RX(2 beta) per row, shaped as butterfly takes it
        cos, minus_i_sin = np.cos(beta), -1j * np.sin(beta)
        butterfly(amps, ((cos, minus_i_sin), (minus_i_sin, cos)), range(n))
    return amps


def p1_edge_correlators(graph, beta, gamma):
    """<Z_u Z_v> of every edge, in ``graph.edges()`` order, in the state e^(-i beta sum X) e^(-i gamma C)|+>^n.

    With C = sum w (Z_u Z_v - 1) / 2 the couplings are J = w / 2, and
    <Z_u Z_v> = 1/2 sin 4 beta sin 2 gamma J_uv (prod_k cos 2 gamma J_uk + prod_k cos 2 gamma J_vk)
    - 1/2 sin^2 2 beta (prod_k cos 2 gamma (J_uk + J_vk) - prod_k cos 2 gamma (J_uk - J_vk)),
    each product over k other than u and v (Wang, Hadfield, Jiang & Rieffel,
    PRA 97, 022304 (2018); Ozaeta, van Dam & McMahon, Quantum Sci. Technol. 7,
    045036 (2022)).
    """
    J = graph.adjacency / 2.0
    correlators = []
    for u, v, _ in graph.edges():
        others = [k for k in range(graph.num_vertices) if k not in (u, v)]
        Ju, Jv = J[u, others], J[v, others]
        field = math.sin(4.0 * beta) * math.sin(2.0 * gamma * J[u, v])
        field *= np.prod(np.cos(2.0 * gamma * Ju)) + np.prod(np.cos(2.0 * gamma * Jv))
        triangles = np.prod(np.cos(2.0 * gamma * (Ju + Jv))) - np.prod(np.cos(2.0 * gamma * (Ju - Jv)))
        correlators.append(0.5 * field - 0.5 * math.sin(2.0 * beta) ** 2 * triangles)
    return np.array(correlators)


def p1_cost(graph, beta, gamma):
    """Expected cost sum w (<Z_u Z_v> - 1) / 2 of the one-layer ansatz state at (beta, gamma)."""
    weights = np.array([w for _, _, w in graph.edges()])
    return float(np.sum(weights * (p1_edge_correlators(graph, beta, gamma) - 1.0)) / 2.0)


def k2_cost(beta, gamma):
    """``p1_cost`` of the unit two-vertex graph, which reduces to -1/2 + 1/2 sin 4 beta sin gamma."""
    return p1_cost(Graph.complete(2), beta, gamma)


def realization_stats(values, axis):
    """Mean and ddof=1 deviation over the finite entries along ``axis``, every realization's temporaries at once."""
    runs = np.moveaxis(values, axis, 0)
    valid = np.isfinite(runs)
    count = valid.sum(axis=0)
    mean = np.full(runs.shape[1:], math.nan)
    std = np.full(runs.shape[1:], math.nan)
    np.divide(sum(np.where(valid, runs, 0.0)), count, out=mean, where=count > 0)
    deviations = np.where(valid, runs - mean, 0.0)
    np.divide(sum(deviations * deviations), count - 1, out=std, where=count > 1)
    return mean, np.sqrt(std)


def parity_signs(width):
    """Matrix S with S[t, s] = (-1)^(t.s), the bitwise-AND parity character table."""
    idx = np.arange(1 << width)
    ands = idx[:, None] & idx[None, :]
    # popcount via uint8 view; widths stay tiny so this is exact
    pop = np.unpackbits(ands.astype(">u4").view(np.uint8).reshape(ands.shape + (4,)), axis=-1).sum(axis=-1)
    return np.where(pop % 2 == 0, 1.0, -1.0)


def format_10g(values):
    """Each value as ``format(v, ".10g")``."""
    return [format(v, ".10g") for v in np.ravel(values).tolist()]


def landscape_csv_text(grid):
    shape = grid.F_measured.shape
    beta, gamma, realization = np.meshgrid(grid.betas, grid.gammas, np.arange(shape[2]), indexing="ij")
    F_ideal = np.broadcast_to(grid.F_ideal[:, :, None], shape)
    abs_diff = np.abs(grid.F_measured - F_ideal)
    columns = [format_10g(beta), format_10g(gamma), realization.ravel().astype(str)]
    columns += [format_10g(values) for values in (grid.F_measured, F_ideal, abs_diff, grid.norm)]
    columns.append(["|".join(format_10g(pops)) for pops in grid.pops.reshape(-1, grid.pops.shape[-1])])
    rows = (",".join(fields) for fields in zip(*columns))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def convergence_csv_text(profile):
    labels = all_bitstrings(profile.num_qubits)
    header = ["shots"] + [f"p{s}" for s in labels] + ["norm"] + [f"std_p{s}" for s in labels] + ["std_norm"]
    lines = [",".join(header)]
    for k, shots in enumerate(profile.checkpoint_shots):
        row = [str(int(shots))]
        row += format_10g(profile.mean_pops[k]) + format_10g(profile.mean_norm[k])
        row += format_10g(profile.std_pops[k]) + format_10g(profile.std_norm[k])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trace_csv_text(result):
    p = result.best_params.p
    header = ["index", *(f"beta{k}" for k in range(p)), *(f"gamma{k}" for k in range(p)), "F"]
    lines = [",".join(header)]
    for i, (betas, gammas, value) in enumerate(result.trace):
        lines.append(",".join([str(i), *format_10g([*betas, *gammas, value])]))
    return "\n".join(lines) + "\n"
