"""Desk-scale simulator for variational MAX-CUT experiments.

Exact state-vector circuits, fluorescence-style non-projective readout with
Poisson shot noise, Walsh-Hadamard population reconstruction, hardware-style
noise channels, and landscape/optimization drivers with a reproducible
seeding scheme. See the README for the measurement model.
"""

__version__ = "0.7.0"

from types import ModuleType as _ModuleType

from .graph_problem import Graph, CutReport, brute_force, cost, cut_value, diagonal_costs, load_graph
from .statevector import Gate, apply_gate, init_zero, populations, fidelity
from .circuits import (
    Circuit, QaoaParams, append_flips, build_ansatz, build_ansatz_native, qaoa_amplitudes, simulate, simulate_qaoa
)
from .readout import CalibrationTable, check_rows, default_calibration, read_records
from .reconstruction import DegenerateCalibrationError, forward_means, fwht, reconstruct, walsh_coefficients
from .noise import NoiseConfig, density_populations, perturb_calibration
from .experiment import (
    ConfigError,
    ConvergenceProfile,
    LandscapeGrid,
    OptimizeResult,
    PointRecord,
    ScanConfig,
    convergence_profile,
    ideal_cost,
    landscape_error,
    measure_point,
    optimize,
    run_scan,
)

# the imports above also bind each submodule here; a module is not an API name
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
