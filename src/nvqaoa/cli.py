"""Command-line interface.

Subcommands: ``landscape`` (grid scan to CSV), ``optimize`` (parameter
search), ``reconstruct`` (one-off population recovery from recorded means),
``convergence`` (checkpoint-resolved estimates at a single point) and
``rerun`` (replay a manifest bit for bit).

Angles are accepted in radians ("1.5708") or as pi multiples ("0.5pi");
ranges are START:STOP:STEP in either form. Exit codes: 0 success, 2 usage or
malformed configuration, 3 degenerate calibration, 4 unreadable or unwritable
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_REALIZATIONS,
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    ConvergenceProfile,
    QaoaParams,
    ScanConfig,
    config_from_dict,
    config_to_dict,
    convergence_profile,
    landscape_error,
    optimize,
    run_scan,
    scan_summary,
    write_convergence_csv,
    write_landscape_csv,
    _check_fields,
    _realization_stats,
)
from .graph_problem import brute_force, load_graph
from .noise import NoiseConfig
from .readout import load_calibration, parse_basis_values
from .reconstruction import DegenerateCalibrationError, reconstruct
from ._bitstrings import all_bitstrings

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

SEED_ENV_VAR = "NVQAOA_SEED"

DEFAULT_BETA_RANGE_TEXT = "0.1pi:0.6pi:0.025pi"
DEFAULT_GAMMA_RANGE_TEXT = "0.1pi:2.1pi:0.05pi"

THREADS_HELP = "accepted for compatibility and ignored: scans run serially"

STRATEGIES = ("grid_then_refine", "simplex")

# Types of the manifest options a rerun reads, checked before anything runs.
_OPTION_FIELDS = {
    "landscape": {"svg": bool},
    "optimize": {"strategy": str},
    "convergence": {"beta": (int, float), "gamma": (int, float)},
}


class UsageError(ValueError):
    """Bad flags or malformed configuration content; maps to exit code 2."""


def parse_angle(text: str) -> float:
    """Parse an angle in radians ("1.57") or pi multiples ("0.5pi", "pi", "-pi")."""
    token = text.strip().lower()
    if not token:
        raise UsageError("empty angle")
    if token.endswith("pi"):
        head = token[:-2].strip()
        if head in ("", "+"):
            factor = 1.0
        elif head == "-":
            factor = -1.0
        else:
            try:
                factor = float(head)
            except ValueError:
                raise UsageError(f"cannot parse angle {text!r}") from None
        return factor * math.pi
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_range(text: str) -> tuple[float, float, float]:
    """Parse START:STOP:STEP where each field is an angle token."""
    fields = text.split(":")
    if len(fields) != 3:
        raise UsageError(f"range must be START:STOP:STEP, got {text!r}")
    start, stop, step = (parse_angle(f) for f in fields)
    if step <= 0:
        raise UsageError(f"range step must be positive, got {text!r}")
    if stop < start:
        raise UsageError(f"range stop precedes start in {text!r}")
    return (start, stop, step)


def format_angle(value: float) -> str:
    """Radians at full precision; parse_angle round-trips the output exactly."""
    return format(float(value), ".17g")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _add_scan_arguments(sub: argparse.ArgumentParser, default_mode: str) -> None:
    sub.add_argument("--graph", required=True, help="graph file ('n <count>' header, 'u v [w]' lines)")
    sub.add_argument("--p", type=int, default=1, help="number of ansatz layers")
    sub.add_argument("--beta-range", default=DEFAULT_BETA_RANGE_TEXT, metavar="START:STOP:STEP")
    sub.add_argument("--gamma-range", default=DEFAULT_GAMMA_RANGE_TEXT, metavar="START:STOP:STEP")
    sub.add_argument("--mode", choices=("ideal", "sampled"), default=default_mode)
    sub.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    sub.add_argument("--realizations", type=int, default=DEFAULT_REALIZATIONS)
    sub.add_argument("--cal", help="calibration file ('<bitstring> <intensity>' lines); required in sampled mode")
    sub.add_argument("--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY)
    sub.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sub.add_argument("--exact-calibration", action="store_true", help="reconstruct with the true intensities")
    sub.add_argument("--depolarizing", type=float, default=0.0, help="per-qubit Pauli error probability per gate")
    sub.add_argument("--overrotation", type=float, default=0.0, help="fractional rotation-angle scaling")
    sub.add_argument("--phase-offset", type=parse_angle, default=0.0, help="RZ on qubit 0 after two-qubit gates")
    sub.add_argument("--cal-sigma", type=float, default=0.0, help="relative jitter on the true intensities")
    sub.add_argument("--noise-seed", type=int, default=0)
    sub.add_argument("--force", action="store_true", help="overwrite existing output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvqaoa",
        description="Simulated variational MAX-CUT experiments with fluorescence-style readout.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    landscape = commands.add_parser("landscape", help="scan the (beta, gamma) cost landscape to CSV")
    _add_scan_arguments(landscape, default_mode="ideal")
    landscape.add_argument("--out", required=True, help="output directory")
    landscape.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    landscape.add_argument("--svg", action="store_true", help="also render a grayscale heatmap")
    landscape.set_defaults(func=_cmd_landscape)

    opt = commands.add_parser("optimize", help="search for the minimum-cost angles")
    _add_scan_arguments(opt, default_mode="ideal")
    opt.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])
    opt.add_argument("--out", help="optional output directory for the evaluation trace")
    opt.set_defaults(func=_cmd_optimize)

    rec = commands.add_parser("reconstruct", help="recover populations from recorded flip-pattern means")
    rec.add_argument("--cal", required=True)
    rec.add_argument("--means", required=True, help="file of '<bitstring> <mean>' lines")
    rec.set_defaults(func=_cmd_reconstruct)

    conv = commands.add_parser("convergence", help="checkpoint-resolved estimates at one parameter point")
    _add_scan_arguments(conv, default_mode="sampled")
    conv.add_argument("--beta", required=True, type=parse_angle)
    conv.add_argument("--gamma", required=True, type=parse_angle)
    conv.add_argument("--out", required=True)
    conv.set_defaults(func=_cmd_convergence)

    rerun = commands.add_parser("rerun", help="replay a manifest; outputs are bit-identical")
    rerun.add_argument("--manifest", required=True)
    rerun.add_argument("--out", help="output directory (default: the manifest's directory)")
    rerun.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    rerun.add_argument("--force", action="store_true")
    rerun.set_defaults(func=_cmd_rerun)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; normalize to an int return
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateCalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


def _config_dict_from_args(args) -> dict:
    """Resolve flags and files into the fully inlined manifest configuration."""
    if args.mode == "sampled" and not args.cal:
        raise UsageError("sampled mode requires --cal")
    noise = None
    if args.depolarizing or args.overrotation or args.phase_offset or args.cal_sigma:
        noise = NoiseConfig(args.depolarizing, args.overrotation, args.phase_offset, args.cal_sigma, args.noise_seed)
    config = ScanConfig(
        graph=load_graph(args.graph),
        p=args.p,
        beta_range=parse_range(args.beta_range),
        gamma_range=parse_range(args.gamma_range),
        shots=args.shots,
        realizations=args.realizations,
        mode=args.mode,
        noise=noise,
        calibration=load_calibration(args.cal) if args.cal else None,
        master_seed=_resolve_seed(args),
        checkpoint_every=args.checkpoint_every,
        exact_calibration=args.exact_calibration,
    )
    return config_to_dict(config)


def _prepare_out(out, force: bool, filenames: list[str]) -> Path:
    out_dir = Path(out)
    existing = [name for name in filenames if (out_dir / name).exists()]
    if existing and not force:
        raise UsageError(f"{', '.join(existing)} already exist(s) in {out_dir}; pass --force to overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _manifest(command: str, config: dict, options: dict, artifacts: list[str], duration: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "options": options,
        "artifacts": artifacts,
        "duration_seconds": duration,
    }


def _cmd_landscape(args) -> int:
    config = _config_dict_from_args(args)
    options = {"svg": bool(args.svg)}
    return _run_landscape(config_from_dict(config), config, options, args.out, args.force)


def _run_landscape(cfg: ScanConfig, config: dict, options: dict, out: str, force: bool) -> int:
    artifacts = ["landscape.csv", "summary.txt"]
    if options["svg"]:
        artifacts.append("landscape.svg")
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"])
    started = time.perf_counter()
    grid = run_scan(cfg)
    duration = time.perf_counter() - started
    write_landscape_csv(grid, out_dir / "landscape.csv")
    summary = scan_summary(grid, cfg)
    _write_json(out_dir / "summary.txt", summary)
    if options["svg"]:
        (out_dir / "landscape.svg").write_text(_landscape_svg(grid))
    _write_json(out_dir / "manifest.txt", _manifest("landscape", config, options, artifacts, duration))
    invalid = summary["points_invalid"]
    total = summary["points_total"]
    if invalid > 0:
        print(f"warning: {invalid}/{total} points invalid (degenerate calibration)", file=sys.stderr)
        if invalid / total > 0.01:
            return EXIT_DEGENERATE
    print(f"wrote {out_dir / 'landscape.csv'} ({total} rows)")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config = _config_dict_from_args(args)
    options = {"strategy": args.strategy}
    return _run_optimize(config_from_dict(config), config, options, args.out, args.force)


def _run_optimize(cfg: ScanConfig, config: dict, options: dict, out, force: bool) -> int:
    artifacts = ["trace.csv", "summary.txt"]
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"]) if out else None
    started = time.perf_counter()
    result = optimize(cfg, strategy=options["strategy"])
    duration = time.perf_counter() - started
    report = brute_force(cfg.graph)
    for k, (beta, gamma) in enumerate(zip(result.best_params.betas, result.best_params.gammas)):
        print(f"beta[{k}]: {beta:.10g} rad ({beta / math.pi:.10g} pi)")
        print(f"gamma[{k}]: {gamma:.10g} rad ({gamma / math.pi:.10g} pi)")
    print(f"best F: {result.best_F:.10g}")
    print(f"evaluations: {result.evaluations}")
    print(f"best cut strings: {' '.join(report.best_strings)}")
    print(f"best cut cost: {report.best_cost:.10g}")
    if report.best_cost < 0:
        print(f"approximation ratio: {result.best_F / report.best_cost:.10g}")
    else:
        print("approximation ratio: undefined (graph has no cut to make)")
    if out_dir is not None:
        p = cfg.p
        header = (
            ["index"]
            + [f"beta{k}" for k in range(p)]
            + [f"gamma{k}" for k in range(p)]
            + ["F"]
        )
        lines = [",".join(header)]
        for i, (betas, gammas, value) in enumerate(result.trace):
            row = [str(i)]
            row += [format(b, ".10g") for b in betas]
            row += [format(g, ".10g") for g in gammas]
            row.append(format(value, ".10g"))
            lines.append(",".join(row))
        (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
        summary = {
            "best_betas": list(result.best_params.betas),
            "best_gammas": list(result.best_params.gammas),
            "best_F": result.best_F,
            "evaluations": result.evaluations,
            "best_cut_strings": list(report.best_strings),
            "best_cut_cost": report.best_cost,
            "config": config,
        }
        _write_json(out_dir / "summary.txt", summary)
        _write_json(out_dir / "manifest.txt", _manifest("optimize", config, options, artifacts, duration))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    calibration = load_calibration(args.cal)
    path = Path(args.means)
    text = path.read_text()
    try:
        means = parse_basis_values(text, "mean", calibration.num_qubits)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    estimate = reconstruct(calibration, means)  # DegenerateCalibrationError -> exit 3
    labels = all_bitstrings(calibration.num_qubits)
    for label, value in zip(labels, estimate.pops):
        print(f"population {label} {value:.10g}")
    for label, value in zip(labels, estimate.correlators):
        print(f"correlator {label} {value:.10g}")
    print(f"norm {estimate.norm:.10g}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    if args.mode != "sampled":
        raise UsageError("convergence requires --mode sampled")
    config = _config_dict_from_args(args)
    options = {"beta": float(args.beta), "gamma": float(args.gamma)}
    return _run_convergence(config_from_dict(config), config, options, args.out, args.force)


def _run_convergence(cfg: ScanConfig, config: dict, options: dict, out: str, force: bool) -> int:
    params = QaoaParams((options["beta"],) * cfg.p, (options["gamma"],) * cfg.p)
    artifacts = ["convergence.csv", "summary.txt"]
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"])
    started = time.perf_counter()
    profile = convergence_profile(cfg, params)
    duration = time.perf_counter() - started
    write_convergence_csv(profile, out_dir / "convergence.csv")
    summary = {
        "checkpoints": int(profile.checkpoint_shots.size),
        "final_shots": int(profile.checkpoint_shots[-1]),
        "final_norm_mean": _json_float(profile.mean_norm[-1]),
        "final_norm_std": _json_float(profile.std_norm[-1]),
        "realizations": profile.realizations,
        "config": config,
        "point": options,
    }
    _write_json(out_dir / "summary.txt", summary)
    _write_json(out_dir / "manifest.txt", _manifest("convergence", config, options, artifacts, duration))
    print(f"wrote {out_dir / 'convergence.csv'} ({profile.checkpoint_shots.size} checkpoints)")
    return EXIT_OK


def _cmd_rerun(args) -> int:
    path = Path(args.manifest)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not a valid manifest: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: not a valid manifest: expected a JSON object")
    try:
        _check_fields(data, {"command": str, "config": dict, "options": dict}, "")
        command, config, options = data["command"], data["config"], data["options"]
        if command not in _OPTION_FIELDS:
            raise ValueError(f"cannot rerun command {command!r}")
        _check_fields(options, _OPTION_FIELDS[command], "options.")
        if command == "optimize" and options["strategy"] not in STRATEGIES:
            raise ValueError(f"field 'options.strategy' must be one of {', '.join(STRATEGIES)}")
        cfg = config_from_dict(config)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: invalid manifest: {exc}") from None
    run = {"landscape": _run_landscape, "optimize": _run_optimize, "convergence": _run_convergence}[command]
    return run(cfg, config, options, args.out or str(path.parent), args.force)


def _json_float(value: float):
    return None if math.isnan(value) else float(value)


def _landscape_svg(grid) -> str:
    """Self-contained grayscale heatmap of the realization-averaged measured cost."""
    n_beta = grid.betas.size
    n_gamma = grid.gammas.size
    cell = 12
    margin_left, margin_top, margin_bottom = 70, 30, 46
    width = margin_left + n_gamma * cell + 20
    height = margin_top + n_beta * cell + margin_bottom

    averaged, _ = _realization_stats(grid.F_measured, 2)
    finite = averaged[np.isfinite(averaged)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="18" font-family="monospace" font-size="12">'
        f"F from {lo:.4g} (black) to {hi:.4g} (white)</text>",
    ]
    for bi in range(n_beta):
        # low beta at the bottom, like a conventional landscape plot
        y = margin_top + (n_beta - 1 - bi) * cell
        for gi in range(n_gamma):
            x = margin_left + gi * cell
            value = averaged[bi, gi]
            if math.isnan(value):
                fill = "rgb(255,0,0)"
            else:
                level = int(round(255 * (value - lo) / span))
                fill = f"rgb({level},{level},{level})"
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>')
    axis_y = margin_top + n_beta * cell
    parts.append(
        f'<text x="{margin_left}" y="{axis_y + 16}" font-family="monospace" font-size="11">'
        f"gamma {grid.gammas[0]:.4g} .. {grid.gammas[-1]:.4g} rad</text>"
    )
    parts.append(
        f'<text x="6" y="{margin_top + 12}" font-family="monospace" font-size="11">'
        f"beta</text>"
    )
    parts.append(
        f'<text x="6" y="{margin_top + 28}" font-family="monospace" font-size="11">'
        f"{grid.betas[-1]:.4g}</text>"
    )
    parts.append(
        f'<text x="6" y="{axis_y}" font-family="monospace" font-size="11">'
        f"{grid.betas[0]:.4g}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    console_main()
