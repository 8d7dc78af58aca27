"""Command-line interface.

Subcommands: ``landscape`` (grid scan to CSV), ``optimize`` (parameter
search), ``reconstruct`` (one-off population recovery from recorded means),
``convergence`` (checkpoint-resolved estimates at a single point) and
``rerun`` (replay a manifest bit for bit; only a manifest written by this
version is accepted, since another version may write different bytes).

Angles are accepted in radians ("1.5708") or as pi multiples ("0.5pi");
ranges are START:STOP:STEP in either form. ``landscape``, ``optimize`` and
``convergence`` share one entry, and their table with ``rerun``
(``_SCAN_COMMANDS``); the bounds of a run are checked by the ``experiment``
call that runs it. Exit codes: 0 success, 2 usage or malformed configuration
(every ``experiment.ConfigError``, ``UsageError`` among them), 3 degenerate
calibration, 4 unreadable or unwritable files. Any other exception is a bug
and propagates with its traceback. The output directory is made at the first
write, so a run that fails before it leaves none.
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
    DEFAULT_BETA_RANGE,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_GAMMA_RANGE,
    DEFAULT_REALIZATIONS,
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    STRATEGIES,
    ConfigError,
    QaoaParams,
    ScanConfig,
    config_from_dict,
    config_to_dict,
    convergence_profile,
    optimize,
    run_scan,
    scan_summary,
    write_convergence_csv,
    write_landscape_csv,
    write_trace_csv,
    _axis,
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

THREADS_HELP = "accepted for compatibility and ignored: landscapes run serially"


class UsageError(ConfigError):
    """Bad flags or malformed input content, raised where the input is read; maps to exit code 2."""


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
    """Parse START:STOP:STEP where each field is an angle token; the range must make a grid axis."""
    fields = text.split(":")
    if len(fields) != 3:
        raise UsageError(f"range must be START:STOP:STEP, got {text!r}")
    spec = tuple(parse_angle(f) for f in fields)
    try:
        _axis(spec)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    return spec


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
    # the defaults in radians, each at full precision, so parse_range reads experiment's values back exactly
    sub.add_argument("--beta-range", default=":".join(map(repr, DEFAULT_BETA_RANGE)), metavar="START:STOP:STEP")
    sub.add_argument("--gamma-range", default=":".join(map(repr, DEFAULT_GAMMA_RANGE)), metavar="START:STOP:STEP")
    sub.add_argument("--mode", choices=("ideal", "sampled"), default=default_mode)
    sub.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    sub.add_argument("--realizations", type=int, default=DEFAULT_REALIZATIONS)
    sub.add_argument("--cal", help="calibration file ('<bitstring> <intensity>' lines); required in sampled mode")
    sub.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
        help="shots per convergence checkpoint; landscape and optimize check and record it, but draw whole records",
    )
    sub.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sub.add_argument("--exact-calibration", action="store_true", help="reconstruct with the true intensities")
    sub.add_argument("--depolarizing", type=float, default=0.0, help="per-qubit Pauli error probability per gate")
    sub.add_argument("--overrotation", type=float, default=0.0, help="fractional rotation-angle scaling")
    sub.add_argument("--phase-offset", type=parse_angle, default=0.0, help="RZ on qubit 0 after two-qubit gates")
    sub.add_argument("--cal-sigma", type=float, default=0.0, help="relative jitter on the true intensities")
    sub.add_argument(
        "--noise-seed", type=int, default=0, help="accepted for compatibility and ignored: every draw comes from --seed"
    )
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
    landscape.set_defaults(func=_cmd_scan)

    opt = commands.add_parser("optimize", help="search for the minimum-cost angles")
    _add_scan_arguments(opt, default_mode="ideal")
    opt.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])
    opt.add_argument("--out", help="optional output directory for the evaluation trace")
    opt.set_defaults(func=_cmd_scan)

    rec = commands.add_parser("reconstruct", help="recover populations from recorded flip-pattern means")
    rec.add_argument("--cal", required=True)
    rec.add_argument("--means", required=True, help="file of '<bitstring> <mean>' lines")
    rec.set_defaults(func=_cmd_reconstruct)

    conv = commands.add_parser("convergence", help="checkpoint-resolved estimates at one parameter point")
    _add_scan_arguments(conv, default_mode="sampled")
    conv.add_argument("--beta", required=True, type=parse_angle)
    conv.add_argument("--gamma", required=True, type=parse_angle)
    conv.add_argument("--out", required=True)
    conv.set_defaults(func=_cmd_scan)

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
    except ConfigError as exc:  # a UsageError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateCalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


def _config_dict_from_args(args) -> dict:
    """Resolve flags and files into the fully inlined manifest configuration."""
    if args.mode == "sampled" and not args.cal:
        raise UsageError("sampled mode requires --cal")
    graph = _read_input(load_graph, args.graph)
    calibration = _read_input(load_calibration, args.cal) if args.cal else None
    beta_range, gamma_range = parse_range(args.beta_range), parse_range(args.gamma_range)
    master_seed = _resolve_seed(args)
    try:
        noise = None
        if args.depolarizing or args.overrotation or args.phase_offset or args.cal_sigma:
            noise = NoiseConfig(args.depolarizing, args.overrotation, args.phase_offset, args.cal_sigma)
        config = ScanConfig(
            graph=graph,
            p=args.p,
            beta_range=beta_range,
            gamma_range=gamma_range,
            shots=args.shots,
            realizations=args.realizations,
            mode=args.mode,
            noise=noise,
            calibration=calibration,
            master_seed=master_seed,
            checkpoint_every=args.checkpoint_every,
            exact_calibration=args.exact_calibration,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config_to_dict(config)


def _read_input(load, path):
    """``load(path)``; malformed content is a usage error, while an unreadable file stays an OSError."""
    try:
        return load(path)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _prepare_out(out, force: bool, filenames: list[str]) -> Path:
    """``out`` as a path, refused if it holds one of ``filenames`` and ``force`` is not set; ``_Outputs`` makes it."""
    out_dir = Path(out)
    existing = [name for name in filenames if (out_dir / name).exists()]
    if existing and not force:
        raise UsageError(f"{', '.join(existing)} already exist(s) in {out_dir}; pass --force to overwrite")
    return out_dir


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Outputs:
    """A command's artifacts, each written as ASCII bytes to a temp file in the output directory.

    Opened in binary, an artifact has the same bytes and ``\\n`` line ends on
    every platform. The first artifact opened makes the directory. Leaving
    the ``with`` block normally moves every temp file into place with
    ``os.replace``, in the order written, so the manifest, written last, lands
    last. An exception removes the temp files instead, so a failed run leaves
    no artifact that would make the next run need --force.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.started = time.perf_counter()
        self._pending: list[tuple[Path, Path]] = []

    def open(self, name: str):
        if not self._pending:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        temp = self.out_dir / f".{name}.tmp"
        self._pending.append((temp, self.out_dir / name))
        return temp.open("wb")

    def write(self, name: str, text: str) -> None:
        with self.open(name) as handle:
            handle.write(text.encode("ascii"))

    def manifest(self, command: str, config: dict, options: dict, artifacts: list[str], evaluate_s: float) -> None:
        """The manifest, timing the evaluation and the writing of the other artifacts."""
        timings = {"evaluate_s": evaluate_s, "write_s": time.perf_counter() - self.started}
        manifest = {
            "command": command,
            "version": __version__,
            "config": config,
            "options": options,
            "artifacts": artifacts,
            "duration_seconds": evaluate_s,
            "timings": timings,
        }
        self.write("manifest.txt", _json_text(manifest))

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        for temp, final in self._pending:
            if kind is None:
                os.replace(temp, final)
            else:
                temp.unlink(missing_ok=True)


def _cmd_scan(args) -> int:
    """``landscape``, ``optimize`` or ``convergence``: the flags resolved as a manifest records them, then run."""
    config = _config_dict_from_args(args)
    run, fields = _SCAN_COMMANDS[args.command]
    options = {name: getattr(args, name) for name in fields}
    return run(config_from_dict(config), config, options, args.out, args.force)


def _run_landscape(cfg: ScanConfig, config: dict, options: dict, out: str, force: bool) -> int:
    artifacts = ["landscape.csv", "summary.txt"]
    if options["svg"]:
        artifacts.append("landscape.svg")
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"])
    started = time.perf_counter()
    grid = run_scan(cfg)
    duration = time.perf_counter() - started
    summary = scan_summary(grid, cfg)
    with _Outputs(out_dir) as outputs:
        with outputs.open("landscape.csv") as handle:
            write_landscape_csv(grid, handle)
        outputs.write("summary.txt", _json_text(summary))
        if options["svg"]:
            outputs.write("landscape.svg", _landscape_svg(grid))
        outputs.manifest("landscape", config, options, artifacts, duration)
    code = _check_invalid(summary["points_invalid"], summary["points_total"], "points")
    if code == EXIT_OK:
        print(f"wrote {out_dir / 'landscape.csv'} ({summary['points_total']} rows)")
    return code


def _check_invalid(invalid: int, total: int, what: str) -> int:
    """Warn on stderr when any of ``total`` ``what`` is invalid (degenerate calibration); exit 3 above 1%, else 0."""
    if invalid:
        print(f"warning: {invalid}/{total} {what} invalid (degenerate calibration)", file=sys.stderr)
    return EXIT_DEGENERATE if invalid / total > 0.01 else EXIT_OK


def _run_optimize(cfg: ScanConfig, config: dict, options: dict, out, force: bool) -> int:
    artifacts = ["trace.csv", "summary.txt"]
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"]) if out else None
    started = time.perf_counter()
    result = optimize(cfg, strategy=options["strategy"])
    duration = time.perf_counter() - started
    report = brute_force(cfg.graph)
    invalid = sum(math.isnan(value) for *_, value in result.trace)
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
        summary = {
            "best_betas": list(result.best_params.betas),
            "best_gammas": list(result.best_params.gammas),
            "best_F": result.best_F,
            "evaluations": result.evaluations,
            "best_cut_strings": list(report.best_strings),
            "best_cut_cost": report.best_cost,
            "config": config,
        }
        if invalid:  # a run without an invalid evaluation keeps the summary it had before the field
            summary["evaluations_invalid"] = invalid
        with _Outputs(out_dir) as outputs:
            with outputs.open("trace.csv") as handle:
                write_trace_csv(result, handle)
            outputs.write("summary.txt", _json_text(summary))
            outputs.manifest("optimize", config, options, artifacts, duration)
    return _check_invalid(invalid, result.evaluations, "evaluations")


def _cmd_reconstruct(args) -> int:
    calibration = _read_input(load_calibration, args.cal)
    means = _read_input(
        lambda path: parse_basis_values(Path(path).read_text(), "mean", calibration.num_qubits), args.means
    )
    estimate = reconstruct(calibration, means)  # DegenerateCalibrationError -> exit 3
    labels = all_bitstrings(calibration.num_qubits)
    for label, value in zip(labels, estimate.pops):
        print(f"population {label} {value:.10g}")
    for label, value in zip(labels, estimate.correlators):
        print(f"correlator {label} {value:.10g}")
    print(f"norm {estimate.norm:.10g}")
    return EXIT_OK


def _run_convergence(cfg: ScanConfig, config: dict, options: dict, out: str, force: bool) -> int:
    try:
        params = QaoaParams((options["beta"],) * cfg.p, (options["gamma"],) * cfg.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    artifacts = ["convergence.csv", "summary.txt"]
    out_dir = _prepare_out(out, force, artifacts + ["manifest.txt"])
    started = time.perf_counter()
    profile = convergence_profile(cfg, params)
    duration = time.perf_counter() - started
    summary = {
        "checkpoints": int(profile.checkpoint_shots.size),
        "checkpoints_invalid": profile.checkpoints_invalid,
        "final_shots": int(profile.checkpoint_shots[-1]),
        "final_norm_mean": _json_float(profile.mean_norm[-1]),
        "final_norm_std": _json_float(profile.std_norm[-1]),
        "realizations": profile.realizations,
        "config": config,
        "point": options,
    }
    with _Outputs(out_dir) as outputs:
        with outputs.open("convergence.csv") as handle:
            write_convergence_csv(profile, handle)
        outputs.write("summary.txt", _json_text(summary))
        outputs.manifest("convergence", config, options, artifacts, duration)
    print(f"wrote {out_dir / 'convergence.csv'} ({profile.checkpoint_shots.size} checkpoints)")
    return EXIT_OK


def _cmd_rerun(args) -> int:
    path = Path(args.manifest)
    text = _read_input(Path.read_text, path)  # undecodable bytes are a usage error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not a valid manifest: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: not a valid manifest: expected a JSON object")
    try:
        _check_fields(data, {"version": str, "command": str, "config": dict, "options": dict}, "")
        if data["version"] != __version__:
            raise ValueError(
                f"field 'version' is {data['version']!r} but this is nvqaoa {__version__}; "
                "rerun reproduces only manifests written by the same version"
            )
        command, config, options = data["command"], data["config"], data["options"]
        if command not in _SCAN_COMMANDS:
            raise ValueError(f"cannot rerun command {command!r}")
        run, fields = _SCAN_COMMANDS[command]
        _check_fields(options, fields, "options.")
        # a manifest names its bad field, as argparse's choices name a bad --strategy
        if command == "optimize" and options["strategy"] not in STRATEGIES:
            raise ValueError(f"field 'options.strategy' must be one of {', '.join(STRATEGIES)}")
        cfg = config_from_dict(config)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: invalid manifest: {exc}") from None
    return run(cfg, config, options, args.out or str(path.parent), args.force)


# Each scan command's runner and the types of the options its manifest records,
# which _cmd_scan reads from the flags and _cmd_rerun checks before anything runs.
_SCAN_COMMANDS = {
    "landscape": (_run_landscape, {"svg": bool}),
    "optimize": (_run_optimize, {"strategy": str}),
    "convergence": (_run_convergence, {"beta": (int, float), "gamma": (int, float)}),
}


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
