"""Benchmark one nvqaoa workload end to end.

    python3 perfbench/run.py --workload sampled-k2 --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed`` into ``.perfbench_work/`` and fed to ``nvqaoa.cli.main`` from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s`` -- seconds from the first evaluation to all outputs written
  (median over the scans timed in ``--seconds``, after one untimed scan);
* ``evals_per_s`` -- evaluations per second of those scans (an evaluation is a
  grid point x realization, or a checkpoint x realization for convergence);
* ``setup_s`` -- a fresh process from interpreter start to the first
  evaluation: import, argument parsing, input loading and validation
  (median of several processes);
* ``peak_rss_mb`` -- peak resident memory of the benchmark process.

The three timings are in reference seconds: host seconds scaled by how much
slower or faster than nominal the host ran during this run, as measured by
the kernel in ``reference`` timed next to every probe and scan. The raw host
seconds are kept in the record.

With ``--trace 1`` it times the same scans untraced, then once more with every
public function wrapped (see ``layertrace``), and reports per-layer self
times and counts, the tracing overhead, the accuracy figures and the thread
speed-up of the sampled-k2 scan.

Every scan's outputs are checked (see ``workloads.check``); a scan whose
outputs are wrong counts as a failed operation. The last line of standard
output is the JSON result; a fuller record with the environment and sample
counts goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 7
TRACED_SCANS = 3
THREAD_PAIRS = 3

END_TO_END_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "readout.self_s": "s",
    "readout.records": "count",
    "readout.shots": "count",
    "readout.blocks": "count",
    "circuits.self_s": "s",
    "circuits.simulations": "count",
    "circuits.simulations_per_eval": "1/eval",
    "statevector.self_s": "s",
    "statevector.gate_applications": "count",
    "statevector.bytes_moved": "B",
    "noise.self_s": "s",
    "noise.trajectories": "count",
    "reconstruction.self_s": "s",
    "reconstruction.inversions": "count",
    "reconstruction.degenerate": "count",
    "experiment.self_s": "s",
    "experiment.evaluations": "count",
    "experiment.threads_speedup": "ratio",
    "experiment.landscape_error": "ratio",
    "experiment.invalid_frac": "ratio",
    "experiment.final_norm_err": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "graph_problem.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


class Run:
    """State of one benchmark invocation: inputs, the reference outputs and every check."""

    def __init__(self, workload: workloads.Workload, work: Path):
        from nvqaoa import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.inputs = work / "inputs"
        workload.write(self.inputs)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self._scans = 0

    def scan(self, threads: int = 1, workload: workloads.Workload | None = None, tracer=None):
        """Run the CLI once into a fresh directory; returns (out_dir, main_s, wall_s, problems).

        ``main_s`` times the whole ``cli.main`` call, ``wall_s`` the part from
        the first evaluation on; ``problems`` is empty when the CLI exited 0.
        The caller checks the outputs, reports the operation with
        :meth:`done` and removes the directory.
        """
        workload = workload or self.workload
        self._scans += 1
        out = self.work / f"scan{self._scans}"
        argv = workload.argv(self.inputs if workload is self.workload else self._write_other(workload), out, threads)
        first: list[float] = []
        gc.collect()
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(_first_evaluation_clock(self.cli, first))
            else:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            started = time.perf_counter()
            code = self.cli.main(argv)
            ended = time.perf_counter()
        self.attempted += 1
        problems = [f"cli exited {code}: {' '.join(argv)}"] if code != 0 else []
        return out, ended - started, ended - (first[0] if first else started), problems

    def _write_other(self, workload: workloads.Workload) -> Path:
        directory = self.work / f"inputs-{workload.name}"
        workload.write(directory)
        return directory

    @staticmethod
    def outputs(out: Path) -> dict[str, bytes]:
        """Deterministic outputs of a scan (the manifest records a duration, so it is left out)."""
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.txt"}

    def differs(self, out: Path, label: str) -> list[str]:
        """A repeated scan must reproduce the reference outputs byte for byte."""
        return [] if self.outputs(out) == self.reference else [f"{label}: outputs differ from the first scan"]

    def done(self, problems: list[str]) -> None:
        """Close one attempted operation; any problem makes it a failed one."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)


@contextlib.contextmanager
def _first_evaluation_clock(cli, stamps: list[float]):
    """Record when ``cli`` enters the scan or convergence driver, without tracing anything else."""
    saved = {name: getattr(cli, name) for name in ("run_scan", "convergence_profile")}

    def stamped(func):
        def call(*args, **kwargs):
            stamps.append(time.perf_counter())
            return func(*args, **kwargs)

        return call

    for name, func in saved.items():
        setattr(cli, name, stamped(func))
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(cli, name, func)


def measure_setup(run: Run) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times (spawn to the moment the CLI would start evaluating),
    and the reference kernel timed next to them."""
    times, kernel = [], []
    for k in range(SETUP_PROBES):
        argv = run.workload.argv(run.inputs, run.work / f"probe{k}")
        kernel += [reference.time_reference() for _ in range(3)]
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(PROBE), *argv], capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return times, kernel


def environment(workload: workloads.Workload) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "state_vector_bytes": (1 << workload.num_qubits) * 16,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def timed_scans(run: Run, seconds: float) -> tuple[list[float], list[float], list[float]]:
    """Repeat the workload's scan for ``seconds`` (at least once).

    Returns the main and wall times of the scans and the reference kernel
    time taken before each.
    """
    mains, walls, kernel = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        kernel.append(reference.time_reference())
        out, main_s, wall_s, problems = run.scan()
        run.done(problems or run.differs(out, f"timed scan {len(walls) + 1}"))
        shutil.rmtree(out, ignore_errors=True)
        mains.append(main_s)
        walls.append(wall_s)
    return mains, walls, kernel


def reference_scan(run: Run) -> dict[str, float]:
    """Untimed first scan: fills caches, and its outputs are checked and kept as the reference."""
    out, _, _, problems = run.scan()
    quality: dict[str, float] = {}
    if not problems:
        run.reference = run.outputs(out)
        try:
            problems, quality = workloads.check(run.workload, out)
        except Exception as exc:  # malformed outputs: report them as a failed check
            problems = [f"output check raised {exc!r}"]
    run.done(problems)
    if run.workload.name == "sampled-k2" and run.reference is not None:
        # rerun of the written manifest must reproduce the CSV and SVG byte for byte
        rerun = run.work / "rerun"
        run.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run.cli.main(["rerun", "--manifest", str(out / "manifest.txt"), "--out", str(rerun)])
        run.done([f"rerun exited {code}"] if code != 0 else run.differs(rerun, "rerun"))
        shutil.rmtree(rerun, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    return quality


def traced_metrics(run: Run, untraced_main: list[float], quality: dict[str, float], spans_path: Path):
    """Trace the scan a few times; per-layer figures are medians over the traced scans."""
    import nvqaoa

    from layertrace import Tracer

    summaries, bytes_written = [], 0
    for k in range(TRACED_SCANS):
        tracer = Tracer(nvqaoa)
        out, main_s, _, problems = run.scan(tracer=tracer)
        problems = problems or run.differs(out, "traced scan")
        bytes_written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        if k == 0:
            tracer.save(spans_path)
        layers = tracer.summary()
        layers["trace.wall_s"] = main_s
        layers["trace.unattributed_frac"] = abs(main_s - layers["trace.attributed_s"]) / main_s
        if layers["trace.unattributed_frac"] > 0.01:
            problems.append(f"layer self times cover {layers['trace.attributed_s']:.4f} s of {main_s:.4f} s traced")
        run.done(problems)
        summaries.append(layers)
    layers = {key: statistics.median(summary[key] for summary in summaries) for key in summaries[0]}

    metrics = {name: layers[name] for name in PER_LAYER_UNITS if name in layers}
    metrics.update(
        {
            "experiment.threads_speedup": threads_speedup(run),
            "experiment.landscape_error": quality.get("landscape_error", float("nan")),
            "experiment.invalid_frac": quality.get("invalid_frac", float("nan")),
            "experiment.final_norm_err": quality.get("final_norm_err", float("nan")),
            "cli.bytes_written": bytes_written,
            "trace.overhead_s": layers["trace.wall_s"] - statistics.median(untraced_main),
        }
    )
    return metrics, layers


def threads_speedup(run: Run) -> float:
    """Serial over threaded (threads = nproc) wall time of the sampled-k2 scan for this seed.

    Median over a few serial/threaded pairs; the threaded outputs must equal the serial ones.
    """
    sampled = workloads.make("sampled-k2", run.workload.seed)
    ratios = []
    for _ in range(THREAD_PAIRS):
        scans = []
        for threads in (1, len(os.sched_getaffinity(0))):
            out, _, wall_s, problems = run.scan(threads=threads, workload=sampled)
            scans.append((wall_s, problems, None if problems else run.outputs(out)))
            shutil.rmtree(out, ignore_errors=True)
        (serial_s, serial_problems, serial_out), (threaded_s, threaded_problems, threaded_out) = scans
        run.done(serial_problems)
        mismatch = [] if threaded_out == serial_out else ["threaded sampled-k2 scan differs from the serial one"]
        run.done(threaded_problems or mismatch)
        ratios.append(serial_s / threaded_s)
    return statistics.median(ratios)


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def _finite_or_none(value: float):
    """Non-finite figures (only possible when a check already failed) become JSON null."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nvqaoa" / "__init__.py").is_file():
        print(f"error: {SRC / 'nvqaoa'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    sys.path.insert(0, str(SRC))

    workload = workloads.make(args.workload, args.seed)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, work)
        setup, setup_kernel = measure_setup(run) if args.trace == 0 else ([], [])
        quality = reference_scan(run)
        mains, walls, kernel = timed_scans(run, args.seconds)
        host = {"wall_s": statistics.median(walls), "kernel_s": statistics.median(kernel)}
        if args.trace == 0:
            host.update(setup_s=statistics.median(setup), setup_kernel_s=statistics.median(setup_kernel))
            scale = reference.scale(kernel)
            units, layers = END_TO_END_UNITS, {}
            metrics = {
                "wall_s": host["wall_s"] * scale,
                "evals_per_s": statistics.median(workload.evaluations / w for w in walls) / scale,
                "setup_s": host["setup_s"] * reference.scale(setup_kernel),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            samples = {"wall_s": len(walls), "evals_per_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1}
        else:
            units = PER_LAYER_UNITS
            spans = record_path(workload.name, args.seed, args.trace).with_suffix(".spans.npz")
            metrics, layers = traced_metrics(run, mains, quality, spans)
            samples = dict.fromkeys(metrics, TRACED_SCANS)
            samples.update(dict.fromkeys(["cli.bytes_written", *(f"experiment.{key}" for key in quality)], 1))
            samples["experiment.threads_speedup"] = THREAD_PAIRS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _finite_or_none(metrics[name]), "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[workload.name],
        "inputs": {"command": workload.command, "flags": list(workload.flags), "files": workload.files},
        "environment": environment(workload),
        "samples": samples,
        "host_seconds": host,
        "host_samples_s": {"wall": walls, "kernel": kernel, "setup": setup, "setup_kernel": setup_kernel},
        "quality": quality,
        "layers": layers,
        "failures": run.failures,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    record_path(workload.name, args.seed, args.trace).write_text(json.dumps(record, indent=2) + "\n")
    for message in run.failures:
        print(f"FAILED: {message}")
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']!s:>24} {entry['unit']:6s} n={samples[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
