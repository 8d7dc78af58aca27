"""Per-layer attribution of an nvqaoa run, recorded from outside the package.

Every public function (no leading ``_``) of every public ``nvqaoa`` module is
wrapped wherever its name is bound: in its own module, in every module that
imported it (``experiment.simulate``, ``readout.state_populations``, ...) and
in the package namespace. A layer is the module that defines the function;
private helpers such as ``_bitstrings`` are folded into their caller's layer.

Each call records a span: function, parent span, evaluation, start, end and
two small counters read from its arguments or result. Spans stay in memory
until :meth:`Tracer.save`. A layer's self time is the summed duration of its
spans minus the time covered by their direct children. Tracing assumes serial
execution (``--threads 1``): one stack of open spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

# Spans that start an evaluation: a sampled point, an ideal point, and one
# checkpoint reconstruction of a convergence profile. ``_ideal_point`` is the
# only private function wrapped; it marks evaluations and adds no layer.
_EVALUATION_FUNCTIONS = ("experiment.measure_point", "experiment._ideal_point")
_CONVERGENCE_EVALUATION = ("reconstruction.reconstruct", "experiment.convergence_profile")

# Counter kinds, read from a call's arguments or result.
_RECORD = 1  # a = shots, b = checkpoint blocks of the returned ShotRecord
_STATE = 2  # a = number of qubits of the state argument
_COUNTED = {
    "readout.measure_circuit": _RECORD,
    "readout.sample_shots": _RECORD,
    "statevector.apply_gate": _STATE,
    "statevector.apply_matrix": _STATE,
}

ERR_RAISED = 1
ERR_DEGENERATE = 2


def layer_modules(package) -> dict[str, object]:
    """Public submodules of ``package`` by short name; each one is a layer."""
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__) if not info.name.startswith("_"))
    return {name: importlib.import_module(f"{package.__name__}.{name}") for name in names}


class Tracer:
    """Install with ``with Tracer(nvqaoa):``; spans are recorded until the block exits."""

    def __init__(self, package):
        self.package = package
        self.layers = layer_modules(package)
        self.names: list[str] = []  # function id -> "layer.function"
        self.fn = array("i")
        self.parent = array("q")
        self.evaluation = array("q")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.err = array("b")
        self.evaluations = 0
        self._stack: list[int] = []
        self._eval_stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._degenerate = self.layers["reconstruction"].DegenerateCalibrationError

    # --- installation ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer, module in self.layers.items():
            for name, value in vars(module).items():
                own = inspect.isfunction(value) and value.__module__ == module.__name__
                if own and (not name.startswith("_") or f"{layer}.{name}" in _EVALUATION_FUNCTIONS):
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{name}")
        for namespace in [self.package, *self.layers.values()]:
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._restore.append((namespace, name, value))
                    setattr(namespace, name, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for namespace, name, value in reversed(self._restore):
            setattr(namespace, name, value)
        self._restore.clear()

    def _wrap(self, func, qualified: str):
        fid = len(self.names)
        self.names.append(qualified)
        kind = _COUNTED.get(qualified, 0)
        always_eval = qualified in _EVALUATION_FUNCTIONS
        conv_eval = qualified == _CONVERGENCE_EVALUATION[0]
        clock = time.perf_counter
        stack, eval_stack = self._stack, self._eval_stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(self.fn)
            parent = stack[-1] if stack else -1
            is_eval = always_eval or (
                conv_eval and parent >= 0 and self.names[self.fn[parent]] == _CONVERGENCE_EVALUATION[1]
            )
            if is_eval:
                eval_stack.append(self.evaluations)
                self.evaluations += 1
            self.fn.append(fid)
            self.parent.append(parent)
            self.evaluation.append(eval_stack[-1])
            self.a.append(args[0].num_qubits if kind == _STATE else 0)
            self.b.append(0)
            self.err.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self.err[idx] = ERR_DEGENERATE if isinstance(exc, self._degenerate) else ERR_RAISED
                raise
            else:
                self.end[idx] = clock()
                if kind == _RECORD:
                    self.a[idx] = result.num_shots
                    self.b[idx] = len(result.checkpoints)
                return result
            finally:
                stack.pop()
                if is_eval:
                    eval_stack.pop()

        return wrapper

    # --- results -------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "evaluation": np.frombuffer(self.evaluation, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "a": np.frombuffer(self.a, dtype=np.int64),
            "b": np.frombuffer(self.b, dtype=np.int64),
            "err": np.frombuffer(self.err, dtype=np.int8),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the function-name table) as a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Self time per layer, the layer counters, and the attribution total."""
        s = self.arrays()
        names = np.array(self.names + [""])  # index -1 (no parent) maps to ""
        layer_of = np.array([name.split(".")[0] for name in names])
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(s["parent"][has_parent], weights=duration[has_parent], minlength=duration.size)
        self_time = duration - covered
        parent_fn = np.where(has_parent, s["fn"][s["parent"]], -1)  # -1 picks the "" sentinel
        fn_name = names[s["fn"]]
        span_layer = layer_of[s["fn"]]
        parent_name = names[parent_fn]
        parent_layer = layer_of[parent_fn]

        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
        out["trace.attributed_s"] = float(self_time.sum())
        out["trace.root_s"] = float(duration[~has_parent].sum())
        out["trace.spans"] = int(duration.size)

        records = np.isin(fn_name, ["readout.measure_circuit", "readout.sample_shots"]) & (parent_layer != "readout")
        out["readout.records"] = int(records.sum())
        out["readout.shots"] = int(s["a"][records].sum())
        out["readout.blocks"] = int(s["b"][records].sum())
        out["circuits.simulations"] = int((fn_name == "circuits.simulate").sum())
        applications = np.isin(fn_name, ["statevector.apply_gate", "statevector.apply_matrix"]) & ~np.isin(
            parent_name, ["statevector.apply_gate", "statevector.apply_matrix"]
        )
        out["statevector.gate_applications"] = int(applications.sum())
        # Computed traffic: each application reads and writes 2^n complex128 amplitudes.
        out["statevector.bytes_moved"] = int((np.left_shift(1, s["a"][applications]) * 16 * 2).sum())
        out["noise.trajectories"] = int((fn_name == "noise.simulate_noisy").sum())
        inversions = (fn_name == "reconstruction.reconstruct") & (parent_layer != "reconstruction")
        out["reconstruction.inversions"] = int(inversions.sum())
        out["reconstruction.degenerate"] = int((inversions & (s["err"] == ERR_DEGENERATE)).sum())
        out["experiment.evaluations"] = int(self.evaluations)
        out["circuits.simulations_per_eval"] = out["circuits.simulations"] / max(self.evaluations, 1)
        return out
