"""Check traced counts against their closed forms for the code as it stands.

    python3 perfbench/count_check.py --seed 1

Runs each workload once with ``--trace 1`` and compares the layer counters
with what the measurement protocol implies for this version of nvqaoa: every
sampled point measures 2^n basis preparations and 2^n flip variants (one
simulation each) and simulates the ansatz once more for F_ideal. These
closed forms describe the current implementation; an optimisation that
removes work is expected to change them, so this is a one-off check, not a
gate of ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import ROOT, record_path


def expected_counts(workload: workloads.Workload) -> dict[str, int]:
    flags = dict(zip(workload.flags, workload.flags[1:]))
    n = workload.num_qubits
    evaluations = workload.evaluations
    counts = {"experiment.evaluations": evaluations}
    if workload.name == "sampled-k2":
        subcircuits = 2 * 2**n
        shots = int(flags["--shots"])
        counts["circuits.simulations"] = (subcircuits + 1) * evaluations
        counts["readout.shots"] = subcircuits * shots * evaluations
        counts["readout.blocks"] = subcircuits * (shots // int(flags["--checkpoint-every"])) * evaluations
    elif workload.name == "ideal-k14":
        gates_per_point = n + n * (n - 1) // 2 + n  # Hadamard wall, one RZZ per edge of K_n, mixer
        counts["statevector.gate_applications"] = gates_per_point * evaluations
        counts["readout.records"] = 0
    elif workload.name == "depol-k2":
        blocks = int(flags["--shots"]) // int(flags["--checkpoint-every"])
        counts["noise.trajectories"] = 2 * 2**n * blocks * evaluations
    elif workload.name == "convergence-ring4":
        counts["reconstruction.inversions"] = evaluations  # one per checkpoint x realization
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for name in workloads.NAMES:
        command = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", "1", "--trace", "1"]
        subprocess.run(command, check=True, capture_output=True, cwd=ROOT, timeout=900)
        layers = json.loads(record_path(name, args.seed, 1).read_text())["layers"]
        for counter, want in expected_counts(workloads.make(name, args.seed)).items():
            got = layers[counter]
            ok = ok and got == want
            print(f"{name:18s} {counter:30s} traced {got:>12d} closed form {want:>12d} {'ok' if got == want else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
