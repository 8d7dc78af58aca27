"""Run every workload, untraced and traced, and print every metric by name.

    python3 perfbench/run_all.py --seed 1 --seconds 20

Each (workload, trace) pair is one ``run.py`` process. The table lists the
end-to-end metrics (trace 0) and the per-layer metrics (trace 1) with unit
and sample count, then any failed check. Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import OUT, ROOT, record_path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    ok = True
    environment_shown = False
    print(f"{'workload':18s} {'metric':32s} {'value':>14s} {'unit':6s} samples")
    for name in workloads.NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if done.returncode != 0:
                print(f"{name}: run.py exited {done.returncode}\n{done.stderr}")
                ok = False
                continue
            record = json.loads(record_path(name, args.seed, trace).read_text())
            environment = dict(record["environment"])
            state_bytes = environment.pop("state_vector_bytes")
            if not environment_shown:
                print(f"# environment {json.dumps(environment)}")
                environment_shown = True
            if trace == 0:
                print(f"# {name}: state vector {state_bytes} B; inputs {' '.join(record['inputs']['flags'])}")
                host = ", ".join(f"{key} {value:.4g}" for key, value in record["host_seconds"].items())
                print(f"# {name}: host seconds (medians, before scaling to reference seconds): {host}")
            result = record["result"]
            ok = ok and result["correct"]
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                value = "null" if value is None else str(value) if isinstance(value, int) else format(value, ".6g")
                print(f"{name:18s} {metric:32s} {value:>14s} {entry['unit']:6s} {record['samples'][metric]}")
            for message in record["failures"]:
                print(f"{name:18s} FAILED {message}")
    print(f"# records and spans in {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
