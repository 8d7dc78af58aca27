"""Child process of the set-up measurement: run the CLI up to its first evaluation.

    python3 perfbench/setup_probe.py landscape --graph g.txt ... --out dir

Imports nvqaoa from ``src/``, parses the arguments and loads and validates
the inputs exactly as ``nvqaoa.cli.main`` does, then stops where the scan or
convergence driver would start and prints ``time.monotonic()`` at that moment.
The parent subtracts its own clock reading taken just before the spawn.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nvqaoa import cli  # noqa: E402  (the import is part of the timed set-up)


class FirstEvaluation(Exception):
    pass


def _stop(*args, **kwargs):
    raise FirstEvaluation(time.monotonic())


cli.run_scan = cli.convergence_profile = _stop
try:
    code = cli.main(sys.argv[1:])
except FirstEvaluation as reached:
    print(repr(reached.args[0]))
    sys.exit(0)
sys.exit(f"set-up probe stopped before the first evaluation (exit {code})")
