"""Benchmark of the cssnmf command line, one workload per invocation.

    python3 bench/run.py --workload synth_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead.  Lines before it, each
starting with ``#``, give host information and the metrics as a table.
Scratch files go to ``.bench_work/`` in the checkout; results and spans stay
in ``.bench_work/results/``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cap_blas_threads():
    """Use no more BLAS threads than the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cssnmf" / "cli.py").is_file():
        print(f"error: no cssnmf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    # numpy must not load before the thread cap is in the environment.
    sys.path.insert(0, str(SRC))
    import harness

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    return harness.main(args, units, nproc)


if __name__ == "__main__":
    sys.exit(main())
