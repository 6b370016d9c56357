"""One set-up probe: a fresh interpreter brought to the point of running.

Imports starpinch and its CLI (which pulls in scipy.optimize), builds the
workload's inputs and config files, and runs the lazy ``default_c_n``
calibration that the first ``run_pinch`` of a process pays; then prints
``ready``.  ``run.py``
times a probe from its spawn to that line.

    python3 bench/probe.py --workload identities --out .bench_out/identities/probe
"""

import argparse
import sys
from pathlib import Path

import bootstrap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    bootstrap.prepare()

    import starpinch.cli  # noqa: F401
    from starpinch import symfun

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(args.out)
    for n in workload.dims:
        symfun.default_c_n(n)
    print("ready", flush=True)


if __name__ == "__main__":
    sys.exit(main())
