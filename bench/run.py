"""Benchmark of starpinch: one workload, run in this one process.

    python3 bench/run.py --workload scaling-n2 --seed 1 --seconds 25 --trace 0

The run sets up (imports, inputs, calibration), then repeats whole passes
over the workload's fixed list of operations until one more pass would
take the pass time past ``--seconds`` (at least two passes).  With
``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the median
of six fresh-interpreter set-up probes (``probe.py``) spread through the
run; ``pass_s``, the median pass time; and ``peak_rss_mb``, the peak
resident memory of this process after the passes.  Both times are given at
the reference machine's speed: the run samples a fixed kernel
(``speed.py``) before and after every operation and probe and divides the
wall time by the host's slowdown it measured (the wall times are kept in
the run record).  With ``--trace 1`` it wraps the library's public
functions (``tracing.py``), runs no probes and no kernel, and reports the
per-layer wall times and counts of a median pass instead.  Either way every output
is checked, known-answer runs on unperturbed spheres follow the passes,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Output files go
to ``.bench_out/<workload>/``.

``--seed`` is accepted and recorded, but no random seed enters the inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
PROBES = 6
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("scaling-n2", "pinch-n3", "identities"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted, failed (raised or wrong output) and wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, operations, label: str, timed):
        """Run (name, thunk) pairs, each inside a ``timed()`` span.

        Returns the outputs of those that did not raise, and the wall time
        and the scaled time (``speed.Span``) of all of them.
        """
        outputs, wall, scaled = {}, 0.0, 0.0
        for name, thunk in operations:
            with timed() as span:
                try:
                    outputs[name] = thunk()
                except Exception:
                    self.failed += 1
                    print(f"{label} {name}: raised\n{traceback.format_exc()}", file=sys.stderr)
            wall += span.wall
            scaled += span.scaled
        self.attempted += len(operations)
        return outputs, wall, scaled

    def check(self, problems: dict, label: str) -> None:
        for name, found in problems.items():
            if found:
                self.failed += 1
                self.wrong += 1
                print(f"{label} {name}: " + "; ".join(found), file=sys.stderr)


def time_probe(workload: str, out_dir: Path, gauge) -> tuple:
    """Seconds from spawning probe.py to its ``ready`` line: wall time, and
    that time at the reference machine's speed, from the gauge's samples
    before the spawn and after the probe has ended (sampling while it runs
    would slow it down)."""
    argv = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
            "--out", str(out_dir)]
    before = gauge.slowdown()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    wall = ready - start
    return wall, wall * (1.0 / before + 1.0 / gauge.slowdown()) / 2.0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    # one core for this process and its probes, so the gauge samples the
    # core that the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from starpinch import symfun

    import speed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = bootstrap.OUT / workload.name
    tracer = tracing.Tracer() if args.trace else None
    gauge = None if tracer else speed.Gauge()
    timed = gauge.timed if gauge else speed.wall_timed
    tally = Tally()
    passes, walls, elapsed, layers, probes = [], [], [], [], []

    with tracer.installed() if tracer else nullcontext():
        setup = tracer.snapshot() if tracer else None
        workload.prepare(out_dir / "inputs")
        for n in workload.dims:
            symfun.default_c_n(n)
        setup_layers = tracer.since(setup) if tracer else None

        while True:
            if not tracer and len(probes) < PROBES:
                probes.append(time_probe(workload.name, out_dir / "probe", gauge))
            gc.collect()
            snap = tracer.snapshot() if tracer else None
            operations = workload.operations()
            start = time.perf_counter()
            outputs, wall, scaled = tally.run(operations, f"pass {len(passes) + 1}", timed)
            elapsed.append(time.perf_counter() - start)
            walls.append(wall)
            passes.append(scaled)
            if tracer:
                layers.append(tracer.since(snap))
            tally.check(workload.check(outputs), f"pass {len(passes)}")
            del outputs
            if (len(passes) >= MIN_PASSES
                    and sum(elapsed) + statistics.median(elapsed) > args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    while not tracer and len(probes) < PROBES:
        probes.append(time_probe(workload.name, out_dir / "probe", gauge))

    known = workloads.KnownAnswers()
    tally.check(known.check(tally.run(known.operations(), "known answer", speed.wall_timed)[0]),
                "known answer")

    if tracer:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        # calibration runs once per process, during set-up
        values["symfun.calibrate_s"] = setup_layers["symfun.calibrate_s"]
    else:
        values = {"setup_s": statistics.median(scaled for _, scaled in probes),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": peak_rss_mb}
    # counts repeat exactly from pass to pass, so their median is a whole number
    metrics = {name: {"value": int(value) if unit(name) == "count" else value, "unit": unit(name)}
               for name, value in values.items()}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  threads=bootstrap.THREADS, pass_s=passes, pass_wall_s=walls,
                  setup_probes_s=[scaled for _, scaled in probes],
                  setup_probes_wall_s=[wall for wall, _ in probes],
                  slowdowns=gauge.samples if gauge else [],
                  per_pass_layers=layers,
                  spans=tracer.span_records() if tracer else [])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"bench {workload.name}: {len(passes)} passes, {bootstrap.THREADS} BLAS/OpenMP "
          f"thread(s), seed {args.seed} recorded (no random input)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
