"""Benchmark of the sbpml solver: three workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload cavity-desk --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the package from ``src/``.  It
runs whole rounds of the workload, after an untimed warm-up round where the
workload has one, until ``--seconds`` have passed, and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from spans around the calls into each module (spans.py).
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS before numpy loads: the reference machine has 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cavity-desk", "waveguide-table", "spectra-scans")

# Set-up is timed this many times per run, and the median reported.
SETUP_REPEATS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import sbpml.scenarios_cli; print(time.perf_counter() - t)"


def measure_setup(workload):
    """Median seconds to import the package in a fresh interpreter, and to build the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        imports.append(float(out.stdout))
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports), statistics.median(builds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sbpml" / "__init__.py").is_file():
        print(f"error: no sbpml package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads

    wrong = checks.self_test()
    if wrong:
        print("error: these checks accept a planted violation:", *wrong, sep="\n  ", file=sys.stderr)
        return 3

    out_dir = HERE / "out"
    (out_dir / args.workload).mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(out_dir / args.workload))
    if not args.trace:
        import_s, build_s = measure_setup(wl)
    tracer = spans.Tracer() if args.trace else spans.NoTrace()
    ops = workloads.Ops(tracer)

    walls, rates, layers = [], [], []
    if args.trace:
        tracer.install()
    try:
        for _ in range(wl.WARMUP_ROUNDS):
            wl.round(ops)
        start = time.perf_counter()
        while True:
            first = tracer.mark() if args.trace else 0
            t0 = time.perf_counter()
            work = wl.round(ops)
            wall = time.perf_counter() - t0
            walls.append(wall)
            if args.trace:
                layers.append(tracer.round_metrics(first, wall))
            else:
                # Time-domain workloads build inside run_scenario: take the
                # separately measured build off, leaving the stepping.
                rates += [units / (secs - (build_s if wl.RUNS_BUILD else 0.0)) for units, secs in work if units]
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if args.trace:
            tracer.uninstall()

    for line in ops.wrong:
        print("check failed:", line)
    print(f"{args.workload}: {len(walls)} round(s), round wall {', '.join(f'{w:.3f}' for w in walls)} s")

    last_untraced = out_dir / f"{args.workload}_untraced.json"
    if args.trace:
        # Counts repeat exactly from round to round; times are medians.
        metrics = {k: statistics.median_low(r[k] for r in layers) if isinstance(layers[0][k], int)
                   else statistics.median(r[k] for r in layers) for k in spans.PER_LAYER_UNITS}
        units = spans.PER_LAYER_UNITS
        if tracer.missing:
            print("not traced (attribute not found):", ", ".join(tracer.missing))
        tracer.write(out_dir / f"trace_{args.workload}.npz")
        if last_untraced.is_file():
            base = json.loads(last_untraced.read_text())["wall_s"]
            print(f"tracing overhead: {metrics['trace.round_wall_s'] / base - 1:+.1%} against the last untraced run")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": import_s + build_s,
            "steps_per_s": statistics.median(rates) if rates else 0.0,  # 0 only when every run failed
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}
        print(f"setup: import {import_s:.4f} s, build {build_s:.4f} s")
        last_untraced.write_text(json.dumps(metrics))

    result = {
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
