"""Benchmark entry point.

    python3 perfbench/run.py --workload c11_accinfo --seed 1 --seconds 20 --trace 0

Run from the repository root.  Pins BLAS to one thread, times set-up in
fresh processes, runs the workload in one more fresh process (worker.py),
and prints its result; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("c11_accinfo", "holevo_qubit", "oracle_grids")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_command(args, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def time_setup(args, env, deadline):
    """Wall time of fresh processes that import the program and build the
    inputs, then exit; the median of several, and all of them."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(worker_command(args, "--setup-only"), env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qchancap" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    os.environ.update(env)  # before this process imports numpy (hostclock)
    sys.path.insert(0, str(HERE))

    try:
        if not args.trace:
            setup_s, setup_samples = time_setup(args, env, deadline)
        proc = subprocess.run(worker_command(args), env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = result.pop("metrics")
    if not args.trace:
        import hostclock

        # set-up ran just before the workload: scale it by the workload's calibrations
        metrics["setup_s"] = hostclock.to_reference(setup_s, [result["calibration_s"]])
        result["setup_samples_s"] = setup_samples
    units = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    if args.trace:
        from tracer import per_layer_metrics

        units = {name: unit for name, unit, _ in per_layer_metrics()}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"numpy {result['numpy']} scipy {result['scipy']} nproc {len(os.sched_getaffinity(0))} "
          f"threads {','.join(f'{v}=1' for v in THREAD_VARS)}")
    for key, value in result.items():
        if key not in ("correct", "attempted", "failed", "numpy", "scipy"):
            print(f"{key}: {json.dumps(value)}")
    print(f"ops attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
