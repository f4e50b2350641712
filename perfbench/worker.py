"""Run one workload in this process and print its result as JSON.

Started by run.py, which sets the BLAS thread variables first.  With
--setup-only it imports the program, builds the first round's inputs and
exits, so that run.py can time set-up in fresh processes.  Otherwise it
warms up, then runs whole rounds of the workload's ops until --seconds have
passed, checking every op.  With --trace 1 it runs round 0 untraced, then
the same round and further ones traced, compares the reported values of the
two copies of round 0, and reports per-layer metrics.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CALIBRATIONS_PER_GAP = 2


def run_op(op):
    """Time one op, then check it; returns (output, seconds, failure or None)."""
    started = time.perf_counter()
    try:
        out = op.run()
    except Exception as err:  # the op failed: count it and go on
        return None, time.perf_counter() - started, f"raised {type(err).__name__}: {err}"
    elapsed = time.perf_counter() - started
    try:
        op.check(out)
    except Exception as err:
        return out, elapsed, f"check: {type(err).__name__}: {err}"
    return out, elapsed, None


class Tally:
    """Runs rounds of ops and keeps their times.  Before a round's first op
    and after each op it also times CALIBRATIONS_PER_GAP host calibrations
    (hostclock); the run's times are scaled by the mean of all of them.  A
    single calibration follows the host's speed over the next second or so,
    so only many, spread over the run, measure the drift between runs."""

    def __init__(self, calibrate=hostclock.calibrate):
        self.calibrate = calibrate
        self.attempted = 0
        self.failures = []
        self.op_times = []
        self.round_times = []
        self.calibrations = []

    def _calibrate(self):
        if self.calibrate is not None:  # None in traced runs, which report no times
            self.calibrations += [self.calibrate() for _ in range(CALIBRATIONS_PER_GAP)]

    def run_round(self, ops, round_index, tracer=None):
        digests, times = [], []
        self._calibrate()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{round_index}:{i}:{op.name}"
            out, elapsed, failure = run_op(op)
            self._calibrate()
            self.attempted += 1
            times.append(elapsed)
            if failure:
                self.failures.append(f"round {round_index} op {op.name}: {failure}")
                digests.append(None)
            else:
                digests.append(op.digest(out))
        self.op_times += times
        self.round_times.append(sum(times))
        return digests, sum(times)


def mismatched_ops(ops, reference, again):
    """Ops whose untraced and traced copies of round 0 report different
    values; an op that failed in either copy has none to compare."""
    return [op.name for op, a, b in zip(ops, reference, again) if a is None or b is None or a != b]


def is_correct(tally, mismatched) -> bool:
    """True only if every op passed its check and tracing changed nothing."""
    return not tally.failures and not mismatched


def import_program():
    if not (SRC / "qchancap" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'qchancap'}")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (the engines' L-BFGS)
    import qchancap
    import qchancap.cli  # noqa: F401  (also imports every engine module)
    import qchancap.oracles  # noqa: F401

    if Path(qchancap.__file__).resolve().parent != (SRC / "qchancap").resolve():
        raise SystemExit(f"error: imported qchancap from {qchancap.__file__}, not {SRC}")
    return numpy.__version__, scipy.__version__


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    versions = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    if args.setup_only:
        return 0

    wl.warmup(state)
    tally = Tally(calibrate=None) if args.trace else Tally()
    result = {"numpy": versions[0], "scipy": versions[1]}
    started = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        reference, untraced_s = tally.run_round(wl.ops(state, args.seed, 0), 0)
        tracer = Tracer()
        tracer.install()
        try:
            again, traced_s = tally.run_round(wl.ops(state, args.seed, 0), 0, tracer)
            r = 1
            while time.perf_counter() - started < args.seconds:
                tally.run_round(wl.ops(state, args.seed, r), r, tracer)
                r += 1
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(rounds=r)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        mismatched = mismatched_ops(wl.ops(state, args.seed, 0), reference, again)
        result["traced_rounds"] = r
        result["untraced_mismatch"] = mismatched
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
        result["span_count"] = len(tracer.spans)
    else:
        r = 0
        while r == 0 or time.perf_counter() - started < args.seconds:
            tally.run_round(wl.ops(state, args.seed, r), r)
            r += 1
        wall, op_p50 = statistics.median(tally.round_times), statistics.median(tally.op_times)
        metrics = {
            "wall_s": hostclock.to_reference(wall, tally.calibrations),
            "op_p50_s": hostclock.to_reference(op_p50, tally.calibrations),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["rounds"] = r
        result["op_samples"] = len(tally.op_times)
        result["round_times_s"] = tally.round_times
        result["measured_wall_s"] = wall
        result["measured_op_p50_s"] = op_p50
        result["calibration_s"] = statistics.mean(tally.calibrations)
        mismatched = []
    result.update(
        correct=is_correct(tally, mismatched),
        attempted=tally.attempted,
        failed=len(tally.failures),
        failures=tally.failures,
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
