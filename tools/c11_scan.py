"""Exit codes and statuses of `c11` on every bundled quantum channel file.

Runs `python -m qchancap.cli c11 --channel F --seed S` for the ten bundled
files with Kraus operators at seeds 0-2, one process per run with BLAS
pinned to one thread, and prints one line per run (file, seed, exit code,
status, value_bits, seconds, last stderr line), then the number of runs per
exit code.  Last-bit changes to the measurement master's inputs change which
of these runs exit 1 (ROADMAP item 3), so every change to C_{1,1}'s
arithmetic should compare this listing before and after.

    python tools/c11_scan.py [--src PATH]

Standard library only.  The exit status is 0 whatever the runs return.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 3  # seeds 0-2
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def quantum_files(package: Path) -> list:
    """Bundled channel files that hold Kraus operators, by name."""
    return sorted(p.name for p in (package / "data").glob("*.qch")
                  if "kraus" in json.loads(p.read_text(encoding="utf-8")))


def report_field(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qchancap/")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in THREADS})
    codes = collections.Counter()
    for name in quantum_files(src / "qchancap"):
        for seed in range(SEEDS):
            started = time.monotonic()
            run = subprocess.run(
                [sys.executable, "-m", "qchancap.cli", "c11", "--channel", name, "--seed", str(seed)],
                capture_output=True, text=True, env=env, cwd=src)
            seconds = time.monotonic() - started
            err = run.stderr.strip().splitlines()
            codes[run.returncode] += 1
            print(f"{name} {seed} exit {run.returncode} "
                  f"{report_field(run.stdout, 'status')} {report_field(run.stdout, 'value_bits')} "
                  f"{seconds:.1f}s {err[-1] if err else '-'}", flush=True)
    print("runs per exit code: " + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
