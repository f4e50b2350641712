"""How often does `c1inf` report `converged` while a fresh pricing finds a violator?

Runs `c1inf` at its defaults on `random_channel(default_rng([9, d, k, i]), d,
d, k)` for d in {3, 4}, k in {2, 3} and i = 0-9, at c1inf seeds 0-3 (160
runs), with BLAS pinned to one thread.  Each run is then repriced at its
returned tau with 256 starts from another stream,
`pricing_search(ch, res.tau, 256, default_rng([7, seed]))`.  A run is a false
`converged` when it reports `converged` and the repricing finds a violation
above its dual_gap + tol (ROADMAP item 2).  Prints each false run, then the
count per d, the total `c1inf` time and the work behind it: the batched calls
of the search objective (pricing and polish) and the rows they evaluated
(repricing excluded from all three).  The counts repeat exactly from run to
run, where the time drifts with the host.

    python tools/c1inf_audit.py [--src PATH]

Needs numpy and the package only.  The exit status is 0 whatever the runs
return.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DIMS, KRAUS, CHANNELS, SEEDS = (3, 4), (2, 3), 10, 4
REPRICE_STARTS = 256


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qchancap/")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np

    from qchancap.c1inf import C1InfOptions, C1InfProblem, c1inf, pricing_search
    from qchancap.core import random_channel

    # the package exports the c1inf function under its module's name
    engine = sys.modules["qchancap.c1inf"]
    search = engine.minimize_on_sphere
    calls = []  # rows of each batched search-objective call

    def counted(fun_grad, *args, **kwargs):
        return search(lambda v: calls.append(len(v)) or fun_grad(v), *args, **kwargs)

    engine.minimize_on_sphere = counted
    spent, batches, rows = 0.0, 0, 0
    for d in DIMS:
        false, runs = 0, 0
        for k in KRAUS:
            for i in range(CHANNELS):
                ch = random_channel(np.random.default_rng([9, d, k, i]), d, d, k)
                for seed in range(SEEDS):
                    calls.clear()
                    started = time.perf_counter()
                    res = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=seed)))
                    spent += time.perf_counter() - started
                    batches, rows = batches + len(calls), rows + sum(calls)
                    runs += 1
                    if res.status != "converged":
                        continue
                    found = pricing_search(ch, res.tau, REPRICE_STARTS, np.random.default_rng([7, seed]))
                    worst = max((v for v, _ in found), default=0.0)
                    if worst > res.dual_gap + C1InfOptions().tol:
                        false += 1
                        print(f"[9, {d}, {k}, {i}] seed {seed}: converged at {res.value:.10f} with "
                              f"dual_gap {res.dual_gap:.1e}, repriced violation {worst:.2e}", flush=True)
        print(f"d = {d}: {false} of {runs} runs falsely converged")
    print(f"c1inf time: {spent:.1f} s, search objective: {batches} batched calls, {rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
