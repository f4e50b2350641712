"""Status, budget use and pricing work of `limited_ea` on a fixed grid.

Runs `limited_ea` at its defaults on 14 channels at budgets 0, 0.1, 0.25,
0.5, 0.75, 1 and infinity (98 runs), with BLAS pinned to one thread.  The
channels are identity_channel(2), depolarizing(0.3), amplitude_damping(0.2),
dephasing(0.25), bit_flip(0.1), `random_channel(default_rng([5, k]), 2, 2,
1 + k % 3)` for k = 0-5 and `random_channel(default_rng([6, k]), 3, 3, 2)`
for k = 0-2.  Prints one line per run (channel, budget, value in full
precision, status, average input entropy and its excess over the budget,
member count, the rows the density pricing evaluated, seconds), then the
runs per status, the total rows, the largest excess and the total time.
The rows are counted by wrapping `qchancap.ea.minimize_on_sphere` while
`_limited_pricing` runs.  ROADMAP item 9 (bound limited-EA) reuses the grid.

    python tools/limited_ea_scan.py [--src PATH]

Needs numpy and the package only.  The exit status is 0 whatever the runs
return.
"""

import argparse
import collections
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BUDGETS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, float("inf"))


def channels():
    """(label, channel) pairs of the grid; imports the package from --src."""
    import numpy as np

    from qchancap import channels as ch_mod, core

    named = [("identity", core.identity_channel(2)),
             ("depolarizing(0.3)", ch_mod.depolarizing(0.3)),
             ("amplitude_damping(0.2)", ch_mod.amplitude_damping(0.2)),
             ("dephasing(0.25)", ch_mod.dephasing(0.25)),
             ("bit_flip(0.1)", ch_mod.bit_flip(0.1))]
    named += [(f"random[5, {k}]", core.random_channel(np.random.default_rng([5, k]), 2, 2, 1 + k % 3))
              for k in range(6)]
    named += [(f"random[6, {k}]", core.random_channel(np.random.default_rng([6, k]), 3, 3, 2))
              for k in range(3)]
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qchancap/")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np

    from qchancap import ea
    from qchancap.info import limited_ea_objective

    rows, pricing = [0], [False]
    search, price = ea.minimize_on_sphere, ea._limited_pricing

    def counted_search(fun_grad, *rest, **kwargs):
        def counted(v):
            rows[0] += len(v) if pricing[0] else 0
            return fun_grad(v)
        return search(counted, *rest, **kwargs)

    def flagged_pricing(*a, **kwargs):
        pricing[0] = True
        try:
            return price(*a, **kwargs)
        finally:
            pricing[0] = False

    ea.minimize_on_sphere, ea._limited_pricing = counted_search, flagged_pricing

    statuses, total_rows, worst, spent = collections.Counter(), 0, -np.inf, 0.0
    for label, ch in channels():
        for budget in BUDGETS:
            rows[0] = 0
            started = time.perf_counter()
            value, ens, status = ea.limited_ea(ch, budget)
            seconds = time.perf_counter() - started
            _, entropy = limited_ea_objective(ch, ens)
            statuses[status] += 1
            total_rows += rows[0]
            worst = max(worst, entropy - budget)
            spent += seconds
            print(f"{label} B={budget:g}: {float(value)!r} {status} entropy {entropy:.6f} "
                  f"(excess {entropy - budget:.2e}) members {len(ens.probs)} rows {rows[0]} "
                  f"{seconds:.2f}s", flush=True)
    print("runs per status: " + ", ".join(f"{s}: {n}" for s, n in sorted(statuses.items())))
    print(f"pricing rows: {total_rows}")
    print(f"largest budget excess: {worst:.2e}")
    print(f"limited_ea time: {spent:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
