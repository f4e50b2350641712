"""Soundness audit of the engines `c1inf`, `limited_ea` and `c11` on fixed grids.

In one process with BLAS on one thread: `c1inf` on C1INF_CHANNELS at C1INF_SEEDS,
each `converged` run repriced at its tau with 256 fresh starts (a violation above
dual_gap + tol makes a false `converged`, printed; ROADMAP item 2); `limited_ea`
on EA_CHANNELS at EA_BUDGETS, a line per run (item 9); `qchancap c11` through
`cli.main` on C11_FILES at C11_SEEDS, a line per run (item 3).  Then a summary
line per engine and a JSON line of all summary counts.  The work counts, from
package attributes wrapped for the runs and restored after, repeat exactly where
the times drift with the host.

    python tools/audit.py [--src PATH]

Needs numpy and the package only.  Exits 0 whatever the runs return.
"""

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path
from unittest import mock

C1INF_CHANNELS = [(d, k, i) for d in (3, 4) for k in (2, 3) for i in range(10)]
C1INF_SEEDS, REPRICE_STARTS = range(4), 256
EA_CHANNELS = ["identity", "depolarizing(0.3)", "amplitude_damping(0.2)", "dephasing(0.25)",
               "bit_flip(0.1)", *(f"random[5, {k}]" for k in range(6)),
               *(f"random[6, {k}]" for k in range(3))]
EA_BUDGETS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, float("inf"))
C11_FILES = ["amplitude_damping_0.3.qch", "bit_flip_0.1.qch", "bsc_0.11.qch", "dephasing_0.25.qch",
             "depolarizing_0.3.qch", "fully_depolarizing.qch", "identity.qch", "trine.qch",
             "trine2.qch", "two_state_pi3.qch"]
C11_SEEDS = range(3)


def tallied(work, key, fun):
    """fun, counting its calls and its first argument's rows in work."""
    def counted(v, *args, **kwargs):
        work.update({key + "_calls": 1, key + "_rows": len(v)})
        return fun(v, *args, **kwargs)
    return counted


def counted_search(work, key, module):
    """A patch of module.minimize_on_sphere that tallies its objectives' calls under key."""
    search = module.minimize_on_sphere
    return mock.patch.object(module, "minimize_on_sphere", lambda fun_grad, *args, **kwargs:
                             search(tallied(work, key, fun_grad), *args, **kwargs))


def ea_channel(label):
    """The channel an EA_CHANNELS label names: random[5, k] is a qubit channel
    with 1 + k % 3 Kraus operators, random[6, k] a qutrit one with 2."""
    import numpy as np
    from qchancap import channels, core
    if label == "identity":
        return core.identity_channel(2)
    if label.startswith("random"):
        stream, k = json.loads(label[len("random"):])
        d, kraus = (2, 1 + k % 3) if stream == 5 else (3, 2)
        return core.random_channel(np.random.default_rng([stream, k]), d, d, kraus)
    name, arg = label.rstrip(")").split("(")
    return getattr(channels, name)(float(arg))


def audit_c1inf(work):
    import numpy as np
    from qchancap.core import random_channel
    engine = importlib.import_module("qchancap.c1inf")  # the package's `c1inf` is the function
    false, runs, spent, opts = collections.Counter(), collections.Counter(), 0.0, engine.C1InfOptions
    for d, k, i in C1INF_CHANNELS:
        ch = random_channel(np.random.default_rng([9, d, k, i]), d, d, k)
        for seed in C1INF_SEEDS:
            started = time.perf_counter()
            with counted_search(work, "search", engine):  # the repricing below is not counted
                res = engine.c1inf(engine.C1InfProblem(ch, options=opts(seed=seed)))
            spent, runs[d] = spent + time.perf_counter() - started, runs[d] + 1
            if res.status == "converged":
                found = engine.pricing_search(ch, res.tau, REPRICE_STARTS, np.random.default_rng([7, seed]))
                worst = max((v for v, _ in found), default=0.0)
                if worst > res.dual_gap + opts().tol:
                    false[d] += 1
                    print(f"[9, {d}, {k}, {i}] seed {seed}: converged at {res.value:.10f} with "
                          f"dual_gap {res.dual_gap:.1e}, repriced violation {worst:.2e}", flush=True)
    return spent, {"runs": sum(runs.values()), "runs_per_d": {str(d): n for d, n in runs.items()},
                   "false_converged": {str(d): false[d] for d in runs}}


def audit_limited_ea(work):
    from qchancap import ea
    from qchancap.info import limited_ea_objective
    statuses, worst, spent = collections.Counter(), -float("inf"), 0.0
    search, pricing = counted_search(work, "pricing", ea), ea._limited_pricing

    def scoped_pricing(*args, **kwargs):  # only the density pricing's searches count
        with search:
            return pricing(*args, **kwargs)

    with mock.patch.object(ea, "_limited_pricing", scoped_pricing):
        for label in EA_CHANNELS:
            ch = ea_channel(label)
            for budget in EA_BUDGETS:
                rows, started = work["pricing_rows"], time.perf_counter()
                value, ens, status = ea.limited_ea(ch, budget)
                seconds = time.perf_counter() - started
                _, entropy = limited_ea_objective(ch, ens)
                statuses[status] += 1
                worst, spent = max(worst, entropy - budget), spent + seconds
                print(f"{label} B={budget:g}: {float(value)!r} {status} entropy {entropy:.6f} "
                      f"(excess {entropy - budget:.2e}) members {len(ens.probs)} "
                      f"rows {work['pricing_rows'] - rows} {seconds:.2f}s", flush=True)
    return spent, {"runs": sum(statuses.values()), "statuses": dict(sorted(statuses.items())),
                   "largest_budget_excess": worst}


def audit_c11(work):
    from qchancap import cli, lp
    c11, solve = importlib.import_module("qchancap.c11"), lp.solve_lp
    codes, spent = collections.Counter(), 0.0

    def counted_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        work["lp_pivots"] += sol.pivots
        return sol

    with mock.patch.object(c11, "_measurement_rows", tallied(work, "kernel", c11._measurement_rows)), \
            mock.patch.object(lp, "solve_lp", counted_solve):
        for name in C11_FILES:
            for seed in C11_SEEDS:
                out, err, started = io.StringIO(), io.StringIO(), time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(["c11", "--channel", name, "--seed", str(seed)])
                    except Exception as exc:  # a crash exits 1, as it would from the shell
                        code = 1
                        err.write(traceback.format_exception_only(type(exc), exc)[-1])
                seconds = time.perf_counter() - started
                spent, codes[code] = spent + seconds, codes[code] + 1
                report = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
                last = err.getvalue().strip().splitlines() or ["-"]
                print(f"{name} {seed} exit {code} {report.get('status', '-')} "
                      f"{report.get('value_bits', '-')} {seconds:.1f}s {last[-1]}", flush=True)
    return spent, {"runs": sum(codes.values()), "exit_codes": {str(c): n for c, n in sorted(codes.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding qchancap/")
    sys.path.insert(0, str(Path(parser.parse_args(argv).src).resolve()))
    summary = {}
    for engine, audit in (("c1inf", audit_c1inf), ("limited_ea", audit_limited_ea), ("c11", audit_c11)):
        spent, counts = audit(work := collections.Counter())
        summary[engine] = counts = {**counts, **dict(sorted(work.items()))}
        print(f"{engine}: " + ", ".join(f"{key} {json.dumps(n)}" for key, n in counts.items())
              + f"; {spent:.1f} s", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.exit(main())  # main imports numpy, which reads the pin above
