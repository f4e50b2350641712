"""Per-layer tracing from outside the program.

The tracer wraps public functions of the qchancap modules.  The engines
import those functions by name, so each wrapper replaces the name in every
qchancap module that holds the original, the defining module included.  A
wrapped call records a span (name, start, end, parent span, op id) in memory;
`write_spans` saves them when the run ends.  Some functions only count
calls, because their own cost is close to that of a wrapper.  The oracles'
entropy kernels count the evaluations they are handed, which is the work the
grids actually do.  Wrappers pass arguments and results through unchanged,
so tracing never changes output.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs that get a span: calls, inclusive s and self_s
SPANNED = [
    ("cli", "main"),
    ("channels", "parse_channel"),
    ("c11", "c11"),
    ("c11", "optimize_measurement"),
    ("c11", "measurement_pricing"),
    ("c1inf", "c1inf"),
    ("c1inf", "pricing_search"),
    ("lp", "solve_lp"),
    ("lp", "column_generation"),
    ("optim", "minimize_on_sphere"),
    ("optim", "ascend_density_step"),
    ("optim", "line_max_concave"),
    ("ea", "c_ea"),
    ("info", "holevo_chi"),
    ("info", "accessible_information_given"),
    ("oracles", "grid_density_objective"),
    ("oracles", "simplex_enumerate_chi"),
    ("oracles", "grid_accessible_info_2d"),
]
COUNTED = [
    ("core", "channel_output_pure"),
    ("core", "channel_apply_mat"),
    ("core", "adjoint_apply"),
    ("core", "environment_output"),
]
# private entropy kernels of qchancap.oracles -> trailing axes that form one
# evaluation (a number for the binary entropy and x log x, a matrix for the
# batched von Neumann entropy); only the three grid oracles call them
ORACLE_KERNELS = {"_h2": 0, "_xlog2x": 0, "_entropy_batch": 2}
# added quantities: name -> (unit, better)
EXTRA = {
    "optim.minimize_on_sphere.starts": ("count", "lower"),
    "optim.minimize_on_sphere.fun_evals": ("count", "lower"),
    "optim.minimize_on_sphere.fun_s": ("s", "lower"),
    "optim.minimize_on_sphere.distinct_ratio": ("ratio", "higher"),
    "optim.ascend_density_step.grad_evals": ("count", "lower"),
    "optim.ascend_density_step.moved_ratio": ("ratio", "higher"),
    "optim.line_max_concave.deriv_evals": ("count", "lower"),
    "c11.c11.alternations": ("count", "lower"),
    "c11.measurement_pricing.columns": ("count", "lower"),
    "c11.measurement_pricing.hit_ratio": ("ratio", "higher"),
    "c1inf.c1inf.rounds": ("count", "lower"),
    "c1inf.c1inf.columns_final": ("count", "lower"),
    "c1inf.pricing_search.hit_ratio": ("ratio", "higher"),
    "lp.solve_lp.pivots": ("count", "lower"),
    "lp.solve_lp.warm_calls": ("count", "higher"),
    "lp.solve_lp.max_cols": ("count", "lower"),
    "lp.column_generation.rounds": ("count", "lower"),
    "ea.c_ea.iterations": ("count", "lower"),
    "oracles.entropy_evals": ("count", "lower"),
    "oracles.entropy_evals_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
# added quantities that are totals, reported per round
PER_ROUND = (
    "optim.minimize_on_sphere.starts", "optim.minimize_on_sphere.fun_evals",
    "optim.minimize_on_sphere.fun_s", "optim.ascend_density_step.grad_evals",
    "optim.line_max_concave.deriv_evals", "c11.c11.alternations", "c11.measurement_pricing.columns",
    "c1inf.c1inf.rounds", "lp.solve_lp.pivots", "lp.solve_lp.warm_calls",
    "lp.column_generation.rounds", "ea.c_ea.iterations", "oracles.entropy_evals",
)
ORACLE_FUNCS = ("grid_density_objective", "simplex_enumerate_chi", "grid_accessible_info_2d")


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for mod, fn in SPANNED:
        out += [(f"{mod}.{fn}.calls", "count", "lower"), (f"{mod}.{fn}.s", "s", "lower"),
                (f"{mod}.{fn}.self_s", "s", "lower")]
    out += [(f"{mod}.{fn}.calls", "count", "lower") for mod, fn in COUNTED]
    out += [(name, unit, better) for name, (unit, better) in EXTRA.items()]
    return out


# --------------------------------------------------------------- the tracer

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.stats = defaultdict(float)
        self._patches = []

    # -- wrapping

    def _timed(self, fn, count_key, time_key):
        """Wrap a callable the program passes around (objective, gradient,
        derivative) to count and time its calls."""
        stats, clock = self.stats, time.perf_counter

        def inner(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[count_key] += 1
                if time_key:
                    stats[time_key] += clock() - t

        return inner

    def _span(self, name, fn):
        tracer, clock, hooks = self, time.perf_counter, _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if hooks and hooks[0]:
                args, kwargs = hooks[0](tracer, args, kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tracer.stack.pop()
            if hooks and hooks[1]:
                hooks[1](tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stats = self.stats
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, fn, trailing):
        stats = self.stats

        def wrapper(x, *args, **kwargs):
            shape = np.shape(x)
            stats["oracles.entropy_evals"] += int(np.prod(shape[:len(shape) - trailing]))
            return fn(x, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, modules, fn, orig, wrapped):
        for m in modules:
            if getattr(m, fn, None) is orig:
                setattr(m, fn, wrapped)
                self._patches.append((m, fn, orig))

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qchancap" or n.startswith("qchancap."))]
        for kind, targets in ((self._span, SPANNED), (self._counter, COUNTED)):
            for mod, fn in targets:
                orig = getattr(sys.modules[f"qchancap.{mod}"], fn)
                self._patch(modules, fn, orig, kind(f"{mod}.{fn}", orig))
        oracles = sys.modules["qchancap.oracles"]
        for fn, trailing in ORACLE_KERNELS.items():
            orig = getattr(oracles, fn)
            self._patch([oracles], fn, orig, self._kernel(orig, trailing))

    def uninstall(self):
        for m, fn, orig in reversed(self._patches):
            setattr(m, fn, orig)
        self._patches.clear()

    # -- results

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round means of every per-layer metric (ratios are ratios of the
        totals)."""
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:  # outermost call of this name: count its time once
                incl[name] += end - start
        st = self.stats
        out = {}
        for mod, fn in SPANNED:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.s"] = incl[key] / rounds
            out[f"{key}.self_s"] = self_s[key] / rounds
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = st[f"{mod}.{fn}.calls"] / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        for key in PER_ROUND:
            out[key] = st[key] / rounds
        out["lp.solve_lp.max_cols"] = st["lp.solve_lp.max_cols"]
        out["optim.minimize_on_sphere.distinct_ratio"] = ratio(
            st["optim.minimize_on_sphere.distinct"], st["optim.minimize_on_sphere.starts"])
        out["optim.ascend_density_step.moved_ratio"] = ratio(
            st["optim.ascend_density_step.moved"], calls["optim.ascend_density_step"])
        out["c11.measurement_pricing.hit_ratio"] = ratio(
            st["c11.measurement_pricing.hits"], calls["c11.measurement_pricing"])
        out["c1inf.pricing_search.hit_ratio"] = ratio(
            st["c1inf.pricing_search.hits"], calls["c1inf.pricing_search"])
        out["c1inf.c1inf.columns_final"] = ratio(
            st["c1inf.c1inf.columns_final"], calls["c1inf.c1inf"])
        oracle_s = sum(incl[f"oracles.{f}"] for f in ORACLE_FUNCS)
        out["oracles.entropy_evals_per_s"] = ratio(st["oracles.entropy_evals"], oracle_s)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ------------------------------------------------ per-function hooks
# before(tracer, args, kwargs) -> (args, kwargs); after(tracer, args, kwargs, out)

def _merge_positional(args, kwargs, names):
    """Turn positional arguments into keywords so a hook can replace one."""
    merged = dict(zip(names, args))
    merged.update(kwargs)
    return merged


def _sphere_before(t, args, kwargs):
    kw = _merge_positional(args, kwargs, ("fun_grad", "dim", "start_vectors", "gtol", "maxiter",
                                          "distinct_tol"))
    kw["start_vectors"] = list(kw["start_vectors"])
    t.stats["optim.minimize_on_sphere.starts"] += len(kw["start_vectors"])
    kw["fun_grad"] = t._timed(kw["fun_grad"], "optim.minimize_on_sphere.fun_evals",
                              "optim.minimize_on_sphere.fun_s")
    return (), kw


def _sphere_after(t, args, kwargs, out):
    t.stats["optim.minimize_on_sphere.distinct"] += len(out)


def _ascend_before(t, args, kwargs):
    kw = _merge_positional(args, kwargs, ("grad_fn", "rho", "min_direction_norm", "bisect_rounds"))
    kw["grad_fn"] = t._timed(kw["grad_fn"], "optim.ascend_density_step.grad_evals", None)
    return (), kw


def _ascend_after(t, args, kwargs, out):
    t.stats["optim.ascend_density_step.moved"] += bool(out[1])


def _line_before(t, args, kwargs):
    kw = _merge_positional(args, kwargs, ("deriv", "t_max", "rounds"))
    kw["deriv"] = t._timed(kw["deriv"], "optim.line_max_concave.deriv_evals", None)
    return (), kw


def _c11_after(t, args, kwargs, out):
    t.stats["c11.c11.alternations"] += len({(row["restart"], row["alternation"]) for row in out.trace})


def _mpricing_after(t, args, kwargs, out):
    t.stats["c11.measurement_pricing.columns"] += len(out.columns)
    t.stats["c11.measurement_pricing.hits"] += bool(out.columns)


def _c1inf_after(t, args, kwargs, out):
    t.stats["c1inf.c1inf.rounds"] += out.rounds
    t.stats["c1inf.c1inf.columns_final"] += out.trace[-1]["columns"] if out.trace else 0


def _pricing_after(t, args, kwargs, out):
    t.stats["c1inf.pricing_search.hits"] += bool(out)


def _solve_lp_after(t, args, kwargs, out):
    lp = _arg(args, kwargs, 0, "lp")
    t.stats["lp.solve_lp.pivots"] += out.pivots
    t.stats["lp.solve_lp.warm_calls"] += _arg(args, kwargs, 1, "warm_basis") is not None
    t.stats["lp.solve_lp.max_cols"] = max(t.stats["lp.solve_lp.max_cols"], lp.num_cols)


def _colgen_after(t, args, kwargs, out):
    t.stats["lp.column_generation.rounds"] += out[1]


def _cea_after(t, args, kwargs, out):
    t.stats["ea.c_ea.iterations"] += out.iterations


_HOOKS = {
    "optim.minimize_on_sphere": (_sphere_before, _sphere_after),
    "optim.ascend_density_step": (_ascend_before, _ascend_after),
    "optim.line_max_concave": (_line_before, None),
    "c11.c11": (None, _c11_after),
    "c11.measurement_pricing": (None, _mpricing_after),
    "c1inf.c1inf": (None, _c1inf_after),
    "c1inf.pricing_search": (None, _pricing_after),
    "lp.solve_lp": (None, _solve_lp_after),
    "lp.column_generation": (None, _colgen_after),
    "ea.c_ea": (None, _cea_after),
}

