"""Tests for the batched multistart sphere search, the level-batched line
search and the entropy-sum objectives of the density-matrix ascents."""

import collections
import inspect

import numpy as np
import pytest

from qchancap.c11 import _measurement_objective, _measurement_rows, induced_classical_channel
from qchancap.c1inf import _pricing_objective
from qchancap.core import (
    LN2,
    adjoint_apply,
    channel_apply_mat,
    complementary_channel,
    environment_output,
    identity_channel,
    log2_safe,
    random_channel,
    random_density,
    random_pure,
)
from qchancap.ea import coherent_objective, qmi_objective
from qchancap.optim import (
    LINE_LEVEL,
    EntropySum,
    RowKernel,
    ascend_density_step,
    line_max_concave,
    lockstep,
    minimize_on_sphere,
    minimize_on_spheres,
)

from helpers import random_rank_one_povm


def _rayleigh(h):
    """f(v) = v^dag H v on a batch, with its complex gradient 2 H v."""

    def fun_grad(v):
        hv = v @ h.T
        return np.einsum("si,si->s", v.conj(), hv).real, 2.0 * hv

    return fun_grad


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def _random_starts(rng, d, count):
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return list(v / np.linalg.norm(v, axis=1)[:, None])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_search_returns_lowest_eigenvector_first(d):
    rng = np.random.default_rng(30 + d)
    h = _random_hermitian(rng, d)
    eigs, vecs = np.linalg.eigh(h)
    # random starts all descend to the lowest eigenvector; starts placed on
    # the other eigenvectors are stationary and stay there
    starts = _random_starts(rng, d, 8) + [vecs[:, k] for k in range(1, d)]
    minima = minimize_on_sphere(_rayleigh(h), d, starts)
    assert len(minima) == d
    for k, (f, v) in enumerate(minima):
        assert f == pytest.approx(eigs[k], abs=1e-10)
        assert abs(np.vdot(vecs[:, k], v)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_sphere_search_is_deterministic():
    rng = np.random.default_rng(36)
    h = _random_hermitian(rng, 4)
    starts = _random_starts(rng, 4, 6) + [np.linalg.eigh(h)[1][:, 2]]
    runs = [minimize_on_sphere(_rayleigh(h), 4, starts) for _ in range(2)]
    as_bytes = [[(np.float64(f).tobytes(), v.tobytes()) for f, v in run] for run in runs]
    assert as_bytes[0] == as_bytes[1]


# --- several problems in one search ----------------------------------------------

STATIONARY = 5  # index of the problem in _search_problems whose starts are stationary


def _search_problems(d):
    """Problems of one dimension that stop at different iterations: the
    measurement objective at duals of several sizes, a Rayleigh quotient from
    random starts, and one from its eigenvectors (stationary at once)."""
    rng = np.random.default_rng(40 + d)
    problems = []
    for scale in (0.0, 0.3, 1.0, 3.0):
        probs = rng.dirichlet(np.ones(3))
        mats = [random_density(rng, d).mat for _ in range(3)]
        avg = sum(p * m for p, m in zip(probs, mats))
        lam = scale * _random_hermitian(rng, d)
        problems.append((_measurement_objective(probs, mats, avg, lam), _random_starts(rng, d, 8)))
    problems.append((_rayleigh(_random_hermitian(rng, d)), _random_starts(rng, d, 5)))
    h = _random_hermitian(rng, d)
    problems.append((_rayleigh(h), list(np.linalg.eigh(h)[1].T)))
    return problems


def _logged(fun_grad, log, key):
    def inner(v):
        log.append(key)
        return fun_grad(v)

    return inner


def _as_bytes(minima):
    return [(np.float64(f).tobytes(), v.tobytes()) for f, v in minima]


@pytest.mark.parametrize("d", [2, 4])
def test_problems_searched_together_find_their_solo_minima(d):
    problems = _search_problems(d)
    solo_log, joint_log = [], []
    solo = [minimize_on_sphere(_logged(f, solo_log, i), d, starts)
            for i, (f, starts) in enumerate(problems)]
    joint = minimize_on_spheres(
        [(_logged(f, joint_log, i), starts) for i, (f, starts) in enumerate(problems)], d
    )
    assert [_as_bytes(m) for m in joint] == [_as_bytes(m) for m in solo]
    counts = [solo_log.count(i) for i in range(len(problems))]
    assert len(set(counts)) > 2  # the problems stop at different iterations
    # each objective is called as often as alone: none after its problem has
    # stopped, except for the final evaluation of all problems, in order
    assert [joint_log.count(i) for i in range(len(problems))] == counts
    assert joint_log[-len(problems):] == list(range(len(problems)))
    assert counts[STATIONARY] == 2


def test_problems_keep_their_own_minima():
    # a problem without starts finds nothing, and one searched twice in a
    # batch finds its minima twice: duplicates merge within a problem only
    f, starts = _search_problems(2)[0]
    solo = _as_bytes(minimize_on_sphere(f, 2, starts))
    minima = minimize_on_spheres([(f, []), (f, starts), (f, []), (f, starts)], 2)
    assert minima[0] == [] and minima[2] == []
    assert _as_bytes(minima[1]) == _as_bytes(minima[3]) == solo
    assert minimize_on_spheres([(f, [])], 2) == [[]]


def _search_task(problems):
    """Runs its searches one after another and returns their minima."""
    found = []
    for fun_grad, starts in problems:
        found.append((yield fun_grad, np.array(starts)))
    return found


def test_lockstep_answers_each_round_with_one_search_per_dimension(monkeypatch):
    import sys

    optim_module = sys.modules["qchancap.optim"]
    two, three = _search_problems(2), _search_problems(3)
    groups = [two[:1], two[1:3], two[3:], three[:2]]
    calls = []
    real = optim_module.minimize_on_spheres

    def counted(problems, dim):
        calls.append((len(problems), dim))
        return real(problems, dim)

    monkeypatch.setattr(optim_module, "minimize_on_spheres", counted)
    results = lockstep([_search_task(group) for group in groups])
    # round 1: the first search of every task; then tasks drop out as they finish
    assert calls == [(3, 2), (1, 3), (2, 2), (1, 3), (1, 2)]
    for group, found in zip(groups, results):
        d = np.shape(group[0][1])[-1]
        assert [_as_bytes(m) for m in found] == [
            _as_bytes(real([(f, starts)], d)[0]) for f, starts in group
        ]
    assert lockstep([]) == []


def _measurement_problems(d):
    """Measurement pricing problems, each with its own three-state ensemble
    and dual, at dual sizes that make them stop at different iterations."""
    rng = np.random.default_rng(60 + d)
    problems = []
    for scale in (0.0, 0.2, 0.5, 1.0, 3.0):
        probs = rng.dirichlet(np.ones(3))
        mats = [random_density(rng, d).mat for _ in range(3)]
        avg = sum(p * m for p, m in zip(probs, mats))
        lam = scale * _random_hermitian(rng, d)
        problems.append((_measurement_objective(probs, mats, avg, lam), _random_starts(rng, d, 6)))
    return problems


def _evaluations(log):
    """Split a log of problem indices into batched evaluations: each one
    evaluates its live problems in increasing order."""
    evaluations = []
    for i in log:
        if not evaluations or i <= evaluations[-1][-1]:
            evaluations.append([])
        evaluations[-1].append(i)
    return evaluations


@pytest.mark.parametrize("d", [2, 3])
def test_measurement_problems_share_one_kernel_call_per_evaluation(d):
    problems = _measurement_problems(d)
    solo = [_as_bytes(minimize_on_sphere(f, d, starts)) for f, starts in problems]
    # one wrapper per problem: no shared kernel, one call per problem
    apart_log = []
    apart = minimize_on_spheres(
        [(_logged(f, apart_log, i), starts) for i, (f, starts) in enumerate(problems)], d)
    # one kernel: one call per batched evaluation, on the live problems' rows
    shared_log = []
    by_dual = {f.params[-1].tobytes(): i for i, (f, _) in enumerate(problems)}

    def kernel(v, *params):
        assert len(v) == 6 * len(params[-1])
        shared_log.append([by_dual[lam.tobytes()] for lam in params[-1]])
        return _measurement_rows(v, *params)

    shared = minimize_on_spheres(
        [(RowKernel(kernel, *f.params), starts) for f, starts in problems], d)
    assert [_as_bytes(m) for m in shared] == [_as_bytes(m) for m in apart] == solo
    assert shared_log == _evaluations(apart_log)
    assert min(len(live) for live in shared_log) < len(problems)  # some stop early
    assert len(shared_log) < len(apart_log)


# --- line search ----------------------------------------------------------------

def _bisection_reference(deriv, t_max, rounds=12):
    """Scalar derivative bisection, one point per call: the reference result."""
    if t_max <= 0.0:
        return 0.0
    probe = t_max * (1.0 - 1e-9)
    if deriv(probe) >= 0.0:
        return probe
    lo, hi = 0.0, probe
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if deriv(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _g_objective(ch, tau):
    """g(rho) = H(N(rho)) - Tr(tau rho)."""
    return EntropySum([(1.0, ch)], linear=-tau)


def _entropy_line(seed):
    """A real line derivative: g along sigma - rho from a random state rho
    toward a pure sigma, a traceless direction that stays PSD on [0, 1]."""
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, 2, 2, 2)
    g = _g_objective(ch, random_density(rng, 2).mat * rng.normal())
    rho = random_density(rng, 2).mat
    return g.line_deriv(rho, random_pure(rng, 2).projector() - rho), 1.0


_ENTROPY_DERIV, _ENTROPY_T_MAX = _entropy_line(5)

LINE_CASES = {
    "interior root": (lambda t: 0.3712 - t, 1.0),
    "nonnegative at the probe": (lambda t: 0.01 * (1.0 - 0.39 * t), 2.5),
    "negative at 0": (lambda t: -1.0 - t, 1.0),
    # a flat top: bisection keeps points where the derivative is exactly 0
    "flat top": (lambda t: np.maximum(0.3 - t, 0.0) - np.maximum(t - 0.6, 0.0), 1.0),
    "t_max zero": (lambda t: 1.0 - t, 0.0),
    "t_max negative": (lambda t: 1.0 - t, -0.5),
    # not monotone: the search must follow bisection's path, not the last
    # nonnegative point
    "sign changes": (lambda t: np.cos(40.0 * t) + 0.2, 1.0),
    "entropy": (_ENTROPY_DERIV, _ENTROPY_T_MAX),
}


@pytest.mark.parametrize("rounds", [12, 20, 30, 40])
@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_line_search_returns_the_bisection_point(case, rounds):
    deriv, t_max = LINE_CASES[case]
    calls = []

    def batched(ts):
        calls.append(len(ts))
        return np.asarray(deriv(np.asarray(ts)), dtype=float)

    got = line_max_concave(batched, t_max, rounds=rounds)
    want = _bisection_reference(lambda t: float(deriv(np.array([t]))[0]), t_max, rounds)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if t_max > 0.0:
        # one call per LINE_LEVEL rounds (the first also probes the upper end)
        assert 1 <= len(calls) <= -(-rounds // LINE_LEVEL)
        assert max(calls) <= 2**LINE_LEVEL


def test_density_tools_keep_their_leading_parameter_names():
    # the benchmark's tracer wraps these arguments by name; grad_fn and rho
    # are the only ones a caller can pass by position
    params = inspect.signature(ascend_density_step).parameters.values()
    assert [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD] == ["grad_fn", "rho"]
    assert list(inspect.signature(line_max_concave).parameters)[:3] == [
        "deriv", "t_max", "rounds"]


def test_every_function_the_tracer_wraps_exists():
    # perfbench/tracer.py patches these by (module, name); a moved or renamed
    # kernel would leave the trace silently without its layer
    import importlib
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [*tracer.SPANNED, *tracer.COUNTED, *(("oracles", fn) for fn in tracer.ORACLE_KERNELS)]
    assert len(targets) == 25
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"qchancap.{module}"), name, None)), (
            module, name)


# --- entropy-sum objectives -------------------------------------------------------

def _environment_adjoint(ch, x):
    return sum(x[i, j] * (a.conj().T @ b)
               for i, a in enumerate(ch.kraus) for j, b in enumerate(ch.kraus))


def _reference_gradients(ch, tau):
    """Input-side gradients, written out term by term from the Kraus maps."""
    eye = np.eye(ch.dim_in)

    def log_out(mat):
        return adjoint_apply(ch, log2_safe(channel_apply_mat(ch, mat)))

    def log_env(mat):
        return _environment_adjoint(ch, log2_safe(environment_output(ch, mat)))

    return {
        "g": lambda m: -log_out(m) - eye / LN2 - tau,
        "qmi": lambda m: -log2_safe(m) - log_out(m) + log_env(m) - eye / LN2,
        "coherent": lambda m: -log_out(m) + log_env(m),
        "limited": lambda m: -log_out(m) - eye / LN2 + tau,
    }


def _objectives(ch, tau):
    return {
        "g": _g_objective(ch, tau),
        "qmi": qmi_objective(ch),
        "coherent": coherent_objective(ch),
        "limited": EntropySum([(1.0, ch)], linear=tau),
    }


def _channels():
    rng = np.random.default_rng(11)
    chans = [random_channel(rng, 2, 2, k) for k in (1, 2, 3)]
    chans += [random_channel(rng, 3, 3, k) for k in (2, 3)]
    chans.append(induced_classical_channel(random_channel(rng, 2, 2, 2),
                                           random_rank_one_povm(rng, 2, 3)))
    return chans


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("index", range(6))
def test_output_side_derivative_matches_input_side_gradient(index, boundary):
    ch = _channels()[index]
    d = ch.dim_in
    rng = np.random.default_rng([12, index, boundary])
    tau = random_density(rng, d).mat * rng.normal()
    # a rank-deficient state sits on the PSD boundary
    rho = random_density(rng, d, rank=d - 1 if boundary else d).mat
    # sigma - rho toward a pure sigma is traceless and stays PSD on [0, 1]
    sigma = random_pure(rng, d).projector()
    if boundary:
        # move off the boundary, into the interior
        _, vecs = np.linalg.eigh(rho)
        sigma = np.outer(vecs[:, 0], vecs[:, 0].conj())
    direction = sigma - rho
    ts = np.linspace(0.0, 0.9, 9)
    refs = _reference_gradients(ch, tau)
    for name, obj in _objectives(ch, tau).items():
        got = obj.line_deriv(rho, direction)(ts)
        want = [np.trace(refs[name](rho + t * direction) @ direction).real for t in ts]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(obj.grad(rho), refs[name](rho), rtol=0, atol=1e-10,
                                   err_msg=name)


def test_entropy_sums_on_a_stack_give_each_matrix_exactly():
    rng = np.random.default_rng(14)
    for d in (2, 3, 4):
        ch = random_channel(rng, d, d, 2)
        mu = rng.uniform()
        tau = random_density(rng, d).mat * rng.normal()
        limited = EntropySum([(1.0 - mu, identity_channel(d)), (-1.0, complementary_channel(ch))],
                             linear=-tau)
        objectives = [qmi_objective(ch), coherent_objective(ch), limited]
        mats = np.stack([random_density(rng, d, rank=1 + k % d).mat for k in range(28)])
        maps = [lambda m: channel_apply_mat(ch, m), lambda m: environment_output(ch, m),
                lambda m: adjoint_apply(ch, m)]
        maps += [f for obj in objectives for f in (obj.value, obj.grad)]
        for f in maps:
            stacked = np.asarray(f(mats))
            assert stacked.tobytes() == np.stack([f(m) for m in mats]).tobytes()
        for obj in objectives:
            value, grad = obj.value_grad(mats)
            assert value.tobytes() == obj.value(mats).tobytes()
            assert grad.tobytes() == obj.grad(mats).tobytes()


def test_each_output_is_decomposed_once(monkeypatch):
    # value and gradient share one eigh per output (or channel image)
    rng = np.random.default_rng(17)
    ch = random_channel(rng, 3, 3, 2)
    pricing = _pricing_objective(ch, _random_hermitian(rng, 3))
    qmi = qmi_objective(ch)
    rows = np.stack(_random_starts(rng, 3, 5))
    mats = np.stack([random_density(rng, 3).mat for _ in range(5)])
    calls = collections.Counter()

    def counted(name):
        fn = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    pricing(rows)
    assert calls == {"eigh": 1}
    calls.clear()
    qmi.value_grad(mats)
    assert calls == {"eigh": 3}  # one per term


def test_ascent_step_moves_to_the_line_maximum():
    ch = _channels()[3]
    rng = np.random.default_rng(13)
    g = _g_objective(ch, random_density(rng, 3).mat * 0.3)
    rho = random_density(rng, 3).mat
    new, moved, gap = ascend_density_step(g.grad, rho, line_deriv=g.line_deriv)
    assert moved and gap > 0 and g.value(new) > g.value(rho)
    direction = (new - rho) / np.linalg.norm(new - rho)
    # stationary along the step: the derivative changes sign at the new point
    assert abs(g.line_deriv(new, direction)(np.array([0.0]))[0]) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ascent_step_reports_its_frank_wolfe_gap(d):
    rng = np.random.default_rng([15, d])
    ch = random_channel(rng, d, d, 2)
    for obj in (qmi_objective(ch), _g_objective(ch, random_density(rng, d).mat * rng.normal())):
        for _ in range(4):
            rho = random_density(rng, d).mat
            new, moved, gap = ascend_density_step(obj.grad, rho, line_deriv=obj.line_deriv)
            assert type(moved) is bool
            grad = obj.grad(rho)
            want = np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho).real
            assert gap == pytest.approx(want, rel=0, abs=1e-12)
            assert obj.value(new) >= obj.value(rho)
