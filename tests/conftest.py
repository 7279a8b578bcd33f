"""Shared test helpers."""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slcrit as sl
from slcrit import criteria, forms, potential, quadrature, regsolve, sampling
from slcrit.errors import NumericError
from slcrit.verify import SuiteResult

SRC = Path(__file__).resolve().parent.parent / "src"

#: address-space limit of a CLI subprocess: far above what a run needs, far
#: below what a runaway allocation would take
ADDRESS_SPACE = 1536 * 2 ** 20


def _limit_address_space(limit: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def run_cli(args, timeout: float = 60.0, address_space: int = ADDRESS_SPACE):
    """``slcrit <args>`` in a fresh interpreter under an address-space limit.

    Returns the CompletedProcess (text output); raises subprocess.TimeoutExpired
    when the run outlives ``timeout`` seconds.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "slcrit.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_limit_address_space(address_space))


@pytest.fixture()
def slcrit_subprocess():
    """The ``run_cli`` helper: the CLI in a memory-limited, timed subprocess."""
    return run_cli


def _gl8_panels(fn, bounds) -> list:
    """Order-8 Gauss-Legendre sums on the panels of each (lo, hi) pair in
    ``bounds``, one call of fn for all, each row summed in a fixed order."""
    nodes, weights = quadrature.gauss_legendre(8)
    lo = np.concatenate([pair[0] for pair in bounds])
    hi = np.concatenate([pair[1] for pair in bounds])
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    sums = np.einsum("ij,j->i", np.asarray(fn(x.ravel())).reshape(x.shape), weights) * half
    return np.split(sums, np.cumsum([len(pair[0]) for pair in bounds[:-1]]))


def adaptive_integrals(fn, edges, first=None, rtol=1e-10, max_depth=40, budget=1 << 19):
    """Adaptive oracle: one integral of fn per panel of the edge runs (runs
    starting at ``first``, as ``quadrature.window_edges`` gives them).

    Every panel bisects until its order-8 estimate and the sum of its two
    halves agree to its share of the window width times rtol times the
    window's absolute integral scale, down to 1e-14 of the window width or
    ``max_depth`` levels.  Raises NumericError on a non-finite estimate and
    once more than ``budget`` panel evaluations would be spent, where the
    rounding noise of an integrand never meets the tolerance.
    """
    edges = np.asarray(edges, dtype=float)
    first = np.zeros(1, dtype=int) if first is None else np.asarray(first)
    joins = np.ones(edges.size - 1, dtype=bool)
    joins[first[1:] - 1] = False
    lo, hi = edges[:-1][joins], edges[1:][joins]
    count = np.diff(np.append(first, edges.size)) - 1
    window = np.repeat(np.arange(first.size), count)
    width = edges[first + count] - edges[first]
    width_floor = 1e-14 * np.maximum(width, 1.0)
    abs_sums = lambda values, owners: np.bincount(owners, np.abs(values), minlength=first.size)
    def charge(panels):
        nonlocal used
        used += panels
        if used > budget:
            raise NumericError(f"adaptive oracle did not reach rtol={rtol} within {budget} panels")

    def check(values):
        if not np.isfinite(values).all():
            raise NumericError("adaptive oracle: integrand estimate is not finite")

    used = 0
    charge(3 * len(lo))
    owner = np.arange(len(lo))
    mid = 0.5 * (lo + hi)
    est, left, right = _gl8_panels(fn, [(lo, hi), (lo, mid), (mid, hi)])
    check(est)
    out = np.zeros(len(lo), dtype=complex)
    abs_scale = abs_sums(est, window)
    for depth in range(max_depth):
        if len(lo) == 0:
            break
        if depth:
            charge(2 * len(lo))
            mid = 0.5 * (lo + hi)
            left, right = _gl8_panels(fn, [(lo, mid), (mid, hi)])
        fine = left + right
        check(fine)
        live = window[owner]
        abs_scale = np.maximum(abs_scale, abs_sums(out, window) + abs_sums(fine, live))
        tol = rtol * abs_scale[live] * (hi - lo) / width[live]
        done = (np.abs(fine - est) <= tol) | ((hi - lo) <= width_floor[live])
        np.add.at(out, owner[done], fine[done])
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        est = np.concatenate([left[keep], right[keep]])
    np.add.at(out, owner, est)    # depth exhausted: accept the current refinement
    return out


@pytest.fixture()
def adaptive():
    """The ``adaptive_integrals`` oracle."""
    return adaptive_integrals


@pytest.fixture(scope="session")
def corpus():
    """Named potentials covering every kind of term and piece.

    Random complex piecewise cubics with jumps, Miura images, the
    counterexamples s1 and s2, the spike profile gamma at h = 1000, a delta
    sum, and a hand-made model with two reciprocal slots, a piece without a
    polynomial and an empty piece.
    """
    rng = np.random.default_rng(20240801)
    out = [(f"random{k}", sampling.random_antiderivative(rng, domain_end=6.0, pieces=6, jumps=2))
           for k in range(3)]
    out += [(f"miura{k}", sl.miura(sampling.random_gamma(rng, domain_end=6.0), 0.0))
            for k in range(2)]
    out.append(("s1", sl.build_counterexample("s1", blocks=2)))
    out.append(("s2", sl.build_counterexample(
        "s2", theta=0.5, schedule=[(2, 4.0, 2.0), (5, 8.0, 5.2)])))
    out.append(("vh1000", sl.vh_profile(1000.0)[1]))
    out.append(("delta", sl.delta_sum([0.5, 1.25, 2.0], [1.0, -2.0 + 1.0j, 0.5], 3.0)))
    out.append(("slots", sl.Antiderivative(
        3.0, (0.0, 1.0, 2.0, 3.0),
        ((sl.PolyTerm((1.0, -2.0j, 0.5, 0.25)), sl.RecipTerm(1.0, -0.5),
          sl.RecipTerm(2.0j, 3.5)),
         (sl.RecipTerm(-1.5, 0.5), sl.RecipTerm(0.25 + 1.0j, 2.5)),
         ()),
        ((1.0, 0.5 - 0.5j), (2.0, -1.0)))))
    return out


def reference_laguerre_terms(T, E, m, mo):
    """The fused one-loop Laguerre pass: ``forms._laguerre_terms``'s oracle.

    Every row computes all of its terms in one go; the kernel's row-split
    form must return the same bits.  Overwrites T and E as the kernel does.
    """
    _stacked, _fold = forms._stacked, forms._fold
    t, e, ms, os = (_stacked(a) for a in (T, E, m, mo))
    W = e * os * 2.0
    e *= e
    oo = os * os
    d = t[0]
    u = -ms[0] / d
    uu = u * u
    v = np.zeros_like(d)
    first = u, uu
    for i in range(1, t.shape[0]):
        re = e[i - 1] / d
        w = W[i - 1] / d
        d1 = w - ms[i] + re * u
        d2 = re * (v - 2.0 * uu) - 2.0 * (oo[i - 1] / d + w * u)
        d = np.subtract(t[i], re, out=t[i])
        u = np.divide(d1, d, out=e[i - 1])
        v = d2 / d
        uu = u * u
        np.subtract(uu, v, out=W[i - 1])
    # the middle row: both sides' last pivots feed it
    re = e[-1] / d
    w = W[-1] / d
    gam = T[-1] - _fold(re)
    uk = (_fold(w + re * u) - m[-1]) / gam
    vk = _fold(re * (v - 2.0 * uu) - 2.0 * (oo[-1] / d + w * u)) / gam
    pos = (t > 0).all(0)
    return (pos[:T.shape[1]] & pos[T.shape[1]:] & (gam > 0),
            _fold(e[:-1].sum(0) + first[0]) + uk,
            _fold(W[:-1].sum(0) + first[1]) + (uk * uk - vk))


@pytest.fixture()
def fused_laguerre():
    """The ``reference_laguerre_terms`` oracle."""
    return reference_laguerre_terms


def reference_march(T, init, drive=None):
    """The sequential march, one transfer at a time: ``regsolve._march``'s oracle.

    states[k+1] = T[k] @ states[k] - drive[k] from states[0] = init; raises
    NumericError when a state is not finite.
    """
    states = np.empty((T.shape[0] + 1,) + np.shape(init), dtype=complex)
    states[0] = init
    for k in range(T.shape[0]):
        states[k + 1] = T[k] @ states[k]
        if drive is not None:
            states[k + 1] -= drive[k]
    if not np.all(np.isfinite(states)):
        raise NumericError("trajectory overflowed; reduce the interval or panels")
    return states


@pytest.fixture()
def sequential_march():
    """The ``reference_march`` oracle."""
    return reference_march


def reference_growth_case(rng):
    """One growth-bound case drawn as a lone window: the per-case draw that
    ``sampling.random_growth_cases`` batches."""
    rng = sampling._rng(rng)
    length = rng.uniform(0.03, 0.124)
    x0 = rng.uniform(0.0, 1.5)
    s = sampling.random_antiderivative(rng, domain_end=2.0,
                                       pieces=int(rng.integers(2, 6)),
                                       jumps=int(rng.integers(0, 3)),
                                       amplitude=rng.uniform(0.5, 4.0))
    window = sl.Interval(x0, x0 + length)
    _c, dev, _dbl = criteria.window_deviation(s, window.a, length)
    target = rng.uniform(0.005, 0.12)
    if dev > 1e-12:
        s = potential.scale(s, np.sqrt(target / dev))
    return s, window


def reference_variance_identity_suite(seed: int, cases: int = 50) -> SuiteResult:
    """window_deviation.dbl vs the brute-force tensor double integral."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    detail = ""
    for k in range(cases):
        s = sampling.random_antiderivative(rng)
        win = sampling.random_window(rng, s)
        _c, _dev, dbl = criteria.window_deviation(s, win.a, win.length)
        brute = criteria.dbl_bruteforce(s, win.a, win.length, n=16)
        # relative at O(1) scale and above, absolute 1e-8 below it
        rel = abs(dbl - brute) / max(abs(brute), 1.0)
        if rel > worst:
            worst = rel
            detail = f"case {k}: dbl={dbl!r} brute={brute!r}"
    return SuiteResult("variance_identity", worst <= 1e-8, cases, worst, 1e-8, detail)


def reference_two_sided_suite(seed: int, cases: int = 50) -> SuiteResult:
    """a*dev <= dbl <= 4*a*dev with slack >= -1e-9 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    detail = ""
    for k in range(cases):
        s = sampling.random_antiderivative(rng)
        win = sampling.random_window(rng, s)
        a = win.length
        _c, dev, dbl = criteria.window_deviation(s, win.a, a)
        scale = max(dbl, a * dev, 1.0)
        slack = max(a * dev - dbl, dbl - 4.0 * a * dev) / scale
        if slack > worst:
            worst = slack
            detail = f"case {k}: a*dev={a * dev!r} dbl={dbl!r}"
    return SuiteResult("two_sided", worst <= 1e-9, cases, worst, 1e-9, detail)


def reference_growth_bound_suite(seed: int, cases: int = 100) -> SuiteResult:
    """Fundamental-pair sup bound M <= 2 on qualifying short windows."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    detail = ""
    used = 0
    for k in range(cases):
        s, win = reference_growth_case(rng)
        try:
            res = regsolve.growth_bound_check(s, win)
        except NumericError as exc:
            return SuiteResult("growth_bound", False, k + 1, math.inf, 2.0 + 1e-6,
                               str(exc))
        if not res.applicable:
            continue
        used += 1
        if res.M > worst:
            worst = res.M
            detail = f"case {k}: M={res.M:.6f} dev={res.deviation:.4f} len={res.interval_length:.4f}"
    return SuiteResult("growth_bound", worst <= 2.0 + 1e-6, used, worst, 2.0 + 1e-6, detail)


@pytest.fixture()
def per_case_suites():
    """The one-window-per-call suite loops that ``slcrit.verify`` batches,
    by suite name, and the lone growth-case draw: the oracle of the batched
    suites."""
    return {"growth_case": reference_growth_case,
            "variance_identity_suite": reference_variance_identity_suite,
            "two_sided_suite": reference_two_sided_suite,
            "growth_bound_suite": reference_growth_bound_suite}
