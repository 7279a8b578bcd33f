"""Seeded property suites behind the ``verify`` CLI command.

Each suite replays one of the package's certified invariants on a random
corpus and reports the worst case it saw.  A fixed seed makes the whole run
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria, forms, potential, regsolve, sampling
from .errors import NumericError, ValidationError
from .potential import Interval


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: {self.cases} cases, worst={self.worst:.3e} (tol {self.tolerance:.1e})"
        if self.detail and not self.passed:
            msg += f" -- {self.detail}"
        return msg


def _seeded(seed: int, **counts) -> np.random.Generator:
    """The suite's generator, once every count is found to be at least 1."""
    for name, count in counts.items():
        if count < 1:
            raise ValidationError(f"{name}={count} must be at least 1")
    return np.random.default_rng(seed)


def _result(name: str, cases: int, worst: float, tolerance: float, detail: str) -> SuiteResult:
    """A suite passes when it checked a case and the worst one is within tolerance."""
    return SuiteResult(name, cases > 0 and worst <= tolerance, cases, worst, tolerance,
                       detail if cases else "no case was checked")


def _window_corpus(seed: int, cases: int) -> tuple:
    """``cases`` random models, each with a window [x, x + a], drawn in turn,
    and every window's (dev, dbl) from one pass over all of them."""
    rng = _seeded(seed, cases=cases)
    corpus = []
    for _ in range(cases):
        s = sampling.random_antiderivative(rng)
        win = sampling.random_window(rng, s)
        corpus.append((s, win.a, win.length))
    _c, dev, dbl = criteria.window_deviations(*zip(*corpus))
    return corpus, dev.tolist(), dbl.tolist()


def variance_identity_suite(seed: int, cases: int = 50) -> SuiteResult:
    """window_deviation.dbl vs the brute-force tensor double integral."""
    corpus, _devs, dbls = _window_corpus(seed, cases)
    worst = 0.0
    detail = ""
    for k, ((s, x, a), dbl) in enumerate(zip(corpus, dbls)):
        brute = criteria.dbl_bruteforce(s, x, a, n=16)
        # relative at O(1) scale and above, absolute 1e-8 below it
        rel = abs(dbl - brute) / max(abs(brute), 1.0)
        if rel > worst:
            worst = rel
            detail = f"case {k}: dbl={dbl!r} brute={brute!r}"
    return _result("variance_identity", cases, worst, 1e-8, detail)


def two_sided_suite(seed: int, cases: int = 50) -> SuiteResult:
    """a*dev <= dbl <= 4*a*dev with slack >= -1e-9 relative."""
    corpus, devs, dbls = _window_corpus(seed, cases)
    worst = 0.0
    detail = ""
    for k, ((_s, _x, a), dev, dbl) in enumerate(zip(corpus, devs, dbls)):
        scale = max(dbl, a * dev, 1.0)
        slack = max(a * dev - dbl, dbl - 4.0 * a * dev) / scale
        if slack > worst:
            worst = slack
            detail = f"case {k}: a*dev={a * dev!r} dbl={dbl!r}"
    return _result("two_sided", cases, worst, 1e-9, detail)


def partition_identity_suite(seed: int, bumps: int = 10, potentials: int = 5) -> SuiteResult:
    """Overlapping-window identity: residual and correction ceiling."""
    rng = _seeded(seed, bumps=bumps, potentials=potentials)
    X = 4.0
    pots = [potential.zero(X),
            potential.from_poly((0.0, 1.0), X),
            potential.delta_sum([0.8, 1.9, 2.7], [1.0, -2.0, 0.5], X),
            sampling.random_antiderivative(rng, domain_end=X, jumps=0),
            sampling.random_antiderivative(rng, domain_end=X, jumps=3)]
    pots = pots[:potentials]
    worst = 0.0
    detail = ""
    count = 0
    for b in range(bumps):
        y = sampling.random_compact_bump(rng, X)
        for i, s in enumerate(pots):
            rep = forms.partition_identity_check(s, y)
            excess = max(rep.residual,
                         (rep.correction - 2.0 * math.pi ** 2 * rep.norm_sq)
                         / max(rep.norm_sq, 1e-12))
            count += 1
            if excess > worst:
                worst = excess
                detail = f"bump {b} on potential {i}: residual={rep.residual:.3e}"
    return _result("partition_identity", count, worst, 1e-6, detail)


def growth_bound_suite(seed: int, cases: int = 100) -> SuiteResult:
    """Fundamental-pair sup bound M <= 2 on qualifying short windows."""
    worst = 0.0
    detail = ""
    used = 0
    for k, (s, win) in enumerate(sampling.random_growth_cases(_seeded(seed, cases=cases), cases)):
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
    return _result("growth_bound", used, worst, 2.0 + 1e-6, detail)


def miura_positivity_suite(seed: int, cases: int = 20) -> SuiteResult:
    """Every unit-window Hermitian-part lambda_min >= -1e-6 for miura potentials."""
    rng = _seeded(seed, cases=cases)
    worst = -math.inf
    detail = ""
    for k in range(cases):
        gamma = sampling.random_gamma(rng)
        s = potential.miura(gamma, 0.0)
        scan = forms.localization_scan(s, n=48, angles=16)
        low = min(r.herm_lambda_min for r in scan.rows)
        if -low > worst:
            worst = -low
            detail = f"case {k}: lambda_min={low:.3e}"
    return _result("miura_positivity", cases, worst, 1e-6, detail)


def solver_consistency_suite(seed: int, cases: int = 20) -> SuiteResult:
    """cauchy_apply vs propagate-with-forcing, plus the Wronskian invariant."""
    rng = _seeded(seed, cases=cases)
    worst = 0.0
    detail = ""
    for k in range(cases):
        # mostly the exactness class (piecewise-constant s), plus smooth
        # coefficients where agreement needs the convergence of both routes
        if k % 4 == 3:
            s = sampling.random_antiderivative(rng, domain_end=1.0, pieces=2,
                                               jumps=0, amplitude=1.0)
            panels = 1024
        else:
            s = sampling.random_step_potential(rng)
            panels = 64
        f = sampling.random_forcing(rng, s.domain_end)
        win = Interval(0.0, s.domain_end)
        direct = regsolve.propagate(s, win, regsolve.State(0.0, 0.0),
                                    forcing=f, panels=panels)
        kernel = regsolve.cauchy_apply(s, win, f, panels=panels)
        scale = max(1.0, float(np.abs(direct.states).max()))
        diff = float(np.abs(direct.states - kernel.states).max()) / scale
        phi, psi = regsolve.fundamental_pair(s, win, panels=panels)
        diff = max(diff, regsolve.wronskian_defect(phi, psi))
        if diff > worst:
            worst = diff
            detail = f"case {k}"
    return _result("solver_consistency", cases, worst, 1e-8, detail)


ALL_SUITES = (
    variance_identity_suite,
    two_sided_suite,
    partition_identity_suite,
    growth_bound_suite,
    miura_positivity_suite,
    solver_consistency_suite,
)


def run_all(seed: int) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
