"""Seeded random corpora used by the property suites and the acceptance tests.

Everything is driven by an explicit numpy Generator so a fixed seed gives
bit-identical potentials, windows and test functions.
"""

from __future__ import annotations

import numpy as np

from . import criteria, potential
from .forms import PiecewisePoly
from .potential import Antiderivative, Interval, PolyTerm


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_antiderivative(rng, domain_end: float = 4.0, pieces: int = 5,
                          jumps: int = 2, amplitude: float = 2.0,
                          complex_valued: bool = True,
                          max_degree: int = 3) -> Antiderivative:
    """Random piecewise polynomial + jump model of s on [0, X]."""
    rng = _rng(rng)
    cuts = np.sort(rng.uniform(0.05 * domain_end, 0.95 * domain_end,
                               size=max(pieces - 1, 0)))
    cuts = np.unique(cuts)
    bp = tuple([0.0] + cuts.tolist() + [float(domain_end)])
    rows = []
    for _ in range(len(bp) - 1):
        deg = int(rng.integers(0, max_degree + 1))
        re = rng.uniform(-amplitude, amplitude, size=deg + 1)
        im = rng.uniform(-amplitude, amplitude, size=deg + 1) if complex_valued else np.zeros(deg + 1)
        rows.append((PolyTerm(tuple(complex(r, i) for r, i in zip(re, im))),))
    jump_list = []
    if jumps > 0 and len(bp) > 2:
        locs = rng.choice(len(bp) - 2, size=min(jumps, len(bp) - 2),
                          replace=False)
        for k in sorted(locs):
            off_re = rng.uniform(-amplitude, amplitude)
            off_im = rng.uniform(-amplitude, amplitude) if complex_valued else 0.0
            jump_list.append((bp[k + 1], complex(off_re, off_im)))
    return Antiderivative(domain_end, bp, tuple(rows), tuple(jump_list))


def random_window(rng, s: Antiderivative, min_len: float = 0.3,
                  max_len: float = 1.5) -> Interval:
    rng = _rng(rng)
    a = min(rng.uniform(min_len, min(max_len, s.domain_end)), s.domain_end)
    x = rng.uniform(0.0, s.domain_end - a)
    return Interval(x, x + a)


def random_growth_cases(rng, count: int) -> list:
    """``count`` potentials, each with a short window meeting the
    growth-bound hypotheses.

    Each window is shorter than 1/8 and its potential is rescaled so its
    best-constant deviation over the window sits strictly below 1/8.  The
    cases are drawn in turn; one pass (``criteria.window_deviations``) then
    takes every window's deviation.  Returns (potential, window) pairs.
    """
    rng = _rng(rng)
    draws = []
    for _ in range(count):
        length = rng.uniform(0.03, 0.124)
        x0 = rng.uniform(0.0, 1.5)
        s = random_antiderivative(rng, domain_end=2.0,
                                  pieces=int(rng.integers(2, 6)),
                                  jumps=int(rng.integers(0, 3)),
                                  amplitude=rng.uniform(0.5, 4.0))
        draws.append((s, x0, length, rng.uniform(0.005, 0.12)))
    models, x0, length, target = zip(*draws) if draws else ((),) * 4
    devs = criteria.window_deviations(models, x0, length)[1].tolist()
    return [(potential.scale(s, np.sqrt(t / dev)) if dev > 1e-12 else s, Interval(x, x + a))
            for s, x, a, t, dev in zip(models, x0, length, target, devs)]


def random_growth_case(rng) -> tuple[Antiderivative, Interval]:
    """One potential and window of ``random_growth_cases``."""
    return random_growth_cases(rng, 1)[0]


def random_gamma(rng, domain_end: float = 4.0, pieces: int = 4,
                 amplitude: float = 3.0) -> Antiderivative:
    """Real piecewise const/linear gamma with steps, valid miura input."""
    rng = _rng(rng)
    cuts = np.sort(rng.uniform(0.1 * domain_end, 0.9 * domain_end,
                               size=max(pieces - 1, 0)))
    cuts = np.unique(cuts)
    bp = tuple([0.0] + cuts.tolist() + [float(domain_end)])
    rows = []
    for _ in range(len(bp) - 1):
        if rng.random() < 0.5:
            rows.append((PolyTerm((rng.uniform(-amplitude, amplitude),)),))
        else:
            rows.append((PolyTerm((rng.uniform(-amplitude, amplitude),
                                   rng.uniform(-1.5, 1.5))),))
    return Antiderivative(domain_end, bp, tuple(rows))


def random_forcing(rng, domain_end: float, amplitude: float = 2.0,
                   pieces: int = 3, complex_valued: bool = True) -> Antiderivative:
    """Piecewise polynomial forcing (no jumps needed for L2 data)."""
    rng = _rng(rng)
    return random_antiderivative(rng, domain_end=domain_end, pieces=pieces,
                                 jumps=0, amplitude=amplitude,
                                 complex_valued=complex_valued)


def random_step_potential(rng, domain_end: float = 1.0, steps: int = 4,
                          amplitude: float = 2.0,
                          complex_valued: bool = True) -> Antiderivative:
    """Piecewise-constant + jump potential; the integrator is exact on it."""
    rng = _rng(rng)
    cuts = np.sort(rng.uniform(0.1 * domain_end, 0.9 * domain_end, size=steps))
    cuts = np.unique(cuts)
    bp = tuple([0.0] + cuts.tolist() + [float(domain_end)])
    rows = []
    for _ in range(len(bp) - 1):
        c = complex(rng.uniform(-amplitude, amplitude),
                    rng.uniform(-amplitude, amplitude) if complex_valued else 0.0)
        rows.append((PolyTerm((c,)),))
    jump_list = []
    for k in range(len(bp) - 2):
        if rng.random() < 0.5:
            jump_list.append((bp[k + 1],
                              complex(rng.uniform(-amplitude, amplitude),
                                      rng.uniform(-amplitude, amplitude)
                                      if complex_valued else 0.0)))
    return Antiderivative(domain_end, bp, tuple(rows), tuple(jump_list))


def random_compact_bump(rng, domain_end: float, knots: int = 4,
                        amplitude: float = 1.5) -> PiecewisePoly:
    """C^1 piecewise cubic vanishing (with derivative) outside [0, X-1].

    Built as a Hermite interpolant of random values and slopes on an interior
    knot lattice, clamped to zero value and slope at both support ends.
    """
    rng = _rng(rng)
    hi = domain_end - 1.0
    if hi <= 0.5:
        raise ValueError("domain too short for a compactly supported bump")
    xs = np.linspace(0.0, hi, knots + 2)
    vals = np.concatenate([[0.0], rng.uniform(-amplitude, amplitude, knots), [0.0]])
    slopes = np.concatenate([[0.0], rng.uniform(-amplitude, amplitude, knots), [0.0]])
    rows = []
    for k in range(len(xs) - 1):
        h = xs[k + 1] - xs[k]
        v0, v1 = vals[k], vals[k + 1]
        m0, m1 = slopes[k], slopes[k + 1]
        # cubic Hermite on [x0, x1] in the local variable u = x - x0
        a0 = v0
        a1 = m0
        a2 = (3.0 * (v1 - v0) / h - 2.0 * m0 - m1) / h
        a3 = (2.0 * (v0 - v1) / h + m0 + m1) / h ** 2
        # recentre to global x: p(u) with u = x - x0
        x0 = xs[k]
        c0 = a0 - a1 * x0 + a2 * x0 ** 2 - a3 * x0 ** 3
        c1 = a1 - 2.0 * a2 * x0 + 3.0 * a3 * x0 ** 2
        c2 = a2 - 3.0 * a3 * x0
        c3 = a3
        rows.append((c0, c1, c2, c3))
    return PiecewisePoly(tuple(xs.tolist()), tuple(rows))
