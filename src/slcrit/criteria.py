"""Computable resolvent-compactness and sectoriality criteria.

Every criterion is a functional of the antiderivative s evaluated on finite
windows of [0, X]:

* ``window_deviation`` / ``dbl_bruteforce`` -- the double integral
  of |s(xi) - s(eta)|^2 over a window square and its variance identity;
* ``scan_necessary``   -- divergence scan of that double integral (a bounded
  scan refutes the necessary condition for compact resolvents);
* ``growth_series``    -- the growth series |s(x+a) - s(x)|;
* ``brinck``           -- difference sector s(x) - s(t) for 0 <= x - t <= d
  plus the growth series (criterion under a verified sector);
* ``ismagilov_measure``-- measure of near-equal pairs in a window square;
* ``sector_fit``       -- angular hull of arg(s(x)+f(x)-s(t)-g(t));
* ``brasche_check``    -- unit-window increment of the negative variation;
* ``decompose_unif``   -- bounded-deviation decompositions s = sigma1 + step
  and s = sigma2 + int tau;
* ``classify``         -- rule aggregation into a Verdict.

The half-line limits of the theory become windowed trend tests over [0, X];
their thresholds are explicit module constants, reported in the evidence
instead of being hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import potential, quadrature, sectors
from .errors import DomainError, UnsupportedInputError, ValidationError
from .potential import Antiderivative, Interval
from .sectors import Sector

OUTCOME_COMPACT = "CompactResolvent"
OUTCOME_NOT_COMPACT = "NotCompact"
OUTCOME_INCONCLUSIVE = "Inconclusive"


# finite-window proxies for the theory's limit statements
GROWTH_FACTOR = 1.05    # last-quarter vs first-quarter max ratio
DBL_BOUND = 10.0        # absolute ceiling for a "bounded" dbl scan
GROWTH_BOUND = 10.0     # absolute ceiling for a bounded growth series
DEVIATION_BOUND = 1.0   # ceiling for a bounded window-deviation scan


@dataclass(frozen=True)
class WindowSeries:
    """Sampled window functional: value[i] taken at window origin origins[i]."""

    a: float
    origins: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        origins = np.asarray(self.origins, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if origins.size != values.size:
            raise ValidationError("origins and values must align")
        if origins.size > 1 and np.any(np.diff(origins) <= 0):
            raise ValidationError("origins must increase")
        if values.size and not np.all(np.isfinite(values)):
            raise ValidationError("series values must be finite")
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "values", values)

    def rows(self):
        return zip(self.origins.tolist(), self.values.tolist())


def bounded_trend(values: np.ndarray, factor: float, ceiling: float) -> bool:
    """True when the series looks bounded over the window.

    Bounded means: max over the last quarter <= factor * max over the first
    quarter, AND the overall max stays below the absolute ceiling.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        return True
    q = max(1, v.size // 4)
    first = float(v[:q].max())
    last = float(v[-q:].max())
    return last <= factor * first + 1e-30 and float(v.max()) <= ceiling


@dataclass(frozen=True)
class Evidence:
    """One fired rule with its numeric witness, JSON-ready."""

    rule: str
    theorem: str
    values: dict


@dataclass(frozen=True)
class Verdict:
    outcome: str
    evidence: tuple

    def to_dict(self) -> dict:
        return {"verdict": self.outcome,
                "evidence": [{"rule": e.rule, "theorem": e.theorem,
                              "values": e.values} for e in self.evidence]}


# -- window functionals ------------------------------------------------------


def window_deviations(s, origins, a):
    """(c_min, dev, dbl) arrays over the windows [x, x+a], x in origins, of
    one model s or of the model s[i] each; a is one length or one per window.

    c_min = (int s)/a minimises int |s - c|^2; dev is that minimum; dbl is the
    double integral of |s(xi)-s(eta)|^2 over the window square, equal to
    2*a*dev.  The two-sided bound a*dev <= dbl <= 4*a*dev holds by
    construction.  All windows share one centred pass
    (``potential.window_moments``), which takes dev from the moments of s
    less a reference, so a large mean does not cancel against itself; each
    window's numbers are bitwise those of ``window_deviation``.
    """
    a = a if np.isscalar(a) else np.asarray(a, dtype=float)
    if not (a > 0 if np.isscalar(a) else (a > 0).all()):
        raise DomainError("window length must be positive")
    origins = np.atleast_1d(np.asarray(origins, dtype=float))
    m0, _q2, dev = potential.window_moments(s, origins, origins + a)
    return m0 / a, dev, 2.0 * a * dev


def window_deviation(s: Antiderivative, x: float, a: float):
    """(c_min, dev, dbl) on the one window [x, x+a]; see ``window_deviations``."""
    if not a > 0:
        raise DomainError("window length must be positive")
    m = potential.moments(s, s.check_interval(Interval(x, x + a)))
    return m.m0 / a, m.dev, 2.0 * a * m.dev


def dbl_bruteforce(s: Antiderivative, x: float, a: float, n: int = 16) -> float:
    """Tensor Gauss-Legendre oracle for the window-square double integral.

    Kept deliberately independent of ``window_deviation``: the integrand
    |s(xi) - s(eta)|^2 is summed over an explicit 2-D tensor grid whose
    1-D panels split at every breakpoint of s.
    """
    if n < 8:
        raise ValidationError("tensor order n must be >= 8")
    s.check_interval(Interval(x, x + a))
    nodes, weights = quadrature.fixed_nodes(x, x + a, s.breakpoints, order=n)
    vals = s.values(nodes)
    diff2 = np.abs(vals[:, None] - vals[None, :]) ** 2
    return float(weights @ diff2 @ weights)


def _origins(end: float, a: float, step: float) -> np.ndarray:
    """Window origins 0, step, 2 step, ... up to end - a, the last clipped to it.

    The running sum adds step once per origin, as a stepping loop would, so the
    origins carry the same roundoff.
    """
    limit = end - a + 1e-12
    n = max(int(math.floor(limit / step)) + 2, 0) if limit >= 0 else 0
    t = np.concatenate([[0.0], np.cumsum(np.full(n, step))])
    return np.minimum(t[t <= limit], end - a)


def scan_necessary(s: Antiderivative, a: float):
    """dbl over origins i*a/2 up to X-a; refuted=True when the scan is bounded.

    A bounded scan refutes the divergence that compact resolvents require.
    Returns (series, refuted).
    """
    if not (0.0 < a <= s.domain_end):
        raise DomainError(f"window length {a} must lie in (0, {s.domain_end}]")
    origins = _origins(s.domain_end, a, a / 2.0)
    series = WindowSeries(a, origins, window_deviations(s, origins, a)[2])
    refuted = bounded_trend(series.values, GROWTH_FACTOR, DBL_BOUND)
    return series, refuted


#: points per chunk of a streamed difference cloud
CLOUD_CHUNK = 1 << 16


class DifferenceCloud:
    """Sampled differences v(x) - w(t) over 0 <= x - t <= d, produced in chunks.

    v = s + extra (at the later point), w = s + extra_t (at the earlier one).
    Midpoint samples on cells split at breakpoints keep the cloud inside the
    essential range of the pieces.  ``reach[i]`` is the lag of the last grid
    point within d of point i, all from one ``searchsorted``; lag L pairs
    point i with point i + L wherever reach[i] >= L.  The points come lag by
    lag, lag 0 first, in chunks of about CLOUD_CHUNK points, made afresh on
    every pass, so the cloud is never held whole.
    """

    def __init__(self, s: Antiderivative, d: float, extra: Antiderivative = None,
                 extra_t: Antiderivative = None, step: float = None):
        step = step if step is not None else d / 64.0
        breaks = set(s.breakpoints)
        for other in (extra, extra_t):
            if other is not None:
                breaks.update(other.breakpoints)
        n_cells = max(8, int(math.ceil(s.domain_end / step)))
        grid, _w = quadrature.midpoint_cells(0.0, s.domain_end, sorted(breaks), n_cells)
        base = s.values(grid)
        self.v_late = base + extra.values(grid) if extra is not None else base
        self.v_early = base + extra_t.values(grid) if extra_t is not None else base
        self.reach = (grid.searchsorted(grid + (d + 1e-12), side="right")
                      - np.arange(1, grid.size + 1))

    def __iter__(self):
        parts = [self.v_late - self.v_early]
        held = parts[0].size
        for lag in range(1, int(self.reach.max()) + 1):
            if held >= CLOUD_CHUNK:
                yield np.concatenate(parts)
                parts, held = [], 0
            part = (self.v_late[lag:] - self.v_early[:-lag])[self.reach[:-lag] >= lag]
            parts.append(part)
            held += part.size
        yield np.concatenate(parts)


def growth_series(s: Antiderivative, a: float) -> WindowSeries:
    """|s(x+a) - s(x)| over origins i*a/4 up to X-a."""
    origins = _origins(s.domain_end, a, a / 4.0)
    return WindowSeries(a, origins, np.abs(s.values(origins + a) - s.values(origins)))


def brinck(s: Antiderivative, d: float = 1.0, a: float = 1.0):
    """Difference-sector check plus the window growth series.

    Returns (diff_sector or None, growth series, verdict hint).  The sector is
    the smallest one (after translating the vertex to a support point of the
    sampled difference hull) containing all s(x) - s(t) with 0 <= x - t <= d;
    the hint applies the criterion: verified strict sector + unbounded growth
    of |s(x+a) - s(x)| points at compact resolvents, bounded growth refutes
    them, no sector stays silent.
    """
    if not (0.0 < d <= 1.0):
        raise DomainError("difference depth d must lie in (0, 1]")
    sector = sectors.fit_sector(DifferenceCloud(s, d), require_strict_args=True,
                                translate_vertex=True)
    series = growth_series(s, a)
    hint = None
    if sector is not None:
        bounded = bounded_trend(series.values, GROWTH_FACTOR, GROWTH_BOUND)
        hint = OUTCOME_NOT_COMPACT if bounded else OUTCOME_COMPACT
    return sector, series, hint


def ismagilov_measure(s: Antiderivative, window: Interval, A: float,
                      n: int = 64) -> float:
    """Measure of {(x, t) in window^2 : |s(x) - s(t)| < A} on a midpoint grid.

    Cells split at breakpoints; the weighted fraction converges to the
    Lebesgue measure for piecewise-continuous s as n grows.
    """
    if n < 32:
        raise ValidationError("grid order n must be >= 32")
    s.check_interval(window)
    mids, widths = quadrature.midpoint_cells(window.a, window.b,
                                             s.breakpoints, n)
    vals = s.values(mids)
    near = (np.abs(vals[:, None] - vals[None, :]) < A).astype(float)
    return float(widths @ near @ widths)


def sector_fit(s: Antiderivative, d: float = 1.0,
               f: Antiderivative = None, g: Antiderivative = None,
               step: float = None) -> Sector | None:
    """Angular hull of arg(s(x) + f(x) - s(t) - g(t)) over 0 <= x - t <= d.

    Vertex stays at 0 (the criterion constrains the argument itself); None
    when the hull spans >= pi or cannot avoid the negative real axis.
    """
    if not (0.0 < d <= 1.0):
        raise DomainError("difference depth d must lie in (0, 1]")
    cloud = DifferenceCloud(s, d, extra=f, extra_t=g, step=step)
    return sectors.fit_sector(cloud, require_strict_args=True,
                              translate_vertex=False)


def brasche_check(s: Antiderivative, window: float = 1.0) -> float:
    """Largest unit-window increment of the negative-variation part of s.

    For jump-only s this is the largest sum of |negative jumps| inside any
    half-open window (x, x+window]; smooth negative variation is accumulated
    on a fine breakpoint-respecting grid.
    """
    if not s.is_real(tol=0.0):
        raise UnsupportedInputError("negative-variation check needs real-valued s")
    X = s.domain_end
    win = min(window, X)
    # cumulative negative variation N(t) over (0, t], right-continuous
    grid_pts, _w = quadrature.midpoint_cells(0.0, X, s.breakpoints,
                                             max(512, 64 * int(math.ceil(X))))
    ts = np.unique(np.concatenate([[0.0], grid_pts, np.asarray(s.breakpoints), [X]]))
    vals = s.values(ts).real
    inc = np.diff(vals)
    neg = np.where(inc < 0.0, -inc, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(neg)])  # N at each ts
    candidates = set([0.0, X - win])
    for at, _off in s.jumps:
        candidates.add(min(max(at - win, 0.0), X - win))
        candidates.add(min(at, X - win))
    for t in s.breakpoints:
        c = min(max(t - win, 0.0), X - win)
        candidates.add(c)
    best = 0.0
    for x0 in sorted(candidates):
        n_lo = float(np.interp(x0, ts, cum))
        n_hi = float(np.interp(x0 + win, ts, cum))
        best = max(best, n_hi - n_lo)
    return best


@dataclass(frozen=True)
class UnifDecomposition:
    """s split against its unit-cell means: s = sigma1 + step = sigma2 + int tau."""

    step_values: np.ndarray          # C_l = int_{l-1}^{l} s
    sigma1_sup_sq: float             # sup_l int_{l-1}^{l} |sigma1|^2
    step_jump_sup: float             # sup_l |C_{l+1} - C_l|
    beta_nodes: np.ndarray           # integer nodes of the broken line
    beta_values: np.ndarray          # beta(l-1) = C_l, linear in between
    tau_values: np.ndarray           # tau = beta' per unit cell
    source: Antiderivative = field(repr=False)

    def gamma_step(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.floor(x).astype(int), 0, len(self.step_values) - 1)
        return self.step_values[idx]

    def beta(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        re = np.interp(x, self.beta_nodes, self.beta_values.real)
        im = np.interp(x, self.beta_nodes, self.beta_values.imag)
        return re + 1j * im

    def sigma1(self, x) -> np.ndarray:
        return self.source.values(x) - self.gamma_step(x)

    def sigma2(self, x) -> np.ndarray:
        return self.source.values(x) - self.beta(x)


def decompose_unif(s: Antiderivative) -> UnifDecomposition:
    """Unit-cell mean decomposition with its boundedness diagnostics."""
    cells = int(math.floor(s.domain_end + 1e-12))
    if cells < 2:
        raise DomainError("decomposition needs domain_end >= 2")
    nodes = np.arange(cells, dtype=float)           # beta(l-1) = C_l
    C, _q2, sig = potential.window_moments(s, nodes, nodes + 1.0)
    tau = np.diff(C)
    jump_sup = float(np.max(np.abs(tau))) if tau.size else 0.0
    return UnifDecomposition(step_values=C,
                             sigma1_sup_sq=float(sig.max()),
                             step_jump_sup=jump_sup,
                             beta_nodes=nodes,
                             beta_values=C.copy(),
                             tau_values=tau,
                             source=s)


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassifyConfig:
    a: float = 1.0
    d: float = 1.0
    base: tuple = None        # optional (s0, eps): perturbation rule inputs
    f: Antiderivative = None  # optional pair functions for the sector fit
    g: Antiderivative = None


def _sector_dict(sector: Sector | None) -> dict:
    if sector is None:
        return {"found": False}
    return {"found": True, "alpha": sector.alpha, "beta": sector.beta,
            "vertex_re": sector.vertex.real, "vertex_im": sector.vertex.imag,
            "strict": sector.is_strict()}


def classify(s: Antiderivative, config: ClassifyConfig = ClassifyConfig()) -> Verdict:
    """Combine the criteria into a verdict; every fired rule leaves evidence.

    Rule order: (i) a bounded necessary-condition scan refutes compactness;
    (ii) a verified strict difference sector turns the growth series into a
    criterion; (iii) a pair-function sector plus a diverging scan is
    sufficient; (iv) a supplied base potential with scaling margin whose
    perturbation has bounded window deviation passes its verdict on.
    """
    evidence = []

    series, refuted = scan_necessary(s, config.a)
    q = max(1, series.values.size // 4)
    evidence.append(Evidence(
        "scan_necessary", "necessary-condition",
        {"a": config.a, "refuted": refuted, "growing": not refuted,
         "first_quarter_max": float(np.max(series.values[:q])),
         "last_quarter_max": float(np.max(series.values[-q:])),
         "ceiling": DBL_BOUND, "factor": GROWTH_FACTOR}))

    diff_sector, growth, hint = brinck(s, config.d, config.a)
    growth_bounded = bounded_trend(growth.values, GROWTH_FACTOR, GROWTH_BOUND)
    ev = {"d": config.d, "a": config.a, "sector": _sector_dict(diff_sector),
          "growth_bounded": growth_bounded,
          "growth_max": float(np.max(growth.values)) if growth.values.size else 0.0,
          "hint": hint}
    evidence.append(Evidence("brinck", "difference-sector", ev))

    pair_sector = sector_fit(s, config.d, f=config.f, g=config.g)
    evidence.append(Evidence("sector_fit", "sector-pair",
                             {"d": config.d, "sector": _sector_dict(pair_sector)}))

    inherit = None
    if config.base is not None:
        s0, eps = config.base
        sigma = potential.subtract(s, s0)
        dev_values = window_deviations(
            sigma, _origins(s.domain_end, 1.0, 0.5), 1.0)[1]
        sigma_bounded = bounded_trend(dev_values, GROWTH_FACTOR, DEVIATION_BOUND)
        scaled_sector, _g, _h = brinck(potential.scale(s0, 1.0 + eps),
                                       config.d, config.a)
        base_verdict = classify(s0, ClassifyConfig(a=config.a, d=config.d))
        fired = sigma_bounded and scaled_sector is not None
        if fired:
            inherit = base_verdict.outcome
        evidence.append(Evidence(
            "perturbation", "uniform-perturbation",
            {"eps": eps, "sigma_deviation_bounded": sigma_bounded,
             "scaled_base_sector": _sector_dict(scaled_sector),
             "base_outcome": base_verdict.outcome, "fired": fired}))

    if refuted:
        outcome = OUTCOME_NOT_COMPACT
    elif diff_sector is not None and not growth_bounded:
        outcome = OUTCOME_COMPACT
    elif pair_sector is not None:      # past (i), the scan diverges
        outcome = OUTCOME_COMPACT
    elif inherit is not None:
        outcome = inherit
    else:
        outcome = OUTCOME_INCONCLUSIVE
    return Verdict(outcome, tuple(evidence))
