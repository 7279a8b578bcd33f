"""Integrator for the regularized first-order system of the expression l(y).

With the quasi-derivative y1 = y' - s y the second-order problem l(y) = f is
equivalent to

    (y, y1)' = [[ s,  1], [-s^2, -s]] (y, y1) - (0, f).

The coefficient s is only square-integrable, so the one-step scheme uses the
exponential of the panel-averaged matrix

    Omega = [[S1, h], [-S2, -S1]],   S1 = int_panel s,  S2 = int_panel s^2,

which needs nothing smoother than those two moments.  Omega^2 = w^2 * I with
w^2 = S1^2 - h*S2, so exp(Omega) = cosh(w) I + sinhc(w) Omega in closed form.
The scheme is second-order accurate in the panel width, exact when s is
constant on the panel (there the true system matrix is nilpotent), and has
unit determinant.  The rounded product of the transfers does not keep the
Wronskian exactly; its defect is bounded by the tests and by ``verify``.
Every breakpoint inside the interval is a panel edge, with no floor; the
state (y, y1) is continuous across jumps of s by the regularization
contract, so no impulse handling is needed.

One kernel, ``_transfers``, builds these exponentials for any array of
segments at once (whole panels, panel heads and panel tails alike), and one
march, ``_march``, chains them in blocks of about sqrt(n) panels.  Marching
the identity gives both columns of the fundamental matrix in one pass; the
march is also the single place where overflow is detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import criteria, potential, quadrature
from .errors import NumericError, ValidationError
from .potential import Antiderivative, Interval

_G3_NODES, _G3_WEIGHTS = quadrature.gauss_legendre(3)


@dataclass(frozen=True)
class State:
    """Solution state (y, y^[1]) with y^[1] = y' - s y."""

    y: complex
    y1: complex

    def __post_init__(self):
        if not (np.isfinite(complex(self.y)) and np.isfinite(complex(self.y1))):
            raise ValidationError("state components must be finite")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled at the panel nodes."""

    nodes: np.ndarray
    states: np.ndarray        # shape (len(nodes), 2), complex

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y1(self) -> np.ndarray:
        return self.states[:, 1]

    def sup_norm(self) -> float:
        return float(np.abs(self.states).max())


def _grid(s: Antiderivative, interval: Interval, panels: int,
          forcing: Antiderivative = None) -> np.ndarray:
    s.check_interval(interval)
    if panels < 1:
        raise ValidationError("panel count must be positive")
    breaks = s.breakpoints + (() if forcing is None else forcing.breakpoints)
    return np.union1d(quadrature.grid(interval.a, interval.b, panels),
                      quadrature.split_panels(interval.a, interval.b, breaks))


def _gauss(lo: np.ndarray, hi: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """Gauss nodes inside each panel, shape (k, len(nodes)), and their weights."""
    half = 0.5 * (hi - lo)
    xq = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    return xq, weights * half[:, None]


def _transfers(s: Antiderivative, lo, hi) -> np.ndarray:
    """exp([[S1, h], [-S2, -S1]]) for the segments [lo, hi], shape (..., 2, 2).

    The segments must avoid breakpoints of s; lo and hi broadcast together.
    cosh(w) and sinh(w)/w are entire in w^2, so a short Taylor series
    replaces them where |w^2| is tiny.
    """
    def powers(x):      # s and s^2 from one evaluation
        v = s.values(x)
        return v, v ** 2

    s1, s2 = quadrature.segment_moments(powers, lo, hi)
    h = hi - lo
    w2 = s1 * s1 - h * s2
    small = np.abs(w2) < 1e-8
    z = np.where(small, w2, 0.0)
    w = np.sqrt(np.where(small, 1.0, w2))
    ch = np.where(small, 1.0 + z / 2.0 + z * z / 24.0 + z ** 3 / 720.0, np.cosh(w))
    shc = np.where(small, 1.0 + z / 6.0 + z * z / 120.0 + z ** 3 / 5040.0,
                   np.sinh(w) / w)
    T = np.empty(w2.shape + (2, 2), dtype=complex)
    T[..., 0, 0] = ch + shc * s1
    T[..., 0, 1] = shc * h
    T[..., 1, 0] = -shc * s2
    T[..., 1, 1] = ch - shc * s1
    return T


def _march(T: np.ndarray, init: np.ndarray, drive: np.ndarray = None) -> np.ndarray:
    """states[k+1] = T[k] @ states[k] - drive[k] from states[0] = init.

    ``init`` is a state vector or the 2x2 identity (then the states are the
    cumulative transfer products).  A drive acts as the homogeneous maps
    [[T[k], -drive[k]], [0, 1]] on (state, 1).  Blocks of about sqrt(n) maps
    run side by side, then chain in order (Kogge and Stone 1973).
    """
    n, shape = T.shape[0], np.shape(init)
    start = np.reshape(init, (2, -1))
    if drive is not None:
        T = np.block([[T, -drive[:, :, None]], [np.zeros((n, 1, 2)), np.ones((n, 1, 1))]])
        start = np.vstack([start, np.ones(start.shape[1])])
    m, b = T.shape[1], int(n ** 0.5) + 1
    # run[j, :, :, i] is the product of the first j maps of block i; states 0..n fill the blocks
    maps = np.concatenate([T, np.broadcast_to(np.eye(m), (b - n % b, m, m))]).reshape(-1, b, m, m)
    run = np.empty((b + 1, m, m, maps.shape[0]), dtype=complex)
    run[0] = np.eye(m)[:, :, None]
    for j in range(b):
        np.einsum("kij,jlk->ilk", maps[:, j], run[j], out=run[j + 1])
    starts = [start]
    for i in range(maps.shape[0] - 1):
        starts.append(run[b, :, :, i] @ starts[-1])
    inner = (run[:b, :2, :, None] * np.stack(starts).transpose(1, 2, 0)).sum(2)
    states = inner.transpose(3, 0, 1, 2).reshape((-1,) + shape)[:n + 1]
    if not np.all(np.isfinite(states)):
        raise NumericError("trajectory overflowed; reduce the interval or panels")
    return states


def propagate(s: Antiderivative, interval: Interval, init: State,
              forcing: Antiderivative = None, panels: int = 256) -> Trajectory:
    """Integrate the regularized system across the interval.

    Forcing is added through a 3-point Gauss quadrature of the
    variation-of-constants integral, with the in-panel transfer evaluated
    from sub-panel moments; every breakpoint of s and of the forcing
    strictly inside the interval is a panel edge.
    """
    edges = _grid(s, interval, panels, forcing)
    lo, hi = edges[:-1], edges[1:]
    drive = None
    if forcing is not None:
        xq, wq = _gauss(lo, hi, _G3_NODES, _G3_WEIGHTS)
        fq = forcing.values(xq.ravel()).reshape(xq.shape)
        tail = _transfers(s, xq, hi[:, None])[..., :, 1]
        drive = np.einsum("kq,kqi->ki", wq * fq, tail)
    states = _march(_transfers(s, lo, hi), (init.y, init.y1), drive)
    return Trajectory(nodes=edges, states=states)


def _fundamental(s: Antiderivative, edges: np.ndarray) -> np.ndarray:
    """Cumulative transfer products: column 0 is psi, column 1 is phi."""
    return _march(_transfers(s, edges[:-1], edges[1:]), np.eye(2))


def fundamental_pair(s: Antiderivative, interval: Interval,
                     panels: int = 256) -> tuple[Trajectory, Trajectory]:
    """Trajectories with initial data (0, 1) and (1, 0) from the left end."""
    edges = _grid(s, interval, panels)
    fund = _fundamental(s, edges)
    return (Trajectory(nodes=edges, states=fund[:, :, 1]),
            Trajectory(nodes=edges, states=fund[:, :, 0]))


def wronskian_defect(phi: Trajectory, psi: Trajectory) -> float:
    """max |phi psi1 - psi phi1 + 1| over the shared nodes (exactly -1 ideally)."""
    w = phi.y * psi.y1 - psi.y * phi.y1
    return float(np.abs(w + 1.0).max())


def cauchy_apply(s: Antiderivative, interval: Interval, forcing: Antiderivative,
                 panels: int = 256) -> Trajectory:
    """Solution of l(y) = f with y = y1 = 0 at the left end via the kernel formula.

    (R f)(x) = psi(x) int_a^x phi f dxi - phi(x) int_a^x psi f dxi, with the
    in-panel fundamental values reconstructed from the panel transfer and the
    integrals accumulated by 3-point Gauss panels.  This is an independent
    route from ``propagate`` with a forcing term; the two agree to the scheme
    tolerance on piecewise-polynomial forcings.
    """
    edges = _grid(s, interval, panels, forcing)
    lo, hi = edges[:-1], edges[1:]
    fund = _fundamental(s, edges)
    xq, wq = _gauss(lo, hi, _G3_NODES, _G3_WEIGHTS)
    fq = forcing.values(xq.ravel()).reshape(xq.shape)
    # y of (psi, phi) at the Gauss nodes, shape (k, q, 2)
    yq = np.einsum("kqj,kji->kqi", _transfers(s, lo[:, None], xq)[..., 0, :],
                   fund[:-1])
    integrals = np.zeros((edges.size, 2), dtype=complex)
    integrals[1:] = np.cumsum(np.einsum("kq,kqi->ki", wq * fq, yq), axis=0)
    states = fund[:, :, 0] * integrals[:, 1:] - fund[:, :, 1] * integrals[:, :1]
    return Trajectory(nodes=edges, states=states)


@dataclass(frozen=True)
class GrowthBound:
    M: float
    applicable: bool
    interval_length: float
    deviation: float


def growth_bound_check(s: Antiderivative, interval: Interval,
                       panels: int = 256) -> GrowthBound:
    """Uniform bound on the fundamental pair after removing the best constant.

    When the window is shorter than 1/8 and min_c int |s - c|^2 < 1/8, the
    sup of |phi|, |phi1|, |psi|, |psi1| over the window must stay below 2;
    the check integrates with the optimal constant removed (a constant shift
    of s leaves the modelled operator unchanged) and raises if the certified
    bound is violated.
    """
    length = interval.length
    c_min, dev, _dbl = criteria.window_deviation(s, interval.a, length)
    applicable = bool(length < 0.125 and dev < 0.125)
    shifted = potential.offset(s, -c_min)
    phi, psi = fundamental_pair(shifted, interval, panels=panels)
    M = max(phi.sup_norm(), psi.sup_norm())
    if applicable and M > 2.0 + 1e-6:
        raise NumericError(
            f"growth bound violated: M={M} on applicable window {interval}")
    return GrowthBound(M=M, applicable=applicable,
                       interval_length=length, deviation=dev)
