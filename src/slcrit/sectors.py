"""Sectors in the complex plane and minimal-sector fits to point clouds.

A sector Lambda_{alpha,beta}(z0) = { z0 + z : arg z in [alpha, beta] } is the
basic containment certificate for numerical ranges and difference hulls.
Fitting translates the vertex to a support point of the sampled cloud and
takes the minimal circular arc of directions seen from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Sector:
    """Angular sector with vertex ``vertex`` and direction range [alpha, beta]."""

    vertex: complex
    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta < self.alpha - 1e-12:
            raise ValidationError("sector needs alpha <= beta")
        if self.beta - self.alpha > math.pi + 1e-9:
            raise ValidationError("sector opening exceeds pi")
        object.__setattr__(self, "vertex", complex(self.vertex))

    @property
    def opening(self) -> float:
        return self.beta - self.alpha

    def is_strict(self, tol: float = 1e-9) -> bool:
        """Opening strictly below pi with both direction bounds inside (-pi, pi)."""
        return (self.opening < math.pi - tol
                and self.alpha > -math.pi + tol
                and self.beta < math.pi - tol)


def minimal_arc(angles: np.ndarray) -> tuple[float, float]:
    """Smallest circular arc covering all angles; returns (start, span).

    ``start`` lies in (-pi, pi]; ``start + span`` may exceed pi when the arc
    crosses the branch cut.
    """
    a = np.sort(np.asarray(angles, dtype=float))
    if a.size == 0:
        return 0.0, 0.0
    if a.size == 1:
        return float(a[0]), 0.0
    gaps = np.diff(a)
    wrap = a[0] + _TWO_PI - a[-1]
    k = int(np.argmax(gaps)) if gaps.size else 0
    if gaps.size == 0 or wrap >= gaps[k]:
        return float(a[0]), float(a[-1] - a[0])
    span = _TWO_PI - float(gaps[k])
    return float(a[k + 1]), span


def _support_candidates(points: np.ndarray, directions: int = 32) -> np.ndarray:
    """Extreme points of the cloud over a fan of support directions."""
    thetas = np.arange(directions) * (_TWO_PI / directions)
    idx = {int(np.argmin(np.real(points * r))) for r in np.exp(-1j * thetas)}
    return points[sorted(idx)]


def fit_sector(points, require_strict_args: bool = False,
               translate_vertex: bool = True) -> Sector | None:
    """Minimal sector containing the points, or None when none with opening < pi exists.

    With ``translate_vertex`` the vertex is chosen among support points of the
    cloud (the hull's extremes over 32 directions), minimising the angular
    span; otherwise the vertex is pinned at 0 and the fit is the plain
    angular hull of the points.  With ``require_strict_args`` a sector is
    only returned when it admits direction bounds strictly inside (-pi, pi),
    i.e. the cone avoids the negative real axis.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    pts = pts[np.isfinite(pts)]
    if pts.size == 0:
        return None
    scale = max(float(np.abs(pts).max()), 1.0)
    tol = 1e-12 * scale

    if translate_vertex:
        candidates = _support_candidates(pts)
    else:
        candidates = np.asarray([0.0 + 0.0j])

    best = None
    for vertex in candidates:
        rel = pts - vertex
        rel = rel[np.abs(rel) > tol]
        if rel.size == 0:
            fit = (0.0, 0.0, complex(vertex))
        else:
            start, span = minimal_arc(np.angle(rel))
            fit = (span, start, complex(vertex))
        if best is None or fit[0] < best[0] - 1e-12:
            best = fit
    span, start, vertex = best
    if span >= math.pi - 1e-12:
        return None
    sector = Sector(vertex, start, start + span)
    if require_strict_args and not sector.is_strict():
        return None
    return sector


def refit_vertex(points, alpha: float, beta: float) -> complex:
    """Vertex making the sector [alpha, beta] contain all points tightly.

    Solves for the intersection of the two supporting side lines; for a
    degenerate opening the vertex is the extreme point against the ray
    direction.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        return 0j
    span = beta - alpha
    if span < 1e-9:
        proj = np.real(pts * np.exp(-1j * alpha))
        return complex(pts[int(np.argmin(proj))])
    nu1 = alpha + math.pi / 2.0
    nu2 = beta - math.pi / 2.0
    p1 = float(np.min(np.real(pts * np.exp(-1j * nu1))))
    p2 = float(np.min(np.real(pts * np.exp(-1j * nu2))))
    mat = np.array([[math.cos(nu1), math.sin(nu1)],
                    [math.cos(nu2), math.sin(nu2)]])
    rhs = np.array([p1, p2])
    xy = np.linalg.solve(mat, rhs)
    return complex(xy[0], xy[1])
