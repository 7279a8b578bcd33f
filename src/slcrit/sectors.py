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


#: support directions searched for a translated vertex
_DIRECTIONS = 32
_TURNS = np.exp(-1j * np.arange(_DIRECTIONS) * (_TWO_PI / _DIRECTIONS))
#: openings from this on give no sector
_MAX_OPENING = math.pi - 1e-12
#: a vertex whose measured angles spread this wide is given up: its hull
#: is at least pi wide, as the measured range is an arc covering every point
_GIVE_UP = math.pi
#: directions within this of a running extreme are kept, so that ties and
#: roundoff in the measured angles are settled by ``minimal_arc`` itself
_BAND = 1e-12
#: elements in one block of a (direction or vertex) x point array
_BLOCK = 1 << 16
#: unit points along each axis, the other part +0 as in the axis clouds
_AXIS_UNITS = (np.asarray([complex(1.0, 0.0), complex(-1.0, 0.0)]),
               np.asarray([complex(0.0, 1.0), complex(0.0, -1.0)]))


def _axis(pts: np.ndarray):
    """0 when every point lies on the real axis with imaginary part +0, 1 when
    every point lies on the imaginary axis with real part +0, else None."""
    for axis, other in enumerate((pts.imag, pts.real)):
        if not (other.any() or np.signbit(other).any()):
            return axis
    return None


def _row_blocks(rows: np.ndarray, cols: int):
    """``rows`` in pieces of at most _BLOCK / cols (and at least one)."""
    step = max(1, _BLOCK // max(cols, 1))
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _chunks(points):
    """The points as a re-iterable sequence of 1-D chunks."""
    if isinstance(points, (np.ndarray, list, tuple, complex, float, int)):
        return (np.asarray(points, dtype=complex).ravel(),)
    if iter(points) is points:
        raise ValidationError("a chunked point cloud must be iterable more than once")
    return points


def _first_extremes(pts: np.ndarray):
    """Value and index of the first minimum of Re(pts * turn) for every turn
    in _TURNS, the projections computed exactly as ``np.real(pts * turn)``."""
    value = np.empty(_DIRECTIONS)
    index = np.empty(_DIRECTIONS, dtype=int)
    axis = _axis(pts)
    if axis is None:
        for rows in _row_blocks(np.arange(_DIRECTIONS), pts.size):
            proj = np.real(pts[None, :] * _TURNS[rows, None])
            index[rows] = proj.argmin(axis=1)
            value[rows] = proj[np.arange(rows.size), index[rows]]
        return value, index
    # on an axis the projection is the coordinate times one factor, which
    # orders the points by coordinate: only coordinates within rounding of
    # the smallest or the largest can give the first minimum
    x = pts.real if axis == 0 else pts.imag
    factors = _TURNS.real if axis == 0 else -_TURNS.imag
    tiny = 2.0 ** -1074 / np.abs(factors[factors != 0]).min()
    lo, hi = x.min(), x.max()
    low = np.flatnonzero(x <= lo + max(abs(lo) * 2.0 ** -50, tiny))
    high = np.flatnonzero(x >= hi - max(abs(hi) * 2.0 ** -50, tiny))
    for sign, cand in ((factors > 0, low), (factors < 0, high), (factors == 0, np.arange(1))):
        for rows in _row_blocks(np.flatnonzero(sign), cand.size):
            proj = x[cand][None, :] * factors[rows, None]
            at = proj.argmin(axis=1)
            value[rows], index[rows] = proj[np.arange(rows.size), at], cand[at]
    return value, index


class _Arcs:
    """Running angular extremes of the points seen from each vertex.

    Vertex k measures angles after turning the points by ``turns[k]``: by its
    support direction for a support vertex, whose closed half-plane holds
    every point, or, for vertex 0 (``turns`` None), so that the first point
    lies at angle 0, which puts every point within pi of it whenever the hull
    is narrower than pi.  Then the smallest and largest measured angles are
    the ends of the minimal arc.  Once they spread over pi the hull is at
    least pi wide, and the vertex is given up.

    For every vertex the distinct original ``np.angle`` values within _BAND of
    either end are kept, and ``fits`` passes them to ``minimal_arc``, so its
    floats are those of a sort over all the angles.
    """

    def __init__(self, vertices: np.ndarray, turns: np.ndarray | None):
        self.vertices = vertices
        self.turns = turns
        self.lo = np.full(vertices.size, np.inf)
        self.hi = np.full(vertices.size, -np.inf)
        self.owner = np.empty(0, dtype=int)     # kept angles: their vertex,
        self.phi = np.empty(0)                  # np.angle,
        self.ang = np.empty(0)                  # and measured angle

    def live(self) -> np.ndarray:
        return np.flatnonzero(~(self.hi - self.lo >= _GIVE_UP))

    def add(self, pts: np.ndarray, tol: float) -> None:
        """Take in a chunk; points within tol of a vertex do not count for it."""
        live = self.live()
        axis = _axis(pts)
        on_axis = np.zeros(live.size, dtype=bool)
        if axis is not None:
            on_axis = (self.vertices[live].imag, self.vertices[live].real)[axis] == 0
            coord = (pts.real, pts.imag)[axis]
            for rows in _row_blocks(live[on_axis], pts.size):
                # every point lies on the vertex's axis, in one of two
                # directions from it: a unit point stands for each direction
                # present, with the np.angle of every point it stands for
                x = coord[None, :] - (self.vertices.real, self.vertices.imag)[axis][rows, None]
                hit = np.stack([(x > tol).any(axis=1), (x < -tol).any(axis=1)], axis=1)
                self._take(rows, np.broadcast_to(_AXIS_UNITS[axis], hit.shape), hit)
        for rows in _row_blocks(live[~on_axis], pts.size):
            rel = pts[None, :] - self.vertices[rows, None]
            self._take(rows, rel, np.abs(rel) > tol)
        # keep the distinct angles near the (moved) ends
        near = ((self.ang <= self.lo[self.owner] + _BAND)
                | (self.ang >= self.hi[self.owner] - _BAND))
        owner, phi, ang = self.owner[near], self.phi[near], self.ang[near]
        order = np.lexsort((phi, owner))
        owner, phi, ang = owner[order], phi[order], ang[order]
        new = np.ones(owner.size, dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (phi[1:] != phi[:-1])
        self.owner, self.phi, self.ang = owner[new], phi[new], ang[new]

    def _take(self, rows: np.ndarray, rel: np.ndarray, ok: np.ndarray) -> None:
        if self.turns is None:
            seen = np.flatnonzero(ok[0])
            if seen.size == 0:
                return
            first = rel[0, seen[0]]
            self.turns = np.asarray([np.conj(first) / abs(first)])
        ang = np.angle(rel * self.turns[rows, None])
        lo = np.minimum(self.lo[rows], np.where(ok, ang, np.inf).min(axis=1))
        hi = np.maximum(self.hi[rows], np.where(ok, ang, -np.inf).max(axis=1))
        self.lo[rows], self.hi[rows] = lo, hi
        r, c = np.nonzero(ok & ((ang <= lo[:, None] + _BAND) | (ang >= hi[:, None] - _BAND)))
        self.owner = np.concatenate([self.owner, rows[r]])
        self.phi = np.concatenate([self.phi, np.angle(rel[r, c])])
        self.ang = np.concatenate([self.ang, ang[r, c]])

    def fits(self) -> list:
        """(span, start) per vertex; span inf for a vertex given up."""
        out = []
        for k in range(self.vertices.size):
            if self.hi[k] - self.lo[k] >= _GIVE_UP:
                out.append((math.inf, 0.0))
            else:
                start, span = minimal_arc(self.phi[self.owner == k])
                out.append((span, start))
        return out


def fit_sector(points, require_strict_args: bool = False,
               translate_vertex: bool = True) -> Sector | None:
    """Minimal sector containing the points, or None when none with opening < pi exists.

    ``points`` is an array of points, or a cloud that yields its points in
    chunks each time it is iterated (``criteria.DifferenceCloud``); the fit
    reads the chunks twice and never joins them.  Non-finite points are
    ignored.

    With ``translate_vertex`` the vertex is chosen among support points of the
    cloud (the first point extreme in each of 32 directions), minimising the
    angular span; among spans within 1e-12 of the least, the vertex with the
    smallest real part, then the smallest imaginary part, wins.  Otherwise the
    vertex is pinned at 0 and the fit is the plain angular hull of the points.
    Points within 1e-12 of the cloud's scale from the vertex do not count.
    With ``require_strict_args`` a sector is only returned when it admits
    direction bounds strictly inside (-pi, pi), i.e. the cone avoids the
    negative real axis.
    """
    chunks = _chunks(points)
    # first pass: the scale, and the running first extreme in each direction
    best = np.full(_DIRECTIONS, np.inf)
    where = [None] * _DIRECTIONS
    scale = None
    for n, chunk in enumerate(chunks):
        pts = chunk if np.isfinite(chunk).all() else chunk[np.isfinite(chunk)]
        if pts.size == 0:
            continue
        scale = max(scale or 1.0, float(np.abs(pts).max()))
        if translate_vertex:
            value, index = _first_extremes(pts)
            for j in np.flatnonzero(value < best):
                best[j] = value[j]
                where[j] = (n, int(index[j]), complex(pts[index[j]]))
    if scale is None:
        return None
    tol = 1e-12 * scale

    if translate_vertex:
        # in the order of the points, each turned by its support direction
        turns = {}
        for turn, key in zip(_TURNS, where):
            if key is not None and key not in turns:
                turns[key] = turn
        keys = sorted(turns)
        arcs = _Arcs(np.asarray([key[2] for key in keys], dtype=complex),
                     np.asarray([turns[key] for key in keys]))
    else:
        arcs = _Arcs(np.zeros(1, dtype=complex), None)

    # second pass: the angular extremes seen from each vertex
    for chunk in chunks:
        if arcs.live().size == 0:
            return None
        pts = chunk if np.isfinite(chunk).all() else chunk[np.isfinite(chunk)]
        if pts.size:
            arcs.add(pts, tol)

    fits = [(span, start, complex(v)) for v, (span, start) in zip(arcs.vertices, arcs.fits())]
    least = min(fit[0] for fit in fits)
    span, start, vertex = min((fit for fit in fits if fit[0] <= least + 1e-12),
                              key=lambda fit: (fit[2].real, fit[2].imag))
    if span >= _MAX_OPENING:
        return None
    sector = Sector(vertex, start, start + span)
    if require_strict_args and not sector.is_strict():
        return None
    return sector
