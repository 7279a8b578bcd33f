"""The streamed sector fit against a sort over the whole cloud."""

import math

import numpy as np
import pytest

from slcrit import sectors
from slcrit.errors import ValidationError
from slcrit.sectors import Sector, minimal_arc


def _sorted_fit(points, require_strict_args=False, translate_vertex=True):
    """Reference fit: every support candidate, the angles of all points sorted."""
    pts = np.asarray(points, dtype=complex).ravel()
    pts = pts[np.isfinite(pts)]
    if pts.size == 0:
        return None
    tol = 1e-12 * max(float(np.abs(pts).max()), 1.0)
    if translate_vertex:
        thetas = np.arange(32) * (2.0 * math.pi / 32)
        idx = {int(np.argmin(np.real(pts * r))) for r in np.exp(-1j * thetas)}
        candidates = pts[sorted(idx)]
    else:
        candidates = np.asarray([0j])
    fits = []
    for vertex in candidates:
        rel = pts - vertex
        rel = rel[np.abs(rel) > tol]
        if rel.size == 0:
            fits.append((0.0, 0.0, complex(vertex)))
        else:
            start, span = minimal_arc(np.angle(rel))
            fits.append((span, start, complex(vertex)))
    # ties within 1e-12 of the least span go to the leftmost, then lowest, vertex
    least = min(fit[0] for fit in fits)
    ties = [fit for fit in fits if fit[0] <= least + 1e-12]
    span, start, vertex = min(ties, key=lambda fit: (fit[2].real, fit[2].imag))
    if span >= math.pi - 1e-12:
        return None
    sector = Sector(vertex, start, start + span)
    if require_strict_args and not sector.is_strict():
        return None
    return sector


class Chunked:
    """The points in chunks of ``size``, re-iterable."""

    def __init__(self, points, size):
        self.points, self.size = points, size

    def __iter__(self):
        return (self.points[i:i + self.size] for i in range(0, self.points.size, self.size))


def _cloud(rng, kind):
    n = int(rng.integers(1, 400))
    if kind == "blob":
        pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == "cone":
        # inside a sector of random direction and opening, vertex off 0
        angle = rng.uniform(-math.pi, math.pi) + rng.uniform(0.0, 2.8) * rng.random(n)
        pts = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0) \
            + rng.exponential(1.0, n) * np.exp(1j * angle)
    elif kind == "real":
        pts = np.round(rng.standard_normal(n), 1) + 0j
    elif kind == "imag":
        pts = 1j * np.round(rng.standard_normal(n), 1)
    elif kind == "ray":
        # collinear through 0, both sides of the negative real axis
        pts = np.round(rng.standard_normal(n), 2) * np.exp(1j * rng.choice([0.3, math.pi]))
    else:  # grid: ties in every projection and exact +-pi directions
        pts = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n) * rng.choice([0.0, 1.0])
    if rng.random() < 0.3:
        pts = np.concatenate([pts, pts[: max(1, n // 3)]])          # repeated points
    if rng.random() < 0.3:
        scale = max(float(np.abs(pts).max()), 1.0)
        near = pts[0] + 1e-12 * scale * rng.uniform(0.2, 3.0, 5) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, 5))
        pts = np.concatenate([pts, near])                             # within tol
    if rng.random() < 0.1:
        pts = np.concatenate([pts, [complex(math.nan, 0.0), complex(0.0, math.inf)]])
    return pts


def test_streamed_fit_equals_sorted_fit_on_random_clouds():
    rng = np.random.default_rng(17)
    kinds = ("blob", "cone", "real", "imag", "ray", "grid")
    found = 0
    for case in range(240):
        pts = _cloud(rng, kinds[case % len(kinds)])
        for strict in (False, True):
            for translate in (True, False):
                want = _sorted_fit(pts, strict, translate)
                assert sectors.fit_sector(pts, strict, translate) == want, case
                size = int(rng.integers(1, 60))
                assert sectors.fit_sector(Chunked(pts, size), strict, translate) == want, case
                found += want is not None
    assert found > 200


def test_half_plane_arc_matches_minimal_arc():
    rng = np.random.default_rng(4)
    for _ in range(200):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        turn = complex(np.exp(-1j * theta))
        n = int(rng.integers(1, 50))
        rel = rng.exponential(1.0, n) * np.exp(1j * (theta + rng.uniform(-1.0, 1.0, n)
                                                     * math.pi / 2.0))
        rel[rng.random(n) < 0.2] = rel[0]
        # vertex 0 measured from the support direction theta
        arcs = sectors._Arcs(np.zeros(1, dtype=complex), np.asarray([turn]))
        for part in np.array_split(rel, int(rng.integers(1, 4))):
            arcs.add(part, 0.0)
        start, span = minimal_arc(np.angle(rel))
        assert arcs.fits() == [(span, start)]
        assert arcs.hi[0] - arcs.lo[0] == pytest.approx(span, abs=1e-12)


def test_fit_sector_rejects_one_shot_iterators():
    with pytest.raises(ValidationError):
        sectors.fit_sector(iter([np.asarray([1.0 + 0j])]))
