"""Fixed Gauss-Legendre quadrature on graded cells.

Every integral of the package goes through one rule: the panels between
breakpoints (``window_edges``) are cut into cells graded geometrically
toward the poles of the model the integrand is built from (``graded_cells``),
and every cell takes 16-point Gauss-Legendre.  The rule is exact for
polynomials up to degree 31 per cell, so the element integrands of a cubic
piece (degree <= 4, <= 8 for the gauge) and the window moments (degree 6)
are integrated to rounding.  For an integrand analytic inside the Bernstein
ellipse of parameter rho about a cell and bounded there by M, the n-point
rule errs by at most 64 M rho^(-2n) / (15 (rho^2 - 1)) times the half-width
(Trefethen, SIAM Review 50, 2008, Thm 4.5).  A graded cell lies at least a
third of its width from every pole, so rho >= 3 and 16 points err by about
3^-32 ~ 5e-16 of M.  The cell cut (``graded_cells``) and the per-window sum
(``window_sums``, each window's cells in a fixed order, so a window's
integral is bitwise the same whatever windows share the call) exist once:
``potential.centred_integrals`` takes them for the window moments, every
FEM element and the partition identity, ``integrate_many`` for
``integrate``.  No package code calls ``integrate_many`` or ``integrate``:
they serve the tests, as the oracle of the centred pass, and the bench span
that wraps ``integrate_many`` by name.  ``segment_moments`` (the
integrator's panels) and ``fixed_nodes`` (the brute-force oracle) are
order-8 rules of their own.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, NumericError


@functools.cache
def gauss_legendre(order: int) -> tuple:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1],
    computed once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


GL_ORDER = 8

#: every cell takes 16-point Gauss-Legendre, here on [0, 1]: nodes as
#: fractions of a cell from its start, weights per unit width
CELL_AT = 0.5 * (1.0 + gauss_legendre(16)[0])
CELL_WEIGHTS = 0.5 * gauss_legendre(16)[1]

#: a breakpoint this close to a cell node of ``grid``, in cells, gives way to it
_GRID_FLOOR = 1e-6

#: segments in one batch of windows of ``potential.window_moments``, and mesh
#: elements in one span of a scan (``forms``): a bound on the memory of a pass
BATCH_PANELS = 1 << 14


def window_edges(starts, ends, breakpoints, owner=None) -> tuple:
    """Panel edges of the windows [starts_i, ends_i], all in one array.

    ``breakpoints`` must be increasing.  Window i contributes the run
    ``starts_i, breakpoints strictly inside, ends_i``; returns the
    concatenated runs and the index where each run begins.  With ``owner``,
    the breakpoints are sorted complex keys w + 1j x, and window i takes
    only the x keyed w = owner_i.
    """
    a = np.asarray(starts, dtype=float).ravel()
    b = np.asarray(ends, dtype=float).ravel()
    if not (b > a).all():
        i = np.flatnonzero(~(b > a))[0]
        raise DomainError(f"empty integration interval [{a[i]}, {b[i]}]")
    bp = np.asarray(breakpoints, dtype=float if owner is None else complex)
    key = (lambda x: x) if owner is None else (lambda x: owner + 1j * x)
    # the breakpoints strictly inside each window, window by window
    i0 = bp.searchsorted(key(a), side="right")
    count = bp.searchsorted(key(b), side="left") - i0
    before = count.cumsum() - count
    k = np.arange(count.sum()) + np.repeat(i0 - before, count)
    first = 2 * np.arange(a.size) + before
    edges = np.empty(2 * a.size + k.size)
    edges[first] = a
    edges[first + count + 1] = b
    runs = np.ones(edges.size, dtype=bool)
    runs[first] = runs[first + count + 1] = False
    edges[runs] = bp[k] if owner is None else bp[k].imag
    return edges, first


def grid(a: float, b: float, n: int, breakpoints=()) -> np.ndarray:
    """FEM mesh nodes on [a, b]: n equal cells and the breakpoints between them.

    The n + 1 cell nodes, a and b among them, never move; a breakpoint
    strictly inside becomes a node unless it lies within 1e-6 of a cell of
    one.  Cell node j is (a n + j (b - a)) / n, so a window of a span on the
    same lattice has the span's nodes between its ends, bit for bit; a
    power-of-two n gives linspace's.
    """
    floor = _GRID_FLOOR * ((b - a) / n)
    cells = (a * n + np.arange(n + 1) * (b - a)) / n
    cells[0], cells[-1] = a, b
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    bp = bp[(bp > a) & (bp < b)]
    i = cells.searchsorted(bp)
    bp = bp[np.minimum(bp - cells[i - 1], cells[i] - bp) >= floor]
    return np.sort(np.concatenate([cells, bp]))


def split_panels(a: float, b: float, breakpoints=()) -> np.ndarray:
    """Panel edges on [a, b]: a, the distinct breakpoints strictly inside, b."""
    return window_edges(a, b, np.unique(np.asarray(breakpoints, dtype=float)))[0]


def panels(edges, first) -> tuple:
    """The panels [lo_i, hi_i] of the edge runs starting at ``first`` (the
    pairs that join two runs left out) and the run of each panel."""
    joins = np.ones(edges.size - 1, dtype=bool)
    joins[first[1:] - 1] = False
    window = first.searchsorted(np.flatnonzero(joins), side="right") - 1
    return edges[:-1][joins], edges[1:][joins], window


def graded_cells(lo, hi, poles) -> tuple:
    """Cells [start, end] of the panels [lo_i, hi_i] and each cell's panel.

    ``poles[j, i]`` is the pole of panel i's reciprocal slot j, NaN where the
    slot is empty.  A panel with a pole closer than its width is cut at
    distances d (4^m - 1), m = 1, 2, ..., from its end next to the pole, d
    that end's distance from the pole, so that every cell is at least a third
    of its width away from the pole: 16-point Gauss-Legendre then integrates
    c/(x - p) and its square to rounding.  Other panels are one cell.  Raises
    NumericError on a pole inside a panel.
    """
    width = hi - lo
    seg, at = [np.arange(lo.size)], [lo]
    for pole in poles:
        left = pole < lo
        dist = np.where(left, lo - pole, pole - hi)
        if (dist <= 0.0).any():
            i = np.flatnonzero(dist <= 0.0)[0]
            raise NumericError(f"pole {pole[i]!r} inside the panel [{lo[i]!r}, {hi[i]!r}]")
        near = np.flatnonzero(dist < width)
        if not near.size:
            continue
        # one cut more than the logarithm asks for: the exact test below keeps
        # the cuts inside, whatever the rounding of the logarithm
        steps = (np.log2(width[near] / dist[near] + 1.0) // 2).astype(int) + 1
        k = np.repeat(near, steps)
        m = np.arange(k.size) - np.repeat(steps.cumsum() - steps, steps) + 1
        off = dist[k] * (np.ldexp(1.0, 2 * m) - 1.0)     # 4^m is exact
        keep = off < width[k]
        k, off = k[keep], off[keep]
        seg.append(k)
        at.append(np.where(left[k], lo[k] + off, hi[k] - off))
    if len(seg) == 1:
        return lo, hi, seg[0]
    seg, at = np.concatenate(seg), np.concatenate(at)
    order = np.lexsort((at, seg))
    seg, at = seg[order], at[order]
    last = np.append(seg[1:] != seg[:-1], True)
    return at, np.where(last, hi[seg], np.append(at[1:], 0.0)), seg


def window_sums(rows, start, end, owner, count) -> list:
    """Per-window integrals of integrands sampled on cells, one array per row.

    Each row holds an integrand's values at the 16 nodes of every cell
    [start_j, end_j]; cell j belongs to window ``owner[j]`` of ``count``.  A
    window's integral is the sum of its cells in order, so it is bitwise the
    same whatever windows share the call.  A real row gives real integrals.
    Raises NumericError on a non-finite cell.
    """
    width = end - start
    out = []
    for values in rows:
        cells = np.einsum("ij,j->i", values, CELL_WEIGHTS) * width
        if not np.isfinite(cells).all():
            i = np.flatnonzero(~np.isfinite(cells))[0]
            raise NumericError(f"integrand estimate {complex(cells[i])} on "
                               f"[{float(start[i])!r}, {float(end[i])!r}] is not finite")
        total = np.bincount(owner, cells.real, minlength=count)
        if np.iscomplexobj(cells):
            total = total + 1j * np.bincount(owner, cells.imag, minlength=count)
        out.append(total)
    return out


def integrate_many(fn, edges, poles=None, first=None) -> np.ndarray:
    """Integrals of a vectorized fn over windows of panels, one per window.

    ``edges`` holds one run of panel edges per window, the runs starting at
    the indices ``first`` (as ``window_edges`` returns them); without
    ``first`` it is one window.  ``poles`` describes the model fn is built
    from: a function of the panels' midpoints that returns their pole slots
    (as ``Antiderivative.pole_slots``), toward which ``graded_cells`` grades
    each panel; without it every panel is one cell.  fn is called once, on
    the 16 Gauss-Legendre nodes of every cell, and ``window_sums`` adds up
    each window.  Raises NumericError on a non-finite cell.
    """
    first = np.zeros(1, dtype=int) if first is None else np.asarray(first)
    lo, hi, window = panels(np.asarray(edges, dtype=float), first)
    slots = () if poles is None else poles(0.5 * (lo + hi))
    start, end, seg = graded_cells(lo, hi, slots)
    x = start[:, None] + (end - start)[:, None] * CELL_AT
    values = np.asarray(fn(x.ravel())).reshape(x.shape)
    return window_sums([values], start, end, window[seg], first.size)[0]


def integrate(fn, a: float, b: float, breakpoints=(), poles=None) -> complex:
    """Integral of fn over [a, b], split at the breakpoints; see
    ``integrate_many`` for ``poles``."""
    if b == a:
        return 0.0 + 0.0j
    return complex(integrate_many(fn, split_panels(a, b, breakpoints), poles)[0])


def fixed_nodes(a: float, b: float, breakpoints=(), order: int = GL_ORDER):
    """Nodes and weights of a composite order-``order`` rule on split panels."""
    nodes, weights = gauss_legendre(order)
    edges = split_panels(a, b, breakpoints)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def midpoint_cells(a: float, b: float, breakpoints=(), n: int = 64):
    """Midpoints and widths of ~n cells on [a, b], cells split at breakpoints:
    panel [lo, hi] gets ceil(n (hi - lo) / (b - a)) cells of linspace's nodes."""
    edges = split_panels(a, b, breakpoints)
    lo, hi = edges[:-1], edges[1:]
    k = np.maximum(1, np.ceil(n * (hi - lo) / (b - a)).astype(int))
    panel = np.repeat(np.arange(k.size), k)
    j = np.arange(panel.size) - np.repeat(k.cumsum() - k, k)
    step = ((hi - lo) / k)[panel]
    left = j * step + lo[panel]
    right = np.where(j + 1 == k[panel], hi[panel], (j + 1) * step + lo[panel])
    return 0.5 * (left + right), right - left


def segment_moments(fn, lo, hi, order: int = GL_ORDER):
    """Order-``order`` Gauss-Legendre integrals of fn over each [lo_i, hi_i].

    fn may return stacked rows (a sequence of arrays like its argument), each
    integrated alike: the result then has one leading axis per row.
    Intended for segments already known to avoid breakpoints (integrator
    panels); exact for piecewise-polynomial integrands up to degree 15.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[..., None] + half[..., None] * nodes
    vals = np.asarray(fn(x.ravel()))
    return (vals.reshape(vals.shape[:-1] + x.shape) @ weights) * half
