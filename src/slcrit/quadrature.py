"""Panel-respecting adaptive Gauss-Legendre quadrature.

FEM assembly, ``integrate()`` and the tests' moment oracle go through this
one adaptive path: composite Gauss-Legendre of order 8 on panels that never
straddle a breakpoint, with adaptive bisection until the two-half refinement
of every panel agrees to a relative tolerance (1e-10 by default).  The rule
is exact for polynomials up to degree 15 per panel, so the piecewise-cubic
parts of the potential models are integrated exactly on the first pass.
One call refines many windows together, each to its own tolerance and
summed in a fixed order, so a window's integral is bitwise the same whatever
shares its pass; FEM assembly integrates each mesh element as a window.
Window moments of the potential take a fixed rule on centred coefficients
instead (``potential.window_moments``), on the segments ``window_edges``
cuts; ``segment_moments`` (the integrator's panels) and ``fixed_nodes`` (the
brute-force oracle) are fixed rules too.
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
_GL_NODES, _GL_WEIGHTS = gauss_legendre(GL_ORDER)

#: default relative tolerance of the adaptive bisection
DEFAULT_RTOL = 1e-10

_WIDTH_FLOOR = 1e-14

#: a cell node of ``grid`` this close to a breakpoint, in cells, gives way to it
_GRID_FLOOR = 1e-6

#: panel evaluations one call of the adaptive loop may spend, the first level
#: included, before it gives up, like QUADPACK's ``limit``.  It bounds time and
#: memory when a finite integrand never meets the tolerance, e.g. when the
#: rounding noise of x - p, formed in absolute coordinates next to a pole,
#: exceeds rtol (``vh_profile(1000)``'s |s|^2 on [0, 0.75] gives up after
#: 0.2 s and 220 MB; its window moments take pole-relative abscissae and do
#: not come here).
MAX_EVALUATIONS = 1 << 19

#: segments in one batch of windows of ``potential.window_moments``, and mesh
#: elements in one span of a scan (``forms``): a bound on the memory of a pass
BATCH_PANELS = 1 << 14


def window_edges(starts, ends, breakpoints) -> tuple:
    """Panel edges of the windows [starts_i, ends_i], all in one array.

    ``breakpoints`` must be increasing.  Window i contributes the run
    ``starts_i, interior breakpoints, ends_i``; returns the concatenated runs
    and the index where each run begins.  Panels thinner than ~1e-14 of the
    window scale are avoided so degenerate edges cannot stall the adaptive
    loop: a breakpoint that close to the window start, to the breakpoint
    before it or to the window end is left out.
    """
    a = np.asarray(starts, dtype=float).ravel()
    b = np.asarray(ends, dtype=float).ravel()
    if not (b > a).all():
        i = np.flatnonzero(~(b > a))[0]
        raise DomainError(f"empty integration interval [{a[i]}, {b[i]}]")
    bp = np.asarray(breakpoints, dtype=float)
    # the breakpoints strictly inside each window, window by window
    i0 = bp.searchsorted(a, side="right")
    count = bp.searchsorted(b, side="left") - i0
    win = np.repeat(np.arange(a.size), count)
    k = np.arange(win.size) + np.repeat(i0 - (count.cumsum() - count), count)
    t = bp[k]
    prev = np.where(k > i0[win], bp[k - 1], a[win])
    floor = _WIDTH_FLOOR * np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(b - a, 1.0))
    keep = (t - prev >= floor[win]) & (b[win] - t >= floor[win])
    # each window's run: its start, its kept breakpoints in order, its end
    inner = np.bincount(win[keep], minlength=a.size)
    first = 2 * np.arange(a.size) + (inner.cumsum() - inner)
    edges = np.empty(2 * a.size + t[keep].size)
    edges[first] = a
    edges[first + inner + 1] = b
    runs = np.ones(edges.size, dtype=bool)
    runs[first] = runs[first + inner + 1] = False
    edges[runs] = t[keep]
    return edges, first


def grid(a: float, b: float, n: int, breakpoints=()) -> np.ndarray:
    """Nodes of n equal cells on [a, b] with every interior breakpoint a node.

    A cell node closer than 1e-6 of a cell to a breakpoint gives way to it,
    and a breakpoint that close to a or b is left out, so the ends stay
    exact.  FEM meshes and integrator panels both come from here.
    Cell node j is (a n + j (b - a)) / n, so a span on the same lattice has
    bitwise the same nodes on [a, b]; a power-of-two n gives linspace's.
    """
    floor = _GRID_FLOOR * ((b - a) / n)
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    bp = bp[(bp - a >= floor) & (b - bp >= floor)]
    cells = (a * n + np.arange(1, n) * (b - a)) / n
    if bp.size:
        i = bp.searchsorted(cells)
        gap = np.minimum(np.abs(cells - bp[np.maximum(i - 1, 0)]),
                         np.abs(bp[np.minimum(i, bp.size - 1)] - cells))
        cells = cells[gap >= floor]
    return np.concatenate([[a], np.sort(np.concatenate([cells, bp])), [b]])


def split_panels(a: float, b: float, breakpoints=()) -> np.ndarray:
    """Panel edges on [a, b]: a, b plus the interior breakpoints that
    ``window_edges`` keeps for the one window [a, b]."""
    return window_edges(a, b, sorted(breakpoints))[0]


def _gl_panels(fn, bounds) -> list:
    """Order-8 Gauss-Legendre estimates on the panels [lo_i, hi_i] of each
    (lo, hi) pair in ``bounds``, with one call of fn for all of them.

    Every row is summed in one fixed order (``einsum``, no BLAS), so a
    panel's estimate does not depend on the panels evaluated with it.
    """
    lo = np.concatenate([pair[0] for pair in bounds])
    hi = np.concatenate([pair[1] for pair in bounds])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(fn(x.ravel())).reshape(x.shape)
    sums = np.einsum("ij,j->i", vals, _GL_WEIGHTS) * half
    return np.split(sums, np.cumsum([len(pair[0]) for pair in bounds[:-1]]))


def _check_finite(est: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    if not np.isfinite(est).all():
        i = np.flatnonzero(~np.isfinite(est))[0]
        raise NumericError(f"integrand estimate {complex(est[i])} on "
                           f"[{float(lo[i])!r}, {float(hi[i])!r}] is not finite")


def integrate_many(fn, edges, rtol: float = DEFAULT_RTOL, max_depth: int = 40,
                   first=None) -> np.ndarray:
    """Adaptive integrals of a vectorized fn over each consecutive edge pair.

    ``edges`` holds one run of edges per window, the runs starting at the
    indices ``first`` (as ``window_edges`` returns them); without ``first`` it
    is one window.  Returns one value per panel, the pairs that join two runs
    left out.  All windows share one refinement loop, but each keeps the
    tolerance of a separate call: a panel's tolerance is its share of the
    window width times rtol times the window's absolute integral scale, so the
    summed error of a window stays below rtol times that scale.  Every panel
    estimate and every window sum is formed in an order that does not depend
    on the other windows, so a window's integrals are bitwise the same however
    many windows share the pass.

    Raises NumericError at once on a non-finite panel estimate, and before
    the loop would evaluate more than MAX_EVALUATIONS panels, the first level
    included.
    """
    edges = np.asarray(edges, dtype=float)
    first = np.zeros(1, dtype=int) if first is None else np.asarray(first)
    joins = np.ones(edges.size - 1, dtype=bool)
    joins[first[1:] - 1] = False
    lo, hi = edges[:-1][joins], edges[1:][joins]
    count = np.diff(np.append(first, edges.size)) - 1   # panels per window
    window = np.repeat(np.arange(first.size), count)    # window of each panel
    width = edges[first + count] - edges[first]
    width_floor = _WIDTH_FLOOR * np.maximum(width, 1.0)

    abs_sums = lambda values, owners: np.bincount(owners, np.abs(values), minlength=first.size)

    def charge(panels):
        nonlocal used
        used += panels
        if used > MAX_EVALUATIONS:
            raise NumericError(
                f"adaptive quadrature did not reach rtol={rtol} within "
                f"{MAX_EVALUATIONS} panel evaluations")

    used = 0
    charge(3 * len(lo))
    owner = np.arange(len(lo))
    mid = 0.5 * (lo + hi)
    est, left, right = _gl_panels(fn, [(lo, hi), (lo, mid), (mid, hi)])
    _check_finite(est, lo, hi)
    out = np.zeros(len(lo), dtype=complex)
    abs_scale = abs_sums(est, window)

    for depth in range(max_depth):
        if len(lo) == 0:
            break
        if depth:
            charge(2 * len(lo))
            mid = 0.5 * (lo + hi)
            left, right = _gl_panels(fn, [(lo, mid), (mid, hi)])
        fine = left + right
        _check_finite(fine, lo, hi)
        err = np.abs(fine - est)
        live = window[owner]
        abs_scale = np.maximum(abs_scale, abs_sums(out, window) + abs_sums(fine, live))
        tol = rtol * abs_scale[live] * (hi - lo) / width[live]
        done = (err <= tol) | ((hi - lo) <= width_floor[live])
        np.add.at(out, owner[done], fine[done])
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        est = np.concatenate([left[keep], right[keep]])
    # depth exhausted: accept the current refinement
    np.add.at(out, owner, est)
    return out


def integrate(fn, a: float, b: float, breakpoints=(), rtol: float = DEFAULT_RTOL) -> complex:
    """Adaptive panel-respecting integral of fn over [a, b]."""
    if b == a:
        return 0.0 + 0.0j
    edges = split_panels(a, b, breakpoints)
    return complex(integrate_many(fn, edges, rtol=rtol).sum())


def fixed_nodes(a: float, b: float, breakpoints=(), order: int = GL_ORDER):
    """Nodes and weights of a non-adaptive composite rule on split panels."""
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
    """Non-adaptive Gauss-Legendre integrals of fn over each [lo_i, hi_i].

    Intended for segments already known to avoid breakpoints (integrator
    panels); exact for piecewise-polynomial integrands up to degree 15.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[..., None] + half[..., None] * nodes
    vals = np.asarray(fn(x.ravel())).reshape(x.shape)
    return (vals @ weights) * half
