"""Discretized windowed quadratic forms and their numerical-range estimates.

The window form on I = [a, b] with zero boundary values is

    l_I[y] = int_I |y'|^2 dx - int_I s d|y|^2,      d|y|^2 = (y conj(y))' dx.

It is discretized with real hat functions on the mesh of ``quadrature.grid``,
whose cell nodes never move.  Every element integral is split at every
breakpoint of s, so jumps and delta terms enter the bands exactly wherever
the nodes lie.  For a coefficient vector c the discrete form value is
c^H (A - P) c; an optional gauge turns the form into
int |y' - k1 g y|^2 - k2 int g^2 |y|^2 - int s d|y|^2, the shape used by
the scaled counterexample decomposition.  Every matrix is tridiagonal and
is stored as its diagonal and off-diagonal; dense views are built on demand.
Every element integral comes from one ``potential.centred_integrals`` call
per model, in element-local coordinates on s less its value at 0, so an
added constant and the window's distance from 0 do not cancel in the bands.
The overlapping-window partition identity takes every weighted window's
form from one such call too, on s less its value at the centre of the
support of y.

Certified bounds on inf |l_I[y]| over the discrete unit sphere come from
rotated Hermitian eigenproblems: |q| >= Re(e^{-i theta} q) makes every
rotation's smallest eigenvalue a lower bound, while each eigenvector is an
attained Rayleigh value and hence an upper-bound witness.  One batched kernel
sweeps windows x rotations: a complex form on the closed right half-plane of
rotations and wherever a closed-form Rayleigh bound cannot rule a rotation
out, a real form only at 0 and pi, the ends of its interval range.  It runs
Laguerre steps driven by the twisted LDL^T pivot recurrence (both ends
towards the middle row) from a bracket that sine-vector Rayleigh quotients
and a few definiteness probes set, Sturm-count multisection for the
stragglers, and inverse iteration for the eigenvectors.  Each lower end is
the largest shift with a positive definite factorization, backed off by the
recurrence's backward error, so every reported bound is certified for the
discrete pencil up to that error.  Discretization restricts to a subspace,
so the continuum infimum can only be smaller than the discrete one.  A scan
slices its windows' bands out of span assemblies and sweeps them span by
span.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import potential, quadrature, sectors
from .errors import NumericError, ValidationError
from .potential import Antiderivative, Interval
from .sectors import Sector


def _horner_table(rows) -> np.ndarray:
    """Coefficient rows, highest degree first, padded with leading zeros."""
    table = np.zeros((len(rows), max(1, *map(len, rows))), dtype=complex)
    for k, row in enumerate(rows):
        table[k, table.shape[1] - len(row):] = row[::-1]
    return table


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Compactly supported piecewise polynomial (any degree); zero outside."""

    breakpoints: tuple
    coeffs: tuple  # per piece, ascending complex coefficients

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        if len(bp) < 2 or any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        cf = tuple(tuple(complex(c) for c in row) for row in self.coeffs)
        if len(cf) != len(bp) - 1:
            raise ValidationError("one coefficient row per piece required")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_bp_arr", np.asarray(bp))
        object.__setattr__(self, "_tables", (
            _horner_table(cf),
            _horner_table([tuple(c * (i + 1) for i, c in enumerate(row[1:])) for row in cf])))

    @property
    def support(self) -> tuple:
        return self.breakpoints[0], self.breakpoints[-1]

    def _eval(self, x, derivative: bool) -> np.ndarray:
        """One Horner pass over the packed table rows of the points' pieces."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.zeros(flat.size, dtype=complex)
        inside = (flat >= self.breakpoints[0]) & (flat <= self.breakpoints[-1])
        xs = flat[inside]
        piece = np.minimum(self._bp_arr.searchsorted(xs, side="right") - 1, len(self.coeffs) - 1)
        rows = self._tables[derivative][piece]
        acc = rows[:, 0]
        for j in range(1, rows.shape[1]):
            acc = acc * xs + rows[:, j]
        out[inside] = acc
        return out.reshape(x.shape)

    def values(self, x) -> np.ndarray:
        return self._eval(x, derivative=False)

    def deriv_values(self, x) -> np.ndarray:
        return self._eval(x, derivative=True)


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@dataclass(frozen=True, eq=False)
class WindowForm:
    """Window form on a zero-boundary hat basis, as (diagonal, off-diagonal)
    pairs; the dense matrices ``M`` and ``B`` are built on demand."""

    interval: Interval
    n: int
    nodes: np.ndarray          # full mesh including the two boundary nodes
    A_bands: tuple             # stiffness, real symmetric
    P_bands: tuple             # potential matrix int s (phi_i phi_j)', complex symmetric
    M_bands: tuple             # mass, real symmetric
    B_bands: tuple             # form matrix: c^H B c is the form value

    @property
    def dim(self) -> int:
        return self.M_bands[0].size

    @property
    def M(self) -> np.ndarray:
        return _dense(*self.M_bands)

    @property
    def B(self) -> np.ndarray:
        return _dense(*self.B_bands)


def _element_integrals(model: Antiderivative, nodes: np.ndarray, mid: np.ndarray,
                       rows) -> list:
    """Integrals of ``rows(v, t, r, window)`` over the mesh elements, each
    element a window of ``potential.centred_integrals``: v = model - r with r
    the model's value at its point 0, so a window sliced from a span keeps
    its bits, and t = x - mid from each element's (rounded) midpoint."""
    edges, first = quadrature.window_edges(nodes[:-1], nodes[1:], model.breakpoints)
    return potential.centred_integrals(model, edges, first, np.zeros(mid.size), mid, rows)[0]


def _derivative_bands(i0, i1, left, right) -> tuple:
    """Bands of int m (phi_i phi_j)' from the element integrals i0 = int v and
    i1 = int v t, v = m - r (a constant drops out of every band), t measured
    from an origin ``left`` past each element's start and ``right`` before
    its end: phi_l = (right - t) / h and phi_r = (left + t) / h.  Both
    distances are exact, so a rounded midpoint costs nothing."""
    scale = 2.0 / (left + right) ** 2
    d_left = -scale * (right * i0 - i1)         # int m (phi_l^2)'
    d_right = scale * (left * i0 + i1)          # int m (phi_r^2)'
    o_mid = scale * (0.5 * (right - left) * i0 - i1)
    return d_right[:-1] + d_left[1:], o_mid[1:-1]


def _first_rows(v, t, r, _window):
    return v, v * t


def _gauge_rows(v, t, r, _window):
    g2 = (v + r).real ** 2      # g is real
    return v, v * t, g2, g2 * t, g2 * t * t


def assemble(s: Antiderivative, interval: Interval, n: int, gauge: tuple = None) -> WindowForm:
    """Assemble stiffness/potential/mass (and gauge) matrices on [a, b].

    gauge, when given, is a triple (g, kappa1, kappa2) with real-valued g:
    the discrete form becomes
        int |y' - kappa1 g y|^2 - kappa2 int g^2 |y|^2 - int s d|y|^2 .
    The mesh is ``quadrature.grid`` of n cells with the breakpoints of s
    (and g).  Every element integral is taken in element-local coordinates
    t = x - midpoint, one ``potential.centred_integrals`` call per model.
    """
    if n < 8:
        raise ValidationError("mesh resolution n must be >= 8")
    s.check_interval(interval)
    breaks = list(s.breakpoints)
    if gauge is not None:
        g, kappa1, kappa2 = gauge
        if not g.is_real(tol=0.0):
            raise ValidationError("gauge profile g must be real-valued")
        breaks += list(g.breakpoints)
    nodes = quadrature.grid(interval.a, interval.b, n, breaks)
    h = np.diff(nodes)

    inv_h = 1.0 / h
    A = (inv_h[:-1] + inv_h[1:], -inv_h[1:-1])
    M = ((h[:-1] + h[1:]) / 3.0, h[1:-1] / 6.0)

    mid = 0.5 * (nodes[:-1] + nodes[1:])
    left, right = mid - nodes[:-1], nodes[1:] - mid
    P = _derivative_bands(*_element_integrals(s, nodes, mid, _first_rows), left, right)
    b_diag, b_off = A[0] - P[0], A[1] - P[1]
    if gauge is not None:
        g0, g1, j0, j1, j2 = _element_integrals(g, nodes, mid, _gauge_rows)
        Q = [band.real for band in _derivative_bands(g0, g1, left, right)]
        # int g^2 phi phi with phi_l = (right - t) / h and phi_r = (left + t) / h
        r_ll = (right ** 2 * j0 - 2.0 * right * j1 + j2) / h ** 2
        r_rr = (left ** 2 * j0 + 2.0 * left * j1 + j2) / h ** 2
        r_lr = (left * right * j0 + (right - left) * j1 - j2) / h ** 2
        R = (r_rr[:-1] + r_ll[1:], r_lr[1:-1])

        mix = kappa1 ** 2 - kappa2
        b_diag = b_diag - kappa1 * Q[0] + mix * R[0]
        b_off = b_off - kappa1 * Q[1] + mix * R[1]

    return WindowForm(interval=interval, n=n, nodes=nodes, A_bands=A,
                      P_bands=P, M_bands=M, B_bands=(b_diag, b_off))


def form_value(w: WindowForm, c: np.ndarray) -> complex:
    """c^H B c, the discrete form value at the coefficient vector c."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (w.dim,):
        raise ValidationError(f"coefficient vector must have shape ({w.dim},)")
    return _bilinear(w.B_bands, c.conj(), c)


def _bilinear(bands, x, y) -> complex:
    """x^T T y for the tridiagonal T of a (diagonal, off-diagonal) pair."""
    diag, off = bands
    ty = diag * y
    ty[:-1] += off * y[1:]
    ty[1:] += off * y[:-1]
    return complex(x @ ty)


def herm_lambda_min(w: WindowForm) -> float:
    """Certified smallest eigenvalue of (Herm(B), M), swept at 0 and pi."""
    return float(_rotation_sweep([w], _REAL_THETAS)[0][0, 0])


# -- batched tridiagonal pencil kernel ----------------------------------------

_EPS = float(np.finfo(float).eps)
#: elements of one (mesh row x column) working array of the rotation sweep;
#: the sweep runs chunk by chunk and holds at most about twelve such arrays
#: (eleven in a Laguerre pass, measured at mesh 512), so its memory stays
#: near 3 MiB at any angle or window count and meshes up to 512
_CHUNK_ELEMENTS = 1 << 15
#: fewest columns per chunk: the row loops cost the same for few columns as
#: for many, so finer meshes trade memory (still linear in the mesh) for time
_CHUNK_COLUMNS = 64
#: from the bracket start a kernel call runs 3.9 Laguerre passes on real
#: windows and 5.0 on complex ones (bench scan inputs, mesh 128); the columns
#: still moving (clusters near lambda_1, steps that lost definiteness to
#: rounding) are cheaper to finish by multisection, whose pass runs a shorter
#: recurrence: 3.0 passes per real call and 7.7 per complex one
_LAGUERRE_PASSES = 5
#: trial shifts per column in one multisection pass, at most
_SECTIONS = 15
#: shifts per column of the starting bracket, 4^-j of the way down from the
#: Rayleigh bound to the Gershgorin one; a chunk of K columns tests
#: min(_PROBES, _CHUNK_COLUMNS // K) of them per definiteness pass
_PROBES = 4
#: backoff in units of eps times the eigenvector-weighted |H| + |x| |M|: the
#: pivot recurrence's backward error, with room for the rounding of the
#: rotation, the normalisation and the Rayleigh quotients of the samples
_BACKWARD_EPS = 8.0


def _check_finite(w: WindowForm) -> None:
    if not all(np.isfinite(arr).all() for arr in (*w.B_bands, *w.M_bands)):
        raise NumericError("window form has non-finite matrix entries")


def _twist(n):
    """Rows 0, n-1, 1, n-2, ... of odd order n with the middle row k last, and
    each row's natural coupling towards the middle (0: none).  Rows [:-1]
    reshape without a copy into k stacked rows: the top rows 0..k-1 beside
    the bottom rows n-1..k+1, both running towards row k."""
    k = n // 2
    order = np.append(np.stack([np.arange(k), np.arange(n - 1, k, -1)], 1).ravel(), k)
    return order, np.append(np.where(order[:-1] < k, order[:-1] + 1, order[:-1]), 0)


def _stacked(a):
    return a[:-1].reshape(a.shape[0] // 2, -1)


def _fold(a):
    """Top plus bottom half of a stacked row."""
    return a[:a.size // 2] + a[a.size // 2:]


def _apply(diag, off, v):
    """T v per column, T tridiagonal in the twisted layout: row p meets row
    p + 2, and the last two rows both meet the middle row."""
    y = diag * v
    y[:-2] += off[:-2] * v[2:]
    y[2:] += off[:-2] * v[:-2]
    y[-2] += off[-2] * v[-1]
    y[-1] += off[-2] * v[-2]
    return y


def _gershgorin(d, o):
    """Per column: the largest row sum of |T| and the Gershgorin lower bound."""
    ao = np.abs(o)
    radius = ao.copy()
    radius[2:] += ao[:-2]
    radius[-1] += ao[-2]
    return (np.abs(d) + radius).max(0), (d - radius).min(0)


def _shifted(h, ho, m, mo, x):
    """Diagonal and couplings of H - x M."""
    T, E = m * -x, mo * -x
    T += h
    E += ho
    return T, E


def _definite(T, E):
    """Whether every pivot of the twisted LDL^T of H - x M is positive.

    Both sides run d_i = T_i - E_i^2 / d_{i-1} towards the middle row, whose
    pivot takes both: T_k - E^2/d (top) - E^2/d (bottom).  By Sylvester's
    law of inertia that holds exactly below the smallest pencil eigenvalue.
    """
    t, e = _stacked(T), _stacked(E)
    e *= e
    d = t[0]
    for i in range(1, t.shape[0]):
        d = np.subtract(t[i], e[i - 1] / d, out=t[i])
    pos = (t > 0).all(0)
    return pos[:T.shape[1]] & pos[T.shape[1]:] & (T[-1] - _fold(e[-1] / d) > 0)


def _laguerre_terms(T, E, m, mo):
    """Definiteness and the log-determinant derivatives that drive Laguerre.

    Alongside the twisted pivots d_i of H - x M the recurrence carries
    u_i = d_i'/d_i and v_i = d_i''/d_i (derivatives in x).  G = sum u_i and
    S = sum u_i^2 - v_i equal sum 1/(x - lambda_j) and sum 1/(x - lambda_j)^2
    over the pencil eigenvalues.  Row by row run only the three recurrences,
    with r_i = e_i^2 / d_{i-1} and w_i = 2 e_i mo_i / d_{i-1}:

        d_i = t_i - r_i,
        u_i = (w_i - m_i + r_i u_{i-1}) / d_i,
        v_i = (r_i (v_{i-1} - 2 u_{i-1}^2) - C_i) / d_i,
        C_i = 2 (mo_i^2 / d_{i-1} + w_i u_{i-1});

    every other term is built for all rows at once between the loops, with
    the expression a fused loop would use, so the bits do not depend on the
    split.  The work buffers are reused: r overwrites E and w the array W of
    2 e mo; a second array holds w - m, then C; a third u, then 2 u^2 and v,
    while W takes u^2 and the summands of S.
    """
    t, e, ms, os = (_stacked(a) for a in (T, E, m, mo))
    W = e * os * 2.0
    e *= e
    for i in range(1, t.shape[0]):
        np.subtract(t[i], np.divide(e[i - 1], t[i - 1], out=e[i - 1]), out=t[i])
    # row k - 1 of each stacked term belongs to the middle row, which both
    # sides' last pivots feed
    e[-1] /= t[-1]
    W /= t
    gam = T[-1] - _fold(e[-1])
    pos = (t > 0).all(0)
    C = np.empty_like(W)
    np.subtract(W[:-1], ms[1:], out=C[:-1])
    U = np.empty_like(W)
    np.divide(-ms[0], t[0], out=U[0])
    for i in range(1, t.shape[0]):
        u = np.multiply(e[i - 1], U[i - 1], out=U[i])
        u += C[i - 1]
        u /= t[i]
    uk = (_fold(W[-1] + e[-1] * U[-1]) - m[-1]) / gam
    G = _fold(U[1:].sum(0) + U[0]) + uk
    np.multiply(os, os, out=C)
    C /= t
    W *= U
    C += W
    C *= 2.0
    np.multiply(U, U, out=W)
    np.multiply(W, 2.0, out=U)
    # v_i lands in the row of 2 u_{i-1}^2, the last one it reads
    v = 0.0
    for i in range(1, t.shape[0]):
        v = np.subtract(v, U[i - 1], out=U[i - 1])
        v *= e[i - 1]
        v -= C[i - 1]
        v /= t[i]
    mid = np.subtract(v, U[-1], out=U[-1])
    mid *= e[-1]
    mid -= C[-1]
    vk = _fold(mid) / gam
    np.subtract(W[1:], U[:-1], out=W[1:])
    return (pos[:T.shape[1]] & pos[T.shape[1]:] & (gam > 0), G,
            _fold(W[1:].sum(0) + W[0]) + (uk * uk - vk))


def _pencil_floor(h, ho, m, mo, dims):
    """Certified smallest eigenvalue and its eigenvector for a batch of pencils.

    Column k holds the real symmetric tridiagonal pencil (H, M) of odd order
    n in the twisted layout of ``_twist(n)``: diagonals h[:, k] and m[:, k],
    couplings ho[:, k] and mo[:, k].  M must be diagonally dominant with
    nonnegative couplings, as every hat-element mass matrix is.  Natural rows
    from dims[k] on are decoupled padding whose eigenvalues are not below the
    smallest one.  The four arrays are overwritten; the vector comes back
    twisted.

    Each column is normalised by the Gershgorin magnitudes of H and M, so no
    intermediate overflows, and bracketed: the Rayleigh quotients of the sine
    vector and its alternating twin bound lambda_1 from above, and
    definiteness passes test ``_PROBES`` shifts 4^-j of the way from there
    down to the Gershgorin bound.  Laguerre's method, whose iterates stay
    below lambda_1 for a real-rooted pencil, steps from the largest shift
    found definite.  Columns still moving after a few passes, or whose step
    lost definiteness to rounding, are finished by multisection on the
    definiteness test.  The bound is the largest shift found definite, backed
    off by the recurrence's backward error as the eigenvector sees it; two
    inverse-iteration solves give the vector.
    """
    n, K = h.shape
    with np.errstate(all="ignore"):
        gam_h, _ = _gershgorin(h, ho)
        gam_h[gam_h == 0.0] = 1.0
        gam_m, _ = _gershgorin(m, mo)
        h /= gam_h
        ho /= gam_h
        m /= gam_m
        mo /= gam_m
        _, mu = _gershgorin(m, mo)
        if not np.all(mu > 0):
            raise NumericError("mass matrix is not diagonally dominant")
        _, low = _gershgorin(h, ho)
        lo = low / np.where(low >= 0, 1.0, mu)      # lambda_max(M) <= 1 now
        hi = (h / m).min(0)                         # unit-vector quotients
        # tolerance floor: eps times a lower estimate of the weighted size of
        # |H| that sets the backoff
        floor = 0.25 * (np.abs(h) / m).min(0)
        natural = _twist(n)[0][:, None]           # natural row of each twisted one

        # bracket: the sine vector and its alternating twin, the lowest and
        # highest discrete Laplacian modes on the window's own rows, put their
        # Rayleigh quotients near lambda_1 of a stiffness-led pencil (theta
        # near 0 and near pi); below them, lo moves only to shifts found
        # definite and hi to the least one found not definite
        sine = np.where(natural < dims, np.sin((natural + 1) * (math.pi / (dims + 1))), 0.0)
        for v in (sine, sine * np.where(natural % 2, -1.0, 1.0)):
            hi = np.minimum(hi, _quad(h, ho, v) / _quad(m, mo, v))
        del sine, v
        probes = hi - (hi - lo) * 0.25 ** np.arange(1, _PROBES + 1)[:, None]
        per = max(1, min(_PROBES, _CHUNK_COLUMNS // K))
        for group in np.split(probes, range(per, _PROBES, per)):
            tiled = [a if per == 1 else np.tile(a, len(group)) for a in (h, ho, m, mo)]
            pds = _definite(*_shifted(*tiled, group.ravel())).reshape(group.shape)
            del tiled
            for probe, pd in zip(group, pds):
                lo = np.where(pd, probe, lo)
                hi = np.minimum(hi, np.where(pd, np.inf, probe))
        x = lo.copy()

        # Laguerre phase: at a definite x the eigenvalues put lambda_1 in
        # [x + L, x + |G|/S], L Laguerre's step; lo moves only to shifts
        # found definite
        ladder = np.zeros(K)
        todo = np.arange(K)
        left = []
        for _ in range(_LAGUERRE_PASSES):
            if todo.size == 0:
                break
            xs = x[todo]
            sub = [a if todo.size == K else a.take(todo, 1) for a in (h, ho, m, mo)]
            T, E = _shifted(*sub, xs)
            del sub[:2]
            pd, G, S = _laguerre_terms(T, E, *sub)
            del T, E, sub
            step = n / (-G + np.sqrt(np.maximum((n - 1) * (n * S - G * G), 0.0)))
            lo[todo] = np.where(pd, xs, lo[todo])
            bound = np.where(pd, np.where(G < 0, xs - G / S, np.inf), xs)
            hi[todo] = np.minimum(hi[todo], bound)
            usable = pd & np.isfinite(step) & (step > 0)
            tol = _EPS * (4.0 * np.abs(xs) + floor[todo])
            done = usable & ((step <= tol) | (hi[todo] - xs <= tol))
            go = usable & ~done
            # a point that is not definite overshot by rounding only, so the
            # root lies just below it: start a ladder of steps tol * 4^j
            ladder[todo[~pd]] = tol[~pd]
            left.append(todo[~usable])
            x[todo] = np.where(go, np.minimum(xs + step, hi[todo]), xs)
            todo = todo[go]
        left = np.concatenate(left + [todo])

        # multisection: uniform, or down the ladder while every rung fails;
        # brackets at least halve per pass, so 64 passes exceed any float range
        for _ in range(64):
            tol = _EPS * (4.0 * np.abs(lo[left]) + floor[left])
            width = hi[left] - lo[left]
            keep = width > tol
            left, width = left[keep], width[keep]
            if left.size == 0:
                break
            k = min(_SECTIONS, max(1, K // left.size))
            j = np.arange(k)
            rungs = np.minimum(ladder[left, None] * 4.0 ** j[::-1],
                               width[:, None] * ((k - j) / (k + 1)))
            pts = np.where(ladder[left, None] > 0, hi[left, None] - rungs,
                           lo[left, None] + width[:, None] * ((j + 1) / (k + 1)))
            T, E = _shifted(*(a.take(np.repeat(left, k), 1) for a in (h, ho, m, mo)),
                            pts.ravel())
            pd = _definite(T, E).reshape(-1, k)
            del T, E
            fail = np.where(pd.all(1), k, pd.argmin(1))
            rows = np.arange(left.size)
            lo[left] = np.where(fail > 0, pts[rows, np.maximum(fail - 1, 0)], lo[left])
            hi[left] = np.where(fail < k, pts[rows, np.minimum(fail, k - 1)], hi[left])
            ladder[left] = np.where(fail == 0, ladder[left] * 4.0 ** k, 0.0)

        # twisted LDL^T of H - lo M, pivots into T and multipliers into E,
        # then inverse iteration from a start vector that vanishes on the
        # padding: eliminate towards the middle row, substitute outwards
        T, E = _shifted(h, ho, m, mo, lo)
        t, e = _stacked(T), _stacked(E)
        for i in range(1, t.shape[0]):
            mult = e[i - 1] / t[i - 1]
            t[i] -= mult * e[i - 1]
            t[i][t[i] == 0.0] = _EPS
            e[i - 1] = mult
        mult = e[-1] / t[-1]
        T[-1] -= _fold(mult * e[-1])
        T[-1][T[-1] == 0.0] = _EPS
        e[-1] = mult
        vec = np.where(natural < dims, 0.5 + (natural * 0.6180339887498949) % 1.0, 0.0)
        for _ in range(2):
            y = _apply(m, mo, vec)
            ys = _stacked(y)
            for i in range(1, ys.shape[0]):
                ys[i] -= e[i - 1] * ys[i - 1]
            y[-1] -= _fold(e[-1] * ys[-1])
            y /= T
            ys[-1] -= e[-1] * np.tile(y[-1], 2)
            for i in range(ys.shape[0] - 2, -1, -1):
                ys[i] -= e[i] * ys[i + 1]
            y /= np.abs(y).max(0)
            vec = y
        del T, E, t, e

        a = np.abs(lo)
        size = _quad(np.abs(h) + a * m, np.abs(ho) + a * np.abs(mo), np.abs(vec))
        lower = lo - _BACKWARD_EPS * _EPS * size / _quad(m, mo, vec)
    return lower * (gam_h / gam_m), vec


def _quad(diag, off, v):
    """v^T T v per column, T tridiagonal in the twisted layout."""
    return (v * _apply(diag, off, v)).sum(0)


def _sweep_columns(windows, win, thetas, vectors=False):
    """Certified lambda_min and attained boundary sample of window win[k] at
    rotation thetas[k], one per column k (with ``vectors``, also their
    eigenvectors in natural order, one row per column).

    The windows are padded to one odd dimension with decoupled copies of
    their last row, whose eigenvalue is a Rayleigh quotient and so not below
    lambda_min, put in the twisted layout, and the kernel runs over the
    columns, one chunk of at most ``_CHUNK_ELEMENTS`` array elements (or
    ``_CHUNK_COLUMNS`` columns) at a time.
    """
    dims = np.asarray([w.dim for w in windows])
    N, W, K = int(dims.max()) | 1, len(windows), win.size
    bd, bo = np.zeros((2, N, W), dtype=complex)
    md, mo = np.zeros((2, N, W))
    for k, w in enumerate(windows):
        _check_finite(w)
        d = w.dim
        bd[:d, k], bo[1:d, k] = w.B_bands
        md[:d, k], mo[1:d, k] = w.M_bands
        bd[d:, k], md[d:, k] = bd[d - 1, k], md[d - 1, k]
    order, couple = _twist(N)
    parts = (bd.real[order], bo.real[couple], bd.imag[order], bo.imag[couple],
             md[order], mo[couple])
    del bd, bo, md, mo
    cos, sin = np.cos(thetas), np.sin(thetas)
    lows = np.empty(K)
    samples = np.empty(K, dtype=complex)
    vecs = np.empty((N, K)) if vectors else None
    chunks = -(-K // max(_CHUNK_COLUMNS, _CHUNK_ELEMENTS // N))
    for cols in np.array_split(np.arange(K), chunks):
        at, c, s = win[cols], cos[cols], sin[cols]
        h = parts[0].take(at, 1) * c
        h += parts[2].take(at, 1) * s
        ho = parts[1].take(at, 1) * c
        ho += parts[3].take(at, 1) * s
        lows[cols], vec = _pencil_floor(h, ho, parts[4].take(at, 1),
                                        parts[5].take(at, 1), dims[at])
        if vectors:
            vecs[np.ix_(order, cols)] = vec
        del h, ho
        re, im, mass = (_quad(parts[i].take(at, 1), parts[i + 1].take(at, 1), vec)
                        for i in (0, 2, 4))
        samples[cols] = (re + 1j * im) / mass
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(samples))):
        raise NumericError("rotation sweep produced non-finite values")
    return (lows, samples, vecs.T) if vectors else (lows, samples)


def _rotation_sweep(windows, thetas, vectors=False):
    """``_sweep_columns`` of every window at every rotation, window by window:
    arrays of shape (windows, rotations), and (windows, rotations, rows)."""
    W, R = len(windows), thetas.size
    out = _sweep_columns(windows, np.repeat(np.arange(W), R), np.tile(thetas, W), vectors)
    return tuple(a.reshape(W, R, *a.shape[1:]) for a in out)


def _alternating_quotient(w: WindowForm) -> tuple[complex, float]:
    """z = v^T B v / v^T M v at v_i = (-1)^i, from the band sums, and a bound
    on its rounding error and on the distance from Re(e^{-i theta} z) to the
    alternating quotient of the rotated pencil that the kernel is handed.

    For every theta, Re(e^{-i theta} z) is a Rayleigh quotient of the rotated
    Hermitian part and so bounds its lambda_min from above.
    """
    (bd, bo), (md, mo) = w.B_bands, w.M_bands
    den = md.sum() - 2.0 * mo.sum()
    z = complex(bd.sum() - 2.0 * bo.sum()) / den
    size = np.abs(bd).sum() + 2.0 * np.abs(bo).sum() + abs(z) * (md.sum() + 2.0 * mo.sum())
    return z, float(4.0 * (w.dim + 4) * _EPS * size / den)


def _half_plane(angles: int) -> np.ndarray:
    """Which of the ``_rotations(angles)`` lie on the closed right half-plane
    |theta| <= pi/2: k with 4k <= angles or 4k >= 3 angles.  Chosen by index,
    since a rounded cosine of a quarter turn can be negative (-1.6e-16 for
    25 of 100); the set is symmetric under theta -> -theta."""
    k = np.arange(angles)
    return (4 * k <= angles) | (4 * k >= 3 * angles)


def _half_plane_sweep(windows, thetas) -> list:
    """Each window's range estimate from its swept rotations (``_swept_range``).

    One batched sweep takes the group (a scan's span, ``_ranges``) on the
    closed right half-plane.  On cos(theta) < 0 the rotated Hermitian part
    is -|cos theta| times the stiffness plus a bounded term, so its
    lambda_min sits near minus the mesh's largest eigenvalue.  Such a
    rotation is skipped only when its alternating quotient, an upper bound
    on its lambda_min, lies with its rounding below the window's best bound
    of the first pass, so it could not raise the largest lower bound
    (theta = 0, herm_lambda_min, is always swept).  The rotations not ruled
    out, or whose bound is not finite, are swept in one more batched call.
    """
    half = _half_plane(thetas.size)
    swept = np.tile(half, (len(windows), 1))
    lows = np.empty(swept.shape)
    samples = np.empty(swept.shape, dtype=complex)
    lows[swept], samples[swept] = (a.ravel() for a in _rotation_sweep(windows, thetas[half]))
    z, slack = map(np.asarray, zip(*map(_alternating_quotient, windows)))
    bound = z.real[:, None] * np.cos(thetas) + z.imag[:, None] * np.sin(thetas)
    best = lows.max(1, where=swept, initial=-np.inf)
    more = ~swept & ~(bound + slack[:, None] < best[:, None])
    if more.any():
        win, rot = np.nonzero(more)
        lows[more], samples[more] = _sweep_columns(windows, win, thetas[rot])
        swept |= more
    return [_swept_range(thetas[m], low[m], zs[m]) for m, low, zs in zip(swept, lows, samples)]


@dataclass(frozen=True)
class RangeEstimate:
    """Numerical-range boundary samples and certified inf-modulus bounds."""

    boundary: np.ndarray             # attained Rayleigh values, one per swept rotation
    sector: Sector | None
    inf_modulus_lower: float
    inf_modulus_upper: float
    rotations: np.ndarray
    lambda_mins: np.ndarray


def _is_real(w: WindowForm) -> bool:
    diag, off = w.B_bands
    scale = max(1.0, np.abs(diag.real).max(), np.abs(off.real).max(initial=0.0))
    return max(np.abs(diag.imag).max(), np.abs(off.imag).max(initial=0.0)) <= 1e-14 * scale


def _rotations(angles: int) -> np.ndarray:
    """The rotations 2 pi k / angles, k < angles, as angles in (-pi, pi]: the
    rotations k and angles - k get equal cosines and opposite sines, bit for
    bit, so conjugating B mirrors every rotated pencil exactly."""
    if angles < 16:
        raise ValidationError("rotation count must be >= 16")
    k = np.arange(angles)
    return np.where(2 * k <= angles, k, k - angles) * (2.0 * math.pi / angles)


#: the rotations whose bounds end a real form's range: lambda_lo, -lambda_hi
_REAL_THETAS = np.array([0.0, math.pi])


def _real_ranges(windows, thetas: np.ndarray) -> list:
    """Real forms' ranges, the intervals [lambda_lo, lambda_hi] of their pencils.

    One sweep at 0 and pi certifies both ends; each eigenvector attains its
    Rayleigh value; rotation theta takes cos(theta) times the nearer end, the
    lower one on the closed right half-plane (``_half_plane``).  A range over
    0 attains it at a real zero of the 2x2 form on the two vectors.
    """
    lows, samples, vecs = _rotation_sweep(windows, _REAL_THETAS, vectors=True)
    right = _half_plane(thetas.size)
    ests = []
    for w, (lo, hi), z, (v0, v1) in zip(windows, lows, samples, vecs):
        upper = float(np.abs(z).min())
        if z[0].real < 0.0 < z[1].real:
            v0, v1 = v0[:w.dim], v1[:w.dim]
            q = [_bilinear(w.B_bands, x, y).real for x, y in ((v0, v0), (v0, v1), (v1, v1))]
            a, b, c = np.asarray(q) / max(map(abs, q))
            mix = v0 - (b + math.copysign(math.sqrt(b * b - a * c), b)) / c * v1
            upper = abs(_bilinear(w.B_bands, mix, mix)) / _bilinear(w.M_bands, mix, mix).real
        ests.append(RangeEstimate(np.where(right, z[0], z[1]), Sector(lo, 0.0, 0.0),
                                  float(max(0.0, lo, hi)), upper, thetas,
                                  np.cos(thetas) * np.where(right, lo, -hi)))
    return ests


def _swept_range(thetas, lows, samples) -> RangeEstimate:
    sector = sectors.fit_sector(samples, require_strict_args=False, translate_vertex=True)
    return RangeEstimate(samples, sector, max(0.0, float(lows.max())),
                         float(np.abs(samples).min()), thetas, lows)


def _ranges(windows, thetas) -> list:
    """Range estimates of a group of forms, in input order: the real ones
    from one ``_real_ranges`` call, the rest from one ``_half_plane_sweep``."""
    real = {w: _is_real(w) for w in windows}
    ests = {}
    for flag, ranges in ((True, _real_ranges), (False, _half_plane_sweep)):
        part = [w for w in windows if real[w] == flag]
        ests.update(zip(part, ranges(part, thetas) if part else ()))
    return [ests[w] for w in windows]


def range_boundary(w: WindowForm, angles: int = 64) -> RangeEstimate:
    """Boundary sweep of the pencil (B, M) via rotated Hermitian eigenproblems.

    For each rotation theta the smallest eigenvalue of Herm(e^{-i theta} B)
    against M bounds Re(e^{-i theta} q) from below over the range, and its
    eigenvector attains a boundary point.  The assembled B is complex
    symmetric, so Herm(e^{-i theta} B) = cos(theta) Re B + sin(theta) Im B.
    ``angles`` counts rotations over the full circle.  A complex form sweeps
    those on the closed right half-plane |theta| <= pi/2 and any other that
    its alternating quotient does not rule out (``_half_plane_sweep``), so
    ``rotations``, ``lambda_mins`` and ``boundary`` hold the swept rotations
    only.  The fitted sector is the minimal one over the attained samples
    (vertex translated to a support point); None when the samples span
    >= pi.  A real form's range is an interval, swept at 0 and pi
    (``_real_ranges``), and reported at every rotation.  ``_ranges`` sweeps
    the form as a group of one.
    """
    return _ranges([w], _rotations(angles))[0]


def inf_modulus(w: WindowForm, angles: int = 64) -> tuple[float, float]:
    """Two-sided bounds on inf |form| over the discrete unit sphere."""
    est = range_boundary(w, angles=angles)
    return est.inf_modulus_lower, est.inf_modulus_upper


# -- localization scan --------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    window: Interval
    sector: Sector | None
    herm_lambda_min: float
    inf_lower: float
    inf_upper: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    lower_bounds_monotone: bool

    def lower_bounds(self) -> np.ndarray:
        return np.asarray([r.inf_lower for r in self.rows])


def scan_windows(domain_end: float) -> list[Interval]:
    """Both localization families inside [0, X]: [k-1, k] and [k-1/2, k+1/2]."""
    ks = range(1, math.floor(domain_end) + 1)
    return sorted([Interval(float(k - 1), float(k)) for k in ks]
                  + [Interval(k - 0.5, k + 0.5) for k in ks if k + 0.5 <= domain_end],
                  key=lambda w: w.a)


def _spans(s: Antiderivative, wins: list, n: int):
    """Spans of scan windows on one lattice a + Z/n (one for an even n, two for
    an odd one) of at most ``quadrature.BATCH_PANELS`` mesh elements, or
    one window; yields each span and the indices of its windows."""
    bp = np.asarray(s.breakpoints)
    for lattice in (0, 1):
        run = [k for k, win in enumerate(wins) if int(2 * win.a * n) % 2 == lattice]
        while run:
            a, m = wins[run[0]].a, 1
            while m < len(run) and (n * (wins[run[m]].b - a) + bp.searchsorted(
                    wins[run[m]].b) - bp.searchsorted(a, "right")) <= quadrature.BATCH_PANELS:
                m += 1
            yield Interval(a, wins[run[m - 1]].b), run[:m]
            run = run[m:]


def _window_of(span: WindowForm, win: Interval) -> WindowForm:
    """Window ``win``'s form as a principal sub-pencil (slices) of a span form on
    its lattice, whose cell nodes include both ends of the window."""
    i, j = span.nodes.searchsorted([win.a, win.b])
    bands = [(d[i:j - 1], o[i:j - 2])
             for d, o in (span.A_bands, span.P_bands, span.M_bands, span.B_bands)]
    return WindowForm(win, span.n, span.nodes[i:j + 1], *bands)


def localization_scan(s: Antiderivative, n: int = 128, angles: int = 64) -> ScanResult:
    """Per-window sector and inf-modulus table over both window families.

    Each window is a slice of a span assembly (``_spans``), bitwise its own
    ``assemble``: cell nodes never move, so the span's mesh between a
    window's ends is the window's own.  Each span's windows are swept as one
    ``_ranges`` group as soon as the span is sliced, and only its rows are
    kept, so the memory of a scan does not grow with its windows' forms.
    The result flags monotone lower bounds.
    """
    if s.domain_end < 2.0:
        raise ValidationError("scan needs domain_end >= 2 for a full window pair")
    thetas = _rotations(angles)
    if n < 8:
        raise ValidationError("mesh resolution n must be >= 8")
    wins = scan_windows(s.domain_end)
    rows = [None] * len(wins)
    for interval, run in _spans(s, wins, n):
        whole = assemble(s, interval, round(n * interval.length))
        group = [_window_of(whole, wins[k]) for k in run]
        for k, est in zip(run, _ranges(group, thetas)):
            rows[k] = ScanRow(wins[k], est.sector, float(est.lambda_mins[0]),
                              est.inf_modulus_lower, est.inf_modulus_upper)
    lowers = np.asarray([r.inf_lower for r in rows])
    tol = 1e-6 * max(1.0, float(np.max(np.abs(lowers))))
    monotone = bool(np.all(np.diff(lowers) >= -tol))
    return ScanResult(rows=tuple(rows), lower_bounds_monotone=monotone)


def scan_to_csv(result: ScanResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_lo", "window_hi", "alpha", "beta",
                         "vertex_re", "vertex_im", "herm_lambda_min",
                         "infmod_lower", "infmod_upper"])
        for r in result.rows:
            sec = r.sector
            fit = [sec.alpha, sec.beta, sec.vertex.real, sec.vertex.imag] if sec else []
            writer.writerow([repr(r.window.a), repr(r.window.b)]
                            + ([repr(v) for v in fit] if sec else [""] * 4)
                            + [repr(r.herm_lambda_min), repr(r.inf_lower), repr(r.inf_upper)])


# -- the overlapping-window partition identity -------------------------------


def _phase(alpha, beta, u):
    """p = alpha - beta cos(pi u) and dp/dx, u = 2x - a - b: with alpha =
    cos(pi (b - a)) / 2 and beta = 1/2 this is phi_a phi_b, with beta = 0
    the constant alpha."""
    return alpha - beta * np.cos(np.pi * u), 2.0 * np.pi * beta * np.sin(np.pi * u)


def _weighted_rows(y, mid, alpha, beta, sigma, v, t, r, window):
    """|w'|^2, v (|w|^2)' and |y|^2 on the cells of windows whose w = p y,
    x = t + mid."""
    x = t + mid
    p, dp = _phase(alpha[window], beta[window], 2.0 * x - sigma[window])
    yv = y.values(x)
    w, dw = p * yv, dp * yv + p * y.deriv_values(x)
    return np.abs(dw) ** 2, v * (2.0 * (dw * w.conj()).real), np.abs(yv) ** 2


@dataclass(frozen=True)
class PartitionReport:
    lhs: complex
    rhs: complex
    correction: float
    residual: float
    norm_sq: float


def partition_identity_check(s: Antiderivative, y: PiecewisePoly,
                             offsets=None) -> PartitionReport:
    """Check the overlapping-window energy identity for sine-squared weights.

    Windows [a_k, a_k + 1] carry phi_k(x) = sin(pi (x - a_k)); with
    y_k = phi_k^2 y and u_k = phi_k phi_{k+1} y the identity

        l[y] = sum l[y_k] + 2 sum l[u_k] - 2 sum int (phi_k' phi_{k+1}
                - phi_k phi_{k+1}')^2 |y|^2

    holds, and the correction term never exceeds 2 pi^2 ||y||^2: the
    Wronskian of two sines is the constant -pi sin(pi (a_{k+1} - a_k)).
    Offsets default to the half-shifted lattice -1/2, 0, 1/2, ... clipped to
    [0, X], whose squared weights sum to one on the whole support.  Every
    window is clipped to the support of y, and every form comes from one
    ``potential.centred_integrals`` call with the support's centre as
    reference point and origin, so the windows share v = s - r cell by cell
    and int s (|w|^2)' = int v (|w|^2)' + r |w|^2 between the window ends.
    """
    lo, hi = y.support
    if hi > s.domain_end - 1.0 + 1e-9:
        raise ValidationError("y must vanish outside [0, domain_end - 1]")
    lo = max(lo, 0.0)
    if abs(complex(y.values(np.asarray([lo]))[0])) > 1e-12:
        raise ValidationError("y must vanish at the left end of its support")
    if offsets is None:
        offsets = 0.5 * np.arange(-1, math.floor(2.0 * (hi + 1e-9)) + 1)
        offsets = offsets[offsets + 1.0 > lo - 1e-9]
    offsets = np.sort(np.asarray(offsets, dtype=float))
    pairs = [(a, a, 1.0) for a in offsets] + [
        (a, b, 2.0) for a, b in zip(offsets, offsets[1:]) if b - a < 1.0 - 1e-9]
    a, b, weight = np.reshape(pairs, (-1, 3)).T
    # window 0 is y's support, with w = y and no weight in the sum; then each
    # [b, a + 1] with w = phi_a phi_b y; every window clipped to the support
    table = np.column_stack([(lo, hi, 1.0, 0.0, 0.0, 0.0, 0.0), np.stack([
        np.maximum(b, lo), np.minimum(a + 1.0, hi), 0.5 * np.cos(np.pi * (b - a)),
        np.full(a.size, 0.5), a + b, weight, (np.pi * np.sin(np.pi * (b - a))) ** 2])])
    starts, ends, alpha, beta, sigma, weight, wronsk2 = table[:, table[1] > table[0]]
    mid = np.full(starts.size, 0.5 * (lo + hi))
    cuts = np.unique(np.concatenate([s.breakpoints, y.breakpoints, offsets, offsets + 0.5]))
    edges, first = quadrature.window_edges(starts, ends, cuts)
    rows = functools.partial(_weighted_rows, y, mid[0], alpha, beta, sigma)
    (kinetic, pot, norm), r = potential.centred_integrals(s, edges, first, mid, mid, rows)
    w_lo, w_hi = (np.abs(_phase(alpha, beta, 2.0 * x - sigma)[0] * y.values(x)) ** 2
                  for x in (starts, ends))
    form = kinetic - pot - r * (w_hi - w_lo)
    correction = float(weight @ (wronsk2 * norm))
    lhs, rhs = complex(form[0]), complex(weight @ form) - correction
    residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return PartitionReport(lhs=lhs, rhs=rhs, correction=correction,
                           residual=residual, norm_sq=float(norm[0]))
