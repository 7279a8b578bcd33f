"""Exact piecewise models of the antiderivative s of a distributional potential.

A potential q is represented through its antiderivative s (q = s' in the
distributional sense).  s is modelled exactly on a finite window [0, X] as a
sum of basis terms per subinterval plus jump offsets:

* ``PolyTerm``   -- complex polynomial of degree <= 3,
* ``RecipTerm``  -- c / (x - p) with complex amplitude c and a real pole p
                    kept strictly outside every subinterval using the term.

The basis is the smallest set closed under the operations needed here:
squares of its own degree<=1 and reciprocal members have antiderivatives in
the basis again (Miura construction), and the auxiliary bump profiles are a
mix of constants and reciprocals.  Anything outside the basis is rejected
loudly instead of being approximated silently.

Jump offsets model delta interactions: a jump Delta at x0 means
q = ... + Delta * delta(x - x0).  Evaluation is right-continuous at jumps.
Pieces themselves are allowed to disagree across a breakpoint (a step carried
by the pieces is an equally valid delta in q); the jump list holds *extra*
offsets on top of whatever the pieces do.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import quadrature
from .errors import DomainError, UnsupportedInputError, ValidationError

_POLE_MARGIN = 1e-12


@dataclass(frozen=True)
class PolyTerm:
    """Complex polynomial c0 + c1 x + c2 x^2 + c3 x^3 (degree <= 3)."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if len(c) > 4:
            raise ValidationError(f"polynomial degree {len(c) - 1} exceeds 3")
        if not all(cmath.isfinite(v) for v in c):
            raise ValidationError(f"polynomial coefficients {c} are not all finite")
        if not c:
            c = (0j,)
        object.__setattr__(self, "coeffs", c)

    def values(self, x: np.ndarray) -> np.ndarray:
        out = np.full(np.shape(x), self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out = out * x + c
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class RecipTerm:
    """Reciprocal term c / (x - pole) with real pole."""

    c: complex
    pole: float

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "pole", float(self.pole))
        if not (cmath.isfinite(self.c) and math.isfinite(self.pole)):
            raise ValidationError(
                f"reciprocal term {self.c}/(x - {self.pole}) is not finite")

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.c / (np.asarray(x, dtype=float) - self.pole)

    def is_zero(self) -> bool:
        return self.c == 0


Term = Union[PolyTerm, RecipTerm]


def merge_terms(terms: Sequence[Term]) -> tuple:
    """Canonical form of a term sum: one polynomial, one reciprocal per pole.

    Exact zero cancellations (e.g. c - c^2 with c = 1) drop out, which keeps
    algebraically trivial results such as the Miura example s == const as a
    single polynomial term.
    """
    poly = [0j, 0j, 0j, 0j]
    recips: dict[float, complex] = {}
    for t in terms:
        if isinstance(t, PolyTerm):
            for k, c in enumerate(t.coeffs):
                poly[k] += c
        elif isinstance(t, RecipTerm):
            recips[t.pole] = recips.get(t.pole, 0j) + t.c
        else:
            raise ValidationError(f"unknown term type {type(t)!r}")
    out: list[Term] = []
    if any(c != 0 for c in poly):
        out.append(PolyTerm(tuple(poly)))
    for pole in sorted(recips):
        if recips[pole] != 0:
            out.append(RecipTerm(recips[pole], pole))
    return tuple(out)


@dataclass(frozen=True)
class Interval:
    """Closed segment [a, b] inside the domain of an antiderivative."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.b > self.a):
            raise ValidationError(f"interval [{self.a}, {self.b}] is empty")

    @property
    def length(self) -> float:
        return self.b - self.a


def _normal_piece(piece) -> tuple:
    """The piece with its polynomial terms summed into one leading term.

    The reciprocal terms keep their order, so evaluating the normal piece term
    by term adds the same numbers in the same order as the packed table does.
    """
    polys = [t for t in piece if isinstance(t, PolyTerm)]
    if not polys or (len(polys) == 1 and piece[0] is polys[0]):
        normal = piece
    else:
        coeffs = [0j] * 4
        for term in polys:
            for k, c in enumerate(term.coeffs):
                coeffs[k] += c
        normal = (PolyTerm(tuple(coeffs)),) + tuple(t for t in piece
                                                    if not isinstance(t, PolyTerm))
    if not all(isinstance(t, (PolyTerm, RecipTerm)) for t in normal):
        raise ValidationError(f"unknown term type in piece {piece!r}")
    return normal


@dataclass(frozen=True, eq=False)
class Antiderivative:
    """Piecewise model of s on [0, X]: breakpoints, term sums, jump offsets.

    Each piece is kept as at most one leading ``PolyTerm`` followed by its
    ``RecipTerm``s.  The first evaluation packs the pieces into a table (cubic
    coefficients per piece, reciprocal amplitudes and poles in slots with a
    count per piece) that, with the cumulative jumps, ``values`` evaluates
    without a loop over pieces.
    """

    domain_end: float
    breakpoints: tuple
    pieces: tuple
    jumps: tuple = ()

    def __post_init__(self):
        X = float(self.domain_end)
        bp = tuple(float(t) for t in self.breakpoints)
        if not math.isfinite(X) or X <= 0:
            raise ValidationError(f"domain_end {X} must be positive and finite")
        if not all(math.isfinite(t) for t in bp):
            raise ValidationError("breakpoints must be finite")
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != X:
            raise ValidationError("breakpoints must start at 0 and end at domain_end")
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        pieces = tuple(_normal_piece(tuple(piece)) for piece in self.pieces)
        if len(pieces) != len(bp) - 1:
            raise ValidationError("need exactly one term sum per subinterval")
        jumps = tuple(sorted(((float(at), complex(off)) for at, off in self.jumps),
                             key=lambda j: j[0]))
        bpset = set(bp)
        for at, off in jumps:
            if not cmath.isfinite(off):
                raise ValidationError(f"jump offset {off} at {at} is not finite")
            if not (0.0 < at < X):
                raise ValidationError(f"jump location {at} outside (0, {X})")
            if at not in bpset:
                raise ValidationError(f"jump location {at} is not a breakpoint")
        for (t0, t1), piece in zip(zip(bp, bp[1:]), pieces):
            margin = _POLE_MARGIN * (t1 - t0)
            for term in piece:
                if isinstance(term, RecipTerm):
                    if t0 - margin < term.pole < t1 + margin:
                        raise ValidationError(
                            f"pole {term.pole} too close to subinterval [{t0}, {t1}]")
        object.__setattr__(self, "domain_end", X)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "_bp_arr", np.asarray(bp))
        locs = np.asarray([j[0] for j in jumps])
        offs = np.asarray([j[1] for j in jumps], dtype=complex)
        object.__setattr__(self, "_jump_locs", locs)
        object.__setattr__(self, "_jump_cum", np.concatenate([[0j], np.cumsum(offs)]))

    @functools.cached_property
    def _table(self) -> tuple:
        """The packed pieces, built on first evaluation: ``coef[k]`` holds
        c_k of every piece, reciprocal slot j holds the amplitude and pole of
        the j-th reciprocal term of every piece that has one (pole NaN in the
        others), ``nrecip`` counts the slots each piece uses and ``jump`` is
        the cumulative jump offset in force on each piece."""
        cubics = [piece[0].coeffs if piece and isinstance(piece[0], PolyTerm) else ()
                  for piece in self.pieces]
        recips = [piece[1:] if cubic else piece for piece, cubic in zip(self.pieces, cubics)]
        slots = max(map(len, recips))
        n = len(self.pieces)
        coef = np.asarray([c + (0j,) * (4 - len(c)) for c in cubics], dtype=complex)
        amp = np.asarray([[t.c for t in r] + [0j] * (slots - len(r)) for r in recips],
                         dtype=complex).reshape(n, slots)
        pole = np.asarray([[t.pole for t in r] + [np.nan] * (slots - len(r)) for r in recips],
                          dtype=float).reshape(n, slots)
        return (coef.T.copy(), amp.T.copy(), pole.T.copy(),
                np.asarray([len(r) for r in recips]),
                self._jump_cum[self._jump_locs.searchsorted(self._bp_arr[:-1], side="right")])

    # -- evaluation -------------------------------------------------------

    def _pieces_at(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Term sum of piece idx[i] at x[i]: Horner on the gathered cubic, then
        one masked pass per reciprocal slot, in the order of the terms."""
        coef, amps, poles, nrecip, _jump = self._table
        c = coef[:, idx]
        out = c[3] * x + c[2]
        out = out * x + c[1]
        out = out * x + c[0]
        for j, (amp, pole) in enumerate(zip(amps, poles)):
            sel = np.flatnonzero(nrecip[idx] > j)
            if sel.size == x.size:
                out += amp[idx] / (x - pole[idx])
            else:
                k = idx[sel]
                out[sel] += amp[k] / (x[sel] - pole[k])
        return out

    def values(self, x) -> np.ndarray:
        """Vectorized right-continuous evaluation of s."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        if flat.size and not (flat.min() >= 0.0 and flat.max() <= self.domain_end):
            raise DomainError(
                f"evaluation outside [0, {self.domain_end}] or at NaN: "
                f"range [{flat.min()}, {flat.max()}]")
        idx = np.searchsorted(self._bp_arr, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        out = self._pieces_at(flat, idx)
        if len(self._jump_locs):
            nj = np.searchsorted(self._jump_locs, flat, side="right")
            out += self._jump_cum[nj]
        return out.reshape(x.shape)

    def pole_slots(self, x) -> np.ndarray:
        """Poles of the reciprocal slots of the pieces holding the points x,
        one row per slot, NaN where a piece leaves the slot empty: the poles
        ``quadrature.graded_cells`` grades toward."""
        return self._table[2][:, self._bp_arr[1:-1].searchsorted(x, side="right")]

    def __call__(self, x):
        arr = self.values(x)
        return complex(arr) if arr.shape == () else arr

    # -- helpers ----------------------------------------------------------

    def check_interval(self, interval: Interval) -> Interval:
        if interval.a < 0.0 or interval.b > self.domain_end:
            raise DomainError(
                f"interval [{interval.a}, {interval.b}] outside [0, {self.domain_end}]")
        return interval

    def is_real(self, tol: float = 0.0) -> bool:
        for piece in self.pieces:
            for term in piece:
                coeffs = term.coeffs if isinstance(term, PolyTerm) else (term.c,)
                if any(abs(c.imag) > tol for c in coeffs):
                    return False
        return all(abs(off.imag) <= tol for _, off in self.jumps)


@dataclass(frozen=True)
class Moments:
    """Window integrals of s: m0 = int s, q2 = int |s|^2 and the deviation
    dev = min_c int |s - c|^2 = q2 - |m0|^2 / a, taken without that
    cancellation."""

    m0: complex
    q2: float
    dev: float


def _horner_shift(c: np.ndarray, z: np.ndarray) -> tuple:
    """Taylor coefficients about z of the cubics c[0] + ... + c[3] x^3:
    synthetic division by (x - z), three Horner passes."""
    b2 = c[3] * z + c[2]
    b1 = b2 * z + c[1]
    b0 = b1 * z + c[0]
    e2 = c[3] * z + b2
    e1 = e2 * z + b1
    return b0, e1, c[3] * z + e2, c[3]


def _keys(s) -> np.ndarray:
    """The inner breakpoints of one model, or of one model per window as the
    complex keys i + 1j x, which sort by window i, then by x: a search for
    i + 1j x meets window i's own breakpoints only."""
    if isinstance(s, Antiderivative):
        return s._bp_arr[1:-1]
    return np.concatenate([i + 1j * m._bp_arr[1:-1] for i, m in enumerate(s)] or [()])


def _pieces(s) -> tuple:
    """Piece table of one model, or of one model per window side by side
    (reciprocal slots padded to the widest), and the map from points x of
    windows w (by default window i holds x_i) to their piece indices in it
    (``_keys``)."""
    keys = _keys(s)
    if isinstance(s, Antiderivative):
        return s._table, lambda x, _w=None: keys.searchsorted(x, side="right")
    tables = [m._table for m in s]
    slots = max(len(t[1]) for t in tables)
    def padded(k, fill):
        return np.hstack([np.vstack([t[k], np.full((slots - len(t[k]), t[k].shape[1]), fill)])
                          for t in tables])
    table = (np.hstack([t[0] for t in tables]), padded(1, 0j), padded(2, np.nan),
             *(np.concatenate([t[k] for t in tables]) for k in (3, 4)))
    def piece_at(x, w=None):
        # window w has one key fewer than pieces, so its keys start w short
        w = np.arange(x.size) if w is None else w
        return keys.searchsorted(w + 1j * x, side="right") + w
    return table, piece_at


def centred_integrals(s, edges, first, refs, origins, rows) -> tuple:
    """Integrals of ``rows(v, t, r, window)`` over the windows of a batch, and r.

    ``s`` is one model, or one model per window.  ``edges``/``first`` are
    the windows' segment runs as ``window_edges`` gives them.  Window i's
    reference r_i is the polynomial part of its model plus the cumulative
    jump at the point ``refs[i]`` (reciprocal terms left out, so r stays
    finite next to a pole).  Every segment's piece comes by index from the
    table (``_pieces``): its cubic is Taylor-shifted to ``refs[i]`` by
    synthetic division, its jump added and r_i taken off its constant term
    with the same Horner steps that gave r_i, so a large mean cancels once
    per segment, in coefficient space; the cubic is then shifted to
    t = x - ``origins[i]`` (a shift by 0 is exact).  v = s - r is evaluated
    once on the graded cells of every segment (``quadrature.graded_cells``),
    the reciprocal terms from pole-relative abscissae, and ``rows`` maps v,
    t, r and the window index (a column per cell) to the integrands, each
    integrated by ``quadrature.window_sums``.  Returns the list of
    per-window integrals and r.
    """
    (coef, amps, poles, nrecip, jumps), piece_at = _pieces(s)
    ref_piece = piece_at(refs)
    ref_poly = _horner_shift(coef[:, ref_piece], refs)[0]
    ref_jump = jumps[ref_piece]

    lo, hi, window = quadrature.panels(edges, first)
    piece = piece_at(0.5 * (lo + hi), window)
    b0, b1, b2, b3 = _horner_shift(coef[:, piece], refs[window])
    # the offset cancels here, once per segment: the same Horner steps give
    # b0 and ref_poly on the piece at the reference point
    b0 = (b0 - ref_poly[window]) + (jumps[piece] - ref_jump[window])
    z = origins[window]
    b0, b1, b2, b3 = _horner_shift((b0, b1, b2, b3), z - refs[window])

    active = [nrecip[piece] > j for j in range(amps.shape[0])]
    start, end, seg = quadrature.graded_cells(lo, hi, poles[:, piece])
    offset = (end - start)[:, None] * quadrature.CELL_AT
    t = (start - z[seg])[:, None] + offset
    b1, b2, b3 = b1[seg, None], b2[seg, None], b3[seg, None]
    values = ((b3 * t + b2) * t + b1) * t + b0[seg, None]
    for j, on in enumerate(active):
        cells = np.flatnonzero(on[seg])
        k = piece[seg[cells]]
        values[cells] += amps[j, k][:, None] / ((start[cells] - poles[j, k])[:, None]
                                                + offset[cells])
    owner = window[seg]
    r = ref_poly + ref_jump
    return quadrature.window_sums(rows(values, t, r[owner, None], owner[:, None]),
                                  start, end, owner, first.size), r


def _moment_rows(v, t, r, _window):
    return v, v.real ** 2 + v.imag ** 2


def window_moments(s, starts, ends) -> tuple:
    """Moments m0 = int s, q2 = int |s|^2 and dev = min_c int |s - c|^2 over
    every window [starts_i, ends_i], of one model ``s`` or of the model
    ``s[i]`` each.

    ``centred_integrals``, with each window's centre as reference point and
    origin, gives M = int (s - r) and Q = int |s - r|^2 (16 points per cell
    are exact for the degree-6 square of a cubic).  Then m0 = a r + M,
    q2 = Q + 2 Re(conj(r) M) + a |r|^2 and dev = Q - |M|^2 / a, so the mean
    never cancels against itself.  The windows go in batches of at most
    ``quadrature.BATCH_PANELS`` segments, which bounds the memory of a pass;
    each window's values do not depend on its batch-mates, nor on whether
    they share its model, so they are bitwise those of a one-window call.
    Raises NumericError on a non-finite centred integrand.  Returns the
    arrays (m0, q2, dev).
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    ends = np.atleast_1d(np.asarray(ends, dtype=float))
    one = isinstance(s, Antiderivative)
    if not one and len(s) != starts.size:
        raise ValidationError(f"{len(s)} models for {starts.size} windows")
    X = s.domain_end if one else np.asarray([m.domain_end for m in s])
    inside = (starts >= 0.0) & (ends <= X)
    if not inside.all():
        i = np.flatnonzero(~inside)[0]
        raise DomainError(f"window [{starts[i]}, {ends[i]}] outside [0, {X if one else X[i]}]")
    edges, first = quadrature.window_edges(starts, ends, _keys(s),
                                           None if one else np.arange(starts.size))
    sums = first - np.arange(first.size)    # each window's first segment
    centre = 0.5 * (starts + ends)
    M = np.empty(first.size, dtype=complex)
    Q = np.empty(first.size)
    r = np.empty(first.size, dtype=complex)
    lo = 0
    while lo < first.size:
        # the windows that start within BATCH_PANELS segments of this batch
        hi = max(lo + 1, int(sums.searchsorted(sums[lo] + quadrature.BATCH_PANELS)))
        cut = edges[first[lo]:first[hi] if hi < first.size else None]
        (M[lo:hi], Q[lo:hi]), r[lo:hi] = centred_integrals(
            s if one else s[lo:hi], cut, first[lo:hi] - first[lo], centre[lo:hi],
            centre[lo:hi], _moment_rows)
        lo = hi
    a = ends - starts
    with np.errstate(over="ignore"):    # |r|^2 may overflow where |s - r|^2 does not
        q2 = Q + 2.0 * (r.conj() * M).real + a * np.abs(r) ** 2
    return a * r + M, q2, np.maximum(Q - np.abs(M) ** 2 / a, 0.0)


def moments(s: Antiderivative, interval: Interval) -> Moments:
    """Centred moments of s over the interval; see ``window_moments``."""
    s.check_interval(interval)
    m0, q2, dev = window_moments(s, interval.a, interval.b)
    return Moments(m0=complex(m0[0]), q2=float(q2[0]), dev=float(dev[0]))


# -- constructors ----------------------------------------------------------


def zero(domain_end: float) -> Antiderivative:
    """s == 0 on [0, X]."""
    return Antiderivative(domain_end, (0.0, float(domain_end)), ((),))


def from_poly(coeffs, domain_end: float) -> Antiderivative:
    """Single global polynomial piece."""
    return Antiderivative(domain_end, (0.0, float(domain_end)),
                          ((PolyTerm(tuple(coeffs)),),))


def delta_sum(positions, strengths, domain_end: float) -> Antiderivative:
    """Antiderivative of q = sum_k strengths[k] * delta(x - positions[k])."""
    positions = [float(p) for p in positions]
    strengths = [complex(a) for a in strengths]
    if len(positions) != len(strengths):
        raise ValidationError("positions and strengths must pair up")
    if any(p1 <= p0 for p0, p1 in zip(positions, positions[1:])):
        raise ValidationError("positions must be strictly increasing")
    if positions and not (0.0 < positions[0] and positions[-1] < domain_end):
        raise ValidationError(f"positions must lie inside (0, {domain_end})")
    bp = [0.0] + positions + [float(domain_end)]
    return Antiderivative(domain_end, tuple(bp), tuple(() for _ in range(len(bp) - 1)),
                          tuple(zip(positions, strengths)))


# -- arithmetic ------------------------------------------------------------


def add(*parts: Antiderivative) -> Antiderivative:
    """Pointwise sum of antiderivatives on one domain [0, X], X equal in all.

    The sum's breakpoints are the exact union of its summands', however close
    two of them lie, so every summand breakpoint (and with it every jump) is
    one of the sum's, and a summand's piece at the left end of a piece of the
    sum holds on all of it.
    """
    X = parts[0].domain_end
    if any(p.domain_end != X for p in parts):
        raise ValidationError("summands must share domain_end")
    bp = np.unique(np.concatenate([p._bp_arr for p in parts]))
    index = [p._bp_arr.searchsorted(bp[:-1], side="right") - 1 for p in parts]
    pieces = tuple(merge_terms([t for p, k in zip(parts, ks) for t in p.pieces[k]])
                   for ks in zip(*index))
    jumps: dict[float, complex] = {}
    for p in parts:
        for at, off in p.jumps:
            jumps[at] = jumps.get(at, 0j) + off
    jump_list = tuple((at, off) for at, off in sorted(jumps.items()) if off != 0)
    return Antiderivative(X, tuple(bp), pieces, jump_list)


def scale(s: Antiderivative, k: complex) -> Antiderivative:
    """k * s."""
    k = complex(k)
    pieces = []
    for piece in s.pieces:
        scaled = []
        for term in piece:
            if isinstance(term, PolyTerm):
                scaled.append(PolyTerm(tuple(k * c for c in term.coeffs)))
            else:
                scaled.append(RecipTerm(k * term.c, term.pole))
        pieces.append(merge_terms(scaled))
    jumps = tuple((at, k * off) for at, off in s.jumps)
    return Antiderivative(s.domain_end, s.breakpoints, tuple(pieces), jumps)


def offset(s: Antiderivative, c: complex) -> Antiderivative:
    """s + c; adding a constant to s leaves the modelled operator unchanged."""
    return add(s, from_poly((c,), s.domain_end))


def subtract(s1: Antiderivative, s2: Antiderivative) -> Antiderivative:
    return add(s1, scale(s2, -1.0))


def restrict(s: Antiderivative, new_end: float) -> Antiderivative:
    """Truncate the model to [0, new_end]."""
    if not (0.0 < new_end <= s.domain_end):
        raise DomainError(f"new_end must lie in (0, {s.domain_end}]")
    bp = [t for t in s.breakpoints if t < new_end] + [float(new_end)]
    pieces = s.pieces[: len(bp) - 1]
    jumps = tuple((at, off) for at, off in s.jumps if at < new_end)
    return Antiderivative(new_end, tuple(bp), pieces, jumps)


# -- Miura construction ----------------------------------------------------


def _square_antiderivative(term: Term) -> tuple:
    """Terms of int term(x)^2 dx, staying inside the basis."""
    if isinstance(term, RecipTerm):
        # int c^2/(x-p)^2 = -c^2/(x-p)
        return (RecipTerm(-term.c * term.c, term.pole),)
    if term.degree > 1:
        raise UnsupportedInputError(
            "gamma polynomial pieces must have degree <= 1 so that the "
            "antiderivative of gamma^2 stays a cubic")
    a, b = term.coeffs[0], term.coeffs[1] if term.degree == 1 else 0j
    # (a + b x)^2 integrates to a^2 x + a b x^2 + b^2 x^3 / 3
    return (PolyTerm((0j, a * a, a * b, b * b / 3.0)),)


def _terms_value(terms: Sequence[Term], x: float) -> complex:
    return sum((t.values(np.asarray([x]))[0] for t in terms), 0j)


def miura(gamma: Antiderivative, b: float) -> Antiderivative:
    """s = b*x + gamma + int_0^x gamma^2, built symbolically in the basis.

    The operator modelled by the result is semi-bounded for real gamma and
    real b.  Each subinterval of gamma must carry at most one pure term
    (polynomial of degree <= 1, or reciprocal) so the running integral of
    gamma^2 stays representable; violations raise rather than approximate.
    """
    if gamma.jumps:
        raise UnsupportedInputError(
            "gamma must not carry jump offsets; encode steps in the pieces")
    if not gamma.is_real():
        raise ValidationError("gamma must be real-valued")
    b = float(b)
    running = 0j
    pieces = []
    for (t0, t1), piece in zip(zip(gamma.breakpoints, gamma.breakpoints[1:]),
                               gamma.pieces):
        if len(piece) > 1:
            raise UnsupportedInputError(
                f"subinterval [{t0}, {t1}] mixes {len(piece)} terms; "
                "miura needs a single pure term per subinterval")
        terms: list[Term] = [PolyTerm((0j, b))] if b else []
        if piece:
            sq = _square_antiderivative(piece[0])
            const = running - _terms_value(sq, t0)
            terms.extend(piece)
            terms.extend(sq)
            terms.append(PolyTerm((const,)))
            running = running + _terms_value(sq, t1) - _terms_value(sq, t0)
        else:
            terms.append(PolyTerm((running,)))
        pieces.append(merge_terms(terms))
    return Antiderivative(gamma.domain_end, gamma.breakpoints, tuple(pieces))


# -- auxiliary bump profiles ------------------------------------------------

H_MIN = 1.0 + math.sqrt(7.0)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by nodes and values."""

    nodes: tuple
    values_at_nodes: tuple

    def values(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.values_at_nodes)

    def slopes(self) -> np.ndarray:
        n = np.asarray(self.nodes)
        v = np.asarray(self.values_at_nodes)
        return np.diff(v) / np.diff(n)


def vh_profile(h: float) -> tuple[PiecewiseLinear, Antiderivative]:
    """Spike profile v and its logarithmic-derivative companion gamma on [0, 1].

    v rises linearly to 1/2 - delta, shoots up by h over a width
    delta = 3/h^2, and mirrors symmetrically (v(x) = v(1-x)); gamma equals h
    near 0, v'/v in between (reciprocal terms), and is odd about 1/2.
    Its squared norm is ||v||^2 = 25/12 + 3/h + O(h^-3) on [0, 1] and half
    that, 25/24 + 1.5/h + O(h^-3), on [0, 1/2].
    Requires h > H_MIN = 1 + sqrt(7), the separation condition
    1/h < 1/2 - delta for the width delta = 3/h^2.
    """
    h = float(h)
    if not h > H_MIN:
        raise ValidationError(f"profile height h={h} must exceed 1 + sqrt(7)")
    delta = 3.0 / (h * h)
    if delta < 1e-7:
        raise ValidationError(f"h={h} makes the spike width {delta} unresolvable")
    left = 0.5 - delta
    p = left * (1.0 - delta / h)       # pole of v'/v on the spike flank
    v = PiecewiseLinear(
        nodes=(0.0, left, 0.5, 0.5 + delta, 1.0),
        values_at_nodes=(0.0, left, left + h, left, 0.0),
    )
    bp = (0.0, 1.0 / h, left, 0.5, 0.5 + delta, 1.0 - 1.0 / h, 1.0)
    pieces = (
        (PolyTerm((h,)),),
        (RecipTerm(1.0, 0.0),),
        (RecipTerm(1.0, p),),
        (RecipTerm(1.0, 1.0 - p),),
        (RecipTerm(1.0, 1.0),),
        (PolyTerm((-h,)),),
    )
    return v, Antiderivative(1.0, bp, pieces)


# -- counterexample builders -------------------------------------------------


def _staircase(levels_fn, cuts, domain_end: float) -> Antiderivative:
    """Continuous S with derivative ``levels_fn(t0, t1)`` on each cell [t0, t1]
    between the sorted set of the cuts, 0 and ``domain_end``."""
    bp = sorted(set(cuts) | {0.0, float(domain_end)})
    pieces = []
    running = 0.0
    for t0, t1 in zip(bp, bp[1:]):
        level = float(levels_fn(t0, t1))
        pieces.append((PolyTerm((running - level * t0, level)),))
        running += level * (t1 - t0)
    return Antiderivative(domain_end, bp, tuple(pieces))


def build_counterexample(kind: str, *, blocks=None, theta: float = None,
                         schedule=None, domain_end: float = None) -> Antiderivative:
    """Assemble the semi-bounded counterexample antiderivatives.

    kind="s1": s = x^2/2 + g + int g^2 with unscaled bump blocks at
    N_k = 4 + k, heights h_k = N_k, for k = 1..blocks.

    kind="s2": s = S + g + int g^2 where S' is an integer staircase flattened
    to the level A_k around each block and g carries (1-theta)^(1/3)-scaled
    bumps; the schedule is a list of (N_k, h_k, A_k) triples satisfying
    N_k - 1 <= A_k < N_k + 1 and N_k - N_{k-1} >= 3.
    """
    if kind == "s1":
        count = int(blocks if blocks is not None else 1)
        if count < 0:
            raise ValidationError("blocks must be >= 0")
        positions = [4.0 + k for k in range(1, count + 1)]
        X = float(domain_end) if domain_end is not None else (positions[-1] + 2.0 if positions else 8.0)
        parts = [from_poly((0.0, 0.0, 0.5), X)]
        if positions:
            profiles = [vh_profile(n)[1] for n in positions]
            gamma = _stitch_blocks(profiles, positions, [1.0] * count, X)
            parts.append(miura(gamma, 0.0))
        return add(*parts)

    if kind == "s2":
        if theta is None or not (0.0 < theta < 1.0):
            raise ValidationError("s2 needs theta in (0, 1)")
        schedule = list(schedule or [])
        amp = (1.0 - theta) ** (1.0 / 3.0)
        prev_n = None
        cuts: set = set()
        for n_k, h_k, a_k in schedule:
            if not (n_k - 1 <= a_k < n_k + 1):
                raise ValidationError(
                    f"level A={a_k} outside bracket [N-1, N+1) for N={n_k}")
            if prev_n is not None and n_k - prev_n < 3:
                raise ValidationError("block spacing N_k - N_(k-1) must be >= 3")
            if n_k < 1:
                raise ValidationError("block positions must satisfy N >= 1")
            prev_n = n_k
            cuts.update([n_k - 1.0, n_k - 0.5, n_k + 1.5, n_k + 2.0])
        default_x = (schedule[-1][0] + 2.0) if schedule else 8.0
        X = float(domain_end) if domain_end is not None else default_x
        if schedule and X < schedule[-1][0] + 2.0:
            raise ValidationError("domain_end must cover the last block tail")
        cuts.update(float(l) for l in range(int(math.floor(X)) + 1))

        def level(t0, t1):
            for n_k, _h, a_k in schedule:
                if t0 >= n_k - 0.5 and t1 <= n_k + 1.5:
                    return a_k
            return math.floor(t0)

        parts = [_staircase(level, cuts, X)]
        if schedule:
            profiles = [vh_profile(h)[1] for _n, h, _a in schedule]
            gamma = _stitch_blocks(profiles, [float(n) for n, _h, _a in schedule],
                                   [amp] * len(schedule), X)
            parts.append(miura(gamma, 0.0))
        return add(*parts)

    raise ValidationError(f"unknown counterexample kind {kind!r}")


def _stitch_blocks(profiles, shifts, amplitudes, domain_end: float) -> Antiderivative:
    """Embed unit-length gamma profiles at the given shifts on [0, X]."""
    bp = [0.0]
    pieces: list[tuple] = []
    prev = 0.0
    for profile, shift, amp in zip(profiles, shifts, amplitudes):
        if shift < prev:
            raise ValidationError("blocks must not overlap")
        if shift > prev:
            bp.append(shift)
            pieces.append(())
        for t1, piece in zip(profile.breakpoints[1:], profile.pieces):
            bp.append(shift + t1)
            shifted = []
            for term in piece:
                if isinstance(term, PolyTerm):
                    coeffs = term.coeffs + (0j,) * (4 - len(term.coeffs))
                    shifted.append(PolyTerm(tuple(amp * c for c in
                                                  _horner_shift(coeffs, -shift))))
                else:
                    shifted.append(RecipTerm(amp * term.c, term.pole + shift))
            pieces.append(tuple(shifted))
        prev = shift + profile.domain_end
    if domain_end < prev:
        raise ValidationError(f"domain_end {domain_end} truncates a block")
    if domain_end > prev:
        bp.append(float(domain_end))
        pieces.append(())
    return Antiderivative(domain_end, tuple(bp), tuple(pieces))


# -- JSON round trip ---------------------------------------------------------


def to_dict(s: Antiderivative) -> dict:
    """JSON-ready document; floats round-trip at full precision."""
    pieces = []
    for piece in s.pieces:
        row = []
        for term in piece:
            if isinstance(term, PolyTerm):
                re = [0.0] * 4
                im = [0.0] * 4
                for k, c in enumerate(term.coeffs):
                    re[k] = c.real
                    im[k] = c.imag
                row.append({"type": "poly", "re": re, "im": im})
            else:
                row.append({"type": "recip", "c_re": term.c.real,
                            "c_im": term.c.imag, "pole": term.pole})
        pieces.append(row)
    return {
        "domain_end": s.domain_end,
        "breakpoints": list(s.breakpoints),
        "pieces": pieces,
        "jumps": [{"at": at, "re": off.real, "im": off.imag} for at, off in s.jumps],
    }


def from_dict(doc: dict) -> Antiderivative:
    try:
        pieces = []
        for row in doc["pieces"]:
            terms = []
            for item in row:
                if item["type"] == "poly":
                    coeffs = tuple(complex(r, i) for r, i in
                                   zip(item["re"], item["im"]))
                    term = PolyTerm(coeffs)
                    if not term.is_zero():
                        terms.append(term)
                elif item["type"] == "recip":
                    terms.append(RecipTerm(complex(item["c_re"], item["c_im"]),
                                           item["pole"]))
                else:
                    raise ValidationError(f"unknown term type {item['type']!r}")
            pieces.append(tuple(terms))
        jumps = tuple((j["at"], complex(j["re"], j["im"])) for j in doc["jumps"])
        return Antiderivative(doc["domain_end"], tuple(doc["breakpoints"]),
                              tuple(pieces), jumps)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed potential document: {exc}") from exc


def save(s: Antiderivative, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(s), fh, indent=1)
        fh.write("\n")


def _reject_constant(name: str):
    raise ValidationError(f"non-finite number {name} in potential document")


def load(path) -> Antiderivative:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh, parse_constant=_reject_constant))
