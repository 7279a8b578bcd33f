"""Relations the theory guarantees for every input, checked without an oracle.

Adding a constant to s leaves the modelled operator unchanged, and
conjugating s conjugates it.  So the window deviation, the double integral,
the verdict, the window forms' bounds and the growth bound must not move
under s -> s + c, and the deviation and the scan bounds must not move under
s -> conj(s).  Moving a window along x^2/2 adds the shift to q = x, so it
adds the shift to every eigenvalue.  Documents are drawn by ``hypothesis``
under one fixed, derandomized profile, so every run checks the same examples;
each relation states its tolerance and why.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slcrit as sl
from slcrit import criteria, forms, potential, regsolve, sampling

PROFILE = settings(max_examples=30, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])
EPS = np.finfo(float).eps
OFFSETS = st.sampled_from([1.0, 1e4, 1e6, 1e8]).flatmap(
    lambda size: st.sampled_from([size, -size, 1j * size, -1j * size]))


@st.composite
def documents(draw, max_pieces=4, recips=True):
    """Potential documents on [0, X]: complex cubic pieces, reciprocal terms
    with poles up to a piece width outside, and jumps.  Breakpoints sit on a
    grid of X/20, so no two are closer than a twentieth of the domain."""
    X = draw(st.floats(2.0, 8.0))
    grid = draw(st.lists(st.integers(1, 19), unique=True, max_size=max_pieces - 1))
    bp = [0.0] + [k * X / 20.0 for k in sorted(grid)] + [X]
    number = st.floats(-3.0, 3.0)
    pieces = []
    for t0, t1 in zip(bp, bp[1:]):
        row = [{"type": "poly", "re": draw(st.lists(number, min_size=4, max_size=4)),
                "im": draw(st.lists(number, min_size=4, max_size=4))}]
        if recips and draw(st.booleans()):
            gap = draw(st.sampled_from([1e-6, 0.01, 0.5, 2.0])) * (t1 - t0)
            row.append({"type": "recip", "c_re": draw(number), "c_im": draw(number),
                        "pole": draw(st.sampled_from([t0 - gap, t1 + gap]))})
        pieces.append(row)
    jumps = [{"at": t, "re": draw(number), "im": draw(number)}
             for t in bp[1:-1] if draw(st.booleans())]
    return {"domain_end": X, "breakpoints": bp, "pieces": pieces, "jumps": jumps}


def _coefficient_scale(s) -> float:
    """max over pieces of sum_k |c_k| X^k: a bound on |c_0| and on the size of
    every piece's cubic anywhere in [0, X]."""
    X = max(s.domain_end, 1.0)
    return max((sum(abs(c) * X ** k for k, c in enumerate(piece[0].coeffs))
                for piece in s.pieces if piece and isinstance(piece[0], sl.PolyTerm)),
               default=0.0)


def _deviations(s, a):
    origins = criteria._origins(s.domain_end, a, a / 2.0)
    _c, dev, dbl = criteria.window_deviations(s, origins, a)
    return dev, dbl


def _assert_offset_keeps_deviations(s, c, a, origins):
    _c, dev, dbl = criteria.window_deviations(s, origins, a)
    _c, dev1, dbl1 = criteria.window_deviations(potential.offset(s, c), origins, a)
    floor = 1e-12 * np.maximum(dev, 1.0)
    if len(s.pieces) == 1:
        # one piece: the centred pass takes r off every constant term in
        # coefficient space, so c cancels exactly
        bound = floor
    else:
        # several pieces: fl(c_0 + c) differs from c_0 + c by up to eps/2 of
        # it, and each piece's value at the window centre, with and without
        # c, rounds by as much; with the reference's share that is at most
        # delta = 4 eps (|c| + C) per piece, C the coefficient scale.  The
        # deviation's root is an L2 distance, so it moves by at most
        # sqrt(a) delta, and dev by 2 sqrt(a dev) delta + a delta^2.
        delta = 4.0 * EPS * (abs(c) + _coefficient_scale(s))
        bound = 2.0 * np.sqrt(a * dev) * delta + a * delta ** 2 + floor
    assert np.all(np.abs(dev1 - dev) <= bound), np.max(np.abs(dev1 - dev) - bound)
    assert np.all(np.abs(dbl1 - dbl) <= 2.0 * a * bound)


@PROFILE
@given(doc=documents(), c=OFFSETS, a=st.floats(0.25, 2.0))
def test_offset_leaves_deviation_and_dbl_unchanged(doc, c, a):
    s = potential.from_dict(doc)
    _assert_offset_keeps_deviations(s, c, a, criteria._origins(s.domain_end, a, a / 2.0))


@pytest.mark.parametrize("c", [1.0, -1e4, 1e6j, 1e8])
def test_offset_leaves_the_deviations_of_close_deltas_unchanged(c):
    # two deltas 1e-8 apart at X/2 = 1e5; the windows from 1.5 before to 0.5
    # past them, one ending and one starting at the first
    X = 2e5
    s = sl.delta_sum([X / 2, X / 2 + 1e-8], [1.0, -1.0], X)
    _assert_offset_keeps_deviations(s, c, 1.0, X / 2 + np.linspace(-1.5, 0.5, 9))


def _conjugate(doc):
    return {**doc,
            "pieces": [[{**term, "im": [-v for v in term["im"]]} if term["type"] == "poly"
                        else {**term, "c_im": -term["c_im"]} for term in row]
                       for row in doc["pieces"]],
            "jumps": [{**jump, "im": -jump["im"]} for jump in doc["jumps"]]}


@PROFILE
@given(doc=documents(), a=st.floats(0.25, 2.0))
def test_conjugation_leaves_deviation_unchanged(doc, a):
    dev, dbl = _deviations(potential.from_dict(doc), a)
    dev1, dbl1 = _deviations(potential.from_dict(_conjugate(doc)), a)
    # every step of the pass commutes with conjugation; allow rounding only
    assert np.all(np.abs(dev1 - dev) <= 1e-12 * np.maximum(dev, 1.0))
    assert np.all(np.abs(dbl1 - dbl) <= 1e-12 * np.maximum(dbl, 1.0))


@settings(PROFILE, max_examples=6)
@given(doc=documents(max_pieces=3, recips=False), c=OFFSETS)
def test_offset_leaves_the_verdict_unchanged(doc, c):
    s = potential.from_dict(doc)
    assert sl.classify(potential.offset(s, c)).outcome == sl.classify(s).outcome


@pytest.mark.parametrize("c", [0.0, 1e4, 1e6, 1e8, 1e8j, 1e200])
def test_offset_keeps_the_exact_deviation_of_a_line(c):
    # s = c + x on [1, 2]: min_c int |s - c|^2 = 1/12 whatever c; the cancelling
    # identity q2 - |m0|^2 / a gave 0.0833740 at c = 1e6 and 2.0 at c = 1e8
    s = sl.from_poly((c, 1.0), 4.0)
    _c, dev, dbl = sl.window_deviation(s, 1.0, 1.0)
    assert dev == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert dbl == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert criteria.decompose_unif(s).sigma1_sup_sq == pytest.approx(1.0 / 12.0, rel=1e-12)


def _scan_bounds(s):
    return [(r.herm_lambda_min, r.inf_lower, r.inf_upper)
            for r in forms.localization_scan(s, n=16, angles=16).rows]


@settings(PROFILE, max_examples=8)
@given(doc=documents(max_pieces=1), c=OFFSETS)
def test_offset_leaves_one_piece_scan_bounds_bitwise(doc, c):
    # with c0 = 0 the offset piece's constant term is c exactly, the element
    # pass takes the reference c off it exactly, and every band keeps its bits
    piece = doc["pieces"][0][0]
    piece["re"][0] = piece["im"][0] = 0.0
    s = potential.from_dict(doc)
    assert _scan_bounds(potential.offset(s, c)) == _scan_bounds(s)


@settings(PROFILE, max_examples=8)
@given(doc=documents())
def test_conjugation_keeps_scan_bounds(doc):
    # conj(s) conjugates B, so its rotated part at theta is that of s at
    # -theta, bit for bit (``forms._rotations``), and so is every alternating
    # bound; the swept half-plane is symmetric under theta -> -theta, so the
    # same pencils are swept in one kernel chunk at this size, and every
    # bound keeps its bits (200 drawn documents, none moved)
    assert (_scan_bounds(potential.from_dict(_conjugate(doc)))
            == _scan_bounds(potential.from_dict(doc)))


@pytest.mark.parametrize("c", [1.0, 1e4, 1e6, 1e8])
def test_offset_keeps_the_bits_of_a_window_form(c):
    # moved by 1.07e-5 relative at c = 1e8 while elements were integrated in
    # global coordinates
    s = sl.from_poly((0.0, 1.0, 0.5), 4.0)
    w = sl.Interval(2.0, 3.0)
    assert (forms.herm_lambda_min(forms.assemble(potential.offset(s, c), w, 128))
            == forms.herm_lambda_min(forms.assemble(s, w, 128)))


def _lowest(w):
    """herm_lambda_min of w and ||y'|| / ||y|| of its eigenvector y."""
    low, _samples, vecs = forms._rotation_sweep([w], forms._REAL_THETAS, vectors=True)
    y = vecs[0, 0, :w.dim]
    slope = forms._bilinear(w.A_bands, y, y).real / forms._bilinear(w.M_bands, y, y).real
    return low[0, 0], math.sqrt(slope)


@settings(PROFILE, max_examples=12)
@given(doc=documents(recips=False), c=OFFSETS)
def test_offset_moves_herm_lambda_min_by_model_rounding_only(doc, c):
    # several pieces: each piece's v = s - r moves by at most the module's
    # delta (its constant term and r round with c), so for unit-mass y the
    # form moves by at most delta int |(|y|^2)'| <= 2 delta ||y'||, and
    # lambda_min by that at one of the two eigenvectors; 64 eps of the
    # larger bound allows for the kernel's own stopping rule
    s = potential.from_dict(doc)
    mid = 0.5 * s.domain_end
    win = sl.Interval(mid - 0.5, mid + 0.5)
    low, slope = _lowest(forms.assemble(s, win, 32))
    low1, slope1 = _lowest(forms.assemble(potential.offset(s, c), win, 32))
    delta = 4.0 * EPS * (abs(c) + _coefficient_scale(s))
    bound = 2.0 * delta * max(slope, slope1) + 64.0 * EPS * max(abs(low), 1.0)
    assert abs(low1 - low) <= bound, (abs(low1 - low), bound)


def test_translation_adds_the_shift_to_herm_lambda_min():
    # on [k, k+1], x^2/2 = k^2/2 + k y + y^2/2: the constant drops out and
    # k y adds k M to the form, so lambda_min gains exactly k; global
    # coordinates missed by 1.3e-7 relative at k = 3000
    s = sl.from_poly((0.0, 0.0, 0.5), 3001.0)
    base = forms.herm_lambda_min(forms.assemble(s, sl.Interval(0.0, 1.0), 128))
    moved = forms.herm_lambda_min(forms.assemble(s, sl.Interval(3000.0, 3001.0), 128))
    assert moved == pytest.approx(3000.0 + base, rel=1e-11)


def _partition(s, seed):
    """The partition identity on s for a bump drawn from ``seed``."""
    y = sampling.random_compact_bump(np.random.default_rng(seed), s.domain_end)
    rep = forms.partition_identity_check(s, y)
    return rep, y


@settings(PROFILE, max_examples=8)
@given(doc=documents(max_pieces=1), c=st.sampled_from([1.0, 1e4, 1e8]),
       seed=st.integers(0, 2 ** 16))
def test_offset_leaves_one_piece_partition_forms_bitwise(doc, c, seed):
    # one piece: v = s - r is the cubic Taylor-shifted to one reference point,
    # whose constant term r is taken off exactly, so every cell's v keeps its
    # bits; the absolute s moved lhs and rhs by up to 1.9e-6 relative
    s = potential.from_dict(doc)
    rep, _y = _partition(s, seed)
    rep1, _y = _partition(potential.offset(s, c), seed)
    assert ((rep1.lhs, rep1.rhs, rep1.correction, rep1.norm_sq)
            == (rep.lhs, rep.rhs, rep.correction, rep.norm_sq))


@settings(PROFILE, max_examples=8)
@given(doc=documents(), c=OFFSETS, seed=st.integers(0, 2 ** 16))
def test_offset_moves_partition_forms_by_model_rounding_only(doc, c, seed):
    # several pieces: v moves by at most the module's delta, so a window form
    # moves by at most delta int |(|w|^2)'|.  With w = p y, sum weight p^2 = 1
    # and |(p^2)'| <= 2 pi, and the weights over any point add up to at most 4,
    # so lhs and rhs move by at most delta (int |(|y|^2)'| + 8 pi ||y||^2),
    # where int |(|y|^2)'| <= 2 ||y|| ||y'|| and ||y'||^2 is the form at s = 0
    s = potential.from_dict(doc)
    rep, y = _partition(s, seed)
    rep1, _y = _partition(potential.offset(s, c), seed)
    kinetic = forms.partition_identity_check(potential.zero(s.domain_end), y).lhs.real
    delta = 4.0 * EPS * (abs(c) + _coefficient_scale(s))
    bound = (delta * (2.0 * math.sqrt(rep.norm_sq * kinetic) + 8.0 * math.pi * rep.norm_sq)
             + 64.0 * EPS * max(abs(rep.lhs), 1.0))
    assert abs(rep1.lhs - rep.lhs) <= bound, (abs(rep1.lhs - rep.lhs), bound)
    assert abs(rep1.rhs - rep.rhs) <= bound, (abs(rep1.rhs - rep.rhs), bound)
    assert (rep1.correction, rep1.norm_sq) == (rep.correction, rep.norm_sq)


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e6, 1e8, 3.7 + 2.0j])
def test_offset_keeps_the_growth_bound(c):
    # growth_bound_check integrates s minus its best constant, and s + c has
    # the best constant shifted by c: only the rounding of that constant, of
    # relative size eps |c|, reaches M (about 2 eps (1 + |c|) at c = 1 and
    # 1.1e-9 at c = 1e8 on these draws)
    rng = np.random.default_rng(7)
    for _ in range(40):
        s, win = sampling.random_growth_case(rng)
        M = regsolve.growth_bound_check(s, win).M
        moved = regsolve.growth_bound_check(potential.offset(s, c), win).M
        assert abs(moved - M) <= 16.0 * EPS * (1.0 + abs(c)) * M, (moved, M)


POWERS_OF_TWO = [0.25, 2.0, 1024.0]


@settings(PROFILE, max_examples=12)
@given(doc=documents(), a=st.floats(0.25, 2.0))
def test_power_of_two_scaling_scales_deviation_and_dbl_bitwise(doc, a):
    # t = 2^k scales every coefficient, amplitude and jump exactly, and every
    # step of the centred pass commutes with it: dev and dbl gain t^2 exactly
    s = potential.from_dict(doc)
    dev, dbl = _deviations(s, a)
    for t in POWERS_OF_TWO:
        dev1, dbl1 = _deviations(potential.scale(s, t), a)
        assert np.array_equal(dev1, t * t * dev)
        assert np.array_equal(dbl1, t * t * dbl)


@settings(PROFILE, max_examples=10)
@given(doc=documents(recips=False), a=st.floats(0.25, 2.0))
def test_scaling_scales_deviation_to_rounding(doc, a):
    # t = 3.7 rounds each coefficient and jump by eps/2 of itself; on cubic
    # pieces that moves dev by a few eps of it (2.4e-15 worst in 300 drawn
    # documents).  A reciprocal term's rounded amplitude moves v by eps/2 of
    # the term, which near a pole dwarfs the window's deviation (1.6e-14 of
    # it drawn), so reciprocal terms are left to the power-of-two relations
    t = 3.7
    s = potential.from_dict(doc)
    dev, _dbl = _deviations(s, a)
    dev1, _dbl = _deviations(potential.scale(s, t), a)
    assert np.all(np.abs(dev1 - t * t * dev) <= 1e-14 * t * t * np.maximum(dev, 1.0))


def _fits(s):
    return criteria.brinck(s)[0], criteria.sector_fit(s)


@settings(PROFILE, max_examples=6)
@given(doc=documents(max_pieces=3), t=st.sampled_from(POWERS_OF_TWO))
def test_power_of_two_scaling_keeps_the_sectors(doc, t):
    # arg(t z) = arg(z) for t > 0: the angles keep their bits, and the
    # difference sector's vertex, a point of the scaled cloud, scales by t
    s = potential.from_dict(doc)
    for sec, sec1 in zip(_fits(s), _fits(potential.scale(s, t))):
        assert (sec is None) == (sec1 is None)
        if sec is not None:
            assert (sec1.alpha, sec1.beta, sec1.vertex) == (sec.alpha, sec.beta, t * sec.vertex)


def test_negating_s_leaves_no_strict_sector():
    # s -> -s turns every difference s(x) - s(t) by pi.  On s = x they lie on
    # the positive real axis, and on s = x + i (x - 3)^2 / 20 they fan out
    # from 0 around it by up to atan(0.3) each way: both fits report a strict
    # sector at vertex 0.  Negated, the fan straddles the negative real axis,
    # which no strict sector admits, so both report none.  On -x itself only
    # sector_fit, pinned at 0, sees the negative axis: brinck moves its vertex
    # to the support point -d, from which the segment [-d, 0] points along
    # the positive axis (Sector(-1, 0, 0))
    for a in (0.0, 0.05):
        s = sl.from_poly((9.0j * a, 1.0 - 6.0j * a, 1.0j * a), 6.0)
        for sec in _fits(s):
            assert sec is not None and sec.vertex == 0 and sec.is_strict()
            assert -sec.alpha == pytest.approx(sec.beta, abs=1e-12)
            assert 0.9 * math.atan(6.0 * a) <= sec.beta <= math.atan(6.0 * a)
        flipped = potential.scale(s, -1.0)
        assert criteria.sector_fit(flipped) is None
        if a:
            assert criteria.brinck(flipped)[0] is None


@pytest.mark.parametrize("phi", [0.3, -0.4, math.pi / 8.0, 1.0])
def test_rotating_s_rotates_the_sectors(phi):
    # e^{i phi} s turns every difference s(x) - s(t) by phi.  On
    # s = x + i (x - 3)^2 / 20 the differences fan out from 0 by up to
    # atan(0.3) each way about the positive real axis, so turned by |phi| <= 1
    # they stay off the negative one: both fits turn their bounds by phi and
    # their vertex with the cloud.  Rounding in the rotated model moves each
    # bound by a few ulps (4e-14 at most seen)
    s = sl.from_poly((0.45j, 1.0 - 0.3j, 0.05j), 6.0)
    turn = complex(math.cos(phi), math.sin(phi))
    for sec, sec1 in zip(_fits(s), _fits(potential.scale(s, turn))):
        assert sec is not None and sec1 is not None
        assert sec1.alpha == pytest.approx(sec.alpha + phi, abs=1e-12)
        assert sec1.beta == pytest.approx(sec.beta + phi, abs=1e-12)
        assert abs(sec1.vertex - turn * sec.vertex) <= 1e-12
