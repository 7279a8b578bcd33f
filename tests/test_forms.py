"""Unit tests for the FEM window forms, range estimates, and scans."""

import bisect
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import slcrit as sl
from slcrit import forms, potential, quadrature, sampling, sectors
from slcrit.errors import NumericError, ValidationError

PI2 = math.pi ** 2


def dense(bands):
    """Dense symmetric matrix of a (diagonal, off-diagonal) pair."""
    return forms._dense(*bands)


def interpolate(w, fn):
    """Coefficient vector of the hat interpolant of a callable."""
    return np.asarray(fn(w.nodes[1:-1]), dtype=complex)


def ground_eigenvalue(w):
    return float(scipy.linalg.eigh(dense(w.A_bands), w.M,
                                   subset_by_index=[0, 0], eigvals_only=True)[0])


def test_fem_baseline_dirichlet_laplacian():
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 512)
    lam = ground_eigenvalue(w)
    assert lam == pytest.approx(PI2, rel=1e-3)


def test_delta_potential_form_value():
    # jump adds alpha |y(1/2)|^2 = 2 alpha at the sine interpolant
    for alpha in (-1.0, 1.0, 5.0):
        s = sl.delta_sum([0.5], [alpha], 1.0)
        w = forms.assemble(s, sl.Interval(0.0, 1.0), 512)
        c = interpolate(w, lambda x: math.sqrt(2.0) * np.sin(math.pi * x))
        val = forms.form_value(w, c)
        assert val.real == pytest.approx(PI2 + 2.0 * alpha, abs=1e-2)
        assert val.imag == pytest.approx(0.0, abs=1e-10)


def test_gauge_off_matches_plain():
    s = sl.from_poly((0.0, 1.0), 1.0)
    plain = forms.assemble(s, sl.Interval(0.0, 1.0), 64)
    gauged = forms.assemble(s, sl.Interval(0.0, 1.0), 64,
                            gauge=(sl.zero(1.0), 0.0, 0.0))
    assert np.allclose(plain.B, gauged.B)
    assert np.allclose(dense(plain.P_bands), dense(gauged.P_bands))


def test_fixed_rule_bands_match_the_adaptive_oracle(corpus, adaptive):
    # B bands of every unit window at a half-integer offset, mesh 128, against
    # bands formed from the adaptive oracle's element integrals of m and m x
    # in global coordinates, to 1e-11 of max(|entry|, 1); vh1000's one window
    # [0, 1] is left out: the rounding noise of x - p next to its poles
    # exhausts the oracle's budget
    for name, s in corpus:
        for a in np.arange(0.0, s.domain_end - 0.75, 0.5) if name != "vh1000" else ():
            w = forms.assemble(s, sl.Interval(a, a + 1.0), 128)
            xl, xr, h = w.nodes[:-1], w.nodes[1:], np.diff(w.nodes)
            edges, first = np.repeat(w.nodes, 2)[1:-1], np.arange(0, 2 * h.size, 2)
            i0 = adaptive(s.values, edges, first=first)
            i1 = adaptive(lambda x: s.values(x) * x, edges, first=first)
            d_left = (-2.0 / h ** 2) * (xr * i0 - i1)
            d_right = (2.0 / h ** 2) * (i1 - xl * i0)
            o_mid = (1.0 / h ** 2) * ((xl + xr) * i0 - 2.0 * i1)
            want = (w.A_bands[0] - d_right[:-1] - d_left[1:], w.A_bands[1] - o_mid[1:-1])
            for band, ref in zip(w.B_bands, want):
                assert np.all(np.abs(band - ref) <= 1e-11 * np.maximum(np.abs(ref), 1.0)), (name, a)


def _exact_p_bands(s, nodes, part):
    """``part`` (real or imaginary) of the P bands of a polynomial-plus-jump
    model, in exact rationals: element integrals of s and s x from exact
    power moments of every piece, split at breakpoints, plus its jumps."""
    x = [Fraction(float(t)) for t in nodes]
    bands = []
    for xl, xr in zip(x[:-1], x[1:]):
        cuts = [xl] + [Fraction(t) for t in s.breakpoints if xl < t < xr] + [xr]
        i0 = i1 = Fraction(0)
        for u, w in zip(cuts[:-1], cuts[1:]):
            piece = s.pieces[bisect.bisect_right(s.breakpoints, u) - 1]
            coeffs = list(piece[0].coeffs) if piece else [0j]
            coeffs[0] += sum((off for at, off in s.jumps if at <= u), 0j)
            for k, c in enumerate(Fraction(part(c)) for c in coeffs):
                i0 += c * (w ** (k + 1) - u ** (k + 1)) / (k + 1)
                i1 += c * (w ** (k + 2) - u ** (k + 2)) / (k + 2)
        h2 = (xr - xl) ** 2
        bands.append((-2 * (xr * i0 - i1) / h2, 2 * (i1 - xl * i0) / h2,
                      ((xl + xr) * i0 - 2 * i1) / h2))
    d_left, d_right, o_mid = zip(*bands)
    return ([float(a + b) for a, b in zip(d_right[:-1], d_left[1:])],
            [float(o) for o in o_mid[1:-1]])


def test_bands_match_exact_rational_element_integrals():
    # the P bands of random polynomial-plus-jump models on every unit window
    # at a half-integer offset, mesh 32, to 1e-11 of max(|entry|, 1)
    rng = np.random.default_rng(61)
    for _ in range(3):
        s = sampling.random_antiderivative(rng, domain_end=6.0, pieces=6, jumps=2)
        for a in np.arange(0.0, 5.5, 0.5):
            w = forms.assemble(s, sl.Interval(a, a + 1.0), 32)
            re, im = (_exact_p_bands(s, w.nodes, part) for part in (lambda c: c.real,
                                                                     lambda c: c.imag))
            for band, r, i in zip(w.P_bands, re, im):
                want = np.asarray(r) + 1j * np.asarray(i)
                assert np.all(np.abs(band - want) <= 1e-11 * np.maximum(np.abs(want), 1.0)), a


def test_matrix_structure_invariants():
    rng = np.random.default_rng(8)
    s = sampling.random_antiderivative(rng, domain_end=2.0, jumps=2)
    w = forms.assemble(s, sl.Interval(0.25, 1.75), 48)
    for mat in (dense(w.A_bands), w.M):
        assert np.allclose(mat, mat.T)
        assert np.all(np.linalg.eigvalsh(mat) > 0)
    P = dense(w.P_bands)
    assert np.allclose(P, P.T)  # complex symmetric, not Hermitian
    band = np.triu(np.abs(P), 2)
    assert np.max(band) == 0.0  # hat overlap keeps bandwidth <= 1
    assert np.allclose(w.B, dense(w.A_bands) - dense(w.P_bands))


def test_form_value_zero_vector_and_dimension():
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 32)
    assert forms.form_value(w, np.zeros(w.dim)) == 0
    with pytest.raises(ValidationError):
        forms.form_value(w, np.zeros(w.dim + 1))


def test_form_value_imaginary_slope_identity():
    # for s = i x and zero-boundary y: int x d|y|^2 = -||y||^2, so
    # form = int |y'|^2 + i ||y||^2
    s = sl.from_poly((0.0, 1.0j), 1.0)
    w = forms.assemble(s, sl.Interval(0.0, 1.0), 256)
    rng = np.random.default_rng(1)
    c = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
    norm = complex(c.conj() @ (w.M @ c)).real
    c = c / math.sqrt(norm)
    val = forms.form_value(w, c)
    kinetic = complex(c.conj() @ (dense(w.A_bands) @ c)).real
    assert val.real == pytest.approx(kinetic, rel=1e-10)
    assert val.imag == pytest.approx(1.0, abs=1e-10)


def test_range_boundary_free_potential():
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 256)
    est = forms.range_boundary(w, angles=64)
    assert est.sector is not None
    assert est.sector.opening == pytest.approx(0.0)
    assert est.inf_modulus_lower >= PI2 - 1e-2
    assert est.inf_modulus_lower <= est.inf_modulus_upper


def test_range_boundary_imaginary_slope():
    s = sl.from_poly((0.0, 1.0j), 1.0)
    w = forms.assemble(s, sl.Interval(0.0, 1.0), 512)
    est = forms.range_boundary(w, angles=64)
    target = math.sqrt(PI2 ** 2 + 1.0)
    assert est.inf_modulus_lower <= target <= est.inf_modulus_upper
    assert est.inf_modulus_upper - est.inf_modulus_lower <= 1e-2
    assert np.allclose(est.boundary.imag, 1.0, atol=1e-8)


def test_range_boundary_rotated_ray():
    # potential matrix built from s = (1+i) x: range on the ray arg = pi/4
    # after subtracting the kinetic part; check the fitted sector of B - A
    s = sl.from_poly((0.0, 1.0 + 1.0j), 1.0)
    w = forms.assemble(s, sl.Interval(0.0, 1.0), 128)
    rng = np.random.default_rng(2)
    pts = []
    for _ in range(40):
        c = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        c /= math.sqrt(complex(c.conj() @ (w.M @ c)).real)
        pts.append(complex(c.conj() @ ((-dense(w.P_bands)) @ c)))
    from slcrit import sectors
    sec = sectors.fit_sector(np.asarray(pts), translate_vertex=False)
    assert sec is not None
    assert sec.alpha == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert sec.beta == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_inf_modulus_constant_shift_invariance():
    w0 = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 128)
    wc = forms.assemble(sl.offset(sl.zero(1.0), 17.5), sl.Interval(0.0, 1.0), 128)
    assert np.allclose(w0.B, wc.B, atol=1e-10)
    lo0, hi0 = forms.inf_modulus(w0, angles=16)
    loc, hic = forms.inf_modulus(wc, angles=16)
    assert lo0 == pytest.approx(loc, abs=1e-9)
    assert hi0 == pytest.approx(hic, abs=1e-9)
    assert lo0 == pytest.approx(PI2, rel=1e-3)
    assert hi0 == pytest.approx(PI2, rel=1e-3)


def test_constant_shift_leaves_form_values():
    rng = np.random.default_rng(4)
    s = sampling.random_antiderivative(rng, domain_end=2.0)
    w1 = forms.assemble(s, sl.Interval(0.5, 1.5), 64)
    w2 = forms.assemble(sl.offset(s, 3.0 - 2.0j), sl.Interval(0.5, 1.5), 64)
    c = rng.normal(size=w1.dim) + 1j * rng.normal(size=w1.dim)
    v1 = forms.form_value(w1, c)
    v2 = forms.form_value(w2, c)
    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


def test_mesh_convergence_rate():
    errs = []
    for n in (64, 128, 256, 512):
        w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), n)
        errs.append(abs(ground_eigenvalue(w) - PI2))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for r in rates:
        assert 1.8 <= r <= 2.2


def test_localization_scan_free_potential():
    scan = forms.localization_scan(sl.zero(3.0), n=64, angles=16)
    for row in scan.rows:
        assert row.inf_lower == pytest.approx(PI2, rel=1e-3)
        assert row.sector is not None
        assert row.sector.opening == pytest.approx(0.0)
    assert scan.lower_bounds_monotone


def test_localization_scan_quadratic_trend():
    s = sl.from_poly((0.0, 0.0, 0.5), 6.0)
    scan = forms.localization_scan(s, n=96, angles=16)
    unit_rows = [r for r in scan.rows
                 if r.window.a == int(r.window.a) and r.window.b >= 2]
    for r in unit_rows:
        k = int(r.window.b)
        assert PI2 + k - 1 - 1e-2 <= r.inf_lower <= PI2 + k + 1e-2


def test_localization_scan_miura_semibounded():
    gamma = sampling.random_gamma(np.random.default_rng(17))
    s = sl.miura(gamma, 0.0)
    scan = forms.localization_scan(s, n=48, angles=16)
    for r in scan.rows:
        assert r.herm_lambda_min >= -1e-6


def test_gauge_consistency_decomposition():
    # form((1+eps) s2) = (1+eps) * S-part + m-part on a block window
    theta = 0.5
    ope = 1.0 / (1.0 - theta) ** (1.0 / 3.0)
    amp = (1.0 - theta) ** (1.0 / 3.0)
    s2 = sl.build_counterexample("s2", theta=theta, schedule=[(5, 10.0, 4.5)],
                                 domain_end=8.0)
    _v, gam = sl.vh_profile(10.0)
    g = potential._stitch_blocks([gam], [5.0], [amp], 8.0)
    s_only = sl.subtract(s2, sl.miura(g, 0.0))
    win = sl.Interval(5.0, 6.0)
    w_full = forms.assemble(sl.scale(s2, ope), win, 64)
    w_gauge = forms.assemble(sl.zero(8.0), win, 64, gauge=(g, ope, ope ** 2 - ope))
    w_s = forms.assemble(s_only, win, 64)
    # s2, s_only and g break at the same points, so the three share one mesh
    assert np.array_equal(w_full.nodes, w_gauge.nodes)
    assert np.array_equal(w_full.nodes, w_s.nodes)
    lhs = w_full.B
    rhs = ope * (-dense(w_s.P_bands)) + w_gauge.B
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(lhs))


def test_inf_modulus_zero_crossing_witnessed():
    # a strongly indefinite real form: the range straddles 0, so the inf of
    # |form| is 0 and the mixing witness must attain it
    theta, h = 0.5, 10.0
    alpha = 1.0 - (1.0 - theta) ** (1.0 / 3.0)
    _v, gam = sl.vh_profile(h)
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 128,
                       gauge=(gam, 1.0, alpha))
    lo, hi = forms.inf_modulus(w, angles=16)
    assert lo == 0.0
    assert hi <= 1e-8


def test_mform_blowup_bound():
    theta, h = 0.5, 10.0
    alpha = 1.0 - (1.0 - theta) ** (1.0 / 3.0)
    v, gam = sl.vh_profile(h)
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 512,
                       gauge=(gam, 1.0, alpha))
    val = forms.form_value(w, interpolate(w, v.values))
    assert val.real <= 2.0 / (3.0 * h) - (2.0 * alpha / 3.0) * h ** 4 + 1e-3


def test_profile_norm_constants():
    # ||v_h||^2 = 25/12 + 3/h - 18/h^3 + O(h^-4) on [0,1] and half that,
    # 25/24 + 1.5/h - 9/h^3 + O(h^-4), on [0,1/2] (expansion of exact_half
    # with delta = 3/h^2); pins the implementation against the closed form
    for h in (10.0, 40.0, 160.0):
        v, _g = sl.vh_profile(h)
        delta = 3.0 / h ** 2
        left = 0.5 - delta
        exact_half = (left ** 3 / 3.0 + left ** 2 * delta
                      + left * h * delta + h ** 2 * delta / 3.0)
        full = float(np.real(quadrature.integrate(
            lambda x: v.values(x) ** 2, 0.0, 1.0, v.nodes)))
        assert full == pytest.approx(2.0 * exact_half, rel=1e-10)
        assert abs(full - 25.0 / 12.0) <= 3.2 / h


def test_partition_identity_polynomial_bump():
    # y = x^2 (3-x)^2 on [0,3]
    y = forms.PiecewisePoly((0.0, 3.0), ((0.0, 0.0, 9.0, -6.0, 1.0),))
    rep0 = forms.partition_identity_check(sl.zero(5.0), y)
    assert rep0.residual <= 1e-6
    rep1 = forms.partition_identity_check(sl.from_poly((0.0, 1.0), 5.0), y)
    assert rep1.residual <= 1e-6
    assert rep1.correction <= 2.0 * math.pi ** 2 * rep1.norm_sq + 1e-6


def test_partition_identity_overlap_cell_degeneration():
    # cubic bump (x-1.6)^2 (1.9-x) inside the overlap of exactly two windows:
    # all but two window terms and one cross term vanish, identity still holds
    y = forms.PiecewisePoly((1.6, 1.9), ((4.864, -8.64, 5.1, -1.0),))
    assert np.allclose(y.values(np.asarray([1.6, 1.9])), 0.0, atol=1e-12)
    rep = forms.partition_identity_check(sl.zero(4.0), y)
    assert rep.residual <= 1e-6


def _dirichlet_form(s, fn, dfn, lo, hi, extra_breaks=()):
    """l[y] = int |y'|^2 - int s (y conj(y))' dx for an explicit y on [lo, hi]
    by ``quadrature.integrate`` on the absolute s: the oracle of the check's
    centred pass."""
    breaks = list(s.breakpoints) + list(extra_breaks)
    kinetic = quadrature.integrate(lambda x: np.abs(dfn(x)) ** 2, lo, hi, breaks)
    pot = quadrature.integrate(
        lambda x: s.values(x) * 2.0 * np.real(dfn(x) * np.conj(fn(x))),
        lo, hi, breaks, s.pole_slots)
    return complex(kinetic - pot)


def test_partition_identity_single_window_structure():
    # a lone window has no neighbours: no cross terms, zero correction, and
    # the window sum collapses to the single weighted form value
    y = forms.PiecewisePoly((1.6, 1.9), ((4.864, -8.64, 5.1, -1.0),))
    s = sl.zero(4.0)
    rep = forms.partition_identity_check(s, y, offsets=[1.5])
    assert rep.correction == pytest.approx(0.0, abs=1e-12)
    phi = lambda x: np.sin(math.pi * (np.asarray(x) - 1.5))
    dphi = lambda x: math.pi * np.cos(math.pi * (np.asarray(x) - 1.5))
    yk = lambda x: phi(x) ** 2 * y.values(x)
    dyk = lambda x: (2.0 * phi(x) * dphi(x) * y.values(x)
                     + phi(x) ** 2 * y.deriv_values(x))
    lone = _dirichlet_form(s, yk, dyk, 1.5, 2.5, extra_breaks=y.breakpoints)
    assert rep.rhs == pytest.approx(lone, rel=1e-9)


def _partition_cases():
    """Models with jumps, half of them plus 0.3 / (x + 1e-3), against
    bumps and one y that does not vanish at its right support end."""
    rng = np.random.default_rng(23)
    pole = sl.Antiderivative(4.0, (0.0, 4.0), ((sl.RecipTerm(0.3, -1e-3),),))
    # y = x - 1/2, then 2.2 x - 2.06: continuous at 1.3, and y(2.2) = 2.78
    open_end = forms.PiecewisePoly((0.5, 1.3, 2.2), ((-0.5, 1.0), (-2.06, 2.2)))
    for k in range(6):
        s = sampling.random_antiderivative(rng, domain_end=4.0, pieces=4, jumps=2)
        if k % 2:
            s = sl.add(s, pole)
        yield s, sampling.random_compact_bump(rng, 4.0)
        yield s, open_end


def test_partition_identity_lhs_matches_the_absolute_quadrature():
    for s, y in _partition_cases():
        rep = forms.partition_identity_check(s, y)
        lo, hi = y.support
        ref = _dirichlet_form(s, y.values, y.deriv_values, lo, hi, y.breakpoints)
        assert abs(rep.lhs - ref) <= 1e-11 * max(abs(rep.lhs), 1.0)
        assert rep.residual <= 1e-12


def test_partition_identity_takes_one_centred_pass(monkeypatch):
    calls = []
    centred = potential.centred_integrals

    def spy(*args):
        calls.append(args)
        return centred(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the check left the centred pass")

    monkeypatch.setattr(potential, "centred_integrals", spy)
    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(quadrature, "integrate_many", refuse)
    monkeypatch.setattr(potential.Antiderivative, "values", refuse)
    s, y = next(_partition_cases())
    forms.partition_identity_check(s, y)
    assert len(calls) == 1


def test_assemble_validates_mesh_and_n():
    with pytest.raises(ValidationError):
        forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 4)


def test_piecewise_poly_eval_and_deriv():
    y = forms.PiecewisePoly((0.0, 1.0, 2.0),
                            ((0.0, 1.0), (2.0, -1.0)))
    xs = np.asarray([0.25, 0.75, 1.5])
    assert np.allclose(y.values(xs), [0.25, 0.75, 0.5])
    assert np.allclose(y.deriv_values(xs), [1.0, 1.0, -1.0])
    assert np.allclose(y.values(np.asarray([-1.0, 3.0])), 0.0)


def _piece_by_piece(y, x, derivative):
    """PiecewisePoly values by a Horner loop over the pieces the points hit."""
    out = np.zeros(x.size, dtype=complex)
    inside = (x >= y.breakpoints[0]) & (x <= y.breakpoints[-1])
    idx = np.clip(np.searchsorted(y.breakpoints, x, side="right") - 1, 0, len(y.coeffs) - 1)
    for k in np.unique(idx[inside]):
        sel = inside & (idx == k)
        row = y.coeffs[k]
        if derivative:
            row = tuple(c * (i + 1) for i, c in enumerate(row[1:])) or (0j,)
        acc = np.full(sel.sum(), row[-1], dtype=complex)
        for c in row[-2::-1]:
            acc = acc * x[sel] + c
        out[sel] = acc
    return out


def test_piecewise_poly_packed_horner_is_bitwise_the_piecewise_loop():
    rng = np.random.default_rng(37)
    polys = [sampling.random_compact_bump(rng, 6.0) for _ in range(50)]
    polys += [forms.PiecewisePoly((0.0, 3.0), ((0.0, 0.0, 9.0, -6.0, 1.0),)),
              forms.PiecewisePoly((0.0, 1.0, 2.0), ((1.0j,), (2.0, -1.0, 0.5j)))]
    for y in polys:
        x = np.concatenate([rng.uniform(-1.0, 7.0, 500), y.breakpoints, [np.nan]])
        assert np.array_equal(y.values(x), _piece_by_piece(y, x, False))
        assert np.array_equal(y.deriv_values(x), _piece_by_piece(y, x, True))


# -- batched tridiagonal kernel against the dense oracle -----------------------


def _dense_floor(w, theta):
    # the full spectrum: the subset driver is the less accurate one on windows
    # whose largest eigenvalue dwarfs the smallest
    H = math.cos(theta) * w.B.real + math.sin(theta) * w.B.imag
    return float(scipy.linalg.eigh(H, w.M, eigvals_only=True)[0])


def _exactly_definite(h, ho, m, mo, x):
    """Whether H - x M is positive definite, in exact rational arithmetic.

    The pencil is tridiagonal in natural order (ho[i] couples rows i-1 and
    i).  Every float is an integer over a power of two, so the shifted
    entries are integers t_i, e_i over one common denominator, and scaled
    minors obey the integer continuant p_j = t p_{j-1} - e^2 p_{j-2}.  The
    matrix is definite exactly when the leading minors of rows 0..k-1, the
    trailing minors of rows k+1..n-1 and the determinant are all positive
    (Sylvester, split at the middle row k to halve the integers' length).
    """
    def scaled(values):
        ratios = [v.as_integer_ratio() for v in values]
        den = max(d for _, d in ratios)
        return [n * (den // d) for n, d in ratios], den

    def minors(t, e):
        out = [1, t[0]]
        for ti, ei in zip(t[1:], e[1:]):
            out.append(ti * out[-1] - ei * ei * out[-2])
        return out

    (hn, dh), (mn, dm) = scaled(h.tolist() + ho.tolist()), scaled(m.tolist() + mo.tolist())
    xn, dx = x.as_integer_ratio()
    shifted = [a * dx * dm - xn * b * dh for a, b in zip(hn, mn)]
    t, e, k = shifted[:h.size], shifted[h.size:], h.size // 2
    top, bottom = minors(t[:k], e[:k]), minors(t[:k:-1], [0] + e[:k + 1:-1])
    det = ((t[k] * top[-1] - e[k] ** 2 * top[-2]) * bottom[-1]
           - e[k + 1] ** 2 * top[-1] * bottom[-2])
    return min(top + bottom) > 0 and det > 0


def _certified_exactly(sweep, *args):
    """Run ``sweep(*args)`` and check every bound the kernel returned on the
    very pencil it was handed, converted exactly to rationals; returns the
    sweep's result and the column count of each kernel call."""
    handed = []
    kernel = forms._pencil_floor

    def capture(h, ho, m, mo, dims):
        arrays = [a.copy() for a in (h, ho, m, mo)]
        lower, vec = kernel(h, ho, m, mo, dims)
        handed.append((arrays, lower))
        return lower, vec

    forms._pencil_floor = capture
    try:
        result = sweep(*args)
    finally:
        forms._pencil_floor = kernel
    for (h, ho, m, mo), lower in handed:
        order, couple = forms._twist(h.shape[0])
        nat = [np.empty_like(h), np.zeros_like(ho), np.empty_like(m), np.zeros_like(mo)]
        nat[0][order], nat[2][order] = h, m
        nat[1][couple[:-1]], nat[3][couple[:-1]] = ho[:-1], mo[:-1]
        for k, x in enumerate(lower):
            assert _exactly_definite(*(a[:, k] for a in nat), x)
    return result, [lower.size for _arrays, lower in handed]


def test_exact_oracle_agrees_with_rational_pivots():
    # both verdicts occur, so an oracle that always said yes would fail here
    rng = np.random.default_rng(6)
    verdicts = set()
    for n in range(3, 12):
        for _ in range(8):
            h, ho = rng.normal(size=n) + 3.0, np.append(0.0, rng.normal(size=n - 1))
            m, mo = np.full(n, 1.0), np.append(0.0, np.full(n - 1, 0.2))
            x = float(rng.normal())
            t = [Fraction(a) - Fraction(x) * Fraction(b) for a, b in zip(h, m)]
            e = [Fraction(a) - Fraction(x) * Fraction(b) for a, b in zip(ho, mo)]
            d, definite = t[0], t[0] > 0
            for i in range(1, n):
                if definite:
                    d = t[i] - e[i] ** 2 / d
                    definite = d > 0
            assert _exactly_definite(h, ho, m, mo, x) == definite
            verdicts.add(definite)
    assert verdicts == {True, False}


def _check_sweep(windows, angles=16):
    thetas = np.arange(angles) * (2.0 * math.pi / angles)
    (lows, samples), _columns = _certified_exactly(forms._rotation_sweep, windows, thetas)
    eps = np.finfo(float).eps
    for w, low, zs in zip(windows, lows, samples):
        for theta, lam, z in zip(thetas, low, zs):
            dense = _dense_floor(w, theta)
            scale = max(1.0, abs(dense))
            assert abs(lam - dense) <= 1e-9 * scale
            # certified: never above the dense value by more than rounding
            assert lam <= dense + 64 * eps * scale
            # each sample is an attained Rayleigh value of the rotated part
            rotated = (np.exp(-1j * theta) * z).real
            assert lam <= rotated + 64 * eps * max(1.0, abs(rotated))
        est = forms.range_boundary(w, angles=angles)
        assert est.inf_modulus_lower <= est.inf_modulus_upper
    return lows


def test_kernel_matches_dense_on_miura_corpus():
    rng = np.random.default_rng(31)
    windows = []
    for k, n in enumerate((64, 128, 512)):
        s = sl.miura(sampling.random_gamma(rng), 0.0)
        windows.append(forms.assemble(s, sl.Interval(0.5 * k, 0.5 * k + 1.0), n))
    for w in windows:
        _check_sweep([w])


def test_kernel_matches_dense_on_complex_slope_corpus():
    rng = np.random.default_rng(32)
    for n in (64, 128, 512):
        c = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        s = sl.from_poly((complex(rng.normal(), rng.normal()), c), 2.0)
        _check_sweep([forms.assemble(s, sl.Interval(0.5, 1.5), n)])


def test_kernel_matches_dense_on_delta_corpus():
    rng = np.random.default_rng(33)
    for n in (64, 256):
        positions = np.sort(rng.uniform(0.05, 0.95, size=3))
        strengths = rng.normal(size=3) * 4.0 + 1j * rng.normal(size=3)
        s = sl.delta_sum(positions.tolist(), strengths.tolist(), 1.0)
        _check_sweep([forms.assemble(s, sl.Interval(0.0, 1.0), n)])


def test_kernel_batch_pads_windows_of_different_dimensions():
    rng = np.random.default_rng(34)
    s = sampling.random_antiderivative(rng, domain_end=3.0, jumps=3)
    windows = [forms.assemble(s, sl.Interval(0.0, 1.0), 48),
               forms.assemble(s, sl.Interval(1.0, 2.5), 96),
               forms.assemble(s, sl.Interval(2.0, 3.0), 64)]
    assert len({w.dim for w in windows}) == 3
    lows = _check_sweep(windows)
    # batching changes nothing: each window alone gives the same bound
    thetas = np.arange(16) * (2.0 * math.pi / 16)
    for w, low in zip(windows, lows):
        alone, _ = forms._rotation_sweep([w], thetas)
        assert np.allclose(alone[0], low, rtol=1e-12, atol=1e-12)


def test_kernel_on_indefinite_gauge_form():
    theta, h = 0.5, 10.0
    alpha = 1.0 - (1.0 - theta) ** (1.0 / 3.0)
    _v, gam = sl.vh_profile(h)
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 128,
                       gauge=(gam, 1.0, alpha))
    lows = _check_sweep([w])
    # the range straddles 0, so no rotation certifies a positive bound
    assert lows.min() < -1.0
    assert lows.max() <= 1e-12


def _sturm_lambda_min(windows, thetas=(0.0,), iters=64):
    """Smallest eigenvalue of each rotated pencil (cos t Re B + sin t Im B, M),
    one row per window and one column per angle t, by bisection on the
    inertia of H - x M: x lies above lambda_min exactly when some LDL^T pivot
    is negative.  H is rounded to double as the kernel is handed it; the
    pivots run in long double, over all pencils at once."""
    ld = np.longdouble
    thetas = np.asarray(thetas, dtype=float)
    dims = np.repeat([w.dim for w in windows], thetas.size)
    live = np.arange(dims.max())[:, None] < dims
    h, ho, m, mo = (np.zeros(live.shape, ld) for _ in range(4))
    for k, (w, t) in enumerate((w, t) for w in windows for t in thetas):
        d, off = (math.cos(t) * b.real + math.sin(t) * b.imag for b in w.B_bands)
        h[:w.dim, k], ho[1:w.dim, k] = d, off
        m[:w.dim, k], mo[1:w.dim, k] = w.M_bands
    m[~live] = 1.0

    def above(x):
        d = h[0] - x * m[0]
        neg = d < 0
        for i in range(1, live.shape[0]):
            e = ho[i] - x * mo[i]
            d = h[i] - x * m[i] - e * e / d
            neg |= (d < 0) & live[i]
        return neg

    with np.errstate(all="ignore"):
        hi = np.where(live, h / m, np.inf).min(0)     # unit-vector quotients
        width = np.maximum(np.abs(hi), 1.0)
        while (bad := above(hi - width)).any():
            width[bad] *= 2.0
        lo = hi - width
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            up = above(mid)
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return (0.5 * (lo + hi)).astype(float).reshape(len(windows), thetas.size)


def _near_node_windows(rng, count, complex_valued=False):
    """Windows [1, 2] whose breakpoints sit 10^-5.5 to 10^-2 of a cell off a
    mesh node, every other one with two of them by the same node: the short
    elements leave eigenvalues that dwarf lambda_min."""
    windows = []
    for case in range(count):
        n = int(rng.choice([32, 64, 128]))
        nodes = rng.choice(np.arange(1, n), size=3, replace=False)
        if case % 2:
            nodes[1] = nodes[0]
        off = 10.0 ** rng.uniform(-5.5, -2.0, size=3) * rng.choice([-1, 1], size=3)
        cuts = np.unique(1.0 + (nodes + off) / n)
        coeffs = rng.uniform(-5.0, 5.0, (cuts.size + 1, 4))
        if complex_valued:
            coeffs = coeffs + 1j * rng.uniform(-5.0, 5.0, coeffs.shape)
        pieces = [(sl.PolyTerm(tuple(complex(c) for c in row)),) for row in coeffs]
        s = sl.Antiderivative(3.0, (0.0, *cuts, 3.0), tuple(pieces))
        windows.append(forms.assemble(s, sl.Interval(1.0, 2.0), n))
    return windows


def test_real_lambda_min_matches_long_double_sturm_count():
    # scipy's subset driver missed by 7e-3 on these windows
    windows = _near_node_windows(np.random.default_rng(1), 90)
    ref = _sturm_lambda_min(windows)[:, 0]
    got = np.asarray([forms.herm_lambda_min(w) for w in windows])
    assert np.all(np.abs(got - ref) <= 1e-6 * np.maximum(np.abs(ref), 1.0))
    # the scan's real path reads the same lambda_min
    lows = [forms.range_boundary(w, angles=16).lambda_mins[0] for w in windows[:4]]
    assert np.array_equal(lows, got[:4])


def test_kernel_matches_long_double_sturm_count_on_stiff_complex_windows():
    # the dense generalized solver itself misses by up to 8.7e-5 here, so the
    # reference is the inertia count of the rotated pencil.  The bound stays
    # certified to 64 eps; its distance below the count is the backoff, eps
    # times the eigenvector-weighted |H|, which the short elements' large
    # entries lift to 1.03e-7 relative on these windows (median 5e-15)
    windows = _near_node_windows(np.random.default_rng(5), 24, complex_valued=True)
    thetas = np.arange(16) * (2.0 * math.pi / 16)
    lows, samples = forms._rotation_sweep(windows, thetas)
    ref = _sturm_lambda_min(windows, thetas)
    scale = np.maximum(np.abs(ref), 1.0)
    eps = np.finfo(float).eps
    assert np.all(lows <= ref + 64 * eps * scale)
    assert np.all(ref - lows <= 2e-7 * scale)
    rotated = (np.exp(-1j * thetas) * samples).real
    assert np.all(lows <= rotated + 64 * eps * np.maximum(np.abs(rotated), 1.0))


def _step_models(rng, count):
    """Real piecewise-constant s with jumps on [0, 3], like the bench's step
    potentials: the windows whose lambda_lo columns straggled in the kernel."""
    return [sampling.random_antiderivative(rng, domain_end=3.0, pieces=5, jumps=2,
                                           amplitude=3.0, complex_valued=False,
                                           max_degree=0) for _ in range(count)]


#: mean multisection passes per kernel call on the mesh-128 scans of
#: ``test_bracket_start_keeps_the_multisection_short``, bracket probes not
#: counted: 22.25 from the Gershgorin and element-wise start, 4.88 from the
#: Rayleigh bracket (10.4 and 3.0 per real call on the bench scan inputs)
MULTISECTION_PASSES = 8.0


def test_bracket_start_keeps_the_multisection_short(monkeypatch):
    # a column that starts far below lambda_1 only halves its distance per
    # Laguerre pass and leaves tens of bits to the multisection; the counts
    # are exact, so the bound holds on any machine.  A kernel call's
    # definiteness passes before its first Laguerre pass are bracket probes
    # (fewer than ``_PROBES`` on a narrow chunk, which groups them), the rest
    # multisection passes
    counts = dict.fromkeys(("_pencil_floor", "_laguerre_terms", "probe", "multisection"), 0)
    phase = ["probe"]
    for name, after in (("_pencil_floor", "probe"), ("_laguerre_terms", "multisection"),
                        ("_definite", None)):
        def spy(*args, _fn=getattr(forms, name), _name=name, _after=after):
            counts[_name if _after else phase[0]] += 1
            if _after:
                phase[0] = _after
            return _fn(*args)

        monkeypatch.setattr(forms, name, spy)
    rng = np.random.default_rng(41)
    models = _step_models(rng, 4)
    models += [sl.miura(sampling.random_gamma(rng, domain_end=3.0), 0.0) for _ in range(4)]
    for s in models:
        forms.localization_scan(s, n=128)
    calls = counts["_pencil_floor"]
    assert calls >= 8
    assert counts["_laguerre_terms"] <= forms._LAGUERRE_PASSES * calls
    assert 0 < counts["probe"] <= forms._PROBES * calls
    assert counts["multisection"] / calls <= MULTISECTION_PASSES


# -- the row-split Laguerre pass ----------------------------------------------


def _kernel_pencils(windows, thetas):
    """The pencils of ``_rotation_sweep(windows, thetas)``, normalised as the
    kernel normalises them, in one block of columns (h, ho, m, mo), with each
    column's Gershgorin lower bound and the kernel's certified lambda_1."""
    handed = []
    kernel = forms._pencil_floor

    def capture(h, ho, m, mo, dims):
        handed.append([a.copy() for a in (h, ho, m, mo)])
        lower, vec = kernel(h, ho, m, mo, dims)
        handed[-1].append(lower)
        return lower, vec

    forms._pencil_floor = capture
    try:
        forms._rotation_sweep(windows, thetas)
    finally:
        forms._pencil_floor = kernel
    h, ho, m, mo, lower = (np.concatenate(parts, -1) for parts in zip(*handed))
    with np.errstate(all="ignore"):
        gam_h = forms._gershgorin(h, ho)[0]
        gam_h[gam_h == 0.0] = 1.0
        gam_m = forms._gershgorin(m, mo)[0]
        h, ho, m, mo = h / gam_h, ho / gam_h, m / gam_m, mo / gam_m
        low, mu = forms._gershgorin(h, ho)[1], forms._gershgorin(m, mo)[1]
    return (h, ho, m, mo), low / np.where(low >= 0, 1.0, mu), lower * (gam_m / gam_h)


def _laguerre_corpus(n):
    """A step, a Miura and a complex-slope window at mesh n."""
    rng = np.random.default_rng(n)
    models = [*_step_models(rng, 1), sl.miura(sampling.random_gamma(rng, domain_end=3.0), 0.0),
              sl.from_poly((complex(rng.normal(), rng.normal()),
                            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))), 3.0)]
    return [forms.assemble(s, sl.Interval(0.5, 1.5), n) for s in models]


def _laguerre_at(fn, pencil, x, cols):
    """A Laguerre pass ``fn`` on columns ``cols`` of the pencil at shifts x."""
    h, ho, m, mo = (a[:, cols] for a in pencil)
    with np.errstate(all="ignore"):
        return fn(*forms._shifted(h, ho, m, mo, x[cols]), m, mo)


def test_row_split_laguerre_matches_the_fused_loop_bitwise(fused_laguerre):
    # every output, nan included, at the bracket's ends, just below lambda_1
    # and past it; 1 to 300 columns, both parities of the mesh
    verdicts = set()
    for n in (32, 33, 128, 512):
        pencil, lo, lam = _kernel_pencils(_laguerre_corpus(n), forms._rotations(100))
        shifts = (lo, 0.5 * (lo + lam), lam - 1e-9, lam + 1e-6)
        rng = np.random.default_rng(n)
        for K in (1, 2, 13, 64, 152, 300):
            cols = np.sort(rng.choice(300, K, replace=False))
            for x in shifts:
                new, ref = (_laguerre_at(fn, pencil, x, cols)
                            for fn in (forms._laguerre_terms, fused_laguerre))
                for a, b in zip(new, ref):
                    assert np.array_equal(a, b, equal_nan=True)
                verdicts.update(new[0].tolist())
        assert not _laguerre_at(forms._laguerre_terms, pencil, shifts[-1], np.arange(300))[0].any()
    assert verdicts == {True, False}


def test_row_split_laguerre_matches_the_fused_loop_in_a_scan(monkeypatch, fused_laguerre):
    # the shifts the kernel itself visits, on the scan's own pencils
    kernel, calls = forms._laguerre_terms, []

    def both(T, E, m, mo):
        ref = fused_laguerre(T.copy(), E.copy(), m, mo)
        new = kernel(T, E, m, mo)
        calls.append(all(np.array_equal(a, b, equal_nan=True) for a, b in zip(new, ref)))
        return new

    monkeypatch.setattr(forms, "_laguerre_terms", both)
    rng = np.random.default_rng(43)
    for s in (*_step_models(rng, 1), sl.miura(sampling.random_gamma(rng, domain_end=3.0), 0.0),
              sl.from_poly((0.3, 1j, 0.2 + 0.1j), 3.0)):
        forms.localization_scan(s, n=33)
    assert len(calls) >= 9 and all(calls)


def test_laguerre_terms_match_the_dense_spectrum():
    # G = sum 1/(x - lambda_j) and S = sum 1/(x - lambda_j)^2 at definite
    # shifts, against dense eigh of the pencil rebuilt in natural order
    for n in (32, 33, 48):
        pencil, lo, lam = _kernel_pencils(_laguerre_corpus(n), forms._rotations(16))
        N, K = pencil[0].shape
        assert N <= 65
        order = forms._twist(N)[0]
        for x in (lo, 0.5 * (lo + lam)):
            pd, G, S = _laguerre_at(forms._laguerre_terms, pencil, x, np.arange(K))
            assert pd.sum() >= K // 2
            for k in np.flatnonzero(pd):
                H, M = (np.empty((N, N)) for _ in range(2))
                for dense, diag, off in ((H, *pencil[:2]), (M, *pencil[2:])):
                    dense[np.ix_(order, order)] = forms._apply(
                        diag[:, k:k + 1], off[:, k:k + 1], np.eye(N))
                    assert np.array_equal(dense, np.tril(np.triu(dense, -1), 1))
                    assert np.array_equal(dense, dense.T)
                poles = x[k] - scipy.linalg.eigh(H, M, eigvals_only=True)
                assert G[k] == pytest.approx(np.sum(1.0 / poles), rel=1e-9)
                assert S[k] == pytest.approx(np.sum(1.0 / poles ** 2), rel=1e-9)


def test_real_windows_certified_at_both_ends_of_the_range():
    # a real form's range [lambda_lo, lambda_hi] comes from the sweep at 0
    # and pi: both bounds hold exactly on the pencils handed to the kernel,
    # and sit within the backoff below the long-double inertia count.  Steps
    # with jumps are the windows whose lambda_lo columns straggled.  On a
    # constant s the form is the stiffness alone, whose exact discrete
    # eigenvectors on a uniform mesh are the sine vector (lambda_1 at 0) and
    # its alternating twin (at pi), so the kernel's Rayleigh bound can round
    # onto lambda_1
    rng = np.random.default_rng(35)
    windows = [forms.assemble(sl.miura(sampling.random_gamma(rng), 0.0),
                              sl.Interval(0.5, 1.5), n) for n in (64, 128)]
    windows.append(forms.assemble(sl.delta_sum([0.3, 0.55, 0.8], [4.0, -6.0, 2.5], 1.0),
                                  sl.Interval(0.0, 1.0), 64))
    windows += _near_node_windows(np.random.default_rng(8), 6)
    windows += [forms.assemble(s, sl.Interval(k, k + 1.0), 128)
                for s in _step_models(np.random.default_rng(42), 3) for k in (0.0, 1.5)]
    windows += [forms.assemble(sl.from_poly((c,), 2.0), sl.Interval(0.5, 1.5), n)
                for c, n in ((0.0, 128), (2.5, 127), (-1e3, 64))]
    assert all(forms._is_real(w) for w in windows)
    (lows, _samples), _columns = _certified_exactly(forms._rotation_sweep, windows,
                                                    forms._REAL_THETAS)
    ref = _sturm_lambda_min(windows, forms._REAL_THETAS)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.all(lows <= ref + 64 * np.finfo(float).eps * scale)
    assert np.all(ref - lows <= 1e-6 * scale)
    # a window's range reads its own sweep: lambda_lo at 0, -lambda_hi at pi
    for w in windows:
        (lo, hi), = forms._rotation_sweep([w], forms._REAL_THETAS)[0]
        est = forms.range_boundary(w, angles=16)
        assert (est.lambda_mins[0], est.lambda_mins[8]) == (lo, hi)
        assert est.sector == sectors.Sector(lo, 0.0, 0.0)
        assert est.inf_modulus_lower == max(0.0, lo, hi) <= est.inf_modulus_upper


def _slope_window(n):
    """[0, 1] of s = (-1e4 + i) x: the form is the Laplacian's less 1e4, plus
    i ||y||^2."""
    return forms.assemble(sl.from_poly((0.0, -1e4 + 1j), 1.0), sl.Interval(0.0, 1.0), n)


def test_half_plane_is_chosen_by_index():
    # a sign test on the rounded cosine would drop quarter turns: cos(3 pi / 2)
    # rounds to -1.8e-16, and the cosine of 25 of 100 rotations to -1.6e-16
    keep = forms._half_plane(64)
    assert keep.sum() == 33 and keep[[0, 16, 48]].all() and not keep[[17, 47]].any()
    assert math.cos(48 * (2.0 * math.pi / 64)) < 0.0
    assert math.cos(forms._rotations(100)[25]) < 0.0 and forms._half_plane(100)[25]
    for angles in (16, 17, 18, 19, 64, 100):
        keep = forms._half_plane(angles)
        mirror = -np.arange(angles) % angles
        assert np.array_equal(keep, keep[mirror])
        # rotations k and angles - k are theta and -theta bit for bit (pi,
        # its own mirror, stays pi)
        thetas, k = forms._rotations(angles), np.arange(1, (angles + 1) // 2)
        assert np.array_equal(thetas[angles - k], -thetas[k])


def test_half_plane_sweep_falls_back_to_rotations_it_cannot_rule_out():
    # at mesh 16 the discrete Laplacian tops out near 7e3, so the range lies
    # left of 0 and the best rotation is pi; every alternating bound on
    # cos < 0 lies above the half-plane's best (1, at pi / 2), so the other
    # 31 rotations are swept in a second call.  The bounds are the full
    # circle's, and every pencil handed to the kernel is certified exactly
    thetas = forms._rotations(64)
    w = _slope_window(16)
    est, columns = _certified_exactly(forms.range_boundary, w, 64)
    assert columns == [33, 31]
    lows, samples = forms._rotation_sweep([w], thetas)
    assert np.argmax(lows[0]) == 32
    assert np.array_equal(est.rotations, thetas)
    assert np.allclose(est.lambda_mins, lows[0], rtol=1e-12, atol=1e-12)
    assert est.inf_modulus_lower == pytest.approx(lows.max(), rel=1e-12)
    assert est.inf_modulus_upper == pytest.approx(np.abs(samples).min(), rel=1e-12)
    # at mesh 32 the spectrum reaches past 1e4 and the alternating quotient
    # (1712 + i) lies right of 0: on cos < 0 its rotated value is negative,
    # so the half-plane alone is swept, with the full circle's lower bound.
    # The upper bound is the least modulus the swept samples attain
    w = _slope_window(32)
    est, columns = _certified_exactly(forms.range_boundary, w, 64)
    assert columns == [33]
    assert np.array_equal(est.rotations, thetas[forms._half_plane(64)])
    lows, _samples = forms._rotation_sweep([w], thetas)
    assert est.inf_modulus_lower == pytest.approx(lows.max(), rel=1e-12)
    assert est.inf_modulus_upper == pytest.approx(np.abs(est.boundary).min(), rel=1e-15)


def test_alternating_quotient_matches_the_dense_rayleigh_quotient(corpus):
    # z from the band sums agrees with v^T B v / v^T M v of the dense
    # matrices, v_i = (-1)^i, within its stated rounding bound, and its
    # rotated value bounds every certified lambda_min from above
    thetas = forms._rotations(16)
    for name, s in corpus:
        X = s.domain_end
        for a in {0.0, 0.5 * math.floor(X - 1.0)}:
            w = forms.assemble(s, sl.Interval(a, min(a + 1.0, X)), 48)
            v = (-1.0) ** np.arange(w.dim)
            want = (v @ w.B @ v) / (v @ w.M @ v)
            z, slack = forms._alternating_quotient(w)
            assert abs(z - want) <= slack <= 1e-11 * abs(z), (name, a)
            lows, _samples = forms._rotation_sweep([w], thetas)
            assert np.all(lows[0] <= (np.exp(-1j * thetas) * z).real + slack), (name, a)


def test_complex_scan_hands_the_kernel_33_of_64_rotations():
    # every window of s = 0.3 + i x + (0.2 + 0.1 i) x^2 is complex, and no
    # rotation with cos < 0 survives its alternating bound: each window costs
    # the kernel 33 columns for 64 rotations (64 columns before the
    # half-plane), all in one call, each certified exactly
    s = sl.from_poly((0.3, 1j, 0.2 + 0.1j), 4.0)
    scan, columns = _certified_exactly(forms.localization_scan, s, 32, 64)
    assert len(scan.rows) == 7
    assert columns == [33 * 7]


def _scanned_forms(s, n, monkeypatch):
    """Every window form a scan of s hands the kernel, real and complex, and
    the (a, b) of every interval the scan assembles."""
    seen, assembled = [], []
    sweep, assemble = forms._rotation_sweep, forms.assemble

    def capture(windows, thetas, **kwargs):
        seen.extend(windows)
        return sweep(windows, thetas, **kwargs)

    def spy(s, interval, n, **kwargs):
        assembled.append((interval.a, interval.b))
        return assemble(s, interval, n, **kwargs)

    monkeypatch.setattr(forms, "_rotation_sweep", capture)
    monkeypatch.setattr(forms, "assemble", spy)
    forms.localization_scan(s, n=n, angles=16)
    monkeypatch.setattr(forms, "_rotation_sweep", sweep)
    monkeypatch.setattr(forms, "assemble", assemble)
    return seen, assembled


@pytest.mark.parametrize("n, batch", [(48, quadrature.BATCH_PANELS),
                                      (33, quadrature.BATCH_PANELS), (48, 100)])
def test_scan_window_slices_are_bitwise_their_own_assembly(corpus, monkeypatch, n, batch):
    # one span per lattice for these domains, or several once the batch is
    # cut to a few windows; an odd mesh puts the half-shifted family on a
    # lattice of its own.  Each span is assembled once and every window,
    # reciprocal-term ones and the displaced model's included, is sliced
    # from it: the breakpoint 1e-9 past the node 2 gives way to that node
    monkeypatch.setattr(quadrature, "BATCH_PANELS", batch)
    displaced = sl.Antiderivative(4.0, (0.0, 2.0 + 1e-9, 4.0),
                                  ((sl.PolyTerm((1.0, 1.0j)),), (sl.PolyTerm((2.0, -0.5)),)))
    for name, s in corpus + [("displaced", displaced)]:
        if s.domain_end < 2.0:
            continue
        wins = forms.scan_windows(s.domain_end)
        spans = list(forms._spans(s, wins, n))
        assert len(spans) == (1 if n % 2 == 0 else 2) if batch > 1000 else len(spans) >= 2
        seen, assembled = _scanned_forms(s, n, monkeypatch)
        assert sorted(assembled) == sorted((iv.a, iv.b) for iv, _run in spans), name
        assert sorted(w.interval.a for w in seen) == [w.a for w in wins]
        for w in seen:
            ref = forms.assemble(s, w.interval, n)
            assert np.array_equal(w.nodes, ref.nodes), (name, w.interval)
            for got, want in zip(w.M_bands + w.B_bands, ref.M_bands + ref.B_bands):
                assert np.array_equal(got, want), (name, w.interval)
    # a power-of-two mesh keeps the nodes numpy.linspace gave before
    assert np.array_equal(quadrature.grid(2.5, 3.5, 128), np.linspace(2.5, 3.5, 129))


@pytest.mark.parametrize("n", [32, 33])
def test_scan_sweeps_span_by_span(monkeypatch, n):
    # with the batch cut to 100 elements the 11 windows of [0, 6] fall in
    # three spans at mesh 32 and four at mesh 33, whose half-shifted family
    # is a lattice of its own.  Every call of either range path takes the
    # windows of one span, and each row is its window's range swept alone,
    # up to the kernel's coupling of a column to its batch-mates
    monkeypatch.setattr(quadrature, "BATCH_PANELS", 100)
    calls = []
    for name in ("_real_ranges", "_half_plane_sweep"):
        def spy(windows, thetas, _path=getattr(forms, name)):
            calls.append([(w.interval.a, w.interval.b) for w in windows])
            return _path(windows, thetas)

        monkeypatch.setattr(forms, name, spy)
    wins = forms.scan_windows(6.0)
    for s in (sl.from_poly((0.3, 1j, 0.2 + 0.1j), 6.0), sl.from_poly((0.3, 1.0, 0.2), 6.0)):
        spans = list(forms._spans(s, wins, n))
        assert len(spans) == (3 if n % 2 == 0 else 4)
        span_of = {(wins[k].a, wins[k].b): i for i, (_iv, run) in enumerate(spans) for k in run}
        calls.clear()
        rows = forms.localization_scan(s, n=n).rows
        assert sorted(sum(calls, [])) == sorted(span_of)
        for windows in calls:
            assert len({span_of[w] for w in windows}) == 1, windows
        for row in rows:
            est = forms.range_boundary(forms.assemble(s, row.window, n))
            for got, want in ((row.herm_lambda_min, est.lambda_mins[0]),
                              (row.inf_lower, est.inf_modulus_lower),
                              (row.inf_upper, est.inf_modulus_upper)):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (row.window, got, want)


def test_scan_of_a_prefix_keeps_the_shared_rows_bounds(corpus):
    # restricting s to [0, 4] changes the spans and the kernel batches, not
    # the bounds of the windows both scans share; s2 has reciprocal terms
    rng = np.random.default_rng(36)
    real = sl.miura(sampling.random_gamma(rng, domain_end=6.0), 0.0)
    cplx = sampling.random_antiderivative(rng, domain_end=6.0, pieces=6, jumps=2)
    for s in (real, cplx, dict(corpus)["s2"]):
        full = forms.localization_scan(s, n=48, angles=16).rows
        prefix = forms.localization_scan(sl.restrict(s, 4.0), n=48, angles=16).rows
        assert len(prefix) == 7
        for a, b in zip(prefix, full):
            assert a.window == b.window
            for x, y in ((a.herm_lambda_min, b.herm_lambda_min),
                         (a.inf_lower, b.inf_lower), (a.inf_upper, b.inf_upper)):
                assert abs(x - y) <= 1e-12 * max(abs(y), 1.0), (a.window, x, y)


def test_non_finite_form_entries_raise():
    w = forms.assemble(sl.from_poly((0.0, 1.0j), 1.0), sl.Interval(0.0, 1.0), 32)
    diag, off = w.B_bands
    bad = dataclasses.replace(w, B_bands=(np.where(np.arange(diag.size) == 5,
                                                   np.nan, diag), off))
    with pytest.raises(NumericError):
        forms.range_boundary(bad, angles=16)
    with pytest.raises(NumericError):
        forms.herm_lambda_min(bad)


def test_kernel_on_huge_coefficients():
    # entries near 1e300 would overflow the squared couplings of the pivot
    # recurrence without the per-column normalisation
    s = sl.from_poly((1e300, 1e300 + 1e300j, 1e300j), 3.0)
    _check_sweep([forms.assemble(s, sl.Interval(1.0, 2.0), 48)])
    scan = forms.localization_scan(s, n=48, angles=16)
    for r in scan.rows:
        assert all(math.isfinite(v) for v in (r.herm_lambda_min, r.inf_lower, r.inf_upper))


def test_rotation_sweep_working_set_stays_near_three_mib():
    # the chunking keeps the sweep's arrays near 3 MiB at any window count:
    # eight mesh-512 windows, two chunks of 64 columns
    s = sl.from_poly((0.3, 1j, 0.2 + 0.1j), 9.0)
    windows = [forms.assemble(s, sl.Interval(0.5 * k, 0.5 * k + 1.0), 512) for k in range(2)] * 4
    thetas = np.arange(16) * (2.0 * math.pi / 16)
    tracemalloc.start()
    try:
        forms._rotation_sweep(windows, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


def test_imaginary_slope_scan_sectors_start_at_lambda_min():
    # B = A + i M: the range is a horizontal segment, and every window
    # reports it from its left end, as real windows do
    s = sl.from_poly((2.07 + 1.45j, 1j), 4.1)
    scan = forms.localization_scan(s)
    for row in scan.rows:
        assert row.sector.alpha == pytest.approx(0.0, abs=1e-12)
        assert row.sector.beta == pytest.approx(0.0, abs=1e-12)
        assert row.sector.vertex.real == pytest.approx(row.herm_lambda_min, rel=1e-9)
    # tiny noise on the samples leaves the choice of end alone
    rng = np.random.default_rng(7)
    z = forms.range_boundary(forms.assemble(s, scan.rows[2].window, 128)).boundary
    for _ in range(200):
        noisy = z * (1.0 + 1e-14 * rng.standard_normal(z.size))
        sec = sectors.fit_sector(noisy, require_strict_args=False, translate_vertex=True)
        assert abs(sec.alpha) <= 1e-12 and abs(sec.beta) <= 1e-12
