"""Unit tests for the window criteria and the classification rules."""

import math

import numpy as np
import pytest

import slcrit as sl
from slcrit import criteria, quadrature, sampling, sectors
from slcrit.errors import DomainError, UnsupportedInputError


def test_window_deviation_linear():
    # s(xi) = xi on [0,1]: c_min = 1/2, dev = 1/12, dbl = 1/6
    s = sl.from_poly((0.0, 1.0), 1.0)
    c, dev, dbl = sl.window_deviation(s, 0.0, 1.0)
    assert c == pytest.approx(0.5, abs=1e-11)
    assert dev == pytest.approx(1.0 / 12.0, abs=1e-11)
    assert dbl == pytest.approx(1.0 / 6.0, abs=1e-11)
    assert 1.0 * dev - 1e-12 <= dbl <= 4.0 * dev + 1e-12


def test_window_deviation_step():
    s = sl.delta_sum([0.5], [1.0], 1.0)
    c, dev, dbl = sl.window_deviation(s, 0.0, 1.0)
    assert c == pytest.approx(0.5, abs=1e-11)
    assert dev == pytest.approx(0.25, abs=1e-11)
    assert dbl == pytest.approx(0.5, abs=1e-11)


def test_window_deviation_constant():
    s = sl.offset(sl.zero(1.0), 3.0 - 2.0j)
    _c, dev, dbl = sl.window_deviation(s, 0.0, 1.0)
    assert dev == pytest.approx(0.0, abs=1e-12)
    assert dbl == pytest.approx(0.0, abs=1e-12)


def test_dbl_bruteforce_linear_and_zero():
    s = sl.from_poly((0.0, 1.0), 1.0)
    assert sl.dbl_bruteforce(s, 0.0, 1.0, 16) == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert sl.dbl_bruteforce(sl.zero(1.0), 0.0, 1.0, 16) == 0.0


def test_dbl_bruteforce_step_panel_split():
    s = sl.delta_sum([0.5], [1.0], 1.0)
    assert sl.dbl_bruteforce(s, 0.0, 1.0, 16) == pytest.approx(0.5, abs=1e-9)


def test_scan_necessary_linear_refutes():
    s = sl.from_poly((0.0, 1.0), 12.0)
    series, refuted = sl.scan_necessary(s, 1.0)
    assert np.allclose(series.values, 1.0 / 6.0, atol=1e-9)
    assert refuted


def test_scan_necessary_quadratic_diverges():
    s = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    series, refuted = sl.scan_necessary(s, 1.0)
    assert not refuted
    # closed form dbl = (x+1/2)^2/6 + 1/360, cross-checked by the oracle
    x = series.origins
    assert np.allclose(series.values, (x + 0.5) ** 2 / 6.0 + 1.0 / 360.0,
                       rtol=1e-9)
    brute = sl.dbl_bruteforce(s, 4.0, 1.0, 16)
    assert brute == pytest.approx((4.5 ** 2) / 6.0 + 1.0 / 360.0, rel=1e-10)


def test_scan_necessary_zero_refutes():
    _series, refuted = sl.scan_necessary(sl.zero(4.0), 1.0)
    assert refuted


def test_brinck_quadratic():
    s = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    sector, growth, hint = sl.brinck(s, 1.0, 1.0)
    assert sector is not None
    assert sector.alpha == pytest.approx(0.0, abs=1e-9)
    assert sector.beta == pytest.approx(0.0, abs=1e-9)
    # growth |s(x+1) - s(x)| = x + 1/2
    assert np.allclose(growth.values, growth.origins + 0.5, atol=1e-10)
    assert hint == criteria.OUTCOME_COMPACT


def test_brinck_imaginary_slope():
    s = sl.from_poly((0.0, 1.0j), 12.0)
    sector, growth, hint = sl.brinck(s, 1.0, 1.0)
    assert sector is not None
    assert sector.alpha == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert sector.beta == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert np.allclose(growth.values, 1.0, atol=1e-10)
    assert hint == criteria.OUTCOME_NOT_COMPACT


def test_brinck_zero_potential():
    sector, growth, hint = sl.brinck(sl.zero(4.0), 1.0, 1.0)
    assert sector is not None and sector.opening == pytest.approx(0.0)
    assert np.allclose(growth.values, 0.0)
    assert hint == criteria.OUTCOME_NOT_COMPACT


def test_ismagilov_band_measure():
    # area of |x - t| < 1/2 in the unit square: 1 - (1/2)^2 = 3/4
    s = sl.from_poly((0.0, 1.0), 1.0)
    m = sl.ismagilov_measure(s, sl.Interval(0.0, 1.0), 0.5, n=256)
    assert m == pytest.approx(0.75, abs=5e-3)


def test_ismagilov_constant_and_full_band():
    s = sl.offset(sl.zero(1.0), 2.0)
    assert sl.ismagilov_measure(s, sl.Interval(0, 1), 0.1, n=64) == pytest.approx(1.0)
    lin = sl.from_poly((0.0, 1.0), 1.0)
    assert sl.ismagilov_measure(lin, sl.Interval(0, 1), 2.0, n=64) == pytest.approx(1.0)


def test_sector_fit_examples():
    par = sl.from_poly((0.0, 0.0, 0.5), 8.0)
    sec = sl.sector_fit(par, 1.0)
    assert sec is not None and sec.vertex == 0 and sec.opening == pytest.approx(0.0)
    ray = sl.from_poly((0.0, 1.0 + 1.0j), 8.0)
    sec2 = sl.sector_fit(ray, 1.0)
    assert sec2.alpha == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert sec2.beta == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_sector_fit_oscillation_none():
    phases = [complex(math.cos(3 * k), math.sin(3 * k)) for k in range(16)]
    osc = sl.Antiderivative(4.0, tuple(np.linspace(0, 4, 17)),
                            tuple((sl.PolyTerm((p,)),) for p in phases))
    assert sl.sector_fit(osc, 1.0) is None


def test_sector_fit_pair_functions():
    # f compensates the later point: arg(s(x) + f(x) - s(t)) with f = -s
    s = sl.from_poly((0.0, 1.0j), 4.0)
    f = sl.scale(s, -1.0)
    sec = sl.sector_fit(s, 1.0, f=f, g=None)
    # differences become -s(t) = -i t: the ray arg = -pi/2
    assert sec is not None
    assert sec.alpha == pytest.approx(-math.pi / 2.0, abs=1e-9)


def test_brasche_examples():
    assert sl.brasche_check(sl.delta_sum([0.5], [-1.0], 1.0)) == pytest.approx(1.0)
    assert sl.brasche_check(sl.delta_sum([0.3, 0.6], [-1.0, -1.0], 1.0)) == pytest.approx(2.0)
    assert sl.brasche_check(sl.delta_sum([0.5], [5.0], 1.0)) == pytest.approx(0.0)


def test_brasche_smooth_decrease():
    s = sl.from_poly((0.0, -1.0), 2.0)
    assert sl.brasche_check(s) == pytest.approx(1.0, abs=1e-9)


def test_brasche_complex_rejected():
    with pytest.raises(UnsupportedInputError):
        sl.brasche_check(sl.from_poly((1.0j,), 2.0))


def test_decompose_unif_linear():
    dec = sl.decompose_unif(sl.from_poly((0.0, 1.0), 2.0))
    assert dec.step_values[0] == pytest.approx(0.5, abs=1e-11)
    assert dec.step_values[1] == pytest.approx(1.5, abs=1e-11)
    assert dec.sigma1_sup_sq == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_decompose_unif_constant_and_step():
    dec = sl.decompose_unif(sl.offset(sl.zero(2.0), 4.0))
    assert np.allclose(dec.step_values, 4.0)
    assert dec.sigma1_sup_sq == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(dec.tau_values, 0.0)
    dec2 = sl.decompose_unif(sl.delta_sum([1.5], [1.0], 2.0))
    assert dec2.step_values[0] == pytest.approx(0.0, abs=1e-12)
    assert dec2.step_values[1] == pytest.approx(0.5, abs=1e-11)
    assert dec2.sigma1_sup_sq == pytest.approx(0.25, abs=1e-10)


def test_decompose_unif_reconstruction():
    rng = np.random.default_rng(5)
    s = sampling.random_antiderivative(rng, domain_end=4.0, jumps=2)
    dec = sl.decompose_unif(s)
    xs = np.linspace(0.05, 3.95, 37)
    assert np.allclose(dec.sigma1(xs) + dec.gamma_step(xs), s.values(xs),
                       atol=1e-12)
    nodes = np.arange(0.0, 4.0)
    assert np.allclose(dec.sigma2(nodes) + dec.beta(nodes), s.values(nodes),
                       atol=1e-12)


def test_decompose_needs_two_cells():
    with pytest.raises(DomainError):
        sl.decompose_unif(sl.zero(1.5))


def test_homogeneity_of_window_functionals():
    rng = np.random.default_rng(9)
    s = sampling.random_antiderivative(rng)
    win = sampling.random_window(rng, s)
    k = 3.7
    ks = sl.scale(s, k)
    _c1, dev1, dbl1 = sl.window_deviation(s, win.a, win.length)
    _c2, dev2, dbl2 = sl.window_deviation(ks, win.a, win.length)
    assert dev2 == pytest.approx(k ** 2 * dev1, rel=1e-9)
    assert dbl2 == pytest.approx(k ** 2 * dbl1, rel=1e-9)
    sec1 = sl.sector_fit(s, 0.5)
    sec2 = sl.sector_fit(ks, 0.5)
    if sec1 is not None:
        assert sec2 is not None
        assert sec2.alpha == pytest.approx(sec1.alpha, abs=1e-9)
        assert sec2.beta == pytest.approx(sec1.beta, abs=1e-9)
    A = 0.8
    m1 = sl.ismagilov_measure(s, sl.Interval(win.a, win.b), A / k, n=64)
    m2 = sl.ismagilov_measure(ks, sl.Interval(win.a, win.b), A, n=64)
    assert m2 == pytest.approx(m1, abs=1e-12)


def test_classify_triple():
    lin = sl.from_poly((0.0, 1.0), 12.0)
    par = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    iml = sl.from_poly((0.0, 1.0j), 12.0)
    assert sl.classify(lin).outcome == criteria.OUTCOME_NOT_COMPACT
    assert sl.classify(par).outcome == criteria.OUTCOME_COMPACT
    assert sl.classify(iml).outcome == criteria.OUTCOME_NOT_COMPACT


def test_classify_is_deterministic():
    s = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    v1 = sl.classify(s)
    v2 = sl.classify(s)
    assert v1.to_dict() == v2.to_dict()


def test_classify_perturbation_rule():
    base = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    wig = sl.delta_sum([3.3, 5.7], [0.4, -0.3], 12.0)
    s = sl.add(base, wig)
    v = sl.classify(s, criteria.ClassifyConfig(base=(base, 0.5)))
    assert v.outcome == criteria.OUTCOME_COMPACT
    rules = {e.rule for e in v.evidence}
    assert "perturbation" in rules


def test_classify_pair_function_compensation():
    # drifting imaginary parabola plus a bounded complex oscillation: the
    # pair functions f = g = -w recover the clean ray hull and the verdict
    rng = np.random.default_rng(99)
    X = 12.0
    cells = np.linspace(0.0, X, 49)
    phases = 3.0 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 48))
    w = sl.Antiderivative(X, tuple(cells),
                          tuple((sl.PolyTerm((p,)),) for p in phases))
    s = sl.add(sl.from_poly((0.0, 0.0, 0.5j), X), w)
    neg_w = sl.scale(w, -1.0)
    pair = sl.sector_fit(s, 1.0, f=neg_w, g=neg_w)
    assert pair is not None
    assert pair.alpha == pytest.approx(math.pi / 2.0, abs=1e-9)
    v = sl.classify(s, criteria.ClassifyConfig(f=neg_w, g=neg_w))
    assert v.outcome == criteria.OUTCOME_COMPACT


def test_classify_rule_iii_branch(monkeypatch):
    # when the difference-sector route stays silent, a pair-function sector
    # plus a diverging scan must still conclude compactness
    s = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    quiet = criteria.WindowSeries(1.0, np.asarray([0.0, 0.25]),
                                  np.asarray([1.0, 1.0]))
    monkeypatch.setattr(criteria, "brinck",
                        lambda *a, **k: (None, quiet, None))
    v = criteria.classify(s)
    assert v.outcome == criteria.OUTCOME_COMPACT
    by_rule = {e.rule: e.values for e in v.evidence}
    assert by_rule["sector_fit"]["sector"]["found"]
    assert not by_rule["scan_necessary"]["refuted"]


def test_verdict_consistency_invariant():
    # CompactResolvent requires a fired sufficient rule and no refutation
    for s in (sl.from_poly((0.0, 1.0), 12.0),
              sl.from_poly((0.0, 0.0, 0.5), 12.0),
              sl.from_poly((0.0, 1.0j), 12.0)):
        v = sl.classify(s)
        by_rule = {e.rule: e.values for e in v.evidence}
        if v.outcome == criteria.OUTCOME_COMPACT:
            assert not by_rule["scan_necessary"]["refuted"]
            assert (by_rule["brinck"]["hint"] == criteria.OUTCOME_COMPACT
                    or by_rule["sector_fit"]["sector"]["found"])


def test_classify_perturbation_windows_clip_to_domain():
    # X - 1 is a hair below the half-step origin 2.0: the last unit window
    # must be clipped to [X - 1, X] instead of running past the domain end
    X = 3.0 - 1e-13
    base = sl.from_poly((0.0, 0.0, 0.5), X)
    s = sl.add(base, sl.delta_sum([1.3], [0.2], X))
    v = sl.classify(s, criteria.ClassifyConfig(base=(base, 0.1)))
    assert "perturbation" in {e.rule for e in v.evidence}
    series, _ = criteria.scan_necessary(s, 1.0)
    assert series.origins[-1] == X - 1.0


# -- the all-windows pass ------------------------------------------------------------

#: inputs of the window oracles: random complex cubics with jumps, Miura, s1, s2
ORACLE_KINDS = ("random0", "random1", "random2", "miura0", "miura1", "s1", "s2")


def _origins_loop(end, a, step):
    origins = []
    t = 0.0
    while t <= end - a + 1e-12:
        origins.append(min(t, end - a))
        t += step
    return np.asarray(origins)


def test_origins_match_stepping_loop():
    for end, a, step in ((12.0, 1.0, 0.5), (7.3, 0.3, 0.15), (10.0, 0.7, 0.175),
                         (3.0 - 1e-13, 1.0, 0.5), (1.0, 1.0, 0.5), (0.5, 1.0, 0.5)):
        assert np.array_equal(criteria._origins(end, a, step), _origins_loop(end, a, step))


def test_window_deviations_match_one_window_calls(corpus):
    for name, s in corpus:
        if name not in ORACLE_KINDS:
            continue
        origins = criteria._origins(s.domain_end, 1.0, 0.5)
        c_min, dev, dbl = criteria.window_deviations(s, origins, 1.0)
        for x, c, v, d in zip(origins, c_min, dev, dbl):
            one = sl.window_deviation(s, x, 1.0)
            assert abs(one[0] - c) <= 1e-12 * max(abs(c), 1.0), (name, x)
            assert abs(one[1] - v) <= 1e-12 * max(abs(v), 1.0), (name, x)
            assert abs(one[2] - d) <= 1e-12 * max(abs(d), 1.0), (name, x)


def test_every_scan_window_matches_bruteforce(corpus):
    for name, s in corpus:
        if name not in ORACLE_KINDS:
            continue
        series, _ = criteria.scan_necessary(s, 1.0)
        for x, value in series.rows():
            brute = sl.dbl_bruteforce(s, x, 1.0, n=32)
            assert abs(value - brute) <= 1e-8 * max(abs(brute), 1.0), (name, x)


def test_far_s2_windows_match_bruteforce():
    # s2 --blocks 3 (the schedule `generate --kind s2 --blocks 3` picks): near
    # X = 3444 the windows' mean is about 5.9e6, which the cancelling identity
    # q2 - |m0|^2 / a turned into misses of 1.48e-8; the oracle's n=64 and
    # n=128 agree to 1e-12 there
    s = sl.build_counterexample("s2", theta=0.5, schedule=[
        (11, 4.0, 11.656407248729467), (198, 8.0, 198.73717433665527),
        (3442, 16.0, 3442.349556757122)])
    origins = np.arange(3400.0, 3443.0, 0.5)
    c_min, _dev, dbl = criteria.window_deviations(s, origins, 1.0)
    assert np.abs(c_min).max() > 5e6
    for x, value in zip(origins, dbl):
        brute = sl.dbl_bruteforce(s, x, 1.0, n=64)
        assert abs(value - brute) <= 1e-10 * max(abs(brute), 1.0), x


def test_decomposition_and_perturbation_use_all_windows(corpus):
    s = dict(corpus)["random0"]
    dec = criteria.decompose_unif(s)
    for l, c in enumerate(dec.step_values):
        assert c == sl.moments(s, sl.Interval(float(l), l + 1.0)).m0
    base = sl.from_poly((0.0, 0.0, 0.5), s.domain_end)
    v = sl.classify(sl.add(base, s), criteria.ClassifyConfig(base=(base, 0.1)))
    assert "perturbation" in {e.rule for e in v.evidence}


# -- streamed sector fits ------------------------------------------------------------


def _difference_cloud(s, d, extra=None, extra_t=None, step=None):
    """The whole difference cloud in one array, as the fits once built it."""
    step = step if step is not None else d / 64.0
    breaks = set(s.breakpoints)
    for other in (extra, extra_t):
        if other is not None:
            breaks.update(other.breakpoints)
    n_cells = max(8, int(math.ceil(s.domain_end / step)))
    grid, _w = quadrature.midpoint_cells(0.0, s.domain_end, sorted(breaks), n_cells)
    v_late = s.values(grid) + (extra.values(grid) if extra is not None else 0.0)
    v_early = s.values(grid) + (extra_t.values(grid) if extra_t is not None else 0.0)
    diffs = [v_late - v_early]
    for lag in range(1, grid.size):
        gaps = grid[lag:] - grid[:-lag]
        inside = gaps <= d + 1e-12
        if not np.any(inside):
            break
        diffs.append((v_late[lag:] - v_early[:-lag])[inside])
    return np.concatenate(diffs)


@pytest.mark.parametrize("chunk", [1 << 16, 1000])
def test_streamed_fits_equal_whole_cloud_fits(corpus, monkeypatch, chunk):
    monkeypatch.setattr(criteria, "CLOUD_CHUNK", chunk)
    trio = [("x", sl.from_poly((0.3, 1.0), 12.0)), ("x2", sl.from_poly((0.0, 0.0, 0.5), 12.0)),
            ("ix", sl.from_poly((-1.5, 1.0j), 12.0))]
    f = sl.from_poly((0.0, 0.25j), 6.0)
    g = sl.delta_sum([1.5], [0.5], 6.0)
    for name, s in list(corpus) + trio:
        for d in (1.0, 0.4):
            cloud = _difference_cloud(s, d)
            assert np.array_equal(np.concatenate(list(criteria.DifferenceCloud(s, d))), cloud)
            assert criteria.brinck(s, d)[0] == sectors.fit_sector(
                cloud, require_strict_args=True, translate_vertex=True), (name, d)
            assert criteria.sector_fit(s, d) == sectors.fit_sector(
                cloud, require_strict_args=True, translate_vertex=False), (name, d)
        if s.domain_end == 6.0:
            cloud = _difference_cloud(s, 1.0, extra=f, extra_t=g, step=0.05)
            assert criteria.sector_fit(s, 1.0, f=f, g=g, step=0.05) == sectors.fit_sector(
                cloud, require_strict_args=True, translate_vertex=False), name


def test_cloud_takes_every_pair_within_d_on_dense_breakpoints():
    # breakpoints every 0.1 (or 60 random ones on [0, 4]) split the d/64 cells,
    # so more than floor(d/step) + 2 cells fall within d of a point: the
    # cloud must still hold every grid pair with g_j - g_i <= d, ordered by
    # lag, then by the earlier point
    rng = np.random.default_rng(7)
    spaced = [k / 10.0 for k in range(1, 120)]
    scattered = np.sort(rng.uniform(0.0, 4.0, 60)).tolist()
    for s in (sl.delta_sum(spaced, rng.normal(size=119) + 1j * rng.normal(size=119), 12.0),
              sl.delta_sum(scattered, rng.normal(size=60) + 1j * rng.normal(size=60), 4.0)):
        for d in (1.0, 0.5):
            n_cells = max(8, int(math.ceil(s.domain_end / (d / 64.0))))
            grid, _w = quadrature.midpoint_cells(0.0, s.domain_end, s.breakpoints, n_cells)
            v = s.values(grid)
            early, late = np.nonzero(grid[None, :] - grid[:, None] <= d + 1e-12)
            keep = late >= early
            early, late = early[keep], late[keep]
            order = np.lexsort((early, late - early))
            pairs = v[late[order]] - v[early[order]]
            assert np.array_equal(np.concatenate(list(criteria.DifferenceCloud(s, d))), pairs)
