"""Unit tests for the exact piecewise antiderivative models."""

import bisect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import slcrit as sl
from slcrit import potential, quadrature, sampling
from slcrit.errors import (DomainError, NumericError, UnsupportedInputError,
                           ValidationError)
from slcrit.potential import PolyTerm, RecipTerm


def test_eval_identity_piece():
    s = sl.from_poly((0.0, 1.0), 1.0)
    assert s(0.25) == pytest.approx(0.25)


def test_eval_right_continuous_at_jump():
    s = sl.delta_sum([0.5], [1.0], 1.0)
    assert s(0.5) == pytest.approx(1.0)
    assert s(0.4999) == pytest.approx(0.0)
    assert left_limit(s, 0.5) == pytest.approx(0.0)
    # left limit differs from the value by exactly the jump offset
    assert s(0.5) - left_limit(s, 0.5) == pytest.approx(1.0)


def test_eval_reciprocal_piece():
    # 1/x on [0.1, 0.5]: direct arithmetic 1/0.2 = 5
    s = sl.Antiderivative(0.5, (0.0, 0.1, 0.5), ((), (sl.RecipTerm(1.0, 0.0),)))
    assert s(0.2) == pytest.approx(5.0)


def test_eval_outside_domain_raises():
    s = sl.zero(1.0)
    with pytest.raises(DomainError):
        s(1.5)
    with pytest.raises(DomainError):
        s(-0.1)


def test_pole_inside_subinterval_rejected():
    with pytest.raises(ValidationError):
        sl.Antiderivative(1.0, (0.0, 1.0), ((sl.RecipTerm(1.0, 0.5),),))


def test_jump_must_sit_on_breakpoint():
    with pytest.raises(ValidationError):
        sl.Antiderivative(1.0, (0.0, 1.0), ((),), ((0.5, 1.0),))


def test_moments_linear_closed_form():
    # s(xi) = xi on [0,1]: int = 1/2, int |s|^2 = 1/3
    s = sl.from_poly((0.0, 1.0), 1.0)
    m = sl.moments(s, sl.Interval(0.0, 1.0))
    assert m.m0 == pytest.approx(0.5, abs=1e-12)
    assert m.q2 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_moments_step_closed_form():
    s = sl.delta_sum([0.5], [1.0], 1.0)
    m = sl.moments(s, sl.Interval(0.0, 1.0))
    assert m.m0 == pytest.approx(0.5, abs=1e-12)
    assert m.q2 == pytest.approx(0.5, abs=1e-12)


def test_moments_zero():
    m = sl.moments(sl.zero(2.0), sl.Interval(0.0, 2.0))
    assert m.m0 == 0 and m.q2 == 0


def test_moment_additivity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        s = sampling.random_antiderivative(rng)
        win = sampling.random_window(rng, s)
        cut = rng.uniform(win.a + 0.05, win.b - 0.05)
        whole = sl.moments(s, win)
        left = sl.moments(s, sl.Interval(win.a, cut))
        right = sl.moments(s, sl.Interval(cut, win.b))
        scale = max(1.0, abs(whole.m0), whole.q2)
        assert abs(whole.m0 - left.m0 - right.m0) <= 1e-9 * scale
        assert abs(whole.q2 - left.q2 - right.q2) <= 1e-9 * scale


def test_delta_sum_examples():
    s = sl.delta_sum([1.0, 2.0], [1.0, -1.0], 3.0)
    assert s(1.5) == pytest.approx(1.0)
    assert s(2.5) == pytest.approx(0.0)
    s2 = sl.delta_sum([0.5], [2.0 + 1.0j], 1.0)
    assert s2(0.75) == pytest.approx(2.0 + 1.0j)


def test_delta_sum_validation():
    with pytest.raises(ValidationError):
        sl.delta_sum([0.5, 0.5], [1.0, 1.0], 1.0)
    with pytest.raises(ValidationError):
        sl.delta_sum([0.8, 0.2], [1.0, 1.0], 1.0)


def test_miura_constant_gamma():
    # gamma == 1, b = 0: int 1^2 dt = x, so s = 1 + x
    s = sl.miura(sl.from_poly((1.0,), 2.0), 0.0)
    xs = np.linspace(0.0, 2.0, 9)
    assert np.allclose(s.values(xs), 1.0 + xs)


def test_miura_reciprocal_collapses_to_constant():
    # gamma = 1/(x+1): 1/(x+1) + (1 - 1/(x+1)) = 1
    gamma = sl.Antiderivative(1.0, (0.0, 1.0), ((sl.RecipTerm(1.0, -1.0),),))
    s = sl.miura(gamma, 0.0)
    assert len(s.pieces) == 1 and len(s.pieces[0]) == 1
    assert np.allclose(s.values(np.linspace(0, 1, 7)), 1.0)


def test_miura_pure_slope():
    s = sl.miura(sl.zero(3.0), 1.0)
    assert s(2.0) == pytest.approx(2.0)


def test_miura_rejects_mixed_terms():
    gamma = sl.Antiderivative(1.0, (0.0, 1.0),
                              ((sl.PolyTerm((1.0,)), sl.RecipTerm(1.0, -1.0)),))
    with pytest.raises(UnsupportedInputError):
        sl.miura(gamma, 0.0)


def test_miura_rejects_high_degree_and_complex():
    quad = sl.from_poly((0.0, 0.0, 1.0), 1.0)
    with pytest.raises(UnsupportedInputError):
        sl.miura(quad, 0.0)
    cplx = sl.from_poly((1.0j,), 1.0)
    with pytest.raises(ValidationError):
        sl.miura(cplx, 0.0)


def test_miura_integral_part_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        gamma = sampling.random_gamma(rng)
        s = sl.miura(gamma, 0.0)
        rest = sl.subtract(s, gamma)  # the running integral of gamma^2
        xs = np.linspace(0.0, gamma.domain_end, 129)
        vals = rest.values(xs).real
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-10)


def test_vh_profile_values():
    v, gamma = sl.vh_profile(10.0)
    # substitute x = 1/2: 0.47 + 10 = 10.47
    assert v.values(0.5) == pytest.approx(10.47)
    assert gamma(0.05) == pytest.approx(10.0)
    # spike slope energy (h/delta)^2 * delta = h^4/3
    slope = (v.values(0.5) - v.values(0.47)) / 0.03
    assert slope ** 2 * 0.03 == pytest.approx(1e4 / 3.0, rel=1e-12)


def test_vh_profile_symmetry_and_oddness():
    v, gamma = sl.vh_profile(7.0)
    xs = np.linspace(0.01, 0.49, 41)
    assert np.allclose(v.values(xs), v.values(1.0 - xs))
    assert v.values(0.0) == 0.0 and v.values(1.0) == 0.0
    # odd about 1/2 away from the breakpoints
    assert np.allclose(gamma.values(xs), -gamma.values(1.0 - xs), atol=1e-10)


def test_vh_profile_parameter_error():
    with pytest.raises(ValidationError):
        sl.vh_profile(3.6)  # below 1 + sqrt(7)


def test_counterexample_s1_prefix():
    s = sl.build_counterexample("s1", blocks=1)
    xs = np.linspace(0.0, 4.0, 17)
    assert np.allclose(s.values(xs), xs ** 2 / 2.0)
    assert s.domain_end == pytest.approx(7.0)


def test_counterexample_s2_scaling_factor():
    # 1/(1-theta)^{1/3} at theta = 0.5
    assert 1.0 / (1.0 - 0.5) ** (1.0 / 3.0) == pytest.approx(1.259921049894873)


def test_counterexample_s2_empty_schedule_staircase():
    s = sl.build_counterexample("s2", theta=0.5, schedule=[], domain_end=5.0)
    # S'(x) = l-1 on (l-1, l): S(1.5) = 0 + 1*0.5, S(3.25) = 0+1+2 + 3*0.25
    assert s(1.5) == pytest.approx(0.5)
    assert s(3.25) == pytest.approx(3.75)


def test_counterexample_s2_validation():
    with pytest.raises(ValidationError):
        sl.build_counterexample("s2", theta=0.5, schedule=[(5, 10.0, 7.0)])
    with pytest.raises(ValidationError):
        sl.build_counterexample("s2", theta=0.5,
                                schedule=[(5, 10.0, 4.5), (7, 10.0, 6.5)])
    with pytest.raises(ValidationError):
        sl.build_counterexample("s2", theta=1.5, schedule=[])


def test_json_round_trip_preserves_values():
    rng = np.random.default_rng(11)
    s = sampling.random_antiderivative(rng, jumps=3)
    doc = json.loads(json.dumps(potential.to_dict(s)))
    back = potential.from_dict(doc)
    xs = np.linspace(0.0, s.domain_end, 301)
    assert np.array_equal(s.values(xs), back.values(xs))
    assert back.breakpoints == s.breakpoints


def test_scale_add_offset():
    s = sl.from_poly((0.0, 1.0), 2.0)
    t = sl.add(sl.scale(s, 2.0), sl.offset(sl.zero(2.0), 1.0))
    xs = np.linspace(0, 2, 9)
    assert np.allclose(t.values(xs), 2.0 * xs + 1.0)
    d = sl.subtract(t, t)
    assert np.allclose(d.values(xs), 0.0)


def _probes(*models):
    """Every breakpoint of the models, the float just left of each, and the
    midpoint of every piece between them."""
    bp = np.unique(np.concatenate([m.breakpoints for m in models]))
    return np.concatenate([bp, np.nextafter(bp[1:], -np.inf), 0.5 * (bp[:-1] + bp[1:])])


@pytest.mark.parametrize("X, g", [(12.0, 5e-12), (3444.0, 1e-9), (2e5, 1e-8)])
def test_sums_of_close_deltas_equal_the_sums_of_their_parts(X, g):
    # two deltas g apart: every sum keeps both breakpoints and both jumps
    s = sl.delta_sum([X / 2, X / 2 + g], [1.0, -1.0], X)
    half = sl.scale(s, 0.5)
    x = _probes(s)
    for total, parts in ((sl.add(s, sl.zero(X)), s.values(x) + sl.zero(X).values(x)),
                         (sl.offset(s, 1.0), s.values(x) + 1.0),
                         (sl.subtract(s, half), s.values(x) - half.values(x))):
        assert total.breakpoints == s.breakpoints
        assert np.array_equal(total.values(x), parts)


def test_a_step_plus_a_breakpoint_a_sliver_away_sums_on_the_sliver():
    step = sl.Antiderivative(2.0, (0.0, 1.0, 2.0), ((PolyTerm((0.0,)),), (PolyTerm((10.0,)),)))
    line = sl.Antiderivative(2.0, (0.0, 1.0 + 5e-13, 2.0),
                             ((PolyTerm((0.0, 1.0)),), (PolyTerm((0.0, 1.0)),)))
    total = sl.add(step, line)
    x = _probes(step, line)
    assert np.array_equal(total.values(x), step.values(x) + line.values(x))
    assert total(1.0 + 2e-13) == 10.0 + (1.0 + 2e-13)


def test_offset_keeps_a_sliver_first_piece():
    # s drops by 5 at 1e-13: a delta of strength -5 at the sliver's end
    s = sl.Antiderivative(1.0, (0.0, 1e-13, 1.0), ((PolyTerm((5.0,)),), ()))
    t = sl.offset(s, 1.0)
    assert t.breakpoints == s.breakpoints
    x = _probes(s)
    assert np.array_equal(t.values(x), s.values(x) + 1.0)
    assert t(5e-14) == 6.0 and t(1e-13) == 1.0


def test_add_refuses_domains_a_rounding_apart():
    with pytest.raises(ValidationError, match="share domain_end"):
        sl.add(sl.zero(12.0), sl.zero(12.0 + 1e-12))


def test_a_domain_a_sliver_short_of_the_last_block_truncates_it():
    with pytest.raises(ValidationError, match="truncates a block"):
        sl.build_counterexample("s1", blocks=1, domain_end=6.0 - 1e-13)


def test_restrict():
    s = sl.delta_sum([0.5, 1.5], [1.0, 1.0], 2.0)
    r = sl.restrict(s, 1.0)
    assert r.domain_end == 1.0
    assert len(r.jumps) == 1
    assert r(0.75) == pytest.approx(1.0)


def _pole_at_zero(mid):
    """The pole slots of an integrand with one pole, at 0, on every panel."""
    return np.zeros((1, mid.size))


def test_adaptive_quadrature_near_pole():
    # sharp reciprocal, cells graded toward its pole: int_{0.1}^{1} x^-2 dx = 9
    val = quadrature.integrate(lambda x: x ** -2.0, 0.1, 1.0, poles=_pole_at_zero)
    assert val.real == pytest.approx(9.0, rel=1e-10)


# -- packed evaluation against the term-by-term sum --------------------------


def left_limit(s, x):
    """Limit of s from the left at x, through the packed piece table."""
    k = int(np.searchsorted(s.breakpoints, x, side="left")) - 1
    k = min(max(k, 0), len(s.pieces) - 1)
    val = complex(s._pieces_at(np.asarray([float(x)]), np.asarray([k]))[0])
    nj = int(np.searchsorted(s._jump_locs, x, side="left"))
    return val + complex(s._jump_cum[nj])


def _term_sum(s, x, side="right"):
    """s at x by a loop over pieces and terms, plus the cumulative jumps.

    ``side="left"`` gives the left limits, as ``left_limit`` does.
    """
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(np.asarray(s.breakpoints), x, side=side) - 1,
                  0, len(s.pieces) - 1)
    out = np.zeros(x.size, dtype=complex)
    for k in np.unique(idx):
        sel = idx == k
        acc = np.zeros(int(sel.sum()), dtype=complex)
        for term in s.pieces[k]:
            acc += term.values(x[sel])
        out[sel] = acc
    cum = np.concatenate([[0j], np.cumsum([off for _at, off in s.jumps])])
    return out + cum[np.searchsorted([at for at, _off in s.jumps], x, side=side)]


def test_packed_values_equal_term_sum(corpus):
    rng = np.random.default_rng(5)
    for name, s in corpus:
        bp = np.asarray(s.breakpoints)
        xs = np.concatenate([bp, np.nextafter(bp[1:], 0.0), [at for at, _ in s.jumps],
                             rng.uniform(0.0, s.domain_end, 500),
                             np.linspace(0.0, s.domain_end, 257)])
        assert np.array_equal(s.values(xs), _term_sum(s, xs)), name
        assert s.values(xs.reshape(-1, 1)).shape == (xs.size, 1)
        inner = bp[1:]
        assert np.array_equal([left_limit(s, t) for t in inner],
                              _term_sum(s, inner, side="left")), name


def test_packed_values_equal_term_sum_on_profiles():
    for h in (3.7, 10.0, 100.0, 1000.0):
        _v, gamma = sl.vh_profile(h)
        xs = np.concatenate([gamma.breakpoints, np.linspace(0.0, 1.0, 1001)])
        assert np.array_equal(gamma.values(xs), _term_sum(gamma, xs))


def test_pieces_normalised_to_one_leading_polynomial():
    piece = (RecipTerm(1.0, -1.0), PolyTerm((1.0, 2.0)), RecipTerm(2.0, 3.0),
             PolyTerm((0.5, 0.0, 1.0j)))
    s = sl.Antiderivative(2.0, (0.0, 2.0), (piece,))
    assert s.pieces[0] == (PolyTerm((1.5, 2.0, 1.0j)), RecipTerm(1.0, -1.0),
                           RecipTerm(2.0, 3.0))
    xs = np.linspace(0.0, 2.0, 9)
    want = 1.5 + 2.0 * xs + 1.0j * xs ** 2 + 1.0 / (xs + 1.0) + 2.0 / (xs - 3.0)
    assert np.allclose(s.values(xs), want, rtol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(ValidationError):
        PolyTerm((1.0, bad))
    with pytest.raises(ValidationError):
        PolyTerm((complex(0.0, bad),))
    with pytest.raises(ValidationError):
        RecipTerm(bad, 2.0)
    with pytest.raises(ValidationError):
        RecipTerm(1.0, bad)
    with pytest.raises(ValidationError):
        sl.Antiderivative(bad, (0.0, 1.0), ((),))
    with pytest.raises(ValidationError):
        sl.Antiderivative(2.0, (0.0, bad, 2.0), ((), ()))
    with pytest.raises(ValidationError):
        sl.Antiderivative(2.0, (0.0, 1.0, 2.0), ((), ()), ((1.0, bad),))
    with pytest.raises(ValidationError):
        sl.Antiderivative(2.0, (0.0, 1.0, 2.0), ((), ()), ((bad, 1.0),))


def test_non_finite_constants_in_documents_rejected(tmp_path):
    doc = potential.to_dict(sl.from_poly((0.0, 1.0), 2.0))
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"domain_end": 2.0',
                                                f'"domain_end": {token}'))
        with pytest.raises(ValidationError, match=token):
            potential.load(path)
    # a literal too large for a double parses to inf and is caught by the terms
    doc["pieces"][0][0]["re"][1] = 1e400
    with pytest.raises(ValidationError):
        potential.from_dict(doc)


def test_values_reject_nan_abscissae():
    s = sl.from_poly((0.0, 1.0), 2.0)
    with pytest.raises(DomainError):
        s.values(np.asarray([0.5, math.nan]))
    assert s.values(np.asarray([])).shape == (0,)


# -- the adaptive loop over many windows -----------------------------------------


def _kept_edges(a, b, breakpoints):
    """Edges of the window [a, b]: a, every distinct breakpoint strictly
    inside, b."""
    return [a] + sorted({t for t in breakpoints if a < t < b}) + [b]


def test_window_edges_keep_breakpoints_clear_of_the_floor(corpus):
    rng = np.random.default_rng(8)
    for name, s in corpus:
        starts = np.concatenate([rng.uniform(0.0, s.domain_end - 1.0, 40),
                                 np.asarray(s.breakpoints[:-1])])
        ends = np.minimum(starts + rng.uniform(0.05, 1.0, starts.size), s.domain_end)
        edges, first = quadrature.window_edges(starts, ends, s.breakpoints)
        runs = np.split(edges, first[1:])
        for a, b, run in zip(starts, ends, runs):
            assert run.tolist() == _kept_edges(a, b, s.breakpoints), name
    # breakpoints packed closer than 1e-14, unsorted and repeated for
    # split_panels: every one strictly inside is kept, once
    for bp in ([0.5, 0.5 + 1e-16, 1.0 - 1e-16], [1e-16, 0.25, 0.25],
               [0.5 + 1.2e-14, 0.5, 0.5 + 0.6e-14, 0.5 + 1.8e-14]):
        edges = quadrature.split_panels(0.0, 1.0, bp)
        assert edges.tolist() == _kept_edges(0.0, 1.0, bp)
        assert np.diff(edges).min() > 0.0


def _grid_nodes(a, b, n, breakpoints):
    """quadrature.grid by its rule, one node at a time."""
    floor = 1e-6 * ((b - a) / n)
    cells = [a] + [(a * n + j * (b - a)) / n for j in range(1, n)] + [b]
    kept = {t for t in breakpoints
            if a < t < b and all(abs(t - c) >= floor for c in cells)}
    return sorted(cells + list(kept))


def test_grid_keeps_the_cell_nodes_and_every_breakpoint_clear_of_them(corpus):
    cases = [(0.0, 1.0, 8, [1e-9, 0.5, 0.5 + 1e-9, 0.6, 1.0 - 1e-9]),
             (0.0, 1.0, 8, [0.125 + 1e-9, 0.25 - 1e-8, 0.375 + 1e-3, 0.625]),
             (0.5, 1.5, 128, [0.0, 0.5, 0.500000001, 3.0])]
    rng = np.random.default_rng(9)
    for _name, s in corpus:
        a = rng.uniform(0.0, s.domain_end - 1.0)
        cases.append((a, a + 1.0, int(rng.integers(8, 200)), s.breakpoints))
    for a, b, n, bp in cases:
        nodes = quadrature.grid(a, b, n, bp)
        assert nodes.tolist() == _grid_nodes(a, b, n, bp)
        assert nodes[0] == a and nodes[-1] == b
        assert np.all(np.diff(nodes) > 0)


@pytest.mark.parametrize("batch", [quadrature.BATCH_PANELS, 5, 1])
def test_all_windows_pass_equals_separate_calls(corpus, monkeypatch, batch):
    # windows of mixed lengths, shuffled and repeated, graded cells among
    # them, windows that end or start on a jump and the whole domain: each
    # window's three moments are bitwise its own, in any batch, in a pass of
    # its model alone and in one pass over the windows of every model
    monkeypatch.setattr(quadrature, "BATCH_PANELS", batch)
    rng = np.random.default_rng(12)
    models, windows, own = [], [], []
    for name, s in corpus:
        X = s.domain_end
        at = np.asarray([j[0] for j in s.jumps])
        regular = np.arange(0.0, X - 0.75, 0.375)
        drawn = rng.uniform(0.0, 0.6 * X, 10)
        starts = np.concatenate([regular, [0.0], np.maximum(at - 0.5, 0.0), at, drawn])
        ends = np.concatenate([regular + 0.75, [X], at, np.minimum(at + 0.5, X),
                               np.minimum(drawn + rng.uniform(0.01, 0.4 * X, 10), X)])
        order = np.concatenate([rng.permutation(starts.size), rng.integers(0, starts.size, 5)])
        m0, q2, dev = potential.window_moments(s, starts[order], ends[order])
        for i, k in enumerate(order):
            one = sl.moments(s, sl.Interval(starts[k], ends[k]))
            assert (one.m0, one.q2, one.dev) == (m0[i], q2[i], dev[i]), (name, starts[k])
            models.append(s)
            windows.append((starts[k], ends[k]))
            own.append((one.m0, one.q2, one.dev))
    mix = np.concatenate([rng.permutation(len(models)), rng.integers(0, len(models), 20)])
    starts, ends = np.asarray(windows)[mix].T
    m0, q2, dev = potential.window_moments([models[i] for i in mix], starts, ends)
    assert list(zip(m0, q2, dev)) == [own[i] for i in mix]


def test_a_window_outside_its_own_model_is_refused(corpus):
    # the window lies inside the larger model's domain, not its own
    big, small = dict(corpus)["s2"], dict(corpus)["delta"]
    assert big.domain_end > small.domain_end + 1.0
    with pytest.raises(DomainError, match=r"window \[2.5, 3.5\] outside \[0, 3.0\]"):
        potential.window_moments([big, small], [2.5, 2.5], [3.5, 3.5])
    with pytest.raises(ValidationError, match="1 models for 2 windows"):
        potential.window_moments([big], [0.0, 1.0], [1.0, 2.0])


def test_keyed_window_edges_equal_each_window_on_its_own_breakpoints():
    # keys w + 1j x keep each window to its own run, even where another
    # run's breakpoints lie inside it or coincide with its ends
    rng = np.random.default_rng(3)
    runs = [np.sort(rng.choice(np.arange(1.0, 12.0), n, replace=False)) for n in (0, 1, 2, 5, 9, 11)]
    keys = np.concatenate([w + 1j * r for w, r in enumerate(runs)])
    owner = rng.integers(0, len(runs), 200)
    starts = rng.integers(0, 12, 200) + rng.choice([0.0, 0.5], 200)
    ends = starts + rng.integers(1, 6, 200) - rng.choice([0.0, 0.5], 200)
    edges, first = quadrature.window_edges(starts, ends, keys, owner)
    alone = [quadrature.window_edges(a, b, runs[w])[0] for a, b, w in zip(starts, ends, owner)]
    assert (edges == np.concatenate(alone)).all()
    assert (first == np.cumsum([0] + [e.size for e in alone[:-1]])).all()


def _exact_moments(s, a, b):
    """m0, q2 and dev of a polynomial-and-jump model over [a, b], in exact
    rationals: every float coefficient, jump and end is an exact fraction."""
    def integral(poly, lo, hi):
        return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(poly))

    def product(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, u in enumerate(p):
            for j, v in enumerate(q):
                out[i + j] += u * v
        return out

    a, b = Fraction(a), Fraction(b)
    edges = [a] + [Fraction(t) for t in s.breakpoints if a < t < b] + [b]
    m_re = m_im = q2 = Fraction(0)
    for lo, hi in zip(edges, edges[1:]):
        mid = float(lo + hi) / 2
        piece = s.pieces[bisect.bisect_right(s.breakpoints, lo) - 1]
        coeffs = piece[0].coeffs if piece else (0j,)
        jumps = [off for at, off in s.jumps if at <= mid]
        re = [Fraction(c.real) for c in coeffs]
        im = [Fraction(c.imag) for c in coeffs]
        re[0] += sum(Fraction(off.real) for off in jumps)
        im[0] += sum(Fraction(off.imag) for off in jumps)
        m_re += integral(re, lo, hi)
        m_im += integral(im, lo, hi)
        q2 += integral(product(re, re), lo, hi) + integral(product(im, im), lo, hi)
    return complex(m_re, m_im), float(q2), float(q2 - (m_re ** 2 + m_im ** 2) / (b - a))


def test_polynomial_window_moments_match_exact_rationals():
    # windows inside one piece take every offset up to 1e8 exactly; windows
    # across pieces (moderate coefficients, jumps) hold to rounding
    rng = np.random.default_rng(77)
    for k in range(12):
        s = sampling.random_antiderivative(rng, domain_end=5.0, pieces=4, jumps=2)
        starts = np.sort(rng.uniform(0.0, 3.5, 4))
        ends = starts + rng.uniform(0.1, 1.5, 4)
        c = rng.choice([1e4, 1e6, 1e8]) * rng.choice([1.0, -1.0, 1.0j])
        one = sl.Antiderivative(5.0, (0.0, 5.0), ((PolyTerm(tuple(
            complex(v) + (c if i == 0 else 0.0) for i, v in enumerate(rng.uniform(-2, 2, 4)))),),))
        for model in (s, one):
            m0, q2, dev = potential.window_moments(model, starts, ends)
            for i, (a, b) in enumerate(zip(starts, ends)):
                want0, want2, want_dev = _exact_moments(model, a, b)
                assert abs(m0[i] - want0) <= 1e-12 * max(abs(want0), 1.0), (k, a, b)
                assert abs(q2[i] - want2) <= 1e-12 * max(want2, 1.0), (k, a, b)
                assert abs(dev[i] - want_dev) <= 1e-12 * max(want_dev, 1.0), (k, a, b)


def test_centred_moments_match_the_adaptive_oracle(corpus, adaptive):
    # the adaptive oracle to 1e-10; its deviation cancels, so it is held to
    # 1e-10 of q2
    for name, s in corpus:
        if name not in ("slots", "s1", "s2", "delta"):
            continue
        starts = np.arange(0.0, s.domain_end - 0.75, 0.375)
        m0, q2, dev = potential.window_moments(s, starts, starts + 0.75)
        for a, got0, got2, got_dev in zip(starts, m0, q2, dev):
            edges = quadrature.split_panels(a, a + 0.75, s.breakpoints)
            want0 = adaptive(s.values, edges).sum()
            want2 = adaptive(lambda x: np.abs(s.values(x)) ** 2, edges).sum().real
            assert abs(got0 - want0) <= 1e-10 * max(abs(want0), 1.0), (name, a)
            assert abs(got2 - want2) <= 1e-10 * max(want2, 1.0), (name, a)
            assert abs(got_dev - (want2 - abs(want0) ** 2 / 0.75)) <= 1e-10 * max(want2, 1.0)


def _calls(fn, sizes):
    """fn, recording the number of points of each call."""
    def counted(x):
        sizes.append(x.size)
        return fn(x)
    return counted


def test_a_window_refining_on_alone_keeps_its_bits_in_a_batch():
    # the pole-side window [0, 1] is cut into graded cells, its polynomial
    # batch-mates are not: its integral is bitwise the same integrated alone,
    # at the start of a batch and in its middle
    fn = lambda x: np.where(x < 1.0, 1.0 / ((x + 1e-3) * (x + 1e-3)), x * x * x - 2.0j * x)
    poles = lambda mid: np.where(mid < 1.0, -1e-3, np.nan)[None, :]
    sizes = []
    (alone,) = quadrature.integrate_many(_calls(fn, sizes), [0.0, 0.5, 1.0], poles)
    assert sizes[0] > 2 * quadrature.CELL_AT.size
    assert alone == pytest.approx(1e3 - 1.0 / 1.001, rel=1e-13)
    for starts in ([0.0, 1.0, 2.0, 2.5], [1.0, 0.0, 2.0, 3.0, 1.5]):
        starts = np.asarray(starts)
        edges, first = quadrature.window_edges(starts, starts + 1.0, [0.5])
        sums = quadrature.integrate_many(fn, edges, poles, first=first)
        assert sums[np.flatnonzero(starts == 0.0)[0]] == alone


def test_rule_sums_do_not_depend_on_the_rows_summed_with_them():
    # one window, 2 to 2,000 windows and shuffled windows all sum alike, the
    # windows next to the pole -3.05 on graded cells
    rng = np.random.default_rng(38)
    lo = rng.uniform(-3.0, 3.0, 2000)
    hi = lo + rng.uniform(1e-6, 1.0, lo.size)
    fn = lambda x: (1.0 + 2.0j * x) / (x + 3.05) + x * x * x
    poles = lambda mid: np.full((1, mid.size), -3.05)
    assert quadrature.graded_cells(lo, hi, poles(lo))[0].size > lo.size

    def sums(rows):
        edges = np.stack([lo[rows], hi[rows]], axis=1).ravel()
        return quadrature.integrate_many(fn, edges, poles, first=2 * np.arange(rows.size))

    every = sums(np.arange(lo.size))
    ones = [sums(np.asarray([i]))[0] for i in range(lo.size)]
    assert np.array_equal(ones, every)
    for size in (2, 3, 7, 255, 256, 257, 1000, 1999):
        for at in (0, lo.size - size):
            assert np.array_equal(sums(np.arange(at, at + size)), every[at:at + size]), (size, at)
    shuffled = rng.permutation(lo.size)
    assert np.array_equal(sums(shuffled), every[shuffled])


def _linspace_cells(a, b, breakpoints, n):
    """quadrature.midpoint_cells by one numpy.linspace per panel."""
    edges = quadrature.split_panels(a, b, breakpoints)
    mids, widths = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = np.linspace(lo, hi, max(1, int(np.ceil(n * (hi - lo) / (b - a)))) + 1)
        mids.append(0.5 * (sub[:-1] + sub[1:]))
        widths.append(np.diff(sub))
    return np.concatenate(mids), np.concatenate(widths)


def test_midpoint_cells_are_bitwise_the_linspace_cells():
    rng = np.random.default_rng(39)
    for _ in range(300):
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(0.01, 50.0)
        bp = rng.uniform(a - 1.0, b + 1.0, rng.integers(0, 12))
        n = int(rng.integers(1, 300))
        got, want = quadrature.midpoint_cells(a, b, bp, n), _linspace_cells(a, b, bp, n)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (a, b, n)


def test_gauss_legendre_rules_are_cached_and_read_only():
    nodes, weights = quadrature.gauss_legendre(16)
    assert quadrature.gauss_legendre(16)[0] is nodes
    assert np.array_equal(weights, np.polynomial.legendre.leggauss(16)[1])
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_long_domain_scan_succeeds():
    # 60,000 windows of three segments each go through the moment pass in
    # several batches of at most BATCH_PANELS segments
    X = 30000.0
    s = sl.delta_sum(np.arange(0.25, X, 0.5), np.resize([1.0, -1.0], 2 * int(X)), X)
    assert 3 * 2 * X > 10 * quadrature.BATCH_PANELS
    series, _refuted = sl.scan_necessary(s, 1.0)
    assert series.values.size == 2 * int(X) - 1
    # s is 0 and 1 on alternate half-units: every window is half 0, half 1
    assert series.values == pytest.approx(0.5, rel=1e-12)
    for x, dbl in list(series.rows())[::4999]:
        assert dbl == sl.window_deviation(s, x, 1.0)[2]


def test_adaptive_loop_raises_on_non_finite_estimate():
    with pytest.raises(NumericError, match="not finite"):
        quadrature.integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
    # s = 1e200 x: the centred part |s - r|^2 overflows in the moment pass
    s = sl.from_poly((0.0, 1e200), 4.0)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="not finite"):
        sl.moments(s, sl.Interval(0.0, 1.0))


def test_pole_next_to_a_window_end_sliver_has_finite_moments():
    # the breakpoint 1.0 lies 1e-14 inside the window [1 - 1e-14, 1.5]; it is
    # a segment edge, so the sliver [1 - 1e-14, 1] takes the constant piece
    # and the segment [1, 1.001] keeps the pole 2e-15 left of 1.0 outside
    s = sl.Antiderivative(2.0, (0.0, 1.0, 1.001, 2.0),
                          ((PolyTerm((1.0,)),), (RecipTerm(1e-3, 1.0 - 2e-15),),
                           (PolyTerm((0.0, 1.0)),)))
    whole = sl.moments(s, sl.Interval(1.0 - 1e-14, 1.5))
    part = sl.moments(s, sl.Interval(1.0, 1.5))
    sliver = 1.0 - (1.0 - 1e-14)
    assert abs(whole.m0 - (part.m0 + sliver)) <= 1e-15 * abs(part.m0)
    assert abs(whole.q2 - (part.q2 + sliver)) <= 1e-15 * part.q2
    # from the breakpoint on, the near pole is graded: int 1e-6/(x - p)^2
    u0, u1 = 1.0 - s.pieces[1][0].pole, 1.001 - s.pieces[1][0].pole
    assert part.q2 == pytest.approx(
        1e-6 * (u1 - u0) / (u0 * u1) + (1.5 ** 3 - 1.001 ** 3) / 3, rel=1e-12)


def test_graded_cells_reach_a_pole_a_thousandth_away():
    # int_{1e-3}^{1} x^-2 dx = 999 in one call of the integrand, on at most
    # eight cells graded toward the pole at 0
    sizes = []
    val = quadrature.integrate(_calls(lambda x: x ** -2.0, sizes), 1e-3, 1.0, poles=_pole_at_zero)
    assert val.real == pytest.approx(999.0, rel=1e-10)
    assert len(sizes) == 1 and sizes[0] <= 8 * quadrature.CELL_AT.size
    # a pole inside a panel is refused, not integrated across
    with pytest.raises(NumericError, match="inside the panel"):
        quadrature.integrate(lambda x: x ** -2.0, -1.0, 1.0, poles=_pole_at_zero)


def test_near_pole_moments_match_closed_forms():
    # gamma of the h = 1000 profile has a pole 1.5e-9 left of the piece
    # [0.499997, 0.5]; evaluated from pole-relative abscissae on graded cells,
    # the moments of its pieces (constants and pure reciprocals) match their
    # closed forms: int c/(x - p) = c log1p(w/u0), int |c|^2/(x - p)^2 =
    # |c|^2 w/(u0 u1), with u0 = lo - p, u1 = hi - p and w = hi - lo
    _v, gamma = sl.vh_profile(1000.0)
    for a, b in ((0.0, 0.75), (0.3, 0.6), (0.499, 0.5005), (0.25, 1.0)):
        m0 = q2 = 0.0
        edges = [a] + [t for t in gamma.breakpoints if a < t < b] + [b]
        for lo, hi in zip(edges, edges[1:]):
            (term,) = gamma.pieces[bisect.bisect_right(gamma.breakpoints, lo) - 1]
            if isinstance(term, PolyTerm):
                m0 += term.coeffs[0] * (hi - lo)
                q2 += abs(term.coeffs[0]) ** 2 * (hi - lo)
            else:
                u0, u1 = lo - term.pole, hi - term.pole
                m0 += term.c * math.log1p((hi - lo) / u0)
                q2 += abs(term.c) ** 2 * (hi - lo) / (u0 * u1)
        m = sl.moments(gamma, sl.Interval(a, b))
        assert abs(m.m0 - m0) <= 1e-12 * max(abs(m0), 1.0), (a, b)
        assert abs(m.q2 - q2) <= 1e-12 * q2, (a, b)
        assert abs(m.dev - (q2 - abs(m0) ** 2 / (b - a))) <= 1e-12 * q2, (a, b)
