"""Unit tests for the regularized-system integrator."""

import numpy as np
import pytest
import scipy.linalg

import slcrit as sl
from slcrit import quadrature, regsolve, sampling
from slcrit.errors import NumericError


def final(traj):
    """The last sampled state of a trajectory."""
    return regsolve.State(complex(traj.states[-1, 0]), complex(traj.states[-1, 1]))


def weak_residual(s, traj, forcing=None):
    """max per-panel defect of int (y1)' + s y1 + s^2 y + f over the panels.

    States inside a panel come from the model transfer, so the residual
    measures how closely the discrete trajectory satisfies the integrated
    system; it vanishes to quadrature accuracy on panels where s is constant
    and shrinks at third order in the panel width otherwise.
    """
    lo, hi = traj.nodes[:-1], traj.nodes[1:]
    xq, wq = regsolve._gauss(lo, hi, *np.polynomial.legendre.leggauss(8))
    yq = np.einsum("kqij,kj->kqi", regsolve._transfers(s, lo[:, None], xq),
                   traj.states[:-1])
    sq = s.values(xq.ravel()).reshape(xq.shape)
    integrand = sq * yq[..., 1] + sq ** 2 * yq[..., 0]
    if forcing is not None:
        integrand = integrand + forcing.values(xq.ravel()).reshape(xq.shape)
    defect = np.diff(traj.states[:, 1]) + np.sum(integrand * wq, axis=1)
    return float(np.abs(defect).max())


def test_propagate_constant_coefficient_exact():
    # the one-panel transfer is exact for constant s: state = (x, 1 - c x)
    s = sl.from_poly((2.0,), 1.0)
    traj = regsolve.propagate(s, sl.Interval(0.0, 0.3), regsolve.State(0.0, 1.0),
                              panels=1)
    end = final(traj)
    assert end.y == pytest.approx(0.3, abs=1e-14)
    assert end.y1 == pytest.approx(1.0 - 2.0 * 0.3, abs=1e-14)


def test_propagate_free_equation_constant_solution():
    traj = regsolve.propagate(sl.zero(1.0), sl.Interval(0.0, 1.0),
                              regsolve.State(1.0, 0.0), panels=8)
    assert np.allclose(traj.y, 1.0)
    assert np.allclose(traj.y1, 0.0)


def test_propagate_unit_forcing():
    # -y'' = 1 with zero data: y = -x^2/2
    traj = regsolve.propagate(sl.zero(1.0), sl.Interval(0.0, 1.0),
                              regsolve.State(0.0, 0.0),
                              forcing=sl.from_poly((1.0,), 1.0), panels=4)
    assert final(traj).y == pytest.approx(-0.5, abs=1e-13)
    assert np.allclose(traj.y, -traj.nodes ** 2 / 2.0, atol=1e-13)


def test_fundamental_pair_free_and_constant():
    phi, psi = regsolve.fundamental_pair(sl.zero(1.0), sl.Interval(0.0, 1.0),
                                         panels=8)
    assert np.allclose(phi.y, phi.nodes)
    assert np.allclose(psi.y, 1.0)
    c = 1.5
    phi2, psi2 = regsolve.fundamental_pair(sl.from_poly((c,), 1.0),
                                           sl.Interval(0.0, 1.0), panels=8)
    # transfer rows: phi = (x, 1 - c x), psi = (1 + c x, -c^2 x)
    assert np.allclose(phi2.y, phi2.nodes, atol=1e-12)
    assert np.allclose(phi2.y1, 1.0 - c * phi2.nodes, atol=1e-12)
    assert np.allclose(psi2.y, 1.0 + c * psi2.nodes, atol=1e-12)
    assert np.allclose(psi2.y1, -c ** 2 * psi2.nodes, atol=1e-12)


def test_states_continuous_across_jump():
    s = sl.delta_sum([0.5], [3.0], 1.0)
    traj = regsolve.propagate(s, sl.Interval(0.0, 1.0), regsolve.State(0.0, 1.0),
                              panels=64)
    k = int(np.argmin(np.abs(traj.nodes - 0.5)))
    left = traj.states[k - 1]
    right = traj.states[k + 1]
    h = traj.nodes[k + 1] - traj.nodes[k - 1]
    # no impulse in (y, y1): increments stay O(h) through the jump node
    assert np.all(np.abs(right - left) <= 10.0 * h * max(1.0, traj.sup_norm()))


def test_cauchy_kernel_closed_forms():
    zero = sl.zero(1.0)
    y_const = regsolve.cauchy_apply(zero, sl.Interval(0.0, 1.0),
                                    sl.from_poly((1.0,), 1.0), panels=8)
    assert np.allclose(y_const.y, -y_const.nodes ** 2 / 2.0, atol=1e-13)
    y_lin = regsolve.cauchy_apply(zero, sl.Interval(0.0, 1.0),
                                  sl.from_poly((0.0, 1.0), 1.0), panels=8)
    assert np.allclose(y_lin.y, -y_lin.nodes ** 3 / 6.0, atol=1e-13)
    y_zero = regsolve.cauchy_apply(zero, sl.Interval(0.0, 1.0), sl.zero(1.0),
                                   panels=8)
    assert np.allclose(y_zero.y, 0.0)


def test_consistency_propagate_vs_cauchy():
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = sampling.random_step_potential(rng)
        f = sampling.random_forcing(rng, s.domain_end)
        win = sl.Interval(0.0, s.domain_end)
        a = regsolve.propagate(s, win, regsolve.State(0.0, 0.0), forcing=f,
                               panels=64)
        b = regsolve.cauchy_apply(s, win, f, panels=64)
        scale = max(1.0, float(np.abs(a.states).max()))
        assert float(np.abs(a.states - b.states).max()) / scale <= 1e-10


def test_transfers_match_expm():
    # the closed-form panel exponential against scipy's Pade expm, on both
    # sides of the |w^2| = 1e-8 switch to the Taylor series
    rng = np.random.default_rng(41)
    cases = [sl.scale(sampling.random_antiderivative(rng, domain_end=1.0), c)
             for c in (1e-6, 1e-4, 1e-2, 0.5, 5.0)]
    cases.append(sl.from_poly((0.0, 5.0, -5.0j), 1.0))
    small = large = 0
    for s in cases:
        edges = regsolve._grid(s, sl.Interval(0.0, 1.0), 4)
        lo, hi = edges[:-1], edges[1:]
        T = regsolve._transfers(s, lo, hi)
        s1 = quadrature.segment_moments(s.values, lo, hi)
        s2 = quadrature.segment_moments(lambda x: s.values(x) ** 2, lo, hi)
        w2 = s1 * s1 - (hi - lo) * s2
        small += int(np.sum(np.abs(w2) < 1e-8))
        large += int(np.sum(np.abs(w2) >= 1e-8))
        for k in range(lo.size):
            ref = scipy.linalg.expm(np.array([[s1[k], hi[k] - lo[k]],
                                              [-s2[k], -s1[k]]]))
            assert np.abs(T[k] - ref).max() <= 1e-13 * np.abs(ref).max()
    assert small > 0 and large > 0


def test_fundamental_pair_matches_propagate():
    rng = np.random.default_rng(43)
    s = sl.scale(sampling.random_antiderivative(rng, domain_end=1.0), 3.0)
    win = sl.Interval(0.0, 1.0)
    phi, psi = regsolve.fundamental_pair(s, win, panels=128)
    for pair, init in ((phi, regsolve.State(0.0, 1.0)),
                       (psi, regsolve.State(1.0, 0.0))):
        ref = regsolve.propagate(s, win, init, panels=128)
        assert np.array_equal(pair.nodes, ref.nodes)
        scale = max(1.0, ref.sup_norm())
        assert np.abs(pair.states - ref.states).max() <= 1e-13 * scale


def test_wronskian_invariant():
    rng = np.random.default_rng(31)
    for _ in range(5):
        s = sampling.random_antiderivative(rng, domain_end=1.0)
        phi, psi = regsolve.fundamental_pair(s, sl.Interval(0.0, 1.0), panels=128)
        assert regsolve.wronskian_defect(phi, psi) <= 1e-8


def test_constant_shift_conjugates_trajectories():
    # s -> s + c leaves the modelled operator unchanged: the quasi-derivative
    # transforms by the shear (y, y1) -> (y, y1 - c y), and the discrete panel
    # transfer conjugates by exactly that shear.  Solutions started from
    # sheared initial data therefore coincide in y and shear back in y1.
    rng = np.random.default_rng(37)
    s = sampling.random_antiderivative(rng, domain_end=1.0)
    c = 2.5 - 1.5j
    shifted = sl.offset(s, c)
    y0, y10 = 0.5 + 0.2j, 1.0 - 0.3j
    t1 = regsolve.propagate(s, sl.Interval(0.0, 1.0), regsolve.State(y0, y10),
                            panels=64)
    t2 = regsolve.propagate(shifted, sl.Interval(0.0, 1.0),
                            regsolve.State(y0, y10 - c * y0), panels=64)
    scale = max(1.0, t1.sup_norm())
    assert np.allclose(t2.y, t1.y, atol=1e-12 * scale)
    assert np.allclose(t2.y1, t1.y1 - c * t1.y, atol=1e-12 * scale)
    # zero-initial-y data is fixed by the shear: phi trajectories coincide
    phi1, _ = regsolve.fundamental_pair(s, sl.Interval(0.0, 1.0), panels=64)
    phi2, _ = regsolve.fundamental_pair(shifted, sl.Interval(0.0, 1.0),
                                        panels=64)
    assert np.allclose(phi1.y, phi2.y, atol=1e-12 * scale)


def test_second_order_convergence():
    s = sl.from_poly((0.1, 0.5, 1.0), 1.0)
    ref = regsolve.propagate(s, sl.Interval(0.0, 1.0), regsolve.State(1.0, 0.5),
                             panels=4096)

    def err(n):
        t = regsolve.propagate(s, sl.Interval(0.0, 1.0),
                               regsolve.State(1.0, 0.5), panels=n)
        return abs(final(t).y - final(ref).y) + abs(final(t).y1 - final(ref).y1)

    e1, e2, e3 = err(100), err(200), err(400)
    assert 3.0 <= e1 / e2 <= 5.0
    assert 3.0 <= e2 / e3 <= 5.0


def test_weak_residual():
    step = sl.delta_sum([0.5], [2.0], 1.0)
    traj = regsolve.propagate(step, sl.Interval(0.0, 1.0),
                              regsolve.State(1.0, 0.5), panels=16)
    assert weak_residual(step, traj) <= 1e-12
    smooth = sl.from_poly((0.0, 1.0), 1.0)
    traj2 = regsolve.propagate(smooth, sl.Interval(0.0, 1.0),
                               regsolve.State(1.0, 0.5), panels=2048)
    assert weak_residual(smooth, traj2) <= 1e-8


def test_growth_bound_examples():
    free = regsolve.growth_bound_check(sl.zero(1.0), sl.Interval(0.0, 0.1))
    assert free.applicable
    assert free.M == pytest.approx(1.0, abs=1e-12)
    const = regsolve.growth_bound_check(sl.from_poly((100.0,), 1.0),
                                        sl.Interval(0.0, 0.1))
    assert const.applicable
    assert const.M == pytest.approx(1.0, abs=1e-10)
    # a window with deviation close to the ceiling still obeys M <= 2
    tight = sl.from_poly((0.0, 28.0), 1.0)
    res = regsolve.growth_bound_check(tight, sl.Interval(0.4, 0.5))
    assert res.applicable and res.M <= 2.0 + 1e-6


def test_growth_bound_not_applicable_on_long_window():
    res = regsolve.growth_bound_check(sl.zero(1.0), sl.Interval(0.0, 0.5))
    assert not res.applicable


@pytest.mark.parametrize("jump", [1e-9, 0.5 + 1e-9])
def test_every_breakpoint_is_a_panel_edge(jump):
    # the scheme is exact on a panel where s is constant, so on a step
    # potential whose jump is a panel edge every panel count gives the
    # 2^14-panel states to rounding, however close the jump lies to a cell
    # edge (1e-9 from the left end, or from the cell edge 1/2)
    s = sl.delta_sum([jump], [2.0 - 1.0j], 1.0)
    win = sl.Interval(0.0, 1.0)
    ref = regsolve.fundamental_pair(s, win, panels=1 << 14)
    for panels in (64, 256):
        pair = regsolve.fundamental_pair(s, win, panels=panels)
        for got, want in zip(pair, ref):
            at = want.nodes.searchsorted(got.nodes)
            assert np.array_equal(want.nodes[at], got.nodes)
            scale = max(1.0, want.sup_norm())
            assert np.abs(got.states - want.states[at]).max() <= 1e-11 * scale
        assert jump in pair[0].nodes
        assert regsolve.wronskian_defect(*pair) <= 1e-8
    # a forcing with a jump of its own near a cell edge: both routes take it
    # as a panel edge and agree
    f = sl.add(sl.from_poly((1.0, -0.5j), 1.0), sl.delta_sum([0.25 + 1e-9], [3.0], 1.0))
    a = regsolve.propagate(s, win, regsolve.State(0.0, 0.0), forcing=f, panels=64)
    b = regsolve.cauchy_apply(s, win, f, panels=64)
    assert 0.25 + 1e-9 in a.nodes and np.array_equal(a.nodes, b.nodes)
    scale = max(1.0, float(np.abs(a.states).max()))
    assert float(np.abs(a.states - b.states).max()) / scale <= 1e-10


MARCH_LENGTHS = (1, 2, 3, 15, 16, 17, 255, 256, 257, 1024, 1031)


def _model_transfers(s, n):
    """The first n panel transfers of s on [0, X] at n panels."""
    edges = regsolve._grid(s, sl.Interval(0.0, s.domain_end), n)
    return regsolve._transfers(s, edges[:-1], edges[1:])[:n]


def test_blocked_march_matches_the_sequential_oracle(sequential_march):
    # every block length, with a ragged last block or none, on near-identity
    # maps and on the transfers of random and step models; the fundamental
    # (identity start), a free state and a forced state
    rng = np.random.default_rng(47)
    models = [sl.scale(sampling.random_antiderivative(rng, domain_end=1.0), 3.0),
              sampling.random_step_potential(rng)]
    for n in MARCH_LENGTHS:
        noise = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        maps = [np.eye(2) + 0.05 * noise] + [_model_transfers(s, n) for s in models]
        drive = 0.1 * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        for T in maps:
            for args in ((np.eye(2),), ((0.5 - 0.2j, 1.0 + 0.3j),),
                         ((0.5 - 0.2j, 1.0 + 0.3j), drive), ((0.0, 0.0), drive)):
                want = sequential_march(T, *args)
                got = regsolve._march(T, *args)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("route", ["cauchy_apply", "fundamental_pair", "propagate"])
def test_overflow_raises_with_either_march(route, sequential_march, monkeypatch):
    s = sl.from_poly((0.0, 1e6j), 1.0)
    win, f = sl.Interval(0.0, 1.0), sl.from_poly((1.0,), 1.0)
    run = {"cauchy_apply": lambda: regsolve.cauchy_apply(s, win, f),
           "fundamental_pair": lambda: regsolve.fundamental_pair(s, win),
           "propagate": lambda: regsolve.propagate(s, win, regsolve.State(0.0, 0.0), forcing=f)}
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            run[route]()
        monkeypatch.setattr(regsolve, "_march", sequential_march)
        with pytest.raises(NumericError):
            run[route]()
