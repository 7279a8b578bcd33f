"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` / on failure)
and asserts the criterion at exactly the stated tolerance.  The suites behind
criteria 1, 2, 6 and 12 live in ``slcrit.verify`` so the CLI ``verify``
command replays the identical corpus.
"""

import math

import numpy as np
import scipy.linalg

import slcrit as sl
from slcrit import forms, quadrature, sampling, verify

SEED = 20240801
PI2 = math.pi ** 2


def dense(bands):
    """Dense symmetric matrix of a (diagonal, off-diagonal) pair."""
    return forms._dense(*bands)


def interpolate(w, fn):
    """Coefficient vector of the hat interpolant of a callable."""
    return np.asarray(fn(w.nodes[1:-1]), dtype=complex)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def test_c01_variance_identity_corpus():
    res = verify.variance_identity_suite(SEED, cases=50)
    assert res.tolerance == 1e-8 and res.cases == 50
    _report("criterion 1: variance identity on 50 seeded potentials",
            res.passed, f"worst rel dev {res.worst:.2e}")
    assert res.passed


def test_c02_two_sided_inequality():
    res = verify.two_sided_suite(SEED, cases=50)
    assert res.tolerance == 1e-9
    _report("criterion 2: a*dev <= dbl <= 4a*dev with slack >= -1e-9",
            res.passed, f"worst slack {res.worst:.2e}")
    assert res.passed


def test_c03_fem_baseline_and_rate():
    errs = {}
    for n in (64, 128, 256, 512):
        w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), n)
        lam = float(scipy.linalg.eigh(dense(w.A_bands), w.M,
                                      subset_by_index=[0, 0], eigvals_only=True)[0])
        errs[n] = abs(lam - PI2)
    rel512 = errs[512] / PI2
    rates = [math.log2(errs[n] / errs[2 * n]) for n in (64, 128, 256)]
    ok = rel512 <= 1e-3 and all(1.8 <= r <= 2.2 for r in rates)
    _report("criterion 3: FEM baseline pi^2 within 1e-3 and O(n^-2) rate",
            ok, f"rel err {rel512:.2e}, rates {['%.2f' % r for r in rates]}")
    assert rel512 <= 1e-3
    for r in rates:
        assert 1.8 <= r <= 2.2


def test_c04_delta_form_value():
    worst = 0.0
    for alpha in (-1.0, 1.0, 5.0):
        s = sl.delta_sum([0.5], [alpha], 1.0)
        w = forms.assemble(s, sl.Interval(0.0, 1.0), 512)
        c = interpolate(w, lambda x: math.sqrt(2.0) * np.sin(math.pi * x))
        val = forms.form_value(w, c)
        worst = max(worst, abs(val - (PI2 + 2.0 * alpha)))
    ok = worst <= 1e-2
    _report("criterion 4: delta form value pi^2 + 2a within 1e-2",
            ok, f"worst abs dev {worst:.2e}")
    assert ok


def test_c05_classification_triple():
    lin = sl.classify(sl.from_poly((0.0, 1.0), 12.0))
    par = sl.classify(sl.from_poly((0.0, 0.0, 0.5), 12.0))
    iml = sl.classify(sl.from_poly((0.0, 1.0j), 12.0))

    lin_rules = {e.rule: e.values for e in lin.evidence}
    par_rules = {e.rule: e.values for e in par.evidence}
    iml_rules = {e.rule: e.values for e in iml.evidence}

    ok = (lin.outcome == "NotCompact"
          and lin_rules["scan_necessary"]["refuted"]
          and par.outcome == "CompactResolvent"
          and par_rules["brinck"]["hint"] == "CompactResolvent"
          and not par_rules["scan_necessary"]["refuted"]
          and iml.outcome == "NotCompact"
          and iml_rules["brinck"]["sector"]["found"]
          and iml_rules["brinck"]["growth_bounded"])
    _report("criterion 5: classification triple with stated rules in evidence",
            ok, f"{lin.outcome}/{par.outcome}/{iml.outcome}")
    assert lin.outcome == "NotCompact"
    assert par.outcome == "CompactResolvent"
    assert iml.outcome == "NotCompact"
    assert lin_rules["scan_necessary"]["refuted"]
    assert par_rules["brinck"]["hint"] == "CompactResolvent"
    assert iml_rules["brinck"]["sector"]["found"]
    assert iml_rules["brinck"]["growth_bounded"]


def test_c06_growth_bound_corpus():
    res = verify.growth_bound_suite(SEED, cases=100)
    ok = res.passed and res.worst <= 2.0 + 1e-6
    _report("criterion 6: M <= 2 + 1e-6 on 100 seeded qualifying windows",
            ok, f"worst M {res.worst:.6f} over {res.cases} applicable")
    assert ok


def test_c07_partition_identity_corpus():
    res = verify.partition_identity_suite(SEED, bumps=10, potentials=5)
    ok = res.passed
    _report("criterion 7: partition identity residual <= 1e-6, correction "
            "<= 2pi^2||y||^2 + 1e-6", ok, f"worst {res.worst:.2e}")
    assert ok


def test_c08_miura_semiboundedness():
    rng = np.random.default_rng(SEED)
    worst = math.inf
    for _ in range(20):
        gamma = sampling.random_gamma(rng)
        s = sl.miura(gamma, 0.0)
        scan = forms.localization_scan(s, n=64, angles=16)
        worst = min(worst, min(r.herm_lambda_min for r in scan.rows))
    ok = worst >= -1e-6
    _report("criterion 8: miura unit-window lambda_min >= -1e-6 (20 seeds)",
            ok, f"min lambda {worst:.3e}")
    assert ok


def test_c09a_counterexample_mform_bound():
    theta, h = 0.5, 10.0
    alpha = 1.0 - (1.0 - theta) ** (1.0 / 3.0)
    v, gam = sl.vh_profile(h)
    w = forms.assemble(sl.zero(1.0), sl.Interval(0.0, 1.0), 512,
                       gauge=(gam, 1.0, alpha))
    val = forms.form_value(w, interpolate(w, v.values)).real
    bound = 2.0 / (3.0 * h) - (2.0 * alpha / 3.0) * h ** 4 + 1e-3
    ok = val <= bound
    _report("criterion 9a: m-form value at the spike profile below the "
            "energy bound", ok, f"value {val:.3f} <= {bound:.3f}")
    assert ok


def test_c09b_counterexample_profile_norm():
    # The spike profile (see sl.vh_profile) rises linearly to L = 1/2 - delta,
    # climbs by h over the width delta = 3/h^2 and mirrors about 1/2.  On the
    # half interval its squared norm is, in closed form,
    #   L^3/3 + L^2 delta + L h delta + h^2 delta/3
    #     = 25/24 + 1.5/h - 9/h^3 + O(h^-4),
    # so on [0, 1] it is 25/12 + 3/h - 18/h^3 + O(h^-4).  The reference is the
    # two-term expansion on each interval, checked at 0.5/h; the remainder
    # (18/h^3 on [0, 1]) is far inside that allowance for every h below.
    cases = ((0.0, 1.0, 25.0 / 12.0, 3.0),
             (0.0, 0.5, 25.0 / 24.0, 1.5))
    devs = {}
    for h in (10.0, 40.0, 160.0):
        v, _g = sl.vh_profile(h)
        for a, b, const, first in cases:
            norm_sq = float(np.real(quadrature.integrate(
                lambda x: v.values(x) ** 2, a, b, v.nodes)))
            devs[h, b] = abs(norm_sq - (const + first / h))
    ok = all(dev <= 0.5 / h for (h, _b), dev in devs.items())
    _report("criterion 9b: ||v_h||^2 within 0.5/h of 25/12 + 3/h on [0,1] "
            "and of 25/24 + 1.5/h on [0,1/2]",
            ok, "; ".join(f"h={h:g} [0,{b:g}]: |dev|={dev:.2e} vs {0.5 / h:.4f}"
                          for (h, b), dev in devs.items()))
    for (h, b), dev in devs.items():
        assert dev <= 0.5 / h, (
            f"h={h}: ||v_h||^2 on [0, {b}] deviates from its two-term "
            f"expansion by {dev:.4f} (allowed {0.5 / h:.4f})")


def test_c10_localization_trend():
    s = sl.from_poly((0.0, 0.0, 0.5), 12.0)
    scan = forms.localization_scan(s, n=128, angles=64)
    worst = 0.0
    ok = True
    for r in scan.rows:
        if r.window.a == int(r.window.a) and 2 <= int(r.window.b) <= 11:
            k = int(r.window.b)
            lo, hi = PI2 + k - 1 - 1e-2, PI2 + k + 1e-2
            ok = ok and (lo <= r.inf_lower <= hi)
            worst = max(worst, max(lo - r.inf_lower, r.inf_lower - hi))
    _report("criterion 10: inf-modulus trend pi^2 + [k-1, k] for k=2..11",
            ok, f"worst overshoot {worst:.2e}")
    assert ok


def test_c11_complex_inf_modulus():
    s = sl.from_poly((0.0, 1.0j), 1.0)
    w = forms.assemble(s, sl.Interval(0.0, 1.0), 512)
    lo, hi = forms.inf_modulus(w, angles=64)
    target = math.sqrt(PI2 ** 2 + 1.0)
    ok = lo <= target <= hi and (hi - lo) <= 0.05
    _report("criterion 11: inf-modulus brackets sqrt(pi^4+1)",
            ok, f"[{lo:.5f}, {hi:.5f}] around {target:.5f}")
    assert lo <= target <= hi
    assert hi - lo <= 0.05


def test_c12_solver_consistency():
    res = verify.solver_consistency_suite(SEED, cases=20)
    ok = res.passed and res.tolerance == 1e-8
    _report("criterion 12: kernel vs direct solver within 1e-8, Wronskian -1",
            ok, f"worst {res.worst:.2e} over {res.cases} pairs")
    assert ok
