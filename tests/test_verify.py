"""The seeded property suites: batched passes against the per-case loops,
and the refusal of suites that would check nothing."""

import dataclasses
import functools

import numpy as np
import pytest

from slcrit import regsolve, sampling, verify
from slcrit.errors import ValidationError
from slcrit.potential import Antiderivative
from slcrit.verify import SuiteResult

#: the bench's case counts, then the ``run_all`` defaults
COUNTS = {"variance_identity_suite": (70, 50), "two_sided_suite": (100, 50),
          "growth_bound_suite": (20, 100)}


def _fields(s):
    return s.domain_end, s.breakpoints, s.pieces, s.jumps


@pytest.mark.parametrize("seed", [20240801, 1, 2, 3, 7])
def test_batched_suites_match_the_per_case_loops(per_case_suites, monkeypatch, seed):
    # the batched and the per-case growth suites check equal cases, and the
    # 20-case corpus is a prefix of the 100-case one: check each case once
    original = regsolve.growth_bound_check
    check = functools.cache(lambda fields, win: original(Antiderivative(*fields), win))
    monkeypatch.setattr(regsolve, "growth_bound_check", lambda s, win: check(_fields(s), win))
    for name, counts in COUNTS.items():
        for cases in counts:
            batched = getattr(verify, name)(seed, cases=cases)
            looped = per_case_suites[name](seed, cases=cases)
            assert batched == looped, (name, cases)
            assert list(map(type, vars(batched).values())) == list(map(type, vars(looped).values()))


def test_growth_cases_are_successive_growth_case_draws(per_case_suites):
    batch = sampling.random_growth_cases(np.random.default_rng(5), 12)
    for draw in (sampling.random_growth_case, per_case_suites["growth_case"]):
        rng = np.random.default_rng(5)
        drawn = [draw(rng) for _ in range(12)]
        assert [(_fields(s), win) for s, win in batch] == [(_fields(s), win) for s, win in drawn]
    assert sampling.random_growth_cases(np.random.default_rng(5), 0) == []


SUITE_COUNTS = [(suite, {"cases": bad}) for bad in (0, -5) for suite in verify.ALL_SUITES
                if suite is not verify.partition_identity_suite]
SUITE_COUNTS += [(verify.partition_identity_suite, {name: bad})
                 for bad in (0, -5) for name in ("bumps", "potentials")]


@pytest.mark.parametrize("suite, counts", SUITE_COUNTS,
                         ids=[f"{s.__name__}-{c}" for s, c in SUITE_COUNTS])
def test_a_count_below_one_is_refused_before_any_draw(monkeypatch, suite, counts):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValidationError, match="must be at least 1"):
        suite(1, **counts)


def test_a_suite_that_checked_no_case_fails(monkeypatch):
    # no growth case applicable: nothing was checked, so nothing passed
    check = regsolve.growth_bound_check
    monkeypatch.setattr(regsolve, "growth_bound_check",
                        lambda s, win: dataclasses.replace(check(s, win), applicable=False))
    res = verify.growth_bound_suite(1, cases=3)
    assert res == SuiteResult("growth_bound", False, 0, 0.0, 2.0 + 1e-6, "no case was checked")
    assert res.passed is False
    assert res.line().startswith("[FAIL] growth_bound: 0 cases")
