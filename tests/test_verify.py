"""Smoke checks for the cross-validation suites at reduced bounds."""

import pytest

from lissbraid.verify import SUITES

BOUNDS = {
    "epsilon": {"max_m": 12},
    "collision": {},
    "bijection": {"max_m": 40, "max_sum": 20, "max_level": 4},
    "cf": {"max_m": 20},
    "cluster": {"max_m": 30, "seed": 1},
    "syzygy": {"max_m": 8},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    cases = SUITES[name](**BOUNDS[name])
    assert cases
    failures = [c for c in cases if not c[1]]
    assert not failures, failures[:5]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_takes_seed_and_rejects_other_keywords(name):
    # a misspelt or removed bound is an error, never a run at the defaults
    with pytest.raises(TypeError):
        SUITES[name](bogus=1)
    assert SUITES[name](**{**BOUNDS[name], "seed": 3})


def test_cf_details_are_clipped():
    # the period and radii lists grow with |m|; each is clipped to 40 characters
    assert all(len(detail) <= 100 for _, _, detail in SUITES["cf"](max_m=200))
