"""Smoke checks for the cross-validation suites at reduced bounds."""

import pytest

import lissbraid.verify as verify
from lissbraid.algebra import A_MAT, Psl2Mat, frieze_w
from lissbraid.classify import ClusterSeq
from lissbraid.surd import CfExpansion
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


@pytest.mark.parametrize("count", [19, 20, 21, 500])
def test_cf_detail_clips_its_first_20_terms_as_the_whole_list(count, monkeypatch):
    # the suite prints only the first 20 terms of each list; the line is the
    # clip of the whole list, for one-digit terms (the shortest) and others
    for terms in ((1,) * count, tuple(range(1, count + 1)), (10**50,) * count):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "cf_expand", lambda x: CfExpansion((), terms))
            patch.setattr(verify, "clusters_of", lambda label: ClusterSeq(terms, ""))
            (case,) = verify.suite_cf(max_m=1)
        clipped = verify._clip(str(list(terms)))
        assert case[2] == f"period={clipped} radii={clipped}"


def test_cluster_case_fails_on_a_wrong_product_or_translation(monkeypatch):
    # the suite compares the A/B word's product with M(W) and its translation
    # with W, and checks M(W) for symmetry, each a failing case and not an
    # exception when they differ
    assert all(ok for _, ok, _ in verify.suite_cluster(max_m=10))
    with monkeypatch.context() as patch:
        patch.setattr(verify, "ab_to_matrix", lambda word: A_MAT)
        assert not any(ok for _, ok, _ in verify.suite_cluster(max_m=10))
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_ab_to_reduced", lambda word: "p")
        assert not any(ok for _, ok, _ in verify.suite_cluster(max_m=10))
    asymmetric = Psl2Mat(1, 1, 0, 1)
    with monkeypatch.context() as patch:
        # the true W and a product that agrees with its matrix: only symmetry fails
        patch.setattr(verify, "frieze_w", lambda half: (frieze_w(half)[0], asymmetric))
        patch.setattr(verify, "ab_to_matrix", lambda word: asymmetric)
        assert not any(ok for _, ok, _ in verify.suite_cluster(max_m=10))


@pytest.mark.parametrize("name, oracle", [("epsilon", "epsilon_oracle"),
                                          ("syzygy", "syzygy_oracle")])
def test_float_suites_hand_their_oracle_one_slice_a_call(name, oracle, monkeypatch):
    # each default box is one slice, so one oracle call; smaller slices give
    # the same cases, with each type in exactly one call
    def recording(items):
        calls.append(len(items))
        return whole(items)

    whole = getattr(verify, oracle)
    monkeypatch.setattr(verify, oracle, recording)
    calls = []
    cases = SUITES[name]()
    assert calls == [len(cases)] and len(cases) <= verify._ORACLE_SLICE
    monkeypatch.setattr(verify, "_ORACLE_SLICE", 5)
    calls = []
    assert SUITES[name]() == cases
    assert calls == [5] * (len(cases) // 5) + [len(cases) % 5] * (len(cases) % 5 > 0)
