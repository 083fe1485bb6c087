import itertools
import math

import pytest

from helpers import facets_containing, signed_pair_sets_by_recursion
from spheretrans import (
    LemmaId,
    PureComplex,
    boundary,
    cs_ball,
    cs_sphere,
    generate_candidates,
    negate,
    neighborly_antichain,
    relative_squeezed_ball,
    verify_lemma,
)
from spheretrans import lemmas
from spheretrans.errors import InvalidParameters


def test_lemma_ids_round_trip_their_cli_tokens():
    for lid in LemmaId:
        assert LemmaId(lid.value) is lid
    assert LemmaId("rsq-facets") is LemmaId.RSQ_FACETS
    assert LemmaId("bdl") is LemmaId.BDL


def test_boundary_face_candidates():
    cands = generate_candidates(LemmaId.RSQ_FACETS, 3, 13)
    assert len(cands) == 88
    cset = set(cands)
    assert (1, 2, 3, 4, 13) in cset
    assert (1, 2, 4, 5, 13) in cset
    # the single middle-start family contributes exactly three members
    assert sorted(c for c in cset if min(c) == 5) == [
        (5, 6, 7, 8, 9),
        (5, 6, 7, 9, 10),
        (5, 7, 8, 9, 10),
    ]


@pytest.mark.parametrize("k, n", [(3, 13), (3, 14), (3, 16), (4, 9), (4, 12), (4, 15)])
def test_one_containing_facet_means_a_boundary_facet(k, n):
    # the rsq check tests membership in the boundary: a (2k-1)-set lies in
    # exactly one facet of the ball iff it is a facet of the boundary
    ball = relative_squeezed_ball(neighborly_antichain(k, n))
    rim = boundary(ball).facets
    ridges = sorted({F[:i] + F[i + 1:] for F in ball.facets for i in range(2 * k)})
    every = itertools.combinations(range(1, n + 1), 2 * k - 1)
    sampled = list(itertools.islice(every, 0, None, math.comb(n, 2 * k - 1) // 50 + 1))
    assert any(facets_containing(ball.facets, s) == 2 for s in ridges)
    assert any(not facets_containing(ball.facets, s) for s in sampled)
    for s in generate_candidates(LemmaId.RSQ_FACETS, k, n) + ridges + sampled:
        assert (facets_containing(ball.facets, s) == 1) == (s in rim), s


@pytest.mark.parametrize("k, n", [(3, 13), (4, 12)])
def test_rsq_failures_are_the_candidates_outside_one_facet(monkeypatch, k, n):
    # without its last facet the ball loses the candidates that facet held,
    # one of them listed twice
    facets = relative_squeezed_ball(neighborly_antichain(k, n)).sorted_facets()[:-1]
    monkeypatch.setattr(lemmas, "relative_squeezed_ball", lambda s: PureComplex(facets))
    cands = generate_candidates(LemmaId.RSQ_FACETS, k, n)
    expected = tuple(c for c in cands if facets_containing(facets, c) != 1)
    report = verify_lemma(LemmaId.RSQ_FACETS, k, n)
    assert len(set(expected)) < len(expected)
    assert report.failures == expected
    assert report.candidates_checked == len(cands)
    assert report.details == {"ball_facets": len(facets)}


def test_signed_pair_sets_match_the_recursive_oracle():
    for k in range(1, 5):
        for n in range(16):
            assert lemmas._signed_pair_sets(k, n) == signed_pair_sets_by_recursion(k, n), (k, n)


def test_signed_pair_candidates():
    cands = generate_candidates(LemmaId.PN_FACETS, 2, 6)
    assert len(cands) == 12
    cset = set(cands)
    assert (1, 2, 4, 6) in cset
    assert (-2, -1, 4, 6) in cset
    # one sign choice per pair, never mixed within a pair
    for c in cands:
        assert len(c) == 4


def test_even_candidates_are_negation_closed():
    cands = generate_candidates(LemmaId.EVEN_FACETS, 2, 7)
    assert len(cands) == 24
    cset = set(cands)
    for c in cset:
        assert tuple(sorted(-v for v in c)) in cset


def test_ball_candidates():
    cands = generate_candidates(LemmaId.BALL_FACET, 2, 7)
    assert len(cands) == 6
    assert all(set(c) >= {5, 6, 7} for c in cands)


def test_chain_and_bdl_have_no_face_candidates():
    with pytest.raises(InvalidParameters):
        generate_candidates(LemmaId.CHAIN, 3, 8)
    with pytest.raises(InvalidParameters):
        generate_candidates(LemmaId.BDL, 2, 8)


def test_boundary_face_check_passes(cs_cache):
    report = verify_lemma("rsq-facets", 3, 13, cache=cs_cache)
    assert report.passed
    assert report.failures == ()
    assert report.candidates_checked == 88
    assert report.details["ball_facets"] == 36


def test_signed_pair_check_passes(cs_cache):
    for k, n in ((2, 6), (3, 8)):
        report = verify_lemma(LemmaId.PN_FACETS, k, n, cache=cs_cache)
        assert report.passed and not report.failures
    # cross-check one candidate against the construction directly
    sphere = cs_sphere(3, 6, cache=cs_cache)
    ball = cs_ball(3, 1, 6, cache=cs_cache)
    remaining = sphere.facets - ball.facets - negate(ball).facets
    assert (1, 2, 4, 6) in remaining


def test_even_check_passes_and_validates_m(cs_cache):
    report = verify_lemma(LemmaId.EVEN_FACETS, 2, 7, cache=cs_cache)
    assert report.passed
    assert report.params == {"k": 2, "n": 7, "m": 8}
    assert report.candidates_checked == 24
    with pytest.raises(InvalidParameters):
        verify_lemma(LemmaId.EVEN_FACETS, 2, 7, m=7, cache=cs_cache)


def test_middle_ball_check_passes(cs_cache):
    report = verify_lemma(LemmaId.BALL_FACET, 2, 7, cache=cs_cache)
    assert report.passed
    assert report.candidates_checked == 6


def test_containment_chain_passes(cs_cache):
    report = verify_lemma(LemmaId.CHAIN, 3, 8, cache=cs_cache)
    assert report.passed
    assert report.details == {
        "low_facets": 1,
        "mid_facets": 8,
        "high_facets": 30,
    }


def test_poset_transversal_bound(cs_cache):
    report = verify_lemma(LemmaId.BDL, 2, 8, cache=cs_cache)
    assert report.passed
    assert report.details["bound"] == 3
    assert report.details["tau_lower"] == 3
    assert report.details["optimal"]
    assert report.params == {"k": 2, "n": 8}


def test_poset_transversal_bound_fails_without_budget(cs_cache):
    # starved solver only proves the matching bound, which is too weak
    report = verify_lemma(LemmaId.BDL, 2, 8, time_budget=0.0, cache=cs_cache)
    assert not report.passed
    assert report.failures
    assert not report.details["optimal"]


@pytest.mark.parametrize("lemma", [lid.value for lid in LemmaId if lid is not LemmaId.EVEN_FACETS])
def test_only_even_facets_takes_m(lemma):
    with pytest.raises(InvalidParameters, match="does not take m"):
        verify_lemma(lemma, 2, 8, m=3)


@pytest.mark.parametrize(
    "lemma, k, n, message",
    [
        ("bdl", 0, 8, "need k >= 1$"),
        ("rsq-facets", 3, 6, "need n >= 7"),
        ("rsq-facets", 2, 9, "need k >= 3"),
        ("pn", 1, 8, "need k >= 2"),
        ("chain", 1, 8, "need k >= 2"),
    ],
)
def test_verify_lemma_refuses_out_of_range_parameters(lemma, k, n, message):
    with pytest.raises(InvalidParameters, match=message):
        verify_lemma(lemma, k, n)


def test_bdl_rejects_an_empty_poset():
    with pytest.raises(InvalidParameters):
        verify_lemma(LemmaId.BDL, 4, 5)
