import itertools
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import relative_squeezed_ball_by_difference
from spheretrans import (
    EMPTY,
    Antichain,
    PairPattern,
    PureComplex,
    boundary,
    cyclic_boundary,
    enumerate_pair_poset,
    f_vector,
    gf2_betti,
    is_closed_pseudomanifold,
    is_k_neighborly,
    neighborly_antichain,
    pattern_leq,
    relative_difference,
    relative_squeezed_ball,
    relative_squeezed_sphere,
    sew,
    sewing_antichain,
    shift_antichain,
    simplex,
    squeezed_ball,
    stacked_sphere,
)
from spheretrans.errors import (
    ArityMismatch,
    InvalidParameters,
    NotSubcomplex,
    VertexClash,
)


def test_pair_pattern_realization():
    p = PairPattern((2, 4, 8))
    assert p.k == 3
    assert p.face() == (2, 3, 4, 5, 8, 9)
    assert p.fits(1, 9) and p.fits(2, 10)
    assert not p.fits(3, 9) and not p.fits(1, 8)


def test_pair_pattern_validation():
    with pytest.raises(InvalidParameters):
        PairPattern(())
    with pytest.raises(InvalidParameters):
        PairPattern((0, 3))
    with pytest.raises(InvalidParameters):
        PairPattern((1, 2))  # pairs {1,2} and {2,3} would overlap
    # True is an int to isinstance, but no start: it would realize as True
    for starts in ((True, 4), (1.5, 4)):
        with pytest.raises(InvalidParameters, match="starts must be integers"):
            PairPattern(starts)


def test_pattern_leq_is_the_product_order():
    assert pattern_leq(PairPattern((1, 3)), PairPattern((2, 4)))
    assert not pattern_leq(PairPattern((2, 4)), PairPattern((1, 5)))
    with pytest.raises(ArityMismatch):
        pattern_leq(PairPattern((1,)), PairPattern((1, 3)))


@pytest.mark.parametrize("k,n", [(1, 6), (2, 8), (3, 10)])
def test_start_order_equals_realized_face_order(k, n):
    poset = enumerate_pair_poset(k, 1, n)
    for a, b in itertools.product(poset, repeat=2):
        facewise = all(x <= y for x, y in zip(a.face(), b.face()))
        assert pattern_leq(a, b) == facewise


def test_enumerate_pair_poset_small_window():
    assert [p.starts for p in enumerate_pair_poset(2, 1, 5)] == [
        (1, 3),
        (1, 4),
        (2, 4),
    ]
    faces = [p.face() for p in enumerate_pair_poset(2, 1, 5)]
    assert faces == [(1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 4, 5)]


def test_enumerate_pair_poset_counts():
    assert len(enumerate_pair_poset(3, 1, 12)) == comb(9, 3)
    for k, m, n in ((2, 1, 9), (3, 2, 11), (4, 1, 14)):
        width = n - m + 1
        assert len(enumerate_pair_poset(k, m, n)) == comb(width - k, k)
    assert enumerate_pair_poset(2, 1, 3) == []
    with pytest.raises(InvalidParameters):
        enumerate_pair_poset(0, 1, 5)


def test_enumeration_is_sorted_by_starts():
    poset = enumerate_pair_poset(2, 6, 10)
    assert [p.starts for p in poset] == [(6, 8), (6, 9), (7, 9)]


def test_antichain_rejects_comparable_members():
    with pytest.raises(InvalidParameters):
        Antichain(2, 8, [PairPattern((1, 3)), PairPattern((2, 4))])
    with pytest.raises(InvalidParameters):
        Antichain(2, 8, [PairPattern((1, 3, 5))])  # arity mismatch
    with pytest.raises(InvalidParameters):
        Antichain(2, 5, [PairPattern((3, 5))])  # 6 falls outside [1, 5]


def test_squeezed_ball_of_one_generator():
    ball = squeezed_ball(Antichain(2, 5, [PairPattern((2, 4))]))
    assert ball.sorted_facets() == [
        (1, 2, 3, 4),
        (1, 2, 4, 5),
        (2, 3, 4, 5),
    ]
    assert squeezed_ball(Antichain(2, 5, [])) == EMPTY


def ideal_by_filter(s):
    """The order ideal by testing the whole pair poset against every member."""
    return PureComplex(
        p.face()
        for p in enumerate_pair_poset(s.k, 1, s.n)
        if any(pattern_leq(p, q) for q in s.members)
    )


def test_squeezed_ball_is_the_order_ideal():
    for s in (
        [neighborly_antichain(3, n) for n in (12, 13, 14)]
        + [neighborly_antichain(4, 22), neighborly_antichain(5, 21)]
        + [sewing_antichain(2, n) for n in (5, 6, 9, 14)]
    ):
        assert squeezed_ball(s) == ideal_by_filter(s)


def test_relative_squeezed_ball_matches_the_shifted_ball_difference():
    for s in (
        [neighborly_antichain(3, n) for n in (12, 13, 14)]
        + [neighborly_antichain(4, 22), neighborly_antichain(5, 21)]
        + [sewing_antichain(2, n) for n in range(5, 16)]
        + [sewing_antichain(3, n) for n in range(7, 16)]
    ):
        assert relative_squeezed_ball(s) == relative_squeezed_ball_by_difference(s)


@hst.composite
def antichains(draw):
    k = draw(hst.integers(1, 4))
    n = draw(hst.integers(2 * k, 14))
    drawn = draw(hst.lists(hst.sampled_from(enumerate_pair_poset(k, 1, n)), max_size=6))
    maximal = [p for p in drawn if not any(p != q and pattern_leq(p, q) for q in drawn)]
    return Antichain(k, n, maximal)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(antichains())
def test_squeezed_balls_of_random_antichains_match_the_filter(s):
    assert squeezed_ball(s) == ideal_by_filter(s)
    assert relative_squeezed_ball(s) == relative_difference(
        ideal_by_filter(s), ideal_by_filter(shift_antichain(s))
    )


def test_pair_pattern_builders_do_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        sphere = cyclic_boundary(300, 301)
        ball = squeezed_ball(Antichain(150, 301, [PairPattern(tuple(range(2, 301, 2)))]))
    finally:
        sys.setrecursionlimit(limit)
    assert len(sphere) == 301  # the boundary of the 300-simplex
    # below (2, 4, ..., 300) a prefix of the starts is lowered by one
    assert len(ball) == 151


def test_shift_antichain_drops_members_starting_at_one():
    a12 = neighborly_antichain(3, 12)
    assert sorted(p.starts for p in a12.members) == [
        (1, 9, 11),
        (2, 8, 10),
        (3, 7, 9),
        (4, 6, 8),
    ]
    shifted = shift_antichain(a12)
    assert sorted(p.starts for p in shifted.members) == [
        (1, 7, 9),
        (2, 6, 8),
        (3, 5, 7),
    ]
    gone = shift_antichain(Antichain(2, 5, [PairPattern((1, 3))]))
    assert gone.members == frozenset()


def test_relative_squeezed_ball_of_one_generator():
    ball = relative_squeezed_ball(Antichain(2, 5, [PairPattern((2, 4))]))
    assert ball.sorted_facets() == [(1, 2, 4, 5), (2, 3, 4, 5)]


def test_relative_squeezed_sphere_is_a_two_neighborly_four_sphere():
    sphere = relative_squeezed_sphere(neighborly_antichain(3, 13))
    fv = f_vector(sphere)
    assert fv[0] == 13
    assert fv[1] == comb(13, 2)
    assert is_k_neighborly(sphere, 2)
    assert is_closed_pseudomanifold(sphere).passed
    assert gf2_betti(sphere) == (1, 0, 0, 0, 1)


def test_neighborly_antichain_shape():
    a13 = neighborly_antichain(3, 13)
    members = sorted(a13.members, key=lambda p: p.starts)
    assert members[0].face() == (1, 2, 10, 11, 12, 13)
    assert len(members) == 13 // 2 - 3 + 1
    # spot-check incomparability of the first two members both ways
    assert not pattern_leq(members[0], members[1])
    assert not pattern_leq(members[1], members[0])
    with pytest.raises(InvalidParameters):
        neighborly_antichain(2, 9)
    with pytest.raises(InvalidParameters):
        neighborly_antichain(3, 6)


def test_sewing_antichain_arity_two_is_the_corner_pattern():
    s = sewing_antichain(2, 8)
    assert [p.face() for p in s.members] == [(1, 2, 7, 8)]
    assert sewing_antichain(3, 13).members == neighborly_antichain(3, 13).members


def test_sew_reproduces_a_stellar_subdivision():
    sphere = boundary(simplex([1, 2, 3, 4]))
    subdivided = sew(sphere, simplex([1, 2, 3]), 5)
    assert subdivided == stacked_sphere(3, 5)


def test_sew_validation():
    sphere = boundary(simplex([1, 2, 3, 4]))
    with pytest.raises(VertexClash):
        sew(sphere, simplex([1, 2, 3]), 4)
    with pytest.raises(NotSubcomplex):
        sew(sphere, simplex([1, 2, 5]), 6)
    with pytest.raises(NotSubcomplex):
        sew(sphere, sphere, 5)
    with pytest.raises(NotSubcomplex):
        sew(sphere, EMPTY, 5)
    with pytest.raises(InvalidParameters):
        sew(sphere, simplex([1, 2, 3]), 0)
    # True == 1, a vertex of the sphere, and no label: refused as an apex
    # before the clash test or face() sees it
    with pytest.raises(InvalidParameters, match="apex"):
        sew(sphere, simplex([1, 2, 3]), True)


def test_sewing_into_the_cyclic_sphere():
    host = cyclic_boundary(4, 8)
    ball = relative_squeezed_ball(sewing_antichain(2, 8))
    assert ball.facets <= host.facets
    sewn = sew(host, ball, 9)
    assert sewn.vertex_count == 9
    assert is_k_neighborly(sewn, 2)
    assert is_closed_pseudomanifold(sewn).passed
    assert gf2_betti(sewn) == (1, 0, 0, 1)
