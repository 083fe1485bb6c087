import sys

import pytest

from spheretrans import (
    EMPTY,
    PureComplex,
    boundary,
    cross_boundary,
    cs_ball,
    cs_sphere,
    edge_link_search,
    edge_link_sphere,
    f_vector,
    gf2_betti,
    is_closed_pseudomanifold,
    is_cs,
    is_cs_k_neighborly,
    join,
    link,
    negate,
    relative_difference,
    simplex,
    union,
)
from spheretrans.errors import (
    FaceNotPresent,
    InvalidParameters,
    RecursionInvariantViolated,
    TooFewVertices,
)


def test_dimension_one_sphere_is_the_signed_cycle(cs_cache):
    cycle = cs_sphere(1, 3, cache=cs_cache)
    assert cycle.facets == {
        (1, 2),
        (2, 3),
        (-1, 3),
        (-2, -1),
        (-3, -2),
        (-3, 1),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_minimum_vertex_sphere_is_the_cross_polytope(d, cs_cache):
    assert cs_sphere(d, d + 1, cache=cs_cache) == cross_boundary(d + 1)


def test_three_sphere_on_twelve_vertices(cs_cache):
    sphere = cs_sphere(3, 6, cache=cs_cache)
    assert sphere.vertex_count == 12
    assert len(sphere) == 48
    assert is_cs(sphere)
    assert is_cs_k_neighborly(sphere, 2)
    assert is_closed_pseudomanifold(sphere).passed
    assert gf2_betti(sphere) == (1, 0, 0, 1)


@pytest.mark.parametrize("n", range(4, 9))
def test_three_sphere_dehn_sommerville(n, cs_cache):
    fv = f_vector(cs_sphere(3, n, cache=cs_cache))
    assert fv[0] == 2 * n
    assert fv[3] == fv[1] - fv[0]
    assert fv.euler_characteristic == 0


def test_sphere_parameter_errors():
    with pytest.raises(InvalidParameters):
        cs_sphere(0, 5)
    with pytest.raises(TooFewVertices):
        cs_sphere(3, 4 - 1)


def test_low_ball_is_one_edge(cs_cache):
    for n in (3, 5, 9):
        assert cs_ball(1, 0, n, cache=cs_cache).facets == {(-1, n)}


@pytest.mark.parametrize("n", [3, 5, 8])
def test_top_edge_ball_is_a_path(n, cs_cache):
    path = cs_ball(1, 1, n, cache=cs_cache)
    assert len(path) == 2 * n - 1
    degree: dict[int, int] = {}
    for a, b in path.facets:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    ends = sorted(v for v, c in degree.items() if c == 1)
    assert ends == [-1, n]
    assert all(c == 2 for v, c in degree.items() if v not in (-1, n))


def test_two_ball_join_rule_by_hand(cs_cache):
    got = cs_ball(2, 1, 4, cache=cs_cache)
    assert got.sorted_facets() == [
        (-4, -3, 1),
        (-3, -2, 4),
        (-3, 1, 4),
        (-2, -1, 4),
        (1, 2, 4),
        (2, 3, 4),
    ]


def _ball_by_definition(d, i, n, cache):
    """cs_ball(d, i, n) from the complex algebra and the results below it."""
    if d % 2 == 1 and i == (d + 1) // 2:
        return relative_difference(
            cs_sphere(d, n, cache=cache), cs_ball(d, i - 1, n, cache=cache)
        )
    cone = join(cs_ball(d - 1, i, n - 1, cache=cache), simplex([n]))
    lower = cs_ball(d - 1, i - 1, n - 1, cache=cache)
    if lower.is_empty:  # EMPTY is the identity of join, not a cone base
        return cone
    return union(cone, join(negate(lower), simplex([-n])))


def _sphere_by_definition(d, n, cache):
    """cs_sphere(d, n) as cs_sphere(d, n - 1) with the replacement ball and
    its negation swapped for the cone over its boundary and that cone's
    negation."""
    ball = cs_ball(d, (d + 1) // 2 - 1, n - 1, cache=cache)
    kept = relative_difference(
        relative_difference(cs_sphere(d, n - 1, cache=cache), ball), negate(ball)
    )
    cone = join(boundary(ball), simplex([n]))
    return union(union(kept, cone), negate(cone))


@pytest.mark.parametrize("d", range(2, 7))
def test_recursion_matches_its_algebraic_definition(d, cs_cache):
    for n in range(d + 1, d + 7):
        for i in range((d + 1) // 2 + 1):
            assert cs_ball(d, i, n, cache=cs_cache) == _ball_by_definition(d, i, n, cs_cache)
        if n > d + 1:
            assert cs_sphere(d, n, cache=cs_cache) == _sphere_by_definition(d, n, cs_cache)


def test_ball_outside_its_sphere_is_caught():
    cache = {("sphere", 2, 6): cs_sphere(2, 5, cache={})}
    with pytest.raises(RecursionInvariantViolated, match="not contained in its sphere"):
        cs_ball(2, 0, 6, cache=cache)


def test_replacement_ball_meeting_its_negation_is_caught():
    cache = {("ball", 2, 0, 5): PureComplex([(1, 2, 3), (-3, -2, -1)])}
    with pytest.raises(RecursionInvariantViolated, match="share facets"):
        cs_sphere(2, 6, cache=cache)


def test_negative_index_ball_is_empty(cs_cache):
    assert cs_ball(3, -1, 7, cache=cs_cache) == EMPTY


@pytest.mark.parametrize("d,n", [(3, 6), (4, 7), (5, 8)])
def test_low_balls_sit_inside_their_sphere(d, n, cs_cache):
    sphere = cs_sphere(d, n, cache=cs_cache)
    for i in range((d + 1) // 2):
        ball = cs_ball(d, i, n, cache=cs_cache)
        assert ball.facets <= sphere.facets
        assert ball.dimension == d


@pytest.mark.parametrize("d,n", [(3, 6), (4, 7), (5, 8)])
def test_replacement_ball_avoids_its_negation(d, n, cs_cache):
    ball = cs_ball(d, (d + 1) // 2 - 1, n, cache=cs_cache)
    assert not ball.facets & negate(ball).facets


def test_ball_parameter_errors():
    with pytest.raises(InvalidParameters):
        cs_ball(4, 3, 7)
    with pytest.raises(TooFewVertices):
        cs_ball(3, 1, 3)
    with pytest.raises(InvalidParameters):
        cs_ball(0, 0, 3)


def test_fresh_cache_reproduces_the_shared_one(cs_cache):
    assert cs_sphere(3, 7, cache={}) == cs_sphere(3, 7, cache=cs_cache)
    assert cs_ball(4, 1, 6, cache={}) == cs_ball(4, 1, 6, cache=cs_cache)


def test_sphere_recursion_depth_does_not_grow_with_n():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        sphere = cs_sphere(2, 300, cache={})
    finally:
        sys.setrecursionlimit(limit)
    # a cs 2-sphere on 600 vertices has 2 * 600 - 4 triangles
    assert len(sphere) == 1196


def test_edge_link_is_a_plain_link(cs_cache):
    lk = edge_link_sphere(2, 6, (-8, -7), cache=cs_cache)
    assert lk == link(cs_sphere(5, 8, cache=cs_cache), (-8, -7))
    # this particular link is the twelve-vertex member of the family
    assert lk == cs_sphere(3, 6, cache=cs_cache)
    assert edge_link_sphere(2, 6, (7, 8), cache=cs_cache) == negate(lk)


def test_edge_link_rejects_bad_edges(cs_cache):
    with pytest.raises(InvalidParameters):
        edge_link_sphere(1, 6, (1, 2), cache=cs_cache)
    with pytest.raises(InvalidParameters):
        edge_link_sphere(2, 6, (1, 2, 3), cache=cs_cache)
    with pytest.raises(FaceNotPresent):
        edge_link_sphere(2, 6, (1, -1), cache=cs_cache)


def test_edge_link_search_finds_only_sphere_links(cs_cache):
    reports = edge_link_search(2, 6, cache=cs_cache)
    assert len(reports) == 112  # every edge of the five-sphere on 16 labels
    assert all(r.sphere_profile for r in reports)
    assert all(r.vertex_count == 12 for r in reports)
    assert [r.edge for r in reports] == sorted(r.edge for r in reports)
    by_edge = {r.edge: r for r in reports}
    assert by_edge[(-8, -7)].centrally_symmetric
    assert by_edge[(7, 8)].centrally_symmetric
    with pytest.raises(InvalidParameters, match="need k >= 2"):
        edge_link_search(1, 6, cache=cs_cache)
