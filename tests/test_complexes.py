import pytest

from helpers import cs_neighborly_by_enumeration
from spheretrans import (
    EMPTY,
    PureComplex,
    boundary,
    cross_boundary,
    cs_sphere,
    cyclic_boundary,
    f_vector,
    face,
    gf2_betti,
    is_closed_pseudomanifold,
    is_cs,
    is_cs_k_neighborly,
    is_k_neighborly,
    join,
    link,
    negate,
    relative_difference,
    simplex,
    sphere_betti_profile,
    union,
)
from spheretrans.errors import (
    DimensionMismatch,
    FaceNotPresent,
    InvalidJoin,
    InvalidParameters,
    NotCentrallySymmetric,
    TooLarge,
)

OCTAHEDRON = cross_boundary(3)


def test_face_canonicalizes_sorted():
    assert face([3, -1, 2]) == (-1, 2, 3)


def test_face_rejects_zero_and_duplicates():
    with pytest.raises(ValueError):
        face([1, 0, 2])
    with pytest.raises(ValueError):
        face([1, 2, 2])


def test_purity_enforced():
    with pytest.raises(ValueError):
        PureComplex([(1, 2), (1, 2, 3)])


def test_empty_complex_identity():
    assert EMPTY.is_empty
    assert EMPTY.dimension == -1
    assert EMPTY.vertex_count == 0
    # a lone empty facet normalizes to the same thing
    assert PureComplex([()]) == EMPTY
    assert EMPTY.contains_face(())


def test_complex_equality_and_hash():
    a = PureComplex([(1, 2), (2, 3)])
    b = PureComplex([(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert len(a) == 2
    assert set(iter(a)) == {(1, 2), (2, 3)}


def test_contains_face_and_cardinality_queries():
    t = simplex([1, 2, 3])
    assert t.contains_face([2, 3])
    assert not t.contains_face([4])
    assert t.faces_of_cardinality(2) == {(1, 2), (1, 3), (2, 3)}
    assert t.faces_of_cardinality(0) == {()}
    with pytest.raises(InvalidParameters):
        t.faces_of_cardinality(-1)


def test_join_identity_and_clash():
    t = simplex([1, 2])
    assert join(EMPTY, t) == t
    assert join(t, EMPTY) == t
    with pytest.raises(InvalidJoin):
        join(t, simplex([2, 3]))


def test_join_of_three_antipodal_pairs_is_the_octahedron():
    pairs = [PureComplex([(i,), (-i,)]) for i in (1, 2, 3)]
    built = join(join(pairs[0], pairs[1]), pairs[2])
    assert built == OCTAHEDRON


def test_union_requires_equal_dimension():
    assert union(EMPTY, OCTAHEDRON) == OCTAHEDRON
    with pytest.raises(DimensionMismatch):
        union(simplex([1]), simplex([2, 3]))
    merged = union(simplex([1, 2]), simplex([2, 3]))
    assert merged.facets == {(1, 2), (2, 3)}


def test_relative_difference():
    sq = PureComplex([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert relative_difference(sq, EMPTY) == sq
    left = relative_difference(sq, PureComplex([(1, 2)]))
    assert left.facets == {(2, 3), (3, 4), (1, 4)}
    with pytest.raises(DimensionMismatch):
        relative_difference(sq, simplex([1]))


def test_boundary_of_simplex_and_of_closed_complex():
    assert boundary(simplex([1, 2, 3, 4])).facets == {
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    }
    assert boundary(OCTAHEDRON) == EMPTY
    assert boundary(simplex([5])) == EMPTY


def test_negate_is_an_involution():
    assert negate(negate(OCTAHEDRON)) == OCTAHEDRON
    assert negate(simplex([1, -2])).facets == {(-1, 2)}
    assert negate(EMPTY) == EMPTY


def test_vertex_link_in_the_octahedron_is_a_square():
    lk = link(OCTAHEDRON, [3])
    assert lk.dimension == 1
    assert len(lk) == 4
    assert lk.vertices == {1, -1, 2, -2}
    rep = is_closed_pseudomanifold(lk)
    assert rep.passed


def test_link_of_absent_face_raises():
    with pytest.raises(FaceNotPresent):
        link(OCTAHEDRON, [1, -1])


def test_f_vector_octahedron():
    fv = f_vector(OCTAHEDRON)
    assert fv.counts == (1, 6, 12, 8)
    assert fv[-1] == 1 and fv[0] == 6 and fv[2] == 8
    assert fv.euler_characteristic == 2


def test_f_vector_three_sphere_has_zero_euler():
    assert f_vector(cross_boundary(4)).euler_characteristic == 0


def test_f_vector_guard():
    with pytest.raises(TooLarge):
        f_vector(cross_boundary(5), max_faces=10)


def test_pseudomanifold_report_on_good_and_damaged_spheres():
    assert is_closed_pseudomanifold(OCTAHEDRON).passed
    damaged = PureComplex(sorted(OCTAHEDRON.facets)[1:])
    rep = is_closed_pseudomanifold(damaged)
    assert not rep.ridges_ok
    assert rep.bad_ridges  # the three exposed edges are the witnesses
    assert not rep.passed and not bool(rep)


def test_pseudomanifold_detects_disconnection():
    two_circles = PureComplex(
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    )
    rep = is_closed_pseudomanifold(two_circles)
    assert rep.ridges_ok and not rep.connected


def test_pseudomanifold_needs_dimension_one():
    with pytest.raises(InvalidParameters):
        is_closed_pseudomanifold(PureComplex([(1,), (2,)]))


def test_betti_profiles():
    assert gf2_betti(OCTAHEDRON) == (1, 0, 1)
    assert gf2_betti(cross_boundary(4)) == (1, 0, 0, 1)
    two_circles = PureComplex(
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    )
    assert gf2_betti(two_circles) == (2, 2)
    with pytest.raises(InvalidParameters):
        gf2_betti(EMPTY)
    with pytest.raises(TooLarge):
        gf2_betti(cross_boundary(4), max_faces=5)


def test_sphere_betti_profile():
    assert sphere_betti_profile(0) == (2,)
    assert sphere_betti_profile(3) == (1, 0, 0, 1)
    with pytest.raises(InvalidParameters):
        sphere_betti_profile(-1)


def test_simplex_boundary_is_maximally_neighborly():
    sphere = boundary(simplex([1, 2, 3, 4, 5]))
    assert is_k_neighborly(sphere, 4)


def test_octahedron_neighborliness_stops_at_one():
    assert is_k_neighborly(OCTAHEDRON, 1)
    assert not is_k_neighborly(OCTAHEDRON, 2)  # {1,-1} is no edge
    with pytest.raises(InvalidParameters):
        is_k_neighborly(OCTAHEDRON, 0)
    with pytest.raises(InvalidParameters):
        is_k_neighborly(OCTAHEDRON, 4)


def test_neighborliness_is_downward_monotone():
    sphere = cyclic_boundary(4, 8)
    assert is_k_neighborly(sphere, 2)
    assert is_k_neighborly(sphere, 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cross_boundaries_are_cs(d):
    assert is_cs(cross_boundary(d))


def test_cs_fails_without_negation_symmetry():
    assert not is_cs(boundary(simplex([1, 2, 3, 4])))
    lopsided = PureComplex(sorted(OCTAHEDRON.facets)[1:])
    assert not is_cs(lopsided)


def test_cs_neighborliness():
    assert is_cs_k_neighborly(OCTAHEDRON, 3)
    assert is_cs_k_neighborly(OCTAHEDRON, 2)
    with pytest.raises(NotCentrallySymmetric):
        is_cs_k_neighborly(boundary(simplex([1, 2, 3])), 1)
    with pytest.raises(InvalidParameters):
        is_cs_k_neighborly(OCTAHEDRON, 5)


@pytest.mark.parametrize("d, n", [(3, 8), (4, 7)])
def test_cs_neighborliness_count_matches_enumeration(d, n):
    sphere = cs_sphere(d, n)
    assert not is_cs_k_neighborly(sphere, 3)
    for k in range(1, d + 2):
        expected = cs_neighborly_by_enumeration(sphere.facets, k)
        assert is_cs_k_neighborly(sphere, k) == expected
