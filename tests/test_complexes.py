import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from helpers import (
    cs_neighborly_by_enumeration,
    facet_lists,
    gf2_betti_dense,
    pseudomanifold_by_counter,
    signed_relabelling,
)
from spheretrans import (
    EMPTY,
    PureComplex,
    boundary,
    cross_boundary,
    cs_ball,
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
    neighborly_antichain,
    relative_difference,
    relative_squeezed_sphere,
    simplex,
    sphere_betti_profile,
    union,
)
from spheretrans import complexes
from spheretrans.errors import (
    DimensionMismatch,
    FaceNotPresent,
    InvalidJoin,
    InvalidParameters,
    NotCentrallySymmetric,
    TooLarge,
)

OCTAHEDRON = cross_boundary(3)
# the 6-vertex real projective plane and the 7-vertex (Moebius) torus
RP2 = PureComplex(
    [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
     (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
)
TORUS = PureComplex(
    (i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1) for i in range(7) for a in (1, 2)
)


def test_face_canonicalizes_sorted():
    assert face([3, -1, 2]) == (-1, 2, 3)


def test_face_rejects_zero_and_duplicates():
    with pytest.raises(ValueError):
        face([1, 0, 2])
    with pytest.raises(ValueError):
        face([1, 2, 2])
    # bool is a subclass of int, but True is no label
    with pytest.raises(ValueError):
        face([True, 2])
    with pytest.raises(ValueError):
        PureComplex([(True, 2)])
    # labels are checked before they are sorted, so no TypeError escapes
    with pytest.raises(ValueError, match="nonzero integers, got 'a'"):
        PureComplex([("a", 2)])


def test_purity_enforced():
    with pytest.raises(ValueError, match=r"unequal cardinality: \[2, 3\]"):
        PureComplex([(1, 2), (1, 2, 3)])
    # empty facets are dropped before the sizes are compared
    assert PureComplex([(), (2, 1)]).facets == {(1, 2)}


def test_empty_complex_identity():
    assert EMPTY.is_empty
    assert EMPTY.dimension == -1
    assert EMPTY.vertex_count == 0
    # a lone empty facet normalizes to the same thing
    assert PureComplex([()]) == EMPTY
    assert EMPTY.contains_face(())
    assert repr(EMPTY) == "PureComplex(EMPTY)"


def test_complex_equality_and_hash():
    a = PureComplex([(1, 2), (2, 3)])
    b = PureComplex([(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    # a non-complex gets NotImplemented, so Python falls back to identity
    assert a.__eq__(3) is NotImplemented
    assert (a == 3) is False
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
    assert union(OCTAHEDRON, EMPTY) is OCTAHEDRON
    with pytest.raises(DimensionMismatch):
        union(simplex([1]), simplex([2, 3]))
    merged = union(simplex([1, 2]), simplex([2, 3]))
    assert merged.facets == {(1, 2), (2, 3)}


def test_relative_difference():
    sq = PureComplex([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert relative_difference(sq, EMPTY) == sq
    left = relative_difference(sq, PureComplex([(1, 2)]))
    assert left.facets == {(2, 3), (3, 4), (1, 4)}
    gone = relative_difference(sq, sq)
    assert gone == EMPTY
    assert gone.dimension == -1
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
    # a facet is present, and its link holds only the empty face
    lk = link(OCTAHEDRON, (-3, 1, 2))
    assert lk == EMPTY
    assert lk.dimension == -1
    with pytest.raises(FaceNotPresent, match=r"\(-3, -2, -1, 1\) is not a face"):
        link(OCTAHEDRON, (1, -1, -2, -3))
    # the empty face lies in every complex, EMPTY included
    assert link(OCTAHEDRON, ()) == OCTAHEDRON
    assert link(EMPTY, ()) == EMPTY
    with pytest.raises(FaceNotPresent):
        link(EMPTY, (1,))


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
    # the octahedron has 27 faces, the empty face included
    assert f_vector(OCTAHEDRON, max_faces=27).counts == (1, 6, 12, 8)
    with pytest.raises(TooLarge):
        f_vector(OCTAHEDRON, max_faces=26)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_f_vector_holds_one_layer_at_a_time():
    sphere = relative_squeezed_sphere(neighborly_antichain(4, 22))
    largest = max(
        _traced_peak(lambda c=c: len(sphere.faces_of_cardinality(c)))
        for c in range(1, sphere.dimension + 2)
    )
    # its two largest layers hold 7,686 and 5,712 faces: holding both
    # at once costs about 1.7 times the largest alone
    assert _traced_peak(lambda: f_vector(sphere)) < 1.25 * largest


def test_pseudomanifold_report_on_good_and_damaged_spheres():
    assert is_closed_pseudomanifold(OCTAHEDRON).passed
    damaged = PureComplex(sorted(OCTAHEDRON.facets)[1:])
    rep = is_closed_pseudomanifold(damaged)
    assert not rep.ridges_ok
    # the three edges of the removed facet (-3, -2, -1) are the witnesses
    assert rep.bad_ridges == ((-3, -2), (-3, -1), (-2, -1))
    assert rep.connected
    assert not rep.passed and not bool(rep)
    # a fin glued on the edge (-2, -1): that edge lies in three facets and
    # the two new edges of the fin in one each
    fin = PureComplex(sorted(OCTAHEDRON.facets) + [(-2, -1, 7)])
    rep = is_closed_pseudomanifold(fin)
    assert rep.bad_ridges == ((-2, -1), (-2, 7), (-1, 7))
    assert rep.connected and not rep.passed


def test_pseudomanifold_detects_disconnection():
    two_circles = PureComplex(
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    )
    rep = is_closed_pseudomanifold(two_circles)
    assert rep.ridges_ok and not rep.connected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(facet_lists())
def test_pseudomanifold_matches_the_counter_oracle(facets):
    delta = PureComplex(facets)
    assume(delta.dimension >= 1)
    rep = is_closed_pseudomanifold(delta)
    assert (rep.connected, rep.bad_ridges) == pseudomanifold_by_counter(delta.facets)


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
    # 26 nonempty faces
    assert gf2_betti(OCTAHEDRON, max_faces=26) == (1, 0, 1)
    with pytest.raises(TooLarge):
        gf2_betti(OCTAHEDRON, max_faces=25)
    # 7 + 21 + 14 = 42 nonempty faces
    assert gf2_betti(TORUS, max_faces=42) == (1, 2, 1)
    with pytest.raises(TooLarge, match="face count exceeds 41"):
        gf2_betti(TORUS, max_faces=41)


def test_betti_numbers_of_non_spheres():
    assert f_vector(RP2).counts == (1, 6, 15, 10)
    assert f_vector(TORUS).counts == (1, 7, 21, 14)
    assert is_closed_pseudomanifold(RP2) and is_closed_pseudomanifold(TORUS)
    # over GF(2) the projective plane is not orientable: b_1 = b_2 = 1
    assert gf2_betti(RP2) == gf2_betti_dense(RP2.facets) == (1, 1, 1)
    assert gf2_betti(TORUS) == gf2_betti_dense(TORUS.facets) == (1, 2, 1)


def test_betti_numbers_do_not_depend_on_the_labels():
    sphere = cs_sphere(4, 12)
    relabelled = PureComplex(signed_relabelling(sphere.facets))
    assert relabelled != sphere and is_cs(relabelled)
    assert gf2_betti(sphere) == gf2_betti(relabelled) == (1, 0, 0, 0, 1)


def _euler_from_betti(betti):
    return sum((-1) ** i * b for i, b in enumerate(betti))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(facet_lists())
def test_betti_numbers_match_the_dense_oracle(facets):
    delta = PureComplex(facets)
    betti = gf2_betti(delta)
    assert betti == gf2_betti_dense(delta.facets)
    assert _euler_from_betti(betti) == f_vector(delta).euler_characteristic


CHECKS = {
    "f_vector": lambda delta: f_vector(delta).counts,
    "gf2_betti": gf2_betti,
    "is_k_neighborly": lambda delta: [
        is_k_neighborly(delta, k) for k in range(1, delta.dimension + 2)
    ],
    "is_cs_k_neighborly": lambda delta: [
        is_cs_k_neighborly(delta, k) for k in range(1, delta.dimension + 2)
    ],
    "is_closed_pseudomanifold": is_closed_pseudomanifold,
}


def _answer(check, delta):
    try:
        return CHECKS[check](delta)
    except (NotCentrallySymmetric, InvalidParameters) as exc:
        return repr(exc)


def _answers_in_order(facets, order):
    delta = PureComplex(facets)
    return {check: _answer(check, delta) for check in order}


def _sorted_codes(delta, c, s):
    """The sorted int codes of the c-faces, as _facet_codes defines them."""
    rank = {v: r for r, v in enumerate(sorted(delta.vertices))}
    codes = []
    for F in delta.faces_of_cardinality(c):
        code = 0
        for v in F:
            code = code << s | rank[v]
        codes.append(code)
    return sorted(codes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(facet_lists(), hst.permutations(list(CHECKS)))
def test_stored_face_counts_do_not_depend_on_call_order(facets, order):
    delta = PureComplex(facets)
    counts = f_vector(delta).counts
    assert counts == tuple(
        len(delta.faces_of_cardinality(c)) for c in range(delta.dimension + 2)
    )
    s, layers = delta._codes
    for c, layer in zip(range(delta.dimension + 1, 0, -1), layers):
        assert list(layer) == _sorted_codes(delta, c, s)
    # each check alone on a fresh complex, then all of them on one
    # complex in the drawn order
    alone = {check: _answer(check, PureComplex(facets)) for check in CHECKS}
    assert _answers_in_order(facets, order) == alone
    # the guard and its message hold also when gf2_betti stored the counts
    stored = PureComplex(facets)
    gf2_betti(stored)
    for delta in (PureComplex(facets), stored):
        with pytest.raises(TooLarge, match=f"^face count exceeds {sum(counts) - 1}$"):
            f_vector(delta, max_faces=sum(counts) - 1)
    assert f_vector(stored, max_faces=sum(counts)).counts == counts


def test_stored_face_counts_on_cs_spheres():
    for d, n in ((3, 8), (4, 9), (5, 8)):
        facets = list(cs_sphere(d, n).facets)
        alone = {check: _answer(check, PureComplex(facets)) for check in CHECKS}
        assert all(alone["is_cs_k_neighborly"][: (d + 1) // 2])
        for order in (list(CHECKS), list(CHECKS)[::-1]):
            assert _answers_in_order(facets, order) == alone


WALKED_ONCE = ("f_vector", "gf2_betti", "is_k_neighborly")


@pytest.mark.parametrize("order", itertools.permutations(WALKED_ONCE))
def test_each_complex_is_walked_once(monkeypatch, order):
    walks = []
    facet_codes = complexes._facet_codes
    monkeypatch.setattr(
        complexes, "_facet_codes", lambda delta: walks.append(delta) or facet_codes(delta)
    )
    delta = PureComplex(cs_sphere(4, 9).facets)
    for check in order:
        CHECKS[check](delta)
    assert walks == [delta]


def test_pseudomanifold_check_reads_the_kept_facet_codes(monkeypatch):
    calls = []
    facet_codes = complexes._facet_codes
    monkeypatch.setattr(
        complexes, "_facet_codes", lambda delta: calls.append(delta) or facet_codes(delta)
    )
    # a cs sphere, and one with a facet removed: its witnesses are the
    # removed facet's ridges, in lex order
    sphere = cs_sphere(4, 9)
    holed = PureComplex(sorted(sphere.facets)[1:])
    for delta in (sphere, holed):
        fresh, walked = PureComplex(delta.facets), PureComplex(delta.facets)
        f_vector(walked)
        calls.clear()
        assert is_closed_pseudomanifold(walked) == is_closed_pseudomanifold(fresh)
        assert calls == [fresh]
    hole = sorted(sphere.facets)[0]
    assert is_closed_pseudomanifold(holed).bad_ridges == tuple(
        hole[:k] + hole[k + 1 :] for k in reversed(range(len(hole)))
    )


def test_face_codes_wider_than_64_bits():
    # 13 vertex-disjoint boundaries of the 10-simplex: 143 vertices, so
    # 8-bit fields and 80-bit facet codes, kept as lists
    facets = [
        F for i in range(13) for F in itertools.combinations(range(11 * i + 1, 11 * i + 12), 10)
    ]
    counts = (1, *(13 * comb(11, c) for c in range(1, 11)))
    betti = (13, *[0] * 8, 13)
    first, second = PureComplex(facets), PureComplex(facets)
    assert f_vector(first).counts == counts and gf2_betti(first) == betti
    assert gf2_betti(second) == betti and f_vector(second).counts == counts
    for delta in (first, second):
        s, layers = delta._codes
        assert s * (delta.dimension + 1) == 80
        assert all(type(layer) is list for layer in layers)
        assert layers[0] == _sorted_codes(delta, 10, s)


def _shifted(delta, by):
    return PureComplex(tuple(v + by if v > 0 else v - by for v in F) for F in delta.facets)


def test_betti_numbers_of_a_ball_and_of_two_disjoint_spheres():
    ball = cs_ball(3, 1, 9)
    two_spheres = union(cross_boundary(4), _shifted(cs_sphere(3, 6), 10))
    assert gf2_betti(ball) == (1, 0, 0, 0)
    assert gf2_betti(two_spheres) == (2, 0, 0, 2)
    for delta in (ball, two_spheres, OCTAHEDRON, cs_sphere(4, 8)):
        assert _euler_from_betti(gf2_betti(delta)) == f_vector(delta).euler_characteristic


def test_betti_peak_memory_is_pinned():
    # 21,758 faces: int face codes with columns rebuilt on demand peak near
    # 2.1 MiB, tuple faces with stored columns near 3.6 MiB, dense bitmask
    # columns near 7 MiB
    sphere = relative_squeezed_sphere(neighborly_antichain(4, 22))
    tracemalloc.start()
    try:
        assert gf2_betti(sphere) == (1, 0, 0, 0, 0, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


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
    # negation-invariant, but a facet holds an antipodal pair
    assert not is_cs(PureComplex([(1, -1)]))
    assert not is_cs(PureComplex([(1, 2), (-1, 2)]))
    assert is_cs(PureComplex([(1, 2), (-2, -1)]))
    assert is_cs(EMPTY)


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
