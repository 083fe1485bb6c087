import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from helpers import brute_force_transversal, gale_all_pairs, stacked_sphere_by_rescan
from spheretrans import (
    cross_boundary,
    cyclic_boundary,
    exact_transversal,
    f_vector,
    facet_hypergraph,
    gf2_betti,
    is_closed_pseudomanifold,
    is_cs,
    is_cs_k_neighborly,
    is_k_neighborly,
    sphere_betti_profile,
    stacked_sphere,
    transversal_ratio,
)
from spheretrans.errors import InvalidParameters, TooFewVertices


def moment_curve_hull_facets(d, n):
    """Convex hull of n points on the moment curve, facets as label sets."""
    pts = np.array([[t ** e for e in range(1, d + 1)] for t in range(1, n + 1)], float)
    hull = ConvexHull(pts)
    return {tuple(sorted(int(i) + 1 for i in s)) for s in hull.simplices}


def test_small_cyclic_boundary_matches_the_known_facet_list():
    got = cyclic_boundary(3, 5).facets
    assert got == {
        (1, 2, 3),
        (1, 2, 5),
        (1, 3, 4),
        (1, 4, 5),
        (2, 3, 5),
        (3, 4, 5),
    }


@pytest.mark.parametrize("d,n", [(3, 5), (4, 7), (4, 8), (5, 9)])
def test_cyclic_boundary_agrees_with_the_convex_hull(d, n):
    assert cyclic_boundary(d, n).facets == moment_curve_hull_facets(d, n)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(1, 10) for n in range(d + 1, 14)])
def test_cyclic_boundary_agrees_with_the_all_pairs_filter(d, n):
    expected = {
        c
        for c in itertools.combinations(range(1, n + 1), d)
        if gale_all_pairs(c, n)
    }
    sphere = cyclic_boundary(d, n)
    assert sphere.facets == expected
    k = d // 2
    if d % 2 == 0:
        assert len(sphere) * (n - k) == n * comb(n - k, k)
    else:
        assert len(sphere) == 2 * comb(n - k - 1, k)


def test_cyclic_four_polytope_facet_count():
    sphere = cyclic_boundary(4, 7)
    assert len(sphere) == 14
    assert len(sphere) == 7 * (7 - 3) // 2


@pytest.mark.parametrize("d,n", [(3, 8), (4, 9), (5, 10), (6, 9), (6, 12)])
def test_cyclic_boundaries_are_spheres(d, n):
    sphere = cyclic_boundary(d, n)
    assert is_closed_pseudomanifold(sphere).passed
    assert gf2_betti(sphere) == sphere_betti_profile(d - 1)
    assert is_k_neighborly(sphere, d // 2)


def test_cyclic_boundary_parameter_errors():
    with pytest.raises(TooFewVertices):
        cyclic_boundary(4, 4)
    with pytest.raises(InvalidParameters):
        cyclic_boundary(0, 5)


def test_cross_boundary_small_cases():
    assert cross_boundary(1).facets == {(1,), (-1,)}
    octa = cross_boundary(3)
    assert len(octa) == 8
    assert f_vector(octa).counts == (1, 6, 12, 8)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cross_boundary_counts_and_symmetry(d):
    sphere = cross_boundary(d)
    assert len(sphere) == 2 ** d
    assert sphere.vertex_count == 2 * d
    assert is_cs(sphere)
    assert is_cs_k_neighborly(sphere, d)


def test_cross_boundary_rejects_nonpositive_dimension():
    with pytest.raises(InvalidParameters):
        cross_boundary(0)


def test_stacked_sphere_base_is_the_simplex_boundary():
    assert stacked_sphere(3, 4).facets == {
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    }


def test_stacked_sphere_facet_counts():
    assert len(stacked_sphere(3, 6)) == 8
    for d in (2, 3, 4, 5):
        for n in range(d + 1, d + 6):
            assert len(stacked_sphere(d, n)) == (d + 1) + (n - d - 1) * (d - 1)


def test_stacked_sphere_matches_the_rescan_oracle():
    grid = [(d, n) for d in range(2, 7) for n in range(d + 1, 41)] + [(4, 300)]
    for d, n in grid:
        assert stacked_sphere(d, n).facets == stacked_sphere_by_rescan(d, n), (d, n)


@pytest.mark.parametrize("d,n", [(3, 7), (4, 12)])
def test_stacked_spheres_are_spheres(d, n):
    sphere = stacked_sphere(d, n)
    assert sphere.vertex_count == n
    assert is_closed_pseudomanifold(sphere).passed
    assert gf2_betti(sphere) == sphere_betti_profile(d - 1)


def test_stacked_sphere_transversal_is_tiny():
    # the lex-min stacking fans around {1,2,3}, so two vertices suffice
    sphere = stacked_sphere(4, 12)
    cert = exact_transversal(facet_hypergraph(sphere))
    assert cert.optimal
    assert cert.upper_bound == 2
    size, _ = brute_force_transversal(sphere.vertices, sphere.facets)
    assert size == 2
    assert transversal_ratio(sphere, cert) == (Fraction(1, 6), Fraction(1, 6))


def test_stacked_sphere_parameter_errors():
    with pytest.raises(InvalidParameters):
        stacked_sphere(1, 5)
    with pytest.raises(TooFewVertices):
        stacked_sphere(3, 3)
