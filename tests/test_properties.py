"""Properties that every construction must keep: boundaries of balls are
closed, negation is an involution, both file formats round-trip, every
sphere family of the CLI has the homology of a sphere, and every complex
built from other complexes is what the validating constructor makes of
its facets."""

import pytest
from hypothesis import given, settings

from helpers import facet_lists
from spheretrans import (
    EMPTY,
    Hypergraph,
    PureComplex,
    boundary,
    cs_ball,
    f_vector,
    facet_hypergraph,
    gf2_betti,
    join,
    link,
    negate,
    neighborly_antichain,
    relative_squeezed_ball,
    relative_difference,
    sewing_antichain,
    simplex,
    sphere_betti_profile,
    squeezed_ball,
    union,
)
from spheretrans import cli
from spheretrans.fileio import FORMATS, dumps_complex, loads_facets, loads_json

LOADS = {"facets": loads_facets, "json": loads_json}


def assert_canonical(x):
    """x has strictly increasing facets and equals, field for field, the
    complex that the validating constructor builds from its facets; its
    facet hypergraph is the validated one."""
    checked = PureComplex(x.facets)
    assert x == checked
    assert x.dimension == checked.dimension
    assert x.vertices == checked.vertices
    assert all(all(a < b for a, b in zip(f, f[1:])) for f in x.facets)
    if not x.is_empty:
        assert facet_hypergraph(x) == Hypergraph(x.vertices, x.facets)


def squeezed(k, n):
    return squeezed_ball(neighborly_antichain(k, n))


def relative_squeezed(k, n):
    return relative_squeezed_ball(neighborly_antichain(k, n))


def sewing(k, n):
    return relative_squeezed_ball(sewing_antichain(k, n))


BALLS = [
    pytest.param(make, params, id=f"{make.__name__}-{'-'.join(map(str, params))}")
    for make, params in [
        *(
            (cs_ball, (d, i, n))
            for d, n in ((1, 4), (2, 5), (3, 7), (4, 7), (5, 8))
            for i in range((d + 1) // 2 + 1)
        ),
        (squeezed, (3, 7)),
        (squeezed, (3, 10)),
        (squeezed, (4, 11)),
        (relative_squeezed, (3, 8)),
        (relative_squeezed, (4, 12)),
        (sewing, (2, 8)),
        (sewing, (3, 9)),
    ]
]


@pytest.mark.parametrize("make, params", BALLS)
def test_the_boundary_of_a_ball_has_no_boundary(make, params):
    ball = make(*params)
    assert gf2_betti(ball) == (1,) + (0,) * ball.dimension
    sphere = boundary(ball)
    assert_canonical(ball)
    assert_canonical(sphere)
    assert sphere.dimension == ball.dimension - 1
    assert boundary(sphere) == EMPTY


@pytest.mark.parametrize("make, params", BALLS)
def test_constructed_balls_negate_and_round_trip(make, params):
    ball = make(*params)
    assert negate(negate(ball)) == ball
    for fmt in FORMATS:
        assert LOADS[fmt](dumps_complex(ball, fmt, {"family": make.__name__})) == ball


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(facet_lists())
def test_negate_is_an_involution_and_files_round_trip(facets):
    delta = PureComplex(facets)
    assert negate(negate(delta)) == delta
    assert negate(delta).vertices == {-v for v in delta.vertices}
    for fmt in FORMATS:
        assert LOADS[fmt](dumps_complex(delta, fmt)) == delta
    # every derived complex is canonical, down to EMPTY results
    some = PureComplex(delta.sorted_facets()[::2])
    derived = [
        delta,
        boundary(delta),
        negate(delta),
        join(delta, simplex([10, -11])),
        union(delta, negate(delta)),
        union(delta, some),
        relative_difference(delta, some),
        relative_difference(delta, delta),
        *(link(delta, [v]) for v in delta.vertices),
    ]
    for x in derived:
        assert_canonical(x)


# every family of the CLI table but the squeezed ball, at small parameters
SPHERES = {
    "cyclic": [dict(d=2, n=5), dict(d=4, n=8), dict(d=5, n=9)],
    "cross": [dict(d=1), dict(d=3), dict(d=5)],
    "stacked": [dict(d=2, n=5), dict(d=4, n=8)],
    "relative-squeezed": [dict(k=3, n=7), dict(k=4, n=10)],
    "cs-delta": [dict(d=2, n=4), dict(d=3, n=7), dict(d=5, n=8)],
    "cs-lambda": [dict(k=2, n=5, edge="-7,-6"), dict(k=3, n=7, edge="-9,-8")],
    "sewn": [dict(k=2, n=6), dict(k=3, n=9)],
}


def test_the_sphere_families_cover_the_family_table():
    assert set(SPHERES) == set(cli.FAMILIES) - {"squeezed"}


@pytest.mark.parametrize(
    "family, flags",
    [
        pytest.param(family, flags, id=family + "-" + ",".join(f"{k}={v}" for k, v in flags.items()))
        for family, cases in SPHERES.items()
        for flags in cases
    ],
)
def test_every_sphere_family_has_the_homology_of_a_sphere(family, flags):
    sphere, _ = cli._construct(family, **flags)
    assert_canonical(sphere)
    dim = sphere.dimension
    assert gf2_betti(sphere) == sphere_betti_profile(dim)
    assert f_vector(sphere).euler_characteristic == 1 + (-1) ** dim
