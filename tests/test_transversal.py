import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import brute_force_transversal
from spheretrans import (
    EMPTY,
    Hypergraph,
    TransversalCertificate,
    cs_sphere,
    cyclic_boundary,
    enumerate_pair_poset,
    exact_transversal,
    explicit_cs_transversal,
    facet_hypergraph,
    greedy_transversal,
    is_transversal,
    matching_lower_bound,
    transversal_ratio,
)
from spheretrans import transversal
from spheretrans.errors import InvalidParameters, UnknownVertex


def test_hypergraph_canonicalizes_edges():
    h = Hypergraph([3, 1, 2], [(2, 1), (1, 2), (3,)])
    assert h.vertices == (1, 2, 3)
    assert h.edges == ((1, 2), (3,))


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(UnknownVertex):
        Hypergraph([1, 2], [(1, 5)])
    with pytest.raises(InvalidParameters):
        Hypergraph([1, 2], [()])


def test_facet_hypergraph_of_a_sphere(cs_cache):
    h = facet_hypergraph(cs_sphere(3, 6, cache=cs_cache))
    assert len(h.vertices) == 12
    assert len(h.edges) == 48
    with pytest.raises(InvalidParameters):
        facet_hypergraph(EMPTY)


def test_is_transversal():
    h = Hypergraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert is_transversal(h, [1, 3])
    assert not is_transversal(h, [1, 2])
    with pytest.raises(UnknownVertex):
        is_transversal(h, [9])


def test_greedy_covers_and_upper_bounds(cs_cache):
    h = facet_hypergraph(cs_sphere(3, 8, cache=cs_cache))
    t = greedy_transversal(h)
    assert is_transversal(h, t)
    cert = exact_transversal(h)
    assert cert.optimal
    assert len(t) >= cert.upper_bound == 6


def test_matching_bound_sandwiches():
    edges = [p.face() for p in enumerate_pair_poset(2, 1, 8)]
    h = Hypergraph(range(1, 9), edges)
    lb = matching_lower_bound(h)
    cert = exact_transversal(h)
    assert 1 <= lb <= cert.upper_bound == 3


def test_exact_on_tiny_instances():
    assert exact_transversal(Hypergraph([1], [(1,)])).upper_bound == 1
    two = exact_transversal(Hypergraph([1, 2, 3, 4], [(1, 2), (3, 4)]))
    assert two.upper_bound == 2 and two.optimal
    empty = exact_transversal(Hypergraph([1, 2], []))
    assert empty.upper_bound == 0 and empty.optimal
    triangle = exact_transversal(Hypergraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))
    assert triangle.upper_bound == 2


def test_exact_certificate_is_consistent(cs_cache):
    h = facet_hypergraph(cs_sphere(4, 8, cache=cs_cache))
    cert = exact_transversal(h)
    assert is_transversal(h, cert.hitting_set)
    assert cert.lower_bound == cert.upper_bound == len(cert.hitting_set)
    assert cert.optimal and not cert.timed_out
    # deterministic: a rerun reproduces the whole certificate
    assert exact_transversal(h) == cert


def test_exact_matches_brute_force_on_random_hypergraphs():
    rng = random.Random(7)
    for _ in range(40):
        nv = rng.randint(3, 12)
        verts = list(range(1, nv + 1))
        edges = []
        for _ in range(rng.randint(1, 14)):
            size = rng.randint(1, min(4, nv))
            edges.append(tuple(rng.sample(verts, size)))
        h = Hypergraph(verts, edges)
        cert = exact_transversal(h)
        size, _ = brute_force_transversal(verts, edges)
        assert cert.optimal
        assert cert.upper_bound == size
        assert is_transversal(h, cert.hitting_set)


@pytest.mark.parametrize(
    "build, nodes, hitting_set",
    [
        (lambda: cs_sphere(3, 14), 1189, {s * v for v in (2, 6, 7, 10, 11, 14) for s in (1, -1)}),
        (lambda: cs_sphere(4, 12), 271, {-10, -9, -6, -5, 4, 5, 9, 10}),
        (lambda: cyclic_boundary(4, 20), 693, {1, 3, 5, 7, 9, 11, 13, 15, 17}),
    ],
    ids=["cs-3-14", "cs-4-12", "cyclic-4-20"],
)
def test_search_order_and_bounds_are_pinned(build, nodes, hitting_set):
    # any change to the branching order, the bounds or the propagation moves
    # the node count or the certificate found first
    tau = len(hitting_set)
    assert exact_transversal(facet_hypergraph(build())) == TransversalCertificate(
        frozenset(hitting_set), tau, tau, True, nodes, False
    )


@hst.composite
def hypergraphs(draw):
    """Up to 12 vertices and edges of 1 to 5 vertices, with prefixes of
    drawn edges added back: nested, singleton and repeated edges."""
    verts = list(range(1, draw(hst.integers(1, 12)) + 1))
    edge = hst.lists(hst.sampled_from(verts), min_size=1, max_size=5, unique=True)
    edges = draw(hst.lists(edge, max_size=14))
    if edges:
        prefix = hst.tuples(hst.sampled_from(edges), hst.integers(1, 5))
        edges += [e[:cut] for e, cut in draw(hst.lists(prefix))]
    return verts, edges


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hypergraphs())
def test_solver_properties_on_random_hypergraphs(instance):
    verts, edges = instance
    h = Hypergraph(verts, edges)
    tau, _ = brute_force_transversal(verts, edges)
    exact = exact_transversal(h)
    assert exact.optimal and exact.upper_bound == tau
    for cert in (exact, exact_transversal(h, time_budget=0)):
        assert is_transversal(h, cert.hitting_set)
        assert len(cert.hitting_set) == cert.upper_bound
        assert cert.lower_bound <= tau <= cert.upper_bound
    assert matching_lower_bound(h) <= tau <= len(greedy_transversal(h))


def test_zero_budget_times_out_but_stays_sound(cs_cache):
    h = facet_hypergraph(cs_sphere(3, 9, cache=cs_cache))
    cert = exact_transversal(h, time_budget=0.0)
    assert cert.timed_out and not cert.optimal
    assert cert.lower_bound <= cert.upper_bound
    assert is_transversal(h, cert.hitting_set)


def test_zero_budget_returns_the_greedy_seed_and_matching_bound(cs_cache):
    # the root bound does not close here, so the certificate is the root's
    h = facet_hypergraph(cs_sphere(3, 9, cache=cs_cache))
    cert = exact_transversal(h, time_budget=0)
    assert cert.lower_bound < cert.upper_bound
    assert cert.hitting_set == greedy_transversal(h)
    assert cert.lower_bound == matching_lower_bound(h)


def test_budget_covers_the_greedy_seed(monkeypatch, cs_cache):
    h = facet_hypergraph(cs_sphere(3, 11, cache=cs_cache))
    assert exact_transversal(h).nodes_explored > 512
    now = [0.0]
    monkeypatch.setattr(transversal, "time", SimpleNamespace(monotonic=lambda: now[0]))
    top_vertex = transversal._top_vertex

    def slow_top_vertex(inc, rem, live):
        now[0] = 100.0  # the greedy seed alone outlasts the budget
        return top_vertex(inc, rem, live)

    monkeypatch.setattr(transversal, "_top_vertex", slow_top_vertex)
    cert = exact_transversal(h, time_budget=10.0)
    assert cert.timed_out and not cert.optimal
    assert cert.nodes_explored == 512  # stopped at the first deadline check
    assert is_transversal(h, cert.hitting_set)


def test_deep_search_does_not_recurse():
    triangles = [(3 * i + a, 3 * i + b) for i in range(300) for a, b in ((1, 2), (1, 3), (2, 3))]
    h = Hypergraph(range(1, 901), triangles)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        cert = exact_transversal(h, time_budget=0.5)
    finally:
        sys.setrecursionlimit(limit)
    assert is_transversal(h, cert.hitting_set)
    assert cert.lower_bound <= cert.upper_bound == len(cert.hitting_set)


def test_odd_cyclic_transversal_is_two():
    cert = exact_transversal(facet_hypergraph(cyclic_boundary(5, 10)))
    assert cert.optimal and cert.upper_bound == 2


def test_transversal_ratio_is_exact(cs_cache):
    sphere = cs_sphere(3, 9, cache=cs_cache)
    cert = exact_transversal(facet_hypergraph(sphere))
    lo, hi = transversal_ratio(sphere, cert)
    assert lo == hi == Fraction(cert.upper_bound, 18)
    assert hi <= Fraction(10, 18)  # witnessed by the closed-form transversal


def test_explicit_transversal_values():
    assert explicit_cs_transversal(3, 9) == {1, -1, 3, -3, 5, -5, 7, -7, 9, -9}
    assert explicit_cs_transversal(4, 12) == {
        s * v for v in (1, 2, 6, 7, 11, 12) for s in (1, -1)
    }
    assert explicit_cs_transversal(3, 4) == {1, -1, 3, -3, 4, -4}


def test_explicit_transversal_really_hits(cs_cache):
    h = facet_hypergraph(cs_sphere(3, 4, cache=cs_cache))
    assert is_transversal(h, explicit_cs_transversal(3, 4))
    h = facet_hypergraph(cs_sphere(3, 9, cache=cs_cache))
    assert is_transversal(h, explicit_cs_transversal(3, 9))


def test_explicit_transversal_parameter_errors():
    with pytest.raises(InvalidParameters):
        explicit_cs_transversal(5, 9)
    with pytest.raises(InvalidParameters):
        explicit_cs_transversal(3, 3)
