import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from helpers import (
    brute_force_transversal,
    incidence_by_loop,
    milp_transversal,
    root_by_loop,
    signed_relabelling,
)
from spheretrans import (
    EMPTY,
    Hypergraph,
    PureComplex,
    TransversalCertificate,
    cross_boundary,
    cs_sphere,
    cyclic_boundary,
    enumerate_pair_poset,
    exact_transversal,
    explicit_cs_transversal,
    facet_hypergraph,
    greedy_transversal,
    is_transversal,
    matching_lower_bound,
    relative_squeezed_ball,
    sew,
    sewing_antichain,
    transversal_ratio,
)
from spheretrans import complexes, cs_family, transversal
from spheretrans.errors import InvalidParameters, UnknownVertex


def test_hypergraph_canonicalizes_edges():
    h = Hypergraph([3, 1, 2], [(2, 1), (1, 2), (3,)])
    assert h.vertices == (1, 2, 3)
    assert h.edges == ((1, 2), (3,))


def test_hypergraph_checks_its_vertex_pool():
    # the pool takes face()'s label rule; a label listed twice counts once
    for pool, label in (
        ([0, True, 1, 2], "0"),
        ([1.5, 2], "1.5"),
        ([True, 2], "True"),
        (["a", 2], "'a'"),
    ):
        with pytest.raises(ValueError, match=f"nonzero integers, got {label}"):
            Hypergraph(pool, [(2,)])
    assert Hypergraph([2, 1, 2], [(1, 2)]).vertices == (1, 2)


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


def test_derived_facets_are_not_canonicalized_again(monkeypatch):
    # the cs recursion and facet_hypergraph reuse canonical facets, so face()
    # runs only on a few fresh simplices, not once per facet (or per step)
    calls = 0
    original = complexes.face

    def counting_face(vertices):
        nonlocal calls
        calls += 1
        return original(vertices)

    for module in (complexes, cs_family, transversal):
        monkeypatch.setattr(module, "face", counting_face)
    h = facet_hypergraph(cs_sphere(6, 10, cache={}))
    assert len(h.edges) == 840
    assert calls < len(h.edges)


def test_is_transversal():
    h = Hypergraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert is_transversal(h, [1, 3])
    assert not is_transversal(h, [1, 2])
    with pytest.raises(UnknownVertex):
        is_transversal(h, [9])
    # True and 1.0 equal 1, but neither is a label, also next to the
    # label it equals
    for t, label in (([True, 3], "True"), ([1, True, 3], "True"), ([1.0, 3], "1.0")):
        with pytest.raises(UnknownVertex, match=label):
            is_transversal(h, t)
    # stray labels of different types are listed without comparing them
    with pytest.raises(UnknownVertex, match="'a'"):
        is_transversal(Hypergraph([1, 2], [(1, 2)]), ["a", 9])


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
        (lambda: cs_sphere(3, 14), 219, {s * v for v in (2, 6, 7, 10, 11, 14) for s in (1, -1)}),
        (lambda: cs_sphere(4, 12), 53, {-10, -9, -6, -5, 4, 5, 9, 10}),
        (lambda: cyclic_boundary(4, 20), 127, {1, 3, 5, 7, 9, 11, 13, 15, 17}),
    ],
    ids=["cs-3-14", "cs-4-12", "cyclic-4-20"],
)
def test_search_order_and_bounds_are_pinned(build, nodes, hitting_set):
    # any change to the branching order, the bounds or the propagation moves
    # the node count or the certificate found first
    h = facet_hypergraph(build())
    masks, inc = transversal._incidence(h.vertices, h.edges)
    best, lower, count, timed_out = transversal._search(masks, inc, time.monotonic() + 60)
    assert set(transversal._labels(best, h.vertices)) == hitting_set
    assert (lower, count, timed_out) == (len(hitting_set), nodes, False)


def disjoint_copies(facets, copies):
    """Copy j moves label v to sign(v) * (|v| + j * m), m the largest |label|."""
    m = max(abs(v) for f in facets for v in f)
    return [tuple(v + j * m if v > 0 else v - j * m for v in f) for j in range(copies) for f in facets]


@pytest.mark.parametrize(
    "build, nodes, hitting_set",
    [
        (lambda: cs_sphere(3, 14), 39, {s * v for v in (2, 6, 7, 10, 11, 14) for s in (1, -1)}),
        (lambda: cs_sphere(4, 12), 13, {-10, -9, -6, -5, 4, 5, 9, 10}),
        # the floor is tau here and the greedy seed two above it, so the
        # search runs until its incumbent reaches the floor
        (lambda: cs_sphere(4, 13), 37, {s * v for v in (5, 6, 10, 11) for s in (1, -1)}),
        (lambda: cs_sphere(5, 16), 1520, {s * v for v in (2, 6, 7, 10, 11, 16) for s in (1, -1)}),
        (
            lambda: PureComplex(disjoint_copies(cs_sphere(3, 9).facets, 3)),
            198,
            {-27, -24, -23, -22, -21, -18, -15, -14, -13, -12, -9, -6, -5, -4, -3,
             5, 6, 9, 14, 15, 18, 23, 24, 27},
        ),
    ],
    ids=["cs-3-14", "cs-4-12", "cs-4-13", "cs-5-16", "3-copies-cs-3-9"],
)
def test_block_bound_certificates_are_pinned(build, nodes, hitting_set):
    # the sign-class floor (cs spheres), and the component split with each
    # copy's own sign-class floor (copies)
    tau = len(hitting_set)
    assert exact_transversal(facet_hypergraph(build()), time_budget=1.0) == TransversalCertificate(
        frozenset(hitting_set), tau, tau, True, nodes, False
    )


@hst.composite
def hypergraphs(draw, labels=12):
    """Up to `labels` vertices and edges of 1 to 5 vertices, with prefixes
    of drawn edges added back: nested, singleton and repeated edges."""
    verts = list(range(1, draw(hst.integers(1, labels)) + 1))
    edge = hst.lists(hst.sampled_from(verts), min_size=1, max_size=5, unique=True)
    edges = draw(hst.lists(edge, max_size=14))
    if edges:
        prefix = hst.tuples(hst.sampled_from(edges), hst.integers(1, 5))
        edges += [e[:cut] for e, cut in draw(hst.lists(prefix))]
    return verts, edges


@hst.composite
def signed_hypergraphs(draw, pairs=6):
    """Labels +-1..+-k for k <= pairs, so the label set is closed under
    negation, and edges of 1 to 4 vertices with prefixes added back as in
    hypergraphs(); then either every edge or some drawn edges come with
    their negation."""
    verts = [s * v for v in range(1, draw(hst.integers(1, pairs)) + 1) for s in (1, -1)]
    edge = hst.lists(hst.sampled_from(verts), min_size=1, max_size=4, unique=True)
    edges = draw(hst.lists(edge, max_size=10))
    if edges:
        prefix = hst.tuples(hst.sampled_from(edges), hst.integers(1, 4))
        edges += [e[:cut] for e, cut in draw(hst.lists(prefix))]
        mirrored = edges if draw(hst.booleans()) else draw(hst.lists(hst.sampled_from(edges)))
        edges += [[-v for v in e] for e in mirrored]
    return verts, edges


@hst.composite
def disjoint_unions(draw):
    """Two drawn hypergraphs side by side, the second's labels moved away
    from zero by 10, which keeps a signed draw closed under negation."""
    first = hst.one_of(hypergraphs(labels=6), signed_hypergraphs(pairs=3))
    (va, ea), (vb, eb) = draw(first), draw(signed_hypergraphs(pairs=3))

    def move(v):
        return v + 10 if v > 0 else v - 10

    return va + [move(v) for v in vb], ea + [[move(v) for v in e] for e in eb]


def check_solver_properties(verts, edges):
    h = Hypergraph(verts, edges)
    tau, _ = brute_force_transversal(verts, edges)
    exact = exact_transversal(h)
    assert exact.optimal and exact.upper_bound == tau
    root = exact_transversal(h, time_budget=0)
    for cert in (exact, root):
        assert is_transversal(h, cert.hitting_set)
        assert len(cert.hitting_set) == cert.upper_bound
        assert cert.lower_bound <= tau <= cert.upper_bound
    assert matching_lower_bound(h) <= tau <= len(greedy_transversal(h))
    # a zero budget returns the root, also when components are split
    assert root.hitting_set == greedy_transversal(h)
    assert root.lower_bound == matching_lower_bound(h)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hypergraphs())
def test_solver_properties_on_random_hypergraphs(instance):
    check_solver_properties(*instance)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hst.one_of(signed_hypergraphs(), disjoint_unions()))
# halves that do not mirror: the floor is tau(H[V+]) + 0 = 2 = tau, while
# twice the positive half would exceed the greedy cover's 3
@example(([-2, -1, 1, 2], [(-2, -1, 1), (-2, -1, 2), (1,), (2,)]))
def test_solver_properties_on_signed_and_disconnected_hypergraphs(instance):
    # reaches the sign-class floor, with and without the mirrored half, and
    # the component split
    check_solver_properties(*instance)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    hst.one_of(hypergraphs(), signed_hypergraphs()),
    hst.lists(hst.integers(-20, 20).filter(bool), max_size=6),
)
def test_unused_labels_leave_the_certificate_unchanged(instance, extra):
    # every search runs on the labels of its own edges, so labels on no
    # edge change neither the sign-class floor nor the node count
    verts, edges = instance
    bare = Hypergraph({v for e in edges for v in e}, edges)
    padded = Hypergraph(verts + extra, edges)
    for budget in (60.0, 0):
        assert exact_transversal(padded, budget) == exact_transversal(bare, budget)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hst.one_of(hypergraphs(), signed_hypergraphs(), disjoint_unions()))
def test_every_search_runs_on_the_labels_of_its_edges(instance):
    search = transversal._search

    def checked_search(masks, inc, deadline, floor=0, nodes=0):
        assert 0 not in inc  # each label is on an edge of this search
        return search(masks, inc, deadline, floor, nodes)

    h = Hypergraph(*instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transversal, "_search", checked_search)
        for budget in (60.0, 0):
            exact_transversal(h, budget)


def check_incidence(h):
    masks, inc = transversal._incidence(h.vertices, h.edges)
    assert (masks, inc) == incidence_by_loop(h.vertices, h.edges)
    assert transversal._root(masks, inc) == root_by_loop(masks, inc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hst.one_of(hypergraphs(), signed_hypergraphs(), disjoint_unions()))
def test_incidence_and_root_match_the_loop_oracle(instance):
    check_incidence(Hypergraph(*instance))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Hypergraph([-2, -1, 1, 2], []),
        # 90 labels, 34 of them on no edge (81..90 among them), so the
        # masks are wider than 64 bits and end in unused labels
        lambda: Hypergraph(range(1, 91), [(v, v + 2, 2 * v + 20) for v in range(1, 31)]),
        lambda: Hypergraph(range(1, 6), [(1,), (3,), (5,), (1, 2), (2, 3, 4)]),
        lambda: Hypergraph(
            [-4, -3, -2, -1, 1, 2, 3, 4], [(-4,), (-3, 1), (-2, 2, 4), (1, 2, 3, 4), (-1, 2)]
        ),
        lambda: facet_hypergraph(cross_boundary(12)),
    ],
    ids=["edgeless", "unused-labels", "unit-edges", "mixed-sizes", "cross-12"],
)
def test_incidence_and_root_match_the_loop_oracle_on_edge_cases(build):
    check_incidence(build())


@pytest.mark.parametrize("budget", [0, -1, 0.5, float("inf")])
def test_edgeless_signed_hypergraph_needs_no_label(budget):
    h = Hypergraph([-2, -1, 1, 2], [])
    assert exact_transversal(h, budget) == TransversalCertificate(frozenset(), 0, 0, True, 0, False)


def test_branch_vertex_takes_the_most_edges_of_the_lowest_tier():
    # 1 is in the most edges, 2 in the most edges with two live vertices
    edges = [(1, 3, 4), (1, 5, 6), (1, 7, 8), (1, 4, 7), (2, 3), (2, 5), (6, 8)]
    h = Hypergraph(range(1, 9), edges)
    masks, inc = transversal._incidence(h.vertices, h.edges)
    root = transversal._root(masks, inc)
    rem, live, _, tiers = root
    # with the one tier rem it is the greedy rule
    assert h.vertices[transversal._branch_vertex(inc, (rem,), rem, live)] == 1
    assert h.vertices[transversal._branch_vertex(inc, tiers, rem, live)] == 2
    without, with_2 = transversal._children(masks, inc, root, h.vertices.index(2))
    # 6 and 8 tie on the one edge left with two live vertices: without 2,
    # which forces 3 and 5, 8 is in more edges of rem; with 2 they tie
    # there too and the smaller index wins
    for node, top in ((without, 8), (with_2, 6)):
        rem, live, _, tiers = node
        assert h.vertices[transversal._branch_vertex(inc, tiers, rem, live)] == top


def recount_branch_vertex(masks, inc, rem, live):
    """The branching rule from scratch: among the live vertices on an
    edge of rem with the fewest live vertices, the one in the most such
    edges, then in the most edges of rem, then the smallest index."""
    counts = {j: (m & live).bit_count() for j, m in enumerate(masks) if rem >> j & 1}
    fewest = min(counts.values())
    low = sum(1 << j for j, c in counts.items() if c == fewest)
    on_low = [u for u in range(len(inc)) if live >> u & 1 and inc[u] & low]
    return max(on_low, key=lambda u: ((inc[u] & low).bit_count(), (inc[u] & rem).bit_count(), -u))


def check_node(masks, node):
    """rem is the edges the picked vertices miss, each with two or more
    live vertices, and tier j & rem is those with exactly j + 2."""
    rem, live, picked, tiers = node
    assert not live & picked
    assert rem == sum(1 << j for j, m in enumerate(masks) if not m & picked)
    counts = {j: (m & live).bit_count() for j, m in enumerate(masks) if rem >> j & 1}
    assert all(2 <= c <= len(tiers) + 1 for c in counts.values())
    recount = [sum(1 << j for j, c in counts.items() if c == k + 2) for k in range(len(tiers))]
    assert [t & rem for t in tiers] == recount


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    hst.one_of(hypergraphs(), signed_hypergraphs()),
    hst.lists(hst.tuples(hst.booleans(), hst.integers(0, 11)), max_size=12),
)
def test_carried_tiers_match_a_recount(instance, steps):
    # the search never counts live vertices per edge; it carries the tiers
    # from the root through every take, without and forced step, and
    # branches on the vertex they single out
    h = Hypergraph(*instance)
    assume(h.edges)
    masks, inc = transversal._incidence(h.vertices, h.edges)
    node = transversal._root(masks, inc)
    check_node(masks, node)
    for take, pick in steps:
        rem, live, picked, tiers = node
        if not rem:
            break
        assert transversal._branch_vertex(inc, tiers, rem, live) == recount_branch_vertex(
            masks, inc, rem, live
        )
        v = [u for u in range(len(inc)) if live >> u & 1][pick % live.bit_count()]
        without, with_v = transversal._children(masks, inc, node, v)
        # a forced vertex is the other live vertex of an edge of v
        pairs = {masks[j] & live for j in range(len(masks)) if (rem & inc[v]) >> j & 1}
        forced = without[2] & ~picked
        assert all(1 << v | 1 << u in pairs for u in range(len(inc)) if forced >> u & 1)
        node = with_v if take else without
        check_node(masks, node)


def sewn(k, n):
    """The sewing ball of sewing_antichain(k, n) planted in the cyclic
    2k-sphere on n labels, as the cli's sewn family."""
    return sew(cyclic_boundary(2 * k, n), relative_squeezed_ball(sewing_antichain(k, n)), n + 1)


@pytest.mark.parametrize(
    "build, tau",
    [
        (lambda: cs_sphere(3, 20), 18),
        (lambda: PureComplex(signed_relabelling(cs_sphere(3, 20).facets)), 18),
        (lambda: cyclic_boundary(4, 20), 9),
        (lambda: PureComplex(signed_relabelling(cyclic_boundary(4, 20).facets)), 9),
        (lambda: PureComplex(disjoint_copies(cs_sphere(3, 9).facets, 3)), 24),
        (lambda: PureComplex(signed_relabelling(cyclic_boundary(4, 27).facets)), 13),
        (lambda: sewn(3, 20), 9),
    ],
    ids=[
        "cs-3-20", "cs-3-20-relabelled", "cyclic-4-20", "cyclic-4-20-relabelled",
        "3-copies-cs-3-9", "cyclic-4-27-relabelled", "sewn-3-20",
    ],
)
def test_exact_agrees_with_the_milp_oracle(build, tau):
    h = facet_hypergraph(build())
    assert milp_transversal(h.vertices, h.edges)[0] == tau
    cert = exact_transversal(h)
    assert cert.optimal and cert.upper_bound == tau
    assert is_transversal(h, cert.hitting_set)


def test_gap_one_forcing_solves_a_path_at_the_root():
    # the path 4-2-1-3-5: the greedy seed takes the middle vertex 1, then
    # two more.  The root matching {1,2}, {3,5} is one short of it, so
    # {2,4}, whose only cover vertex is 2, forces 2; matched again, {1,3}
    # is one short and {3,5} forces 3, which hits every edge at node 1
    verts, edges = [1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 4), (3, 5)]
    h = Hypergraph(verts, edges)
    masks, inc = transversal._incidence(h.vertices, h.edges)
    assert transversal._greedy(inc, (1 << len(masks)) - 1).bit_count() == 3
    best, lower, count, timed_out = transversal._search(masks, inc, time.monotonic() + 60)
    tau, _ = brute_force_transversal(verts, edges)
    assert set(transversal._labels(best, h.vertices)) == {2, 3}
    assert (lower, count, timed_out) == (tau, 1, False)


@pytest.mark.parametrize(
    "family, d, n",
    [("cs", 3, n) for n in range(10, 15)]
    + [("cs", 4, n) for n in range(10, 14)]
    + [("cyclic", 4, n) for n in range(16, 21)]
    + [("sewn", 3, n) for n in range(12, 15)],
)
def test_relabelled_rungs_agree_with_the_milp_oracle(family, d, n, cs_cache):
    # the gap-one rule reads no label, so it stays exact under any signed
    # relabelling, where the search runs many more nodes than at the
    # natural labels
    build = {
        "cs": lambda: cs_sphere(d, n, cache=cs_cache),
        "cyclic": lambda: cyclic_boundary(d, n),
        "sewn": lambda: sewn(d, n),
    }[family]
    h = facet_hypergraph(PureComplex(signed_relabelling(build().facets)))
    tau = milp_transversal(h.vertices, h.edges)[0]
    cert = exact_transversal(h)
    assert cert.optimal and not cert.timed_out
    assert cert.lower_bound == cert.upper_bound == tau
    assert is_transversal(h, cert.hitting_set)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_positive_block_bound_is_tight_on_even_cs_three_spheres(n, cs_cache):
    # tau(H) >= tau(H[V+]) + tau(H[V-]); on cs d=3 at even n the two halves
    # mirror each other and the sum is n - 2, the greedy cover's size
    h = facet_hypergraph(cs_sphere(3, n, cache=cs_cache))
    positive = tuple(v for v in h.vertices if v > 0)
    plus = [e for e in h.edges if e[0] > 0]
    _, value, _, timed_out = transversal._solve(positive, plus, time.monotonic() + 60, 0, False)
    assert not timed_out
    assert value == milp_transversal(positive, plus)[0]
    assert 2 * value == n - 2 == exact_transversal(h).upper_bound


@pytest.mark.parametrize("d, n, tau", [(3, 28, 52), (4, 20, 28)])
def test_disjoint_copies_of_cs_spheres_get_their_sign_floors(d, n, tau, cs_cache):
    # each component is solved with its own sign-class floor, as one
    # connected copy is; without it two copies of cs (3, 28) time out
    h = facet_hypergraph(PureComplex(disjoint_copies(cs_sphere(d, n, cache=cs_cache).facets, 2)))
    cert = exact_transversal(h, time_budget=5.0)
    assert cert.optimal and not cert.timed_out
    assert cert.upper_bound == tau
    assert is_transversal(h, cert.hitting_set)


def test_nan_budget_is_refused():
    h = Hypergraph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(InvalidParameters):
        exact_transversal(h, time_budget=float("nan"))
    assert exact_transversal(h, time_budget=float("inf")).optimal


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
    # the whole search must pass its first deadline check at node 512
    h = facet_hypergraph(cs_sphere(3, 15, cache=cs_cache))
    assert exact_transversal(h).nodes_explored > 512
    now = [0.0]
    monkeypatch.setattr(transversal, "time", SimpleNamespace(monotonic=lambda: now[0]))
    branch_vertex = transversal._branch_vertex
    every_edge = (1 << len(h.edges)) - 1

    def slow_branch_vertex(inc, tiers, rem, live):
        if rem == every_edge:
            now[0] = 100.0  # the greedy seed of the whole search outlasts the budget
        return branch_vertex(inc, tiers, rem, live)

    monkeypatch.setattr(transversal, "_branch_vertex", slow_branch_vertex)
    cert = exact_transversal(h, time_budget=10.0)
    assert cert.timed_out and not cert.optimal
    assert cert.nodes_explored == 512  # stopped at the first deadline check
    assert is_transversal(h, cert.hitting_set)


def test_deadline_inside_the_block_stage_keeps_the_block_bound(monkeypatch, cs_cache):
    h = facet_hypergraph(cs_sphere(3, 11, cache=cs_cache))
    tau = exact_transversal(h).upper_bound
    positive = tuple(v for v in h.vertices if v > 0)
    tau_plus = exact_transversal(Hypergraph(positive, [e for e in h.edges if e[0] > 0])).upper_bound
    now = [0.0]
    monkeypatch.setattr(transversal, "time", SimpleNamespace(monotonic=lambda: now[0]))
    search = transversal._search
    searched = []

    def slow_search(masks, inc, deadline, floor=0, nodes=0):
        out = search(masks, inc, deadline, floor, nodes)
        searched.append(len(masks))
        now[0] = 100.0  # the block of positive labels uses up the budget
        return out

    monkeypatch.setattr(transversal, "_search", slow_search)
    cert = exact_transversal(h, time_budget=10.0)
    # the mirrored negative block reuses the positive one's value, so the
    # only other search is the whole one, entered after the deadline
    assert len(searched) == 2 and searched[0] < searched[1] == len(h.edges)
    assert cert.timed_out and not cert.optimal
    assert is_transversal(h, cert.hitting_set)
    assert cert.hitting_set == greedy_transversal(h)
    assert cert.lower_bound == 2 * tau_plus > matching_lower_bound(h)
    assert cert.lower_bound <= tau <= cert.upper_bound


def test_deep_search_does_not_recurse():
    triangles = [(3 * i + a, 3 * i + b) for i in range(300) for a, b in ((1, 2), (1, 3), (2, 3))]
    h = Hypergraph(range(1, 901), triangles)
    masks, inc = transversal._incidence(h.vertices, h.edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        cert = exact_transversal(h, time_budget=0.5)
        # exact_transversal splits the 300 components; one search of the
        # whole goes 300 levels deep
        best, lower, _, _ = transversal._search(masks, inc, time.monotonic() + 0.5)
    finally:
        sys.setrecursionlimit(limit)
    assert is_transversal(h, cert.hitting_set)
    assert cert.lower_bound <= cert.upper_bound == len(cert.hitting_set)
    assert cert.optimal and cert.upper_bound == 600
    assert is_transversal(h, transversal._labels(best, h.vertices))
    assert lower <= 600 <= best.bit_count()


def test_odd_cyclic_transversal_is_two():
    cert = exact_transversal(facet_hypergraph(cyclic_boundary(5, 10)))
    assert cert.optimal and cert.upper_bound == 2


def test_transversal_ratio_is_exact(cs_cache):
    sphere = cs_sphere(3, 9, cache=cs_cache)
    cert = exact_transversal(facet_hypergraph(sphere))
    lo, hi = transversal_ratio(sphere, cert)
    assert lo == hi == Fraction(cert.upper_bound, 18)
    assert hi <= Fraction(10, 18)  # witnessed by the closed-form transversal
    with pytest.raises(InvalidParameters, match="no vertices"):
        transversal_ratio(EMPTY, cert)


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
