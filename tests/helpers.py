"""Shared oracles for the test suite, deliberately independent of the
package internals: the transversal oracles scan subsets by size or solve
the integer program with HiGHS, the Gale oracle checks the textbook
all-pairs condition, the cs neighborliness oracle tests every
antipode-free subset and the Betti oracle ranks the full boundary
matrices densely mod 2, and the stacked sphere oracle rescans every
facet for the lex-smallest one at each step.  facet_lists draws small
pure complexes as plain facet lists."""

import itertools

import numpy as np
from hypothesis import strategies as hst
from scipy.optimize import Bounds, LinearConstraint, milp


def brute_force_transversal(vertices, edges):
    """Minimum hitting set by exhaustive search, smallest size first.

    Returns (size, frozenset).  Only usable for small vertex pools.
    """
    verts = sorted(set(vertices))
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = []
    for e in edges:
        m = 0
        for v in e:
            m |= bit[v]
        masks.append(m)
    if not masks:
        return 0, frozenset()
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            m = 0
            for v in combo:
                m |= bit[v]
            if all(m & em for em in masks):
                return size, frozenset(combo)
    raise AssertionError("unhittable edge set")


def milp_transversal(vertices, edges):
    """Minimum hitting set as the integer program min sum(x) subject to
    sum(x_v for v in e) >= 1 for every edge e, x binary, solved by
    scipy.optimize.milp (HiGHS) at zero gap.

    Returns (size, frozenset).  Usable well above brute-force size.
    """
    verts = sorted(set(vertices))
    if not edges:
        return 0, frozenset()
    col = {v: j for j, v in enumerate(verts)}
    a = np.zeros((len(edges), len(verts)))
    for i, e in enumerate(edges):
        for v in e:
            a[i, col[v]] = 1
    res = milp(
        c=np.ones(len(verts)),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(verts)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, f"HiGHS did not prove optimality: {res.message}"
    chosen = frozenset(v for v, x in zip(verts, res.x) if x > 0.5)
    assert all(chosen.intersection(e) for e in edges), "HiGHS solution misses an edge"
    return len(chosen), chosen


def stacked_sphere_by_rescan(d, n):
    """Facet set of stacked_sphere(d, n) by the linear scan: each step
    takes the lex-smallest facet avoiding the latest apex and replaces it
    by the cone of its boundary over a fresh label."""
    facets = set(itertools.combinations(range(1, d + 2), d))
    apex = None
    for fresh in range(d + 2, n + 1):
        target = min(f for f in facets if apex not in f)
        facets.remove(target)
        for i in range(len(target)):
            facets.add(tuple(sorted(target[:i] + target[i + 1:] + (fresh,))))
        apex = fresh
    return facets


def gale_all_pairs(subset, n):
    """Every pair outside the subset has an even number of subset
    elements strictly between them."""
    inside = set(subset)
    outside = [v for v in range(1, n + 1) if v not in inside]
    for x, y in itertools.combinations(outside, 2):
        between = sum(1 for v in inside if x < v < y)
        if between % 2 == 1:
            return False
    return True


def cs_neighborly_by_enumeration(facets, k):
    """Every antipode-free k-subset of the vertices lies in some facet."""
    facet_sets = [set(f) for f in facets]
    verts = sorted({v for f in facets for v in f})
    for cand in itertools.combinations(verts, k):
        if any(-v in cand for v in cand):
            continue
        if not any(set(cand) <= f for f in facet_sets):
            return False
    return True


def gf2_rank_dense(matrix):
    """Rank over GF(2) of a 0/1 numpy matrix by Gauss-Jordan elimination."""
    m = np.array(matrix, dtype=bool)
    rank = 0
    for c in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        hits = np.nonzero(m[rank:, c])[0]
        if not len(hits):
            continue
        p = rank + hits[0]
        m[[rank, p]] = m[[p, rank]]
        others = m[:, c].copy()
        others[rank] = False
        m[others] ^= m[rank]
        rank += 1
    return rank


def gf2_betti_dense(facets):
    """Unreduced GF(2) Betti numbers (b_0, ..., b_d) of the complex
    generated by the facets: b_i = f_i - rank d_i - rank d_{i+1}, every
    boundary matrix built in full and ranked by gf2_rank_dense."""
    top = max(len(f) for f in facets)
    layers = [
        sorted({c for f in facets for c in itertools.combinations(sorted(f), size)})
        for size in range(1, top + 1)
    ]
    ranks = [0] * (top + 1)
    for i in range(1, top):
        row = {f: r for r, f in enumerate(layers[i - 1])}
        d = np.zeros((len(layers[i - 1]), len(layers[i])), dtype=bool)
        for j, f in enumerate(layers[i]):
            for v in f:
                d[row[tuple(u for u in f if u != v)], j] = True
        ranks[i] = gf2_rank_dense(d)
    return tuple(len(layers[i]) - ranks[i] - ranks[i + 1] for i in range(top))


@hst.composite
def facet_lists(draw):
    """Facets of a pure complex on 4 to 7 signed vertices, plus up to the
    boundaries of two simplices, each drawn on those vertices (glued on,
    which makes non-manifolds) or on size + 1 fresh ones (a disjoint
    sphere).  Returns a list of tuples."""
    pool = [s * v for v in range(1, 10) for s in (1, -1)]
    verts = draw(hst.lists(hst.sampled_from(pool), min_size=4, max_size=7, unique=True))
    size = min(draw(hst.integers(1, 5)), len(verts) - 1)
    cells = hst.lists(hst.sampled_from(verts), min_size=size, max_size=size, unique=True)
    facets = [tuple(f) for f in draw(hst.lists(cells, min_size=1, max_size=16))]
    fresh = [v for v in pool if v not in verts][: size + 1]
    glued = hst.lists(hst.sampled_from(verts), min_size=size + 1, max_size=size + 1, unique=True)
    for top in draw(hst.lists(hst.one_of(hst.just(fresh), glued), max_size=2)):
        facets += itertools.combinations(top, size)
    return facets
