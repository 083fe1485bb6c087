"""Shared oracles for the test suite, deliberately independent of the
package internals: the transversal oracle scans subsets by size, the
Gale oracle checks the textbook all-pairs condition and the cs
neighborliness oracle tests every antipode-free subset."""

import itertools


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
