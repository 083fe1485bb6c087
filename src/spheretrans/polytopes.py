"""Boundary complexes of three classical polytope families.

cyclic_boundary lists the facets of the cyclic polytope as unions of
pairs {i, i+1} with at most one odd block at each end (Gale's evenness
condition), cross_boundary builds the boundary of the cross
polytope on antipodal labels, and stacked_sphere grows a stacked sphere
by repeated coning.  All vertex labels follow the package convention
(positive labels 1..n, antipodes negative).
"""

from __future__ import annotations

import heapq
import itertools

from .complexes import PureComplex
from .errors import InvalidParameters, TooFewVertices
from .squeezed import _pair_unions


def cyclic_boundary(d: int, n: int) -> PureComplex:
    """Boundary complex of the cyclic d-polytope on vertices 1..n.

    By Gale's evenness condition a facet is a union of disjoint pairs
    {i, i+1} plus at most one odd block at each end.  Splitting a lone 1
    or n off each odd block leaves a pair union in the rest of [1, n]; the
    number of lone ends has the parity of d.
    """
    if d < 1:
        raise InvalidParameters("polytope dimension must be >= 1")
    if n <= d:
        raise TooFewVertices(f"cyclic {d}-polytope needs more than {d} vertices")
    return PureComplex._from_canonical(
        (1,) * a + f + (n,) * b
        for a, b in itertools.product((0, 1), repeat=2)
        if (d - a - b) % 2 == 0
        for f in _pair_unions((d - a - b) // 2, 1 + a, n - b)
    )


def cross_boundary(d: int) -> PureComplex:
    """Boundary of the d-dimensional cross polytope on labels +-1..+-d.

    The 2^d facets pick one sign for each label.
    """
    if d < 1:
        raise InvalidParameters("cross polytope dimension must be >= 1")
    return PureComplex._from_canonical(
        tuple(sorted(signs))
        for signs in itertools.product(*[(i, -i) for i in range(1, d + 1)])
    )


def stacked_sphere(d: int, n: int) -> PureComplex:
    """A stacked (d-1)-sphere on n vertices, built deterministically.

    Starts from the boundary of the d-simplex on 1..d+1; each step
    removes the lexicographically smallest facet avoiding the most
    recently added vertex and cones its boundary with a fresh label.
    That vertex is the largest label, and a facet R + (apex,) is never the
    smallest: the other facet on its ridge R is R plus a smaller label, so
    it sorts first.  A heap of all the facets therefore finds each target.
    """
    if d < 2:
        raise InvalidParameters("stacked spheres need dimension >= 2")
    if n < d + 1:
        raise TooFewVertices(f"need at least {d + 1} vertices, got {n}")
    heap = list(itertools.combinations(range(1, d + 2), d))  # sorted, so a heap
    for fresh in range(d + 2, n + 1):
        target = heapq.heappop(heap)
        for i in range(d):
            # fresh exceeds every label so far, so the cone facet stays sorted
            heapq.heappush(heap, target[:i] + target[i + 1:] + (fresh,))
    return PureComplex._from_canonical(heap)
