"""Centrally symmetric spheres by repeated antipodal sewing.

cs_sphere(d, n) is a cs d-sphere on the 2n vertices +-1..+-n that is
ceil(d/2)-neighborly in the antipode-free sense.  It is produced by a
mutually recursive scheme together with the balls cs_ball(d, i, n):

* the 1-dimensional sphere is the cycle 1, 2, ..., n, -1, -2, ..., -n;
* on the minimum vertex count the sphere is the cross polytope boundary;
* cs_ball(1, 0, n) is the single edge {-1, n}; for odd d the top ball
  is the sphere minus the previous ball; otherwise cs_ball(d, i, n) is
  the cone F + (n,) over cs_ball(d-1, i, n-1) and the cone (-n,) + (-F)
  over cs_ball(d-1, i-1, n-1), which is EMPTY for i = 0;
* the sphere on one more antipodal vertex pair replaces the ball
  B = cs_ball(d, ceil(d/2)-1, n) and its negation inside cs_sphere(d, n)
  by the cone R + (n+1,) over boundary(B) and the negation of that cone.

Each apex outranks the labels below it in absolute value and -F is F
negated and reversed, so cone facets are sorted as built and never
re-sorted.  Every step asserts the structural facts it relies on
(low-index balls sit facet-wise inside the sphere; B and -B share no
facet) and raises RecursionInvariantViolated otherwise.  Results are
memoized in a shared cache keyed by kind and parameters; pass cache={}
to recompute from scratch.  Cached values are immutable, so sharing the
default cache between threads is harmless.  Uncached rungs below a
sphere are built in a loop first, so the recursion is O(d) deep for any n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    EMPTY,
    Face,
    PureComplex,
    _negated,
    boundary,
    face,
    gf2_betti,
    is_closed_pseudomanifold,
    is_cs,
    link,
    sphere_betti_profile,
)
from .errors import InvalidParameters, RecursionInvariantViolated, TooFewVertices
from .polytopes import cross_boundary

_shared_cache: dict[tuple, PureComplex] = {}


def cs_sphere(d: int, n: int, *, cache: dict | None = None) -> PureComplex:
    """The cs, ceil(d/2)-neighborly d-sphere on vertices +-1..+-n.

    Parameters
    ----------
    d, n : int
        Dimension d >= 1 and label range n >= d + 1.
    cache : dict, optional
        Memo table; defaults to a module-wide shared one, which keeps
        every rung and ball built in the process (each rung a full facet
        set) for the process's lifetime.  cache={} ties them to one call.
    """
    if d < 1:
        raise InvalidParameters("sphere dimension must be >= 1")
    if n < d + 1:
        raise TooFewVertices(f"need n >= {d + 1}, got {n}")
    return _sphere(d, n, _shared_cache if cache is None else cache)


def cs_ball(d: int, i: int, n: int, *, cache: dict | None = None) -> PureComplex:
    """The i-th ball of the sewing recursion, a d-ball for 0 <= i <= ceil(d/2).

    EMPTY when i < 0.  cache is the memo table as in cs_sphere: the
    default shared one keeps every rung and ball built for the process's
    lifetime, cache={} ties them to one call.
    """
    if d < 1:
        raise InvalidParameters("ball dimension must be >= 1")
    if i > (d + 1) // 2:
        raise InvalidParameters(f"ball index {i} exceeds ceil(d/2)")
    if n < d + 1:
        raise TooFewVertices(f"need n >= {d + 1}, got {n}")
    return _ball(d, i, n, _shared_cache if cache is None else cache)


def _sphere(d: int, n: int, cache: dict) -> PureComplex:
    key = ("sphere", d, n)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if d == 1:
        cyc = list(range(1, n + 1)) + list(range(-1, -n - 1, -1)) + [1]
        val = PureComplex._from_canonical(
            tuple(sorted(cyc[j:j + 2])) for j in range(2 * n)
        )
    elif n == d + 1:
        val = cross_boundary(d + 1)
    else:
        if ("sphere", d, n - 1) not in cache:
            for m in range(d + 2, n - 1):
                _sphere(d, m, cache)
        prev = _sphere(d, n - 1, cache)
        b = _ball(d, (d + 1) // 2 - 1, n - 1, cache)
        nb = frozenset(map(_negated, b.facets))
        if b.facets & nb:
            raise RecursionInvariantViolated(
                f"replacement balls for d={d}, n={n} share facets"
            )
        # set | set sizes its table once; grown by insertion it can end 2x as large
        cone = frozenset(R + (n,) for R in boundary(b).facets)
        val = PureComplex._from_canonical(
            (prev.facets - b.facets - nb) | cone | frozenset(map(_negated, cone))
        )
    cache[key] = val
    return val


def _ball(d: int, i: int, n: int, cache: dict) -> PureComplex:
    if i < 0:
        return EMPTY
    key = ("ball", d, i, n)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if d == 1 and i == 0:
        val = PureComplex._from_canonical([(-1, n)])
    elif d % 2 == 1 and i == (d + 1) // 2:
        # top ball in odd dimension: complement of its predecessor
        val = PureComplex._from_canonical(
            _sphere(d, n, cache).facets - _ball(d, i - 1, n, cache).facets
        )
    else:
        upper = _ball(d - 1, i, n - 1, cache).facets
        lower = _ball(d - 1, i - 1, n - 1, cache).facets
        val = PureComplex._from_canonical(
            frozenset(F + (n,) for F in upper)
            | frozenset((-n,) + _negated(F) for F in lower)
        )
    if i <= (d + 1) // 2 - 1:
        sphere_facets = _sphere(d, n, cache).facets
        if not val.facets <= sphere_facets:
            raise RecursionInvariantViolated(
                f"ball d={d}, i={i}, n={n} is not contained in its sphere"
            )
    cache[key] = val
    return val


def edge_link_sphere(
    k: int, n: int, edge, *, cache: dict | None = None
) -> PureComplex:
    """Link of an edge in cs_sphere(2k+1, n+2), expected to be a cs
    (2k-1)-sphere on 2n vertices for suitable edges.  No sphere or cs
    property is asserted here; see edge_link_search for the reports."""
    if k < 2:
        raise InvalidParameters("need k >= 2")
    e = face(edge)
    if len(e) != 2:
        raise InvalidParameters(f"edge must have two vertices, got {e}")
    return link(cs_sphere(2 * k + 1, n + 2, cache=cache), e)


@dataclass(frozen=True)
class EdgeLinkReport:
    """Checks for the link of one edge: no assertion, just findings."""

    edge: Face
    vertex_count: int
    pseudomanifold: bool
    betti: tuple[int, ...]
    sphere_profile: bool
    centrally_symmetric: bool


def edge_link_search(k: int, n: int, *, cache: dict | None = None) -> list[EdgeLinkReport]:
    """Survey every edge of cs_sphere(2k+1, n+2) and report which links
    carry the Betti profile of a (2k-1)-sphere on 2n vertices."""
    if k < 2:
        raise InvalidParameters("need k >= 2")
    host = cs_sphere(2 * k + 1, n + 2, cache=cache)
    profile = sphere_betti_profile(2 * k - 1)
    out = []
    for e in sorted(host.faces_of_cardinality(2)):
        lk = link(host, e)
        pm = is_closed_pseudomanifold(lk).passed
        bt = gf2_betti(lk)
        out.append(
            EdgeLinkReport(
                edge=e,
                vertex_count=lk.vertex_count,
                pseudomanifold=pm,
                betti=bt,
                sphere_profile=pm and bt == profile and lk.vertex_count == 2 * n,
                centrally_symmetric=is_cs(lk),
            )
        )
    return out
