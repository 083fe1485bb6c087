"""Exact and approximate transversal numbers of small hypergraphs.

A transversal (hitting set) meets every edge.  Greedy cover, matching
bound and exact solver share one core over python-int bitmasks of the
sorted labels; the greedy cover and the solver's branching use the same
rule: take the vertex of highest uncovered degree (ties to the smallest
label).  The exact solver is a deterministic branch and bound on an
explicit stack: it seeds with the greedy cover, prunes with the greedy
matching lower bound, and propagates unit edges.  Instances here come
from facet hypergraphs with a few hundred edges, where this terminates
quickly; a wall-clock budget over the whole call makes the worst case
safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .complexes import Face, PureComplex, face
from .errors import InvalidParameters, UnknownVertex


@dataclass(frozen=True)
class Hypergraph:
    """Finite hypergraph; edges are deduplicated canonical faces."""

    vertices: tuple[int, ...]
    edges: tuple[Face, ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vs = tuple(sorted(set(vertices)))
        es = tuple(sorted(set(face(e) for e in edges)))
        pool = set(vs)
        for e in es:
            if not e:
                raise InvalidParameters("edges must be nonempty")
            stray = set(e) - pool
            if stray:
                raise UnknownVertex(f"edge {e} uses unknown vertices {sorted(stray)}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)


@dataclass(frozen=True)
class TransversalCertificate:
    """Result of a transversal computation with proof bounds.

    optimal implies lower_bound == upper_bound == |hitting_set|.
    """

    hitting_set: frozenset[int]
    lower_bound: int
    upper_bound: int
    optimal: bool
    nodes_explored: int
    timed_out: bool


def facet_hypergraph(delta: PureComplex) -> Hypergraph:
    """Hypergraph whose edges are the facets of a nonempty complex."""
    if delta.is_empty:
        raise InvalidParameters("facet hypergraph of EMPTY is not defined")
    return Hypergraph(delta.vertices, delta.facets)


def is_transversal(h: Hypergraph, t: Iterable[int]) -> bool:
    """True iff t meets every edge; t must use known vertices."""
    ts = set(t)
    stray = ts - set(h.vertices)
    if stray:
        raise UnknownVertex(f"unknown vertices {sorted(stray)}")
    return all(ts & set(e) for e in h.edges)


def _edge_masks(h: Hypergraph) -> list[int]:
    """Edges as bitmasks over the sorted labels, in edge order."""
    index = {v: i for i, v in enumerate(h.vertices)}
    return [sum(1 << index[v] for v in e) for e in h.edges]


def _labels(mask: int, labels: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(labels) if mask >> i & 1)


def _top_vertex(ms: list[int], nv: int) -> int:
    """Index of the vertex in the most edges of ms, ties to the smallest."""
    counts = [0] * nv
    for m in ms:
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    return max(range(nv), key=counts.__getitem__)


def _greedy(ms: list[int], nv: int) -> int:
    """Mask of the greedy cover: take _top_vertex until every edge is hit."""
    picked = 0
    while ms:
        bit = 1 << _top_vertex(ms, nv)
        picked |= bit
        ms = [m for m in ms if not m & bit]
    return picked


def _matching(ms: list[int]) -> int:
    """Size of a greedy pairwise-disjoint edge collection, in list order."""
    used = 0
    count = 0
    for m in ms:
        if not m & used:
            used |= m
            count += 1
    return count


def greedy_transversal(h: Hypergraph) -> set[int]:
    """Repeatedly take the vertex covering the most uncovered edges
    (ties to the smallest label)."""
    return set(_labels(_greedy(_edge_masks(h), len(h.vertices)), h.vertices))


def matching_lower_bound(h: Hypergraph) -> int:
    """Size of a greedy pairwise-disjoint edge collection, taking edges
    smallest-lexicographic first.  Any transversal needs one vertex per
    matched edge."""
    return _matching(_edge_masks(h))


def exact_transversal(
    h: Hypergraph, time_budget: float = 60.0
) -> TransversalCertificate:
    """Minimum transversal by branch and bound.

    Deterministic and sequential: given the same hypergraph the same
    certificate comes back, whatever the wall clock does short of the
    budget.  On timeout the certificate carries the best proven bounds
    and timed_out=True.

    Parameters
    ----------
    h : Hypergraph
    time_budget : float
        Wall-clock seconds for the whole call, preprocessing included,
        before the search gives up.
    """
    deadline = time.monotonic() + time_budget
    if not h.edges:
        return TransversalCertificate(frozenset(), 0, 0, True, 0, False)

    labels = h.vertices
    nv = len(labels)
    masks = _edge_masks(h)
    best_mask = _greedy(masks, nv)
    best_size = best_mask.bit_count()
    root_lb = _matching(masks)
    if root_lb >= best_size:
        return TransversalCertificate(
            _labels(best_mask, labels), best_size, best_size, True, 0, False
        )
    if time_budget <= 0:
        return TransversalCertificate(
            _labels(best_mask, labels), root_lb, best_size, False, 0, True
        )

    check_every = 512
    nodes = 0
    timed_out = False
    # depth first; the "take" child is pushed last so it is searched first
    stack = [(masks, 0)]
    while stack:
        ms, picked = stack.pop()
        nodes += 1
        if nodes % check_every == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        # unit propagation: a one-vertex edge forces that vertex
        while True:
            forced = 0
            for m in ms:
                if not m & (m - 1):
                    forced |= m
            if not forced:
                break
            picked |= forced
            ms = [m for m in ms if not m & forced]
        size = picked.bit_count()
        if not ms:
            if size < best_size:
                best_size = size
                best_mask = picked
            continue
        if size + _matching(ms) >= best_size:
            continue
        bit = 1 << _top_vertex(ms, nv)
        # every edge left has two or more vertices, so none empties here
        stack.append(([m & ~bit for m in ms], picked))
        stack.append(([m for m in ms if not m & bit], picked | bit))

    lower = root_lb if timed_out else best_size
    return TransversalCertificate(
        hitting_set=_labels(best_mask, labels),
        lower_bound=lower,
        upper_bound=best_size,
        optimal=lower == best_size,
        nodes_explored=nodes,
        timed_out=timed_out,
    )


def transversal_ratio(
    delta: PureComplex, cert: TransversalCertificate
) -> tuple[Fraction, Fraction]:
    """Exact (lower, upper) bounds on tau / vertex count."""
    n = delta.vertex_count
    if n == 0:
        raise InvalidParameters("complex has no vertices")
    return Fraction(cert.lower_bound, n), Fraction(cert.upper_bound, n)


def explicit_cs_transversal(d: int, n: int) -> set[int]:
    """Closed-form transversal of the cs sphere construction's facets.

    For d=3 take both signs of the odd labels, for d=4 both signs of
    the labels congruent to 1 or 2 mod 5; either way add +-n.
    """
    if n < d + 1:
        raise InvalidParameters(f"need n >= {d + 1}")
    if d == 3:
        core = [v for v in range(1, n + 1) if v % 2 == 1]
    elif d == 4:
        core = [v for v in range(1, n + 1) if v % 5 in (1, 2)]
    else:
        raise InvalidParameters("explicit transversals are defined for d=3 and d=4")
    out = {s * v for v in core for s in (1, -1)}
    out.update((n, -n))
    return out
