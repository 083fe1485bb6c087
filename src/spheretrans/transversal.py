"""Exact and approximate transversal numbers of small hypergraphs.

A transversal (hitting set) meets every edge.  Greedy cover, matching
bound and exact solver share one core over python-int bitsets: each edge
is a mask over the sorted labels, and its transpose inc[v], built as
text in time linear in edges times labels, is the mask of the edge
positions that contain vertex v.  A set of edges is then one int, the
degree of v among the edges R is (inc[v] & R).bit_count(), and taking v
removes inc[v] from R in one operation.  The greedy cover takes the
vertex in the most edges not yet hit, ties to the smallest label: the
search's branching rule below, with every edge not yet hit in one tier.

The search is a deterministic branch and bound on an explicit stack: it
seeds with the greedy cover, prunes with a greedy matching lower bound,
and propagates unit edges.  Each node carries its edges in tiers by live
vertex count.  Taking a vertex never shrinks an edge that is left, so
that child keeps the tiers, and units appear only at the root and in the
child that excludes the branching vertex, whose edges move down a tier.
The matching at a node takes the edges with two live vertices first,
then those with three, and so on.  When it is one short of the
incumbent, a smaller hitting set takes exactly one vertex of each
matched edge and none outside them, so an edge with a single vertex in
the matched edges forces it (gap-one forcing).  The search branches on
the live vertex in the most edges of the lowest tier with an edge left
(MOMS: most occurrences in clauses of minimum size), ties to the most
edges not yet hit, then to the smallest label.

The exact solver wraps that search in one recursion over vertex blocks,
with one rule: for disjoint blocks V_1..V_k, tau(H) >= sum of tau(H[V_i]),
with equality for the connected components.  Every call solves its
components on the labels of their own edges.  A component whose labels
are closed under negation (every cs sphere) first calls the recursion
on its edges of one sign (the positive ones alone, doubled, when
negation maps them onto the rest), and its search stops as soon as the
incumbent reaches that floor; on cs 3-spheres with an even n it is
already the greedy cover's size.  A wall-clock budget covers the whole
call, and a timeout reports the best lower bound proven by then: per
component, the root matching or the floor, added up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .complexes import Face, PureComplex, _negated, face
from .errors import InvalidParameters, UnknownVertex


@dataclass(frozen=True)
class Hypergraph:
    """Finite hypergraph on face()-checked labels; edges are deduplicated canonical faces."""

    vertices: tuple[int, ...]
    edges: tuple[Face, ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vs = face(set(vertices))
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
    """Hypergraph whose edges are the facets of a nonempty complex.

    The facets are canonical and use only the complex's own vertices, so
    the fields are filled in directly, without Hypergraph's checks."""
    if delta.is_empty:
        raise InvalidParameters("facet hypergraph of EMPTY is not defined")
    h = object.__new__(Hypergraph)
    object.__setattr__(h, "vertices", tuple(sorted(delta.vertices)))
    object.__setattr__(h, "edges", tuple(sorted(delta.facets)))
    return h


def is_transversal(h: Hypergraph, t: Iterable[int]) -> bool:
    """True iff t meets every edge; t must use known vertices."""
    ts, known = list(t), set(h.vertices)
    # True and 1.0 equal 1 and hash alike, so hold t to face()'s label rule
    stray = {v for v in ts if not isinstance(v, int) or isinstance(v, bool) or v not in known}
    if stray:
        # ints by value, then the rest by repr: no comparison across types
        listed = sorted(stray, key=lambda v: (type(v) is not int, v if type(v) is int else repr(v)))
        raise UnknownVertex(f"unknown vertices {listed}")
    hit = set(ts)
    return all(hit & set(e) for e in h.edges)


def _columns(text: str, width: int) -> list[int]:
    """Columns i < width of a bit matrix written as text, last row first,
    each row in `width` binary digits: bit j of column i is bit i of row
    j.  A column is one strided slice, so this is linear in len(text)."""
    return [int(text[width - 1 - i :: width] or "0", 2) for i in range(width)]


def _incidence(vertices: tuple[int, ...], edges: Iterable[Face]) -> tuple[list[int], list[int]]:
    """Edges as bitmasks over the labels in `vertices` (sorted), in edge
    order (an edge's labels are distinct, so the sum of their bits is
    their union), and the transpose: bit j of inc[v] is set iff edge j
    contains vertex v, read from the masks written out by one format
    call."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    masks = [sum(map(bit.__getitem__, e)) for e in edges]
    n = len(vertices)
    return masks, _columns((f"{{:0{n}b}}" * len(masks)).format(*reversed(masks)), n)


def _labels(mask: int, labels: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for i, v in enumerate(labels) if mask >> i & 1)


def _greedy(inc: list[int], rem: int) -> int:
    """Mask of the greedy cover of rem: take _branch_vertex with the one
    tier rem, the vertex in the most edges of rem, ties to the smallest
    index, until every edge is hit."""
    live = (1 << len(inc)) - 1
    picked = 0
    while rem:
        v = _branch_vertex(inc, (rem,), rem, live)
        picked |= 1 << v
        rem &= ~inc[v]
    return picked


def _matching(
    masks: list[int], inc: list[int], tiers: Iterable[int], rem: int, live: int, cap: int
) -> tuple[int, int]:
    """Size, capped at cap, of a greedy pairwise-disjoint collection of
    the edges of rem restricted to live: the lowest edge of the first
    tier first, then of the next tier, and so on.  Also the cover, the
    union of the matched edges' live parts.  Below the cap the matching
    is maximal: every edge of rem in the tiers meets the cover."""
    count = cover = 0
    for tier in tiers:
        tier &= rem
        while tier:
            if count == cap:
                return count, cover
            count += 1
            m = masks[(tier & -tier).bit_length() - 1] & live
            cover |= m
            while m:
                low = m & -m
                m ^= low
                rem &= ~inc[low.bit_length() - 1]
            tier &= rem
    return count, cover


def greedy_transversal(h: Hypergraph) -> set[int]:
    """Repeatedly take the vertex covering the most uncovered edges
    (ties to the smallest label)."""
    _, inc = _incidence(h.vertices, h.edges)
    picked = _greedy(inc, (1 << len(h.edges)) - 1)
    return set(_labels(picked, h.vertices))


def matching_lower_bound(h: Hypergraph) -> int:
    """Size of a greedy pairwise-disjoint edge collection, taking edges
    smallest-lexicographic first.  Any transversal needs one vertex per
    matched edge."""
    masks, inc = _incidence(h.vertices, h.edges)
    rem, live = (1 << len(masks)) - 1, (1 << len(inc)) - 1
    return _matching(masks, inc, (rem,), rem, live, len(masks))[0]


def _branch_vertex(inc: list[int], tiers: tuple[int, ...], rem: int, live: int) -> int:
    """Index of the live vertex in the most edges of the lowest tier with
    an edge of rem left, ties to the most edges of rem, then to the
    smallest index.  When the lowest tier is rem itself, as in the greedy
    cover, the two counts agree and the second is not taken."""
    for low in tiers:
        low &= rem
        if low:
            break
    whole = low == rem
    top = most = 0
    for u, edges in enumerate(inc):
        if live >> u & 1:
            count = (edges & low).bit_count()
            if count and count >= top:
                degree = count if whole else (edges & rem).bit_count()
                if count > top or degree > most:
                    top, most, v = count, degree, u
    return v


# A search node: (rem, live, picked, tiers), see _search.
_Node = tuple[int, int, int, tuple[int, ...]]


def _root(masks: list[int], inc: list[int]) -> _Node:
    """The search's root node (rem, live, picked, tiers): a one-vertex
    edge forces its vertex, and every other edge starts in the tier of
    its size.  Tier j holds the edges with exactly j + 2 live vertices;
    edges already hit may linger in a tier, so every use ANDs with rem.
    The edges of each size are a column of the edges' one-hot sizes,
    written out from prebuilt strings."""
    sizes = list(map(int.bit_count, reversed(masks)))
    width = max(sizes, default=1)
    hot = [f"{1 << s >> 1:0{width}b}" for s in range(width + 1)]
    units, *tiers = _columns("".join(map(hot.__getitem__, sizes)), width)
    rem, picked = (1 << len(masks)) - 1, 0
    while units:
        m = masks[(units & -units).bit_length() - 1]
        picked |= m
        rem &= ~inc[m.bit_length() - 1]
        units &= units - 1
    return rem, (1 << len(inc)) - 1 & ~picked, picked, tuple(tiers)


def _children(masks: list[int], inc: list[int], node: _Node, v: int) -> tuple[_Node, _Node]:
    """The children of a node on its live vertex v: without v, its forced
    vertices taken, and with v.  Every edge of rem has two or more live
    vertices, in both children too.  Taking a vertex changes no live
    count of an edge that is left, so that child keeps the tiers.
    Without v, each edge of v moves down a tier, and an edge of v with
    one other live vertex forces that one; forced vertices only delete
    edges."""
    rem, live, picked, tiers = node
    bit = 1 << v
    live &= ~bit
    cut = inc[v] & rem
    down = [t & ~cut | above & cut for t, above in zip(tiers, tiers[1:])]
    down.append(tiers[-1] & ~cut)
    unit = tiers[0] & cut
    without_rem, without_picked = rem, picked
    while unit:
        u = (masks[(unit & -unit).bit_length() - 1] & live).bit_length() - 1
        without_picked |= 1 << u
        without_rem &= ~inc[u]
        unit &= without_rem
    return (
        (without_rem, live & ~without_picked, without_picked, tuple(down)),
        (rem & ~inc[v], live, picked | bit, tiers),
    )


def _search(
    masks: list[int], inc: list[int], deadline: float, floor: int = 0, nodes: int = 0
) -> tuple[int, int, int, bool]:
    """Branch and bound over every edge of masks.

    floor is a proven lower bound on the answer; the search stops as soon
    as the incumbent reaches it or the root matching bound.  nodes counts
    the nodes searched before this call, so the clock is read every 512
    nodes of the whole solve, and a search entered after the deadline
    returns the root.  Returns the mask of the best hitting set, the
    proven lower bound, the running node count and whether the deadline
    stopped the search.

    A node carries its edges in tiers by live vertex count (_root), and
    its matching bound takes the edges with two live vertices first,
    then those with three, and so on.  It branches on _branch_vertex: the
    live vertex in the most edges of the lowest tier with an edge of rem
    left, ties to the most edges of rem, then to the smallest index.

    Gap-one forcing: at a node with size + |M| + 1 == best_size, M the
    node's matching and C its cover (the union of the matched edges'
    live parts), an edge of rem with exactly one vertex in C forces that
    vertex.  The matching stopped below its cap best_size - size, so it
    is maximal and every edge of rem meets C.  A completion smaller than
    the incumbent adds at most |M| vertices, and needs a distinct one in
    each of the pairwise disjoint matched live parts, so it takes exactly
    one vertex of each and none outside C; such an edge is hit only by
    its one vertex of C.  A forced vertex is taken as in the "take"
    child, which keeps the tiers, and the node is matched again, until
    the bound prunes it, the gap grows or nothing more is forced.  As
    every edge of rem meets C, a rule for edges missing C never fires.
    """
    expired = time.monotonic() >= deadline
    rem = (1 << len(masks)) - 1
    live = (1 << len(inc)) - 1
    best_mask = _greedy(inc, rem)
    best_size = best_mask.bit_count()
    target = max(floor, _matching(masks, inc, (rem,), rem, live, len(masks))[0])
    if target >= best_size:
        return best_mask, best_size, nodes, False
    if expired:
        return best_mask, target, nodes, True

    check_every = 512
    timed_out = False
    # A node is (rem, live, picked, tiers): the edges not yet hit, the
    # vertices neither picked nor excluded, the picked vertices and the
    # tiers.  Depth first; the "take" child is pushed last so it is
    # searched first.
    stack = [_root(masks, inc)]
    while stack:
        rem, live, picked, tiers = stack.pop()
        nodes += 1
        if nodes % check_every == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        size = picked.bit_count()
        count, cover = _matching(masks, inc, tiers, rem, live, best_size - size)
        while size + count + 1 == best_size:
            # gap one: an edge with a single vertex in the cover forces it
            ones = twos = 0
            rest = cover
            while rest:
                edges = inc[(rest & -rest).bit_length() - 1]
                twos |= ones & edges
                ones |= edges
                rest &= rest - 1
            unit = rem & ~twos
            if not unit:
                break
            while unit:
                bit = masks[(unit & -unit).bit_length() - 1] & cover
                picked |= bit
                rem &= ~inc[bit.bit_length() - 1]
                unit &= rem
            size = picked.bit_count()
            count, cover = _matching(masks, inc, tiers, rem, live, best_size - size)
        if size + count >= best_size:
            continue
        if not rem:
            best_size = size
            best_mask = picked
            if size <= target:
                break
            continue
        node = rem, live, picked, tiers
        stack.extend(_children(masks, inc, node, _branch_vertex(inc, tiers, rem, live)))

    return best_mask, target if timed_out else best_size, nodes, timed_out


def _components(masks: list[int]) -> list[int]:
    """Vertex masks of the connected components of the edges; a single
    mask as soon as one component holds every vertex on an edge."""
    covered = 0
    for m in masks:
        covered |= m
    comps: list[int] = []
    for m in masks:
        apart = []
        for c in comps:
            if c & m:
                m |= c
            else:
                apart.append(c)
        if m == covered:
            return [m]
        comps = apart + [m]
    return comps


def _solve(
    vertices: tuple[int, ...], edges: list[Face], deadline: float, nodes: int, blocks: bool
) -> tuple[tuple[int, ...], int, int, bool]:
    """Minimum hitting set of these edges, as labels, with its proven
    lower bound, the running node count and whether the deadline stopped
    a search.  Unless one component holds every label, the components
    are solved on their own labels and added up, so every _search runs
    on exactly the labels of its edges.  A component whose labels are
    closed under negation gets, when blocks is set, the floor of one call
    on its edges of one sign (the positive ones alone, doubled, when
    negation maps them onto the rest).  The recursion is at most four
    deep: components, sign classes, their components, search."""
    masks, inc = _incidence(vertices, edges)
    parts = _components(masks)
    if parts != [(1 << len(vertices)) - 1]:
        hitting: list[int] = []
        lower, timed_out = 0, False
        for part in parts:
            own = [e for e, m in zip(edges, masks) if m & part]
            t, lb, nodes, out = _solve(_labels(part, vertices), own, deadline, nodes, blocks)
            hitting += t
            lower += lb
            timed_out |= out
        return tuple(hitting), lower, nodes, timed_out
    floor = 0
    if blocks and set(vertices) == {-v for v in vertices}:
        plus = [e for e in edges if e[0] > 0]
        minus = [e for e in edges if e[-1] < 0]
        mirrored = sorted(map(_negated, plus)) == minus
        one_sign = plus if mirrored else plus + minus
        _, floor, nodes, _ = _solve(vertices, one_sign, deadline, nodes, False)
        if mirrored:
            floor *= 2
    best, lower, nodes, timed_out = _search(masks, inc, deadline, floor, nodes)
    return _labels(best, vertices), lower, nodes, timed_out


def exact_transversal(
    h: Hypergraph, time_budget: float = 60.0
) -> TransversalCertificate:
    """Minimum transversal by branch and bound over vertex blocks.

    For disjoint vertex blocks V_1..V_k, tau(H) >= sum of tau(H[V_i]),
    since a hitting set meets every edge inside V_i within V_i; for the
    connected components this is an equality.  One recursion applies it:
    each call solves its components on their own labels, and a component
    whose labels are closed under negation first solves its edges of one
    sign by the same recursion (the positive ones alone, doubled, when
    negation maps them onto the rest).  Its search stops as soon as the
    incumbent reaches that floor.  Unused labels change nothing.  A
    budget of zero or less solves no sign classes and returns the greedy
    cover with the matching bound.

    Deterministic and sequential: given the same hypergraph the same
    certificate comes back, whatever the wall clock does short of the
    budget.  On timeout the certificate carries timed_out=True, the
    incumbent, and the best lower bound proven by then: the sum over the
    components of the larger of the root matching and the sign-class
    floor.

    Parameters
    ----------
    h : Hypergraph
    time_budget : float
        Wall-clock seconds for the whole call, preprocessing and blocks
        included, before the search gives up.  NaN is refused.
    """
    if math.isnan(time_budget):
        raise InvalidParameters("time budget must be a number, got nan")
    deadline = time.monotonic() + time_budget
    hitting, lower, nodes, timed_out = _solve(
        h.vertices, list(h.edges), deadline, 0, time_budget > 0
    )
    size = len(hitting)
    return TransversalCertificate(
        frozenset(hitting), lower, size, lower == size, nodes, timed_out
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
