"""Pure simplicial complexes over signed integer vertex labels.

Vertices are nonzero integers, so every label v has an antipode -v and
negating all labels is an involution of the vertex pool.  A complex is
stored by its facet set alone: every facet has the same cardinality
(purity is enforced on construction) and faces are canonical sorted
tuples.  The distinguished EMPTY complex has no facets, dimension -1,
and contains only the empty face; it is the identity for union and for
join.

All operations return new complexes and never mutate their arguments,
so everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from .errors import (
    DimensionMismatch,
    FaceNotPresent,
    InvalidJoin,
    InvalidParameters,
    NotCentrallySymmetric,
    TooLarge,
)

Face = tuple[int, ...]


def face(vertices: Iterable[int]) -> Face:
    """Canonicalize a face: sorted tuple of distinct nonzero ints."""
    vs = tuple(sorted(vertices))
    for v in vs:
        if not isinstance(v, int) or v == 0:
            raise ValueError(f"vertex labels must be nonzero integers, got {v!r}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex label {a} in face")
    return vs


class PureComplex:
    """A pure simplicial complex, identified with its facet set."""

    __slots__ = ("_facets", "_dimension", "_vertices")

    def __init__(self, facets: Iterable[Iterable[int]]):
        fs = frozenset(face(f) for f in facets)
        # a lone empty facet means "only the empty face", i.e. EMPTY
        fs = frozenset(f for f in fs if f)
        if fs:
            sizes = {len(f) for f in fs}
            if len(sizes) != 1:
                raise ValueError(f"facets of unequal cardinality: {sorted(sizes)}")
            self._dimension = sizes.pop() - 1
        else:
            self._dimension = -1
        self._facets = fs
        self._vertices = frozenset(v for f in fs for v in f)

    @property
    def facets(self) -> frozenset[Face]:
        return self._facets

    @property
    def dimension(self) -> int:
        """Dimension of the facets; -1 for the EMPTY complex."""
        return self._dimension

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def is_empty(self) -> bool:
        return not self._facets

    def sorted_facets(self) -> list[Face]:
        return sorted(self._facets)

    def contains_face(self, f: Iterable[int]) -> bool:
        """True iff f is contained in some facet (the empty face always is
        unless that ever matters for EMPTY, which contains it too)."""
        fv = set(face(f))
        return any(fv.issubset(F) for F in self._facets) or not fv

    def faces_of_cardinality(self, c: int) -> set[Face]:
        """All c-element faces (c >= 0)."""
        if c < 0:
            raise InvalidParameters("cardinality must be >= 0")
        if c == 0:
            return {()}
        out: set[Face] = set()
        for F in self._facets:
            out.update(itertools.combinations(F, c))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __len__(self) -> int:
        return len(self._facets)

    def __iter__(self) -> Iterator[Face]:
        return iter(self._facets)

    def __repr__(self) -> str:
        if self.is_empty:
            return "PureComplex(EMPTY)"
        return (
            f"PureComplex(dim={self._dimension}, "
            f"vertices={self.vertex_count}, facets={len(self._facets)})"
        )


EMPTY = PureComplex(())


def simplex(vertices: Iterable[int]) -> PureComplex:
    """The full simplex on the given vertices (a single facet)."""
    return PureComplex([face(vertices)])


def join(a: PureComplex, b: PureComplex) -> PureComplex:
    """Simplicial join: facets are unions of one facet from each side.

    EMPTY is the identity.  The vertex sets must be disjoint.
    """
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    clash = a.vertices & b.vertices
    if clash:
        raise InvalidJoin(f"join factors share vertices {sorted(clash)}")
    return PureComplex(
        tuple(sorted(fa + fb)) for fa in a.facets for fb in b.facets
    )


def union(a: PureComplex, b: PureComplex) -> PureComplex:
    """Facet-set union of two pure complexes of equal dimension."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"cannot union dimensions {a.dimension} and {b.dimension}"
        )
    return PureComplex(a.facets | b.facets)


def relative_difference(delta: PureComplex, gamma: PureComplex) -> PureComplex:
    """Facets of delta that are not facets of gamma (gamma may be EMPTY)."""
    if gamma.is_empty:
        return delta
    if delta.dimension != gamma.dimension:
        raise DimensionMismatch(
            f"cannot subtract dimension {gamma.dimension} from {delta.dimension}"
        )
    return PureComplex(delta.facets - gamma.facets)


def boundary(ball: PureComplex) -> PureComplex:
    """Subcomplex generated by ridges lying in exactly one facet.

    EMPTY when no ridge qualifies (e.g. for a closed pseudomanifold).
    """
    if ball.dimension <= 0:
        return EMPTY
    counts: Counter[Face] = Counter()
    for F in ball.facets:
        for i in range(len(F)):
            counts[F[:i] + F[i + 1:]] += 1
    return PureComplex(r for r, c in counts.items() if c == 1)


def negate(delta: PureComplex) -> PureComplex:
    """Relabel every vertex v as -v."""
    if delta.is_empty:
        return delta
    return PureComplex(tuple(-v for v in reversed(F)) for F in delta.facets)


def link(delta: PureComplex, f: Iterable[int]) -> PureComplex:
    """Link of a face: residues of the facets containing it."""
    fc = face(f)
    if not delta.contains_face(fc):
        raise FaceNotPresent(f"{fc} is not a face")
    fv = set(fc)
    return PureComplex(
        tuple(v for v in F if v not in fv)
        for F in delta.facets
        if fv.issubset(F)
    )


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d}) indexed by dimension."""

    counts: tuple[int, ...]

    def __getitem__(self, dim: int) -> int:
        return self.counts[dim + 1]

    @property
    def euler_characteristic(self) -> int:
        """Alternating sum over dimensions >= 0 (unreduced)."""
        return sum((-1) ** i * c for i, c in enumerate(self.counts[1:]))


def f_vector(delta: PureComplex, max_faces: int = 10_000_000) -> FVector:
    """Count faces in every dimension by downward closure.

    Raises TooLarge if the total face count would exceed max_faces.
    """
    counts = [1]  # the empty face
    total = 1
    for c in range(1, delta.dimension + 2):
        n_c = len(delta.faces_of_cardinality(c))
        total += n_c
        if total > max_faces:
            raise TooLarge(f"face count exceeds {max_faces}")
        counts.append(n_c)
    return FVector(tuple(counts))


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Outcome of the closed-pseudomanifold check, with witnesses."""

    ridges_ok: bool
    connected: bool
    bad_ridges: tuple[Face, ...]

    @property
    def passed(self) -> bool:
        return self.ridges_ok and self.connected

    def __bool__(self) -> bool:
        return self.passed


def is_closed_pseudomanifold(delta: PureComplex) -> PseudomanifoldReport:
    """Check that every ridge lies in exactly two facets and the facet
    adjacency graph is connected.  Returns a report, never raises on a
    failing complex; the failing ridges are listed as witnesses."""
    if delta.dimension < 1:
        raise InvalidParameters("need facet dimension >= 1")
    by_ridge: dict[Face, list[Face]] = {}
    for F in delta.facets:
        for i in range(len(F)):
            by_ridge.setdefault(F[:i] + F[i + 1:], []).append(F)
    bad = tuple(sorted(r for r, fs in by_ridge.items() if len(fs) != 2))

    # connectivity of the dual graph, walking shared ridges
    facets = delta.sorted_facets()
    seen = {facets[0]}
    stack = [facets[0]]
    while stack:
        F = stack.pop()
        for i in range(len(F)):
            for G in by_ridge[F[:i] + F[i + 1:]]:
                if G not in seen:
                    seen.add(G)
                    stack.append(G)
    connected = len(seen) == len(facets)
    return PseudomanifoldReport(ridges_ok=not bad, connected=connected, bad_ridges=bad)


def _gf2_rank(columns: list[int]) -> int:
    # Gaussian elimination over GF(2); columns are bitmasks of row indices.
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            p = col.bit_length() - 1
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = col
                rank += 1
                break
            col ^= piv
    return rank


def gf2_betti(delta: PureComplex, max_faces: int = 2_000_000) -> tuple[int, ...]:
    """Unreduced Betti numbers (b_0, ..., b_d) over GF(2).

    b_i = dim ker d_i - rank d_{i+1} with d_0 = 0, computed by dense
    bitmask elimination, so the total face count is guarded.
    """
    if delta.is_empty:
        raise InvalidParameters("Betti numbers of EMPTY are not defined here")
    dim = delta.dimension
    layers: list[list[Face]] = []
    total = 0
    for c in range(1, dim + 2):
        layer = sorted(delta.faces_of_cardinality(c))
        total += len(layer)
        if total > max_faces:
            raise TooLarge(f"face count exceeds {max_faces}")
        layers.append(layer)

    ranks = [0] * (dim + 2)  # ranks[i] = rank of d_i; d_0 and d_{dim+1} are 0
    for i in range(1, dim + 1):
        index = {f: j for j, f in enumerate(layers[i - 1])}
        cols = []
        for F in layers[i]:
            m = 0
            for k in range(len(F)):
                m |= 1 << index[F[:k] + F[k + 1:]]
            cols.append(m)
        ranks[i] = _gf2_rank(cols)

    betti = []
    for i in range(dim + 1):
        f_i = len(layers[i])
        kernel = f_i - ranks[i]
        betti.append(kernel - ranks[i + 1])
    return tuple(betti)


def sphere_betti_profile(dim: int) -> tuple[int, ...]:
    """Expected GF(2) Betti numbers of a sphere of the given dimension."""
    if dim < 0:
        raise InvalidParameters("sphere dimension must be >= 0")
    if dim == 0:
        return (2,)
    return (1,) + (0,) * (dim - 1) + (1,)


def is_k_neighborly(delta: PureComplex, k: int) -> bool:
    """True iff every k-subset of the vertices is a face."""
    if not 1 <= k <= delta.dimension + 1:
        raise InvalidParameters(f"k={k} out of range for dimension {delta.dimension}")
    return len(delta.faces_of_cardinality(k)) == comb(delta.vertex_count, k)


def is_cs(delta: PureComplex) -> bool:
    """Centrally symmetric: label negation maps the complex onto itself
    and no face contains an antipodal pair."""
    if negate(delta) != delta:
        return False
    return all(-v not in F for F in delta.facets for v in F)


def is_cs_k_neighborly(delta: PureComplex, k: int) -> bool:
    """True iff every antipode-free k-subset of the vertices is a face."""
    if not is_cs(delta):
        raise NotCentrallySymmetric("complex is not centrally symmetric")
    if not 1 <= k <= delta.dimension + 1:
        raise InvalidParameters(f"k={k} out of range for dimension {delta.dimension}")
    # a cs complex has f0/2 antipodal pairs and antipode-free faces, so its
    # k-faces are among the C(f0/2, k) * 2^k antipode-free k-subsets
    return len(delta.faces_of_cardinality(k)) == comb(delta.vertex_count // 2, k) * 2**k
