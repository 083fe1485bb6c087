"""Pure simplicial complexes over signed integer vertex labels.

Vertices are nonzero integers, so every label v has an antipode -v and
negating all labels is an involution of the vertex pool.  A complex is
stored by its facet set alone: every facet has the same cardinality
(purity is enforced on construction) and faces are canonical sorted
tuples.  The distinguished EMPTY complex has no facets, dimension -1,
and contains only the empty face; it is the identity for union and for
join.

Validation happens at the edges: face(), simplex(), the public
PureComplex(...) constructor and the file loaders sort every facet and
reject zero, duplicate or non-integer labels (bool included) and mixed
facet sizes.  A complex built from other complexes inherits canonical
facets, so join, union, relative_difference, boundary, negate, link and
the family constructors (cs recursion, cyclic, cross and stacked
polytopes, squeezed balls) pass their results to the private
PureComplex._from_canonical, which checks nothing.  The clash and
dimension pre-checks of join, union and relative_difference still run.

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
    vs = tuple(vertices)
    for v in vs:
        # bool is a subclass of int, but True is no label
        if not isinstance(v, int) or isinstance(v, bool) or v == 0:
            raise ValueError(f"vertex labels must be nonzero integers, got {v!r}")
    vs = tuple(sorted(vs))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex label {a} in face")
    return vs


class PureComplex:
    """A pure simplicial complex, identified with its facet set.  The
    constructor drops empty facets, so a lone empty facet gives EMPTY."""

    __slots__ = ("_facets", "_dimension", "_vertices")

    def __init__(self, facets: Iterable[Iterable[int]]):
        fs = frozenset(filter(None, map(face, facets)))
        sizes = set(map(len, fs))
        if len(sizes) > 1:
            raise ValueError(f"facets of unequal cardinality: {sorted(sizes)}")
        self._set_facets(fs)

    @classmethod
    def _from_canonical(cls, facets: Iterable[Face]) -> PureComplex:
        """Trusted constructor.  Precondition, not checked: every facet is a
        nonempty sorted tuple of distinct nonzero ints and all have the same
        size.  Only for facets canonical by construction; input from outside
        goes through PureComplex(...)."""
        self = object.__new__(cls)
        self._set_facets(facets if isinstance(facets, frozenset) else frozenset(facets))
        return self

    def _set_facets(self, fs: frozenset[Face]) -> None:
        self._facets = fs
        self._dimension = len(next(iter(fs))) - 1 if fs else -1
        self._vertices = frozenset(itertools.chain.from_iterable(fs))

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
        """True iff f lies in some facet.  The empty face lies in every
        complex, EMPTY included."""
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
    return PureComplex._from_canonical(
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
    return PureComplex._from_canonical(a.facets | b.facets)


def relative_difference(delta: PureComplex, gamma: PureComplex) -> PureComplex:
    """Facets of delta that are not facets of gamma (gamma may be EMPTY)."""
    if gamma.is_empty:
        return delta
    if delta.dimension != gamma.dimension:
        raise DimensionMismatch(
            f"cannot subtract dimension {gamma.dimension} from {delta.dimension}"
        )
    return PureComplex._from_canonical(delta.facets - gamma.facets)


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
    return PureComplex._from_canonical(r for r, c in counts.items() if c == 1)


def _negated(f: Face) -> Face:
    """The antipodal face of a canonical face, reversed so it stays sorted."""
    return tuple(-v for v in reversed(f))


def negate(delta: PureComplex) -> PureComplex:
    """Relabel every vertex v as -v."""
    if delta.is_empty:
        return delta
    return PureComplex._from_canonical(map(_negated, delta.facets))


def link(delta: PureComplex, f: Iterable[int]) -> PureComplex:
    """Link of a face: residues of the facets containing it; EMPTY for a
    facet.  Raises FaceNotPresent for a nonempty face in no facet (the
    empty face lies in every complex, EMPTY included)."""
    fc = face(f)
    fv = set(fc)
    star = [F for F in delta.facets if fv.issubset(F)]
    if fc and not star:
        raise FaceNotPresent(f"{fc} is not a face")
    if len(fc) == delta.dimension + 1:
        return EMPTY
    return PureComplex._from_canonical(tuple(v for v in F if v not in fv) for F in star)


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
    """Count faces in every dimension by downward closure, one layer at a
    time.  Raises TooLarge once the count, the empty face included, would
    exceed max_faces."""
    counts = [1]
    for c in range(1, delta.dimension + 2):
        counts.append(len(delta.faces_of_cardinality(c)))
        if sum(counts) > max_faces:
            raise TooLarge(f"face count exceeds {max_faces}")
    return FVector(tuple(counts))


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Outcome of the closed-pseudomanifold check, with witnesses."""

    connected: bool
    bad_ridges: tuple[Face, ...]

    @property
    def ridges_ok(self) -> bool:
        return not self.bad_ridges

    @property
    def passed(self) -> bool:
        return self.ridges_ok and self.connected

    def __bool__(self) -> bool:
        return self.passed


def is_closed_pseudomanifold(delta: PureComplex) -> PseudomanifoldReport:
    """Check that every ridge lies in exactly two facets and the facet
    adjacency graph is connected.  Returns a report, never raises on a
    failing complex; the failing ridges are listed as witnesses.  Works on
    the int codes of gf2_betti and decodes only the witness ridges."""
    if delta.dimension < 1:
        raise InvalidParameters("need facet dimension >= 1")
    codes, s, ranked = _facet_codes(delta)
    drops = _drops(delta.dimension + 1, s)
    by_ridge: dict[int, list[int]] = {}  # ridge code -> indices of its facets
    for j, code in enumerate(codes):
        for head, shift, keep in drops:
            by_ridge.setdefault((code >> head) << shift | code & keep, []).append(j)
    # int order of ridge codes is the lex order of their labels; a ridge
    # has the fields of drops[1:]
    field = (1 << s) - 1
    bad = tuple(
        tuple(ranked[r >> shift & field] for _, shift, _ in drops[1:])
        for r in sorted(r for r, fs in by_ridge.items() if len(fs) != 2)
    )

    # connectivity of the dual graph, walking shared ridges from facet 0
    seen = bytearray(len(codes))
    seen[0] = 1
    stack = [0]
    while stack:
        code = codes[stack.pop()]
        for head, shift, keep in drops:
            for g in by_ridge[(code >> head) << shift | code & keep]:
                if not seen[g]:
                    seen[g] = 1
                    stack.append(g)
    return PseudomanifoldReport(connected=all(seen), bad_ridges=bad)


def gf2_betti(delta: PureComplex, max_faces: int = 2_000_000) -> tuple[int, ...]:
    """Unreduced Betti numbers (b_0, ..., b_d) over GF(2).

    b_i = dim ker d_i - rank d_{i+1} with d_0 = 0.  Each boundary map is
    brought to column echelon form by the standard reduction: faces in lex
    order, a column's pivot is its highest row, and a column whose pivot
    row is taken is added to the owner of that row until its pivot is free
    or it vanishes; rank d_i is the number of pivots.

    Clearing (Chen and Kerber, "Persistent homology computation with a
    twist", 2011; Bauer, Kerber and Reininghaus, "Clear and compress",
    2014): the maps are reduced from d_d down to d_1, and a column of d_i
    whose face is a pivot row of the reduced d_{i+1} is skipped, because
    ordering faces by dimension is a filtration and such a column reduces
    to zero.

    Faces are int codes, as in Ripser (Bauer, "Ripser: efficient
    computation of Vietoris-Rips persistence barcodes", 2021): with the
    vertices ranked 0..n-1 and s = n.bit_length(), the c-face of ranks
    r_0 < ... < r_{c-1} is sum(r_k << s*(c-1-k)), so the int order of one
    layer is the lex order.  The layers are built from the facets down as
    the codes of sub-faces.  A column whose pivot row is free keeps only
    its face code; its rows are rebuilt from the codes of its sub-faces
    when it is reduced or added into another column.  A reduced column is
    kept as a sparse list of rows, highest first, and becomes an int
    bitmask only while it is being reduced: a mask is as wide as the whole
    row layer, a row list holds a few ints.  Lex order keeps the column
    additions few: cs_sphere(6, 16) needs 9,257 of them, while with the
    layers in set order the reduction had not ended after 400 s.  Every
    face code is held in memory, so the total face count is guarded.
    """
    if delta.is_empty:
        raise InvalidParameters("Betti numbers of EMPTY are not defined here")
    dim = delta.dimension
    layer, s, _ = _facet_codes(delta)
    layers = []  # sorted codes of the faces of cardinality dim + 1, dim, ..., 1
    total = 0
    for c in range(dim + 1, 0, -1):
        total += len(layer)
        if total > max_faces:
            raise TooLarge(f"face count exceeds {max_faces}")
        layers.append(sorted(layer))
        # the last pass yields only the empty face, code 0, which is dropped
        layer = set()
        for head, shift, keep in _drops(c, s):
            layer.update([(code >> head) << shift | code & keep for code in layers[-1]])
    layers.reverse()

    ranks = [0] * (dim + 2)  # ranks[i] = rank of d_i; d_0 and d_{dim+1} are 0
    pivots: dict[int, int | list[int]] = {}  # pivot row -> face code or reduced column
    for i in range(dim, 0, -1):
        # the pivot rows of d_{i+1} name the columns of d_i to skip
        cleared, pivots = pivots, {}
        index = dict(zip(layers[i - 1], range(len(layers[i - 1]))))
        drops = _drops(i + 1, s)
        tail = drops[0][2]  # the code of F[1:] is code & tail
        for j, code in enumerate(layers[i]):
            if j in cleared:
                continue
            row = index[code & tail]
            if row in pivots:
                col = _column(code, index, drops)
                while col and (low := col.bit_length() - 1) in pivots:
                    col ^= _column(pivots[low], index, drops)
                if col:
                    pivots[low] = _rows(col)
            else:
                pivots[row] = code
        ranks[i] = len(pivots)

    return tuple(len(layers[i]) - ranks[i] - ranks[i + 1] for i in range(dim + 1))


def _facet_codes(delta: PureComplex) -> tuple[list[int], int, list[int]]:
    """(codes, s, ranked): the int codes of the facets, in facet-set order,
    the field width s and the sorted vertices, so ranked[r] is the label
    of rank r (see gf2_betti)."""
    ranked = sorted(delta.vertices)
    rank = {v: r for r, v in enumerate(ranked)}
    s = len(ranked).bit_length()
    codes = []
    for F in delta.facets:
        code = 0
        for v in F:
            code = code << s | rank[v]
        codes.append(code)
    return codes, s, ranked


def _drops(c: int, s: int) -> list[tuple[int, int, int]]:
    """(head, shift, keep) for k = 0..c-1: the code of a c-face with the
    vertex at position k dropped is (code >> head) << shift | code & keep."""
    return [(shift + s, shift, (1 << shift) - 1) for shift in range(s * (c - 1), -1, -s)]


def _column(
    entry: int | list[int], index: dict[int, int], drops: list[tuple[int, int, int]]
) -> int:
    """Bitmask of a column kept as a face code (its rows rebuilt from the
    codes of its sub-faces) or as a reduced list of rows."""
    if isinstance(entry, int):
        entry = [index[(entry >> head) << shift | entry & keep] for head, shift, keep in drops]
    return _mask(entry)


def _mask(rows: list[int]) -> int:
    m = 0
    for r in rows:
        m |= 1 << r
    return m


def _rows(mask: int) -> list[int]:
    rows = []
    while mask:
        r = mask.bit_length() - 1
        rows.append(r)
        mask ^= 1 << r
    return rows


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
    and no face contains an antipodal pair.  Negation is injective, so it
    maps the facets onto themselves iff each negated facet is a facet, and
    a facet holds an antipodal pair iff it meets its negation."""
    fs = delta.facets
    return all(
        (neg := _negated(F)) in fs and set(F).isdisjoint(neg) for F in fs
    )


def is_cs_k_neighborly(delta: PureComplex, k: int) -> bool:
    """True iff every antipode-free k-subset of the vertices is a face."""
    if not is_cs(delta):
        raise NotCentrallySymmetric("complex is not centrally symmetric")
    if not 1 <= k <= delta.dimension + 1:
        raise InvalidParameters(f"k={k} out of range for dimension {delta.dimension}")
    # a cs complex has f0/2 antipodal pairs and antipode-free faces, so its
    # k-faces are among the C(f0/2, k) * 2^k antipode-free k-subsets
    return len(delta.faces_of_cardinality(k)) == comb(delta.vertex_count // 2, k) * 2**k
