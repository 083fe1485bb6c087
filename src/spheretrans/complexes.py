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

All operations return new complexes and never mutate their arguments.
Two slots are written lazily: the vertex set, on the first call of
vertices or vertex_count, and the face codes of every layer, which the
first complete walk of f_vector or gf2_betti keeps at 8 bytes a face
(see _layers).  Both hold values fixed by the
facets, so a race only computes one twice, and everything here is safe
to share between threads.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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

    __slots__ = ("_facets", "_dimension", "_vertices", "_codes")

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
        self._vertices: frozenset[int] | None = None  # once asked for
        self._codes: tuple[int, tuple[array | list[int], ...]] | None = None  # see _layers

    @property
    def facets(self) -> frozenset[Face]:
        return self._facets

    @property
    def dimension(self) -> int:
        """Dimension of the facets; -1 for the EMPTY complex."""
        return self._dimension

    @property
    def vertices(self) -> frozenset[int]:
        if self._vertices is None:
            self._vertices = frozenset(itertools.chain.from_iterable(self._facets))
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

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
    """Count faces in every dimension as the lengths of the int-code
    layers (see _layers), which the first walk keeps on the complex at
    8 bytes a face.  Raises TooLarge once the count, the empty face
    included, would exceed max_faces."""
    return FVector((1, *[len(layer) for layer, _ in _layers(delta, max_faces, 1)][::-1]))


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
    failing complex; the failing ridges are listed as witnesses.  One pass
    over the int codes (see _facet_codes), the kept top layer when there is
    one, maps each ridge to its first facet, counts its repeats and joins
    the facets that share it in a union-find; only the witness ridges are
    decoded."""
    if delta.dimension < 1:
        raise InvalidParameters("need facet dimension >= 1")
    if delta._codes:  # its top layer is the facet codes, sorted
        s, (codes, *_) = delta._codes
        ranked = sorted(delta.vertices)
    else:
        codes, s, ranked = _facet_codes(delta)
    drops = _drops(delta.dimension + 1, s)
    first: dict[int, int] = {}  # ridge code -> index of its first facet
    repeats: dict[int, int] = {}  # ridge code -> facets after the first
    parent = list(range(len(codes)))
    for j, code in enumerate(codes):
        for head, shift, keep in drops:
            ridge = (code >> head) << shift | code & keep
            if (a := first.setdefault(ridge, j)) != j:
                repeats[ridge] = repeats.get(ridge, 0) + 1
                # j roots its own tree while its ridges are read (only
                # earlier roots are hung under it): hang a's root under j,
                # halving a's path
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                parent[a] = j
    # int order of ridge codes is the lex order of their labels; a ridge
    # has the fields of drops[1:]
    field = (1 << s) - 1
    bad = tuple(
        tuple(ranked[r >> shift & field] for _, shift, _ in drops[1:])
        for r in sorted(r for r in first if repeats.get(r) != 1)
    )
    roots = sum(p == j for j, p in enumerate(parent))
    return PseudomanifoldReport(connected=roots == 1, bad_ridges=bad)


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

    Faces are int codes (see _facet_codes), as in Ripser (Bauer, "Ripser:
    efficient computation of Vietoris-Rips persistence barcodes", 2021),
    so the int order of one layer is the lex order, and rows and pivots
    are keyed by their codes.  _layers yields the layers from the facets
    down, walking them once per complex and keeping them at 8 bytes a
    face, and d_i is reduced as soon as layers i and i-1 are yielded; the
    face count is guarded as they are.  Of the map above only its pivot
    rows are kept, to clear with.  A column whose pivot row is free keeps
    only its face code; its rows are rebuilt from the codes of its
    sub-faces when it is added into another column.  A column being
    reduced is a heap of negated rows, as in Ripser: its pivot is popped
    with the pairs that cancel, and a reduced column is stored as its
    rows below the pivot, which are all that an addition of it pushes.
    Lex order keeps the column additions few: cs_sphere(6, 16) needs
    9,257, while in set order the reduction had not ended after 400 s.
    """
    if delta.is_empty:
        raise InvalidParameters("Betti numbers of EMPTY are not defined here")
    sizes = []  # face counts of the layers, from the facets down
    ranks = [0]  # ranks[j] = rank of d_{dim+1-j}; d_{dim+1} and d_0 are 0
    pivots: dict[int, int | list[int]] = {}  # pivot row -> face code or rows below it
    upper: array | list[int] = []
    for layer, drops in _layers(delta, max_faces):
        if upper:
            # columns: the faces of upper; rows: the faces of layer.  The
            # pivot rows of the map above name the columns to skip
            cleared, pivots = set(pivots), {}
            tail = upper_drops[0][2]  # the code of F[1:], the highest row, is code & tail
            below = upper_drops[1:]
            for code in upper:
                if code in cleared:
                    continue
                low = code & tail
                if low not in pivots:
                    pivots[low] = code
                    continue
                # the column below its pivot row, which the first addition cancels
                column = [-((code >> h) << t | code & k) for h, t, k in below]
                heapify(column)
                while low in pivots:
                    owner = pivots[low]
                    if isinstance(owner, int):
                        owner = [(owner >> h) << t | owner & k for h, t, k in below]
                    for r in owner:
                        heappush(column, -r)
                    low = _pop_pivot(column)
                if low >= 0:  # store the rows below the pivot, highest first
                    pivots[low] = list(iter(lambda: _pop_pivot(column), -1))
            del cleared  # before the walk builds the next layer
            ranks.append(len(pivots))
        upper, upper_drops = layer, drops
        sizes.append(len(layer))
    ranks.append(0)
    return tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes)))[::-1]


def _layers(
    delta: PureComplex, max_faces: int, total: int = 0
) -> Iterator[tuple[array | list[int], list]]:
    """(codes, _drops(c, s)) for c = dim + 1 down to 1: the sorted int
    codes of the c-faces.  The first walk builds each layer as the codes
    of the sub-faces of the one before and, once it has yielded them all,
    keeps them on the complex: as an array('Q'), 8 bytes a face, when a
    facet's code fits in 64 bits, else as a list.  Later calls yield the
    kept layers.  Raises TooLarge once total plus the faces
    yielded would exceed max_faces; a walk stopped that way keeps
    nothing."""
    stored = delta._codes
    if stored:
        s, layers = stored
    else:
        codes, s, _ = _facet_codes(delta)
        layers = _walk(codes, s, delta.dimension + 1)
    kept = []
    for c, layer in zip(range(delta.dimension + 1, 0, -1), layers):
        total += len(layer)
        if total > max_faces:
            raise TooLarge(f"face count exceeds {max_faces}")
        yield layer, _drops(c, s)
        kept.append(layer)
    if not stored:
        delta._codes = (s, tuple(kept))


def _walk(codes: Iterable[int], s: int, top: int) -> Iterator[array | list[int]]:
    """The sorted codes of the c-faces for c = top down to 1, from the
    codes of the top-faces: each layer is the codes of the sub-faces of
    the one before."""
    wide = s * top > 64
    for c in range(top, 0, -1):
        codes = sorted(codes)  # frees the set before the array is filled
        layer = codes if wide else array("Q", codes)
        del codes
        yield layer
        if c > 1:  # the 1-faces would give only the empty face, code 0
            codes = {(code >> h) << t | code & k for h, t, k in _drops(c, s) for code in layer}


def _facet_codes(delta: PureComplex) -> tuple[list[int], int, list[int]]:
    """(codes, s, ranked): the int codes of the facets, in facet-set order,
    the field width s and the sorted vertices, so ranked[r] is the label
    of rank r.  With the vertices ranked 0..n-1 and s = n.bit_length(),
    the c-face of ranks r_0 < ... < r_{c-1} has the code
    sum(r_k << s*(c-1-k)), so the int order of one layer is its lex order."""
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


def _pop_pivot(column: list[int]) -> int:
    """Pop the highest row of odd multiplicity from a heap of negated rows,
    with the pairs above it that cancel; -1 once the column is empty."""
    while column:
        top = heappop(column)
        if not column or column[0] != top:
            return -top
        heappop(column)
    return -1


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
    return _face_count(delta, k) == comb(delta.vertex_count, k)


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
    return _face_count(delta, k) == comb(delta.vertex_count // 2, k) * 2**k


def _face_count(delta: PureComplex, k: int) -> int:
    """The number of k-faces: the length of layer k when the layers are
    kept (see _layers), else the count of that layer alone, which is
    cheaper than a walk of every layer."""
    if delta._codes:
        return len(delta._codes[1][delta.dimension + 1 - k])
    return len(delta.faces_of_cardinality(k))
