"""Squeezed balls from antichains of pair patterns, and sewing.

A pair pattern with k start indices i_1 < i_2 < ... < i_k (consecutive
starts at least 2 apart) realizes the 2k-set {i_1, i_1+1} u ... u
{i_k, i_k+1}.  Patterns whose realization fits inside [m, n] form a
poset under the componentwise order on starts; a squeezed ball is the
complex of realizations of the downward-closed set an antichain generates,
walked down from its members.  Subtracting the ball of the shifted
antichain (all starts minus one), that is dropping each face whose shift
by one lies in the ideal, leaves a relative squeezed ball whose
boundary sphere is the object of interest; sew() plants such a ball back
into a sphere that contains it and cones its boundary with a fresh apex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (
    Face,
    PureComplex,
    boundary,
    join,
    relative_difference,
    simplex,
    union,
)
from .errors import ArityMismatch, InvalidParameters, NotSubcomplex, VertexClash


@dataclass(frozen=True)
class PairPattern:
    """Start indices of k disjoint, non-adjacent consecutive pairs."""

    starts: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.starts
        if not s:
            raise InvalidParameters("a pair pattern needs at least one start")
        if any(type(v) is not int for v in s):
            raise InvalidParameters("starts must be integers")
        if s[0] < 1:
            raise InvalidParameters("starts must be >= 1")
        if any(b - a < 2 for a, b in zip(s, s[1:])):
            raise InvalidParameters(f"consecutive starts must differ by >= 2: {s}")

    @property
    def k(self) -> int:
        return len(self.starts)

    def face(self) -> Face:
        """The realized 2k-element face."""
        return tuple(v for i in self.starts for v in (i, i + 1))

    def fits(self, m: int, n: int) -> bool:
        return m <= self.starts[0] and self.starts[-1] + 1 <= n


def pattern_leq(a: PairPattern, b: PairPattern) -> bool:
    """Componentwise order on starts; equivalently on sorted realizations."""
    if a.k != b.k:
        raise ArityMismatch(f"cannot compare arities {a.k} and {b.k}")
    return all(x <= y for x, y in zip(a.starts, b.starts))


def _pair_unions(k: int, m: int, n: int) -> list[Face]:
    """Realizations of the arity-k patterns inside [m, n], lexicographically:
    the starts are c_j + j for the k-subsets c of [m, n-k]; k = 0 gives [()]."""
    return [
        tuple(v for j, c_j in enumerate(c) for v in (c_j + j, c_j + j + 1))
        for c in itertools.combinations(range(m, n - k + 1), k)
    ]


def enumerate_pair_poset(k: int, m: int, n: int) -> list[PairPattern]:
    """All patterns of arity k realized inside [m, n], lexicographically.

    Empty when the window is too tight; there are C((n-m+1)-k, k) of
    them otherwise.
    """
    if k < 1 or m < 1:
        raise InvalidParameters("need k >= 1 and m >= 1")
    return [PairPattern(f[::2]) for f in _pair_unions(k, m, n)]


@dataclass(frozen=True)
class Antichain:
    """Pairwise incomparable pair patterns inside the [1, n] window."""

    k: int
    n: int
    members: frozenset[PairPattern]

    def __init__(self, k: int, n: int, members) -> None:
        ms = frozenset(members)
        for p in ms:
            if p.k != k:
                raise InvalidParameters(f"member {p.starts} has arity {p.k}, not {k}")
            if not p.fits(1, n):
                raise InvalidParameters(f"member {p.starts} does not fit in [1, {n}]")
        # in start order, b <= a would force b == a, so one test suffices
        for a, b in itertools.combinations(sorted(ms, key=lambda p: p.starts), 2):
            if pattern_leq(a, b):
                raise InvalidParameters(
                    f"members {a.starts} and {b.starts} are comparable"
                )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ms)


def squeezed_ball(s: Antichain) -> PureComplex:
    """Realizations of the order ideal the antichain generates, walked down
    from the members by lowering one start while it stays >= 1 and >= 2 above
    the previous one; lowering the first start where q exceeds p leads to p."""
    ideal: set[Face] = set()
    layer = {p.face() for p in s.members}
    while layer:
        ideal |= layer
        layer = {
            f[:j] + (f[j] - 1, f[j]) + f[j + 2:]
            for f in layer
            for j in range(0, len(f), 2)
            if f[j] - 1 > (f[j - 1] if j else 0)  # f[j - 1] tops the previous pair
        } - ideal
    return PureComplex._from_canonical(ideal)


def shift_antichain(s: Antichain) -> Antichain:
    """Decrement every start of every member; members starting at 1 drop."""
    shifted = [
        PairPattern(tuple(v - 1 for v in p.starts))
        for p in s.members
        if p.starts[0] > 1
    ]
    return Antichain(s.k, s.n, shifted)


def relative_squeezed_ball(s: Antichain) -> PureComplex:
    """Facets of the antichain's ball minus those of its shift's ball: the
    faces of the ideal whose shift by one is not in the ideal."""
    ideal = squeezed_ball(s).facets
    return PureComplex._from_canonical(
        f for f in ideal if tuple(v + 1 for v in f) not in ideal
    )


def relative_squeezed_sphere(s: Antichain) -> PureComplex:
    return boundary(relative_squeezed_ball(s))


def neighborly_antichain(k: int, n: int) -> Antichain:
    """The crossing antichain whose relative squeezed ball has a
    (k-1)-neighborly boundary sphere on all of 1..n.

    Member i pairs the interval [i, i+1] with the k-1 consecutive pairs
    filling [n-2k+4-i, n-i+1], for i = 1 .. floor(n/2)-k+1.
    """
    if k < 3:
        raise InvalidParameters("need k >= 3")
    if n < 2 * k + 1:
        raise InvalidParameters(f"need n >= {2 * k + 1}")
    members = []
    for i in range(1, n // 2 - k + 2):
        members.append(
            PairPattern((i,) + tuple(range(n - 2 * k + 4 - i, n - i + 1, 2)))
        )
    return Antichain(k, n, members)


def sewing_antichain(k: int, n: int) -> Antichain:
    """Antichain whose relative squeezed ball gets sewn into the cyclic
    sphere: for k = 2 the singleton with member {1, 2, n-1, n} (nothing
    stronger is claimed at arity two), the crossing antichain otherwise."""
    if k == 2:
        return Antichain(2, n, [PairPattern((1, n - 1))])
    return neighborly_antichain(k, n)


def sew(sphere: PureComplex, ball: PureComplex, apex: int) -> PureComplex:
    """Replace a ball inside a sphere by the cone over its boundary.

    The ball must be a nonempty proper facet-subset of the sphere and
    the apex a fresh nonzero label; the result is again a sphere on one
    more vertex when the ball is a proper ball inside it.
    """
    if not isinstance(apex, int) or isinstance(apex, bool) or apex == 0:
        raise InvalidParameters("apex must be a nonzero integer")
    if apex in sphere.vertices:
        raise VertexClash(f"apex {apex} already occurs in the sphere")
    if ball.is_empty or not ball.facets <= sphere.facets:
        raise NotSubcomplex("ball is not a nonempty facet-subset of the sphere")
    if ball.facets == sphere.facets:
        raise NotSubcomplex("ball must be a proper subset of the sphere")
    return union(
        relative_difference(sphere, ball),
        join(boundary(ball), simplex([apex])),
    )
