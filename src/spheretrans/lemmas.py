"""Machine checks for the structural claims behind the constructions.

Each check enumerates a candidate family verbatim from its printed
ranges and tests the claimed property against independently built
complexes, reporting every failing candidate instead of stopping at
the first.  The four face-family checks share one test: each candidate
must be a facet of a host complex, and the failures are the candidates
missing from the host's facet set, in candidate order.

* RSQ_FACETS: six families of faces each contained in exactly one facet
  of the relative squeezed ball of the crossing antichain.  A face one
  vertex short of a facet lies in exactly one facet iff it is a ridge
  counted once, so the host is the ball's boundary sphere.
* PN_FACETS: signed pair sets that are facets of the odd cs sphere
  minus both replacement balls.
* EVEN_FACETS: signed pair sets with a three-element tail (and their
  negations) that are facets of the even cs sphere minus both balls.
* BALL_FACET: signed pair sets with tail {n-2, n-1, n} that are facets
  of the even middle ball.
* CHAIN: the nested facet-set containments between consecutive balls.
* BDL: the pair poset on [1, n] has transversal number at least
  ceil(n/2) - k + 1 (checked exactly with the solver).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .complexes import Face, _negated, boundary, face, negate
from .cs_family import cs_ball, cs_sphere
from .errors import InvalidParameters
from .squeezed import (
    _pair_unions,
    neighborly_antichain,
    relative_squeezed_ball,
)
from .transversal import Hypergraph, exact_transversal


class LemmaId(str, Enum):
    RSQ_FACETS = "rsq-facets"
    PN_FACETS = "pn"
    EVEN_FACETS = "even-facets"
    BALL_FACET = "ball-facet"
    CHAIN = "chain"
    BDL = "bdl"


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one lemma check; passed iff failures is empty."""

    lemma_id: LemmaId
    params: dict[str, int]
    candidates_checked: int
    failures: tuple[Face, ...]
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _signed_pair_sets(k: int, n: int) -> list[Face]:
    """All 2k-sets of +-1..+-n made of k same-signed pairs whose absolute
    values increase, the first pair consecutive and later pairs spread
    by two, with a gap after each pair.  The pairs start at c_0 and at
    c_j + 2j - 1 for the k-subsets c of [1, n-2k+1]."""
    out = []
    for c in itertools.combinations(range(1, n - 2 * k + 2), k):
        pairs = [(c[0], c[0] + 1)] + [(c[j] + 2 * j - 1, c[j] + 2 * j + 1) for j in range(1, k)]
        for signs in itertools.product((1, -1), repeat=k):
            out.append(face(s * v for s, pair in zip(signs, pairs) for v in pair))
    return out


def _rsq_candidates(k: int, n: int) -> list[Face]:
    """The six RSQ families, verbatim from their ranges.  They overlap; by
    design no face is deduplicated, so candidates_checked sums the six sizes."""
    if k < 3:
        raise InvalidParameters("need k >= 3")
    if n < 2 * k + 1:
        raise InvalidParameters(f"need n >= {2 * k + 1}")
    out: list[Face] = []
    for i in range(1, n // 2 - k + 2):
        for h in _pair_unions(k - 2, i + 2, n - i):
            out.append(face((i, i + 1) + h + (n - i + 1,)))
        for h in _pair_unions(k - 2, i + 2, n - i - 2):
            out.append(face((i, i + 1) + h + (n - i - 1,)))
        for h in _pair_unions(k - 2, i + 2, n - i - 1):
            out.append(face((i + 1,) + h + (n - i, n - i + 1)))
        for h in _pair_unions(k - 2, i + 2, n - i - 2):
            out.append(face((i,) + h + (n - i - 1, n - i)))
    for h in _pair_unions(k - 2, 2, n - 2):
        out.append(face((1,) + h + (n - 1, n)))
    for h in _pair_unions(k - 1, n // 2 - k + 3, (n + 1) // 2 + k):
        out.append(face((n // 2 - k + 2,) + h))
    return out


def generate_candidates(lemma_id: LemmaId | str, k: int, n: int) -> list[Face]:
    """Candidate faces for the face-family checks, ranges verbatim.

    CHAIN and BDL have no face candidates and raise InvalidParameters.
    """
    lid = LemmaId(lemma_id)
    if lid is LemmaId.RSQ_FACETS:
        return _rsq_candidates(k, n)
    if lid in (LemmaId.CHAIN, LemmaId.BDL):
        raise InvalidParameters(f"{lid.value} has no face candidates")
    if k < 2:
        raise InvalidParameters("need k >= 2")
    if lid is LemmaId.PN_FACETS:
        return _signed_pair_sets(k, n)
    heads = _signed_pair_sets(k - 1, n - 3)
    if lid is LemmaId.BALL_FACET:
        return [face(g + (n - 2, n - 1, n)) for g in heads]
    out = []
    for g in heads:
        for tail in ((n - 2, n - 1, n + 1), (n - 2, n, n + 1)):
            cand = face(g + tail)
            out.append(cand)
            out.append(_negated(cand))  # closed under negation
    return out


def _facets_outside_balls(
    d: int, i: int, n: int, cache: dict | None
) -> frozenset[Face]:
    sphere = cs_sphere(d, n, cache=cache)
    ball = cs_ball(d, i, n, cache=cache)
    return sphere.facets - ball.facets - negate(ball).facets


def verify_lemma(
    lemma_id: LemmaId | str,
    k: int,
    n: int,
    m: int | None = None,
    time_budget: float = 60.0,
    cache: dict | None = None,
) -> LemmaReport:
    """Run one check and report candidates, failures, and context.  A
    candidate listed twice (some RSQ faces) is checked and reported twice.

    Parameters
    ----------
    lemma_id : LemmaId or its string value
    k, n : int
        Family parameters.
    m : int, optional
        Ambient label bound for EVEN_FACETS (default n + 1; must be > n).
        The other lemmas refuse it.
    time_budget : float
        Solver budget in seconds (BDL only).
    cache : dict, optional
        Memo table for the cs recursion.
    """
    lid = LemmaId(lemma_id)
    if m is not None and lid is not LemmaId.EVEN_FACETS:
        raise InvalidParameters(f"{lid.value} does not take m")
    params = {"k": k, "n": n}
    details: dict[str, Any] = {}

    if lid is LemmaId.BDL:
        if k < 1:
            raise InvalidParameters("need k >= 1")
        edges = _pair_unions(k, 1, n)
        if not edges:
            raise InvalidParameters(f"pair poset on [1, {n}] is empty for k={k}")
        cert = exact_transversal(
            Hypergraph(range(1, n + 1), edges), time_budget=time_budget
        )
        bound = (n + 1) // 2 - k + 1
        failures = () if cert.lower_bound >= bound else (tuple(sorted(cert.hitting_set)),)
        details.update(
            bound=bound,
            tau_lower=cert.lower_bound,
            tau_upper=cert.upper_bound,
            optimal=cert.optimal,
            edges=len(edges),
        )
        return LemmaReport(lid, params, len(edges), failures, details)

    if lid is LemmaId.CHAIN:
        if k < 2:
            raise InvalidParameters("need k >= 2")
        low = cs_ball(2 * k - 2, k - 3, n - 2, cache=cache)
        mid = negate(cs_ball(2 * k - 2, k - 2, n - 2, cache=cache))
        high = cs_ball(2 * k - 2, k - 1, n - 2, cache=cache)
        bad = sorted(low.facets - mid.facets) + sorted(mid.facets - high.facets)
        checked = len(low.facets) + len(mid.facets)
        details.update(
            low_facets=len(low.facets),
            mid_facets=len(mid.facets),
            high_facets=len(high.facets),
        )
        return LemmaReport(lid, params, checked, tuple(bad), details)

    # the face families: every candidate is a facet of the host
    cands = generate_candidates(lid, k, n)
    if lid is LemmaId.RSQ_FACETS:
        # a (2k-1)-face lies in exactly one facet of the ball iff it is a
        # ridge counted once, that is a facet of the ball's boundary
        ball = relative_squeezed_ball(neighborly_antichain(k, n))
        host = boundary(ball).facets
        details["ball_facets"] = len(ball)
    elif lid is LemmaId.BALL_FACET:
        host = cs_ball(2 * k, k - 1, n, cache=cache).facets
        details["ball_facets"] = len(host)
    elif lid is LemmaId.PN_FACETS:
        host = _facets_outside_balls(2 * k - 1, k - 1, n, cache)
        details["allowed_facets"] = len(host)
    else:
        mm = n + 1 if m is None else m
        if mm <= n:
            raise InvalidParameters(f"need m > n, got m={mm}")
        params["m"] = mm
        host = _facets_outside_balls(2 * k, k - 1, mm, cache)
        details["allowed_facets"] = len(host)
    bad = [c for c in cands if c not in host]
    return LemmaReport(lid, params, len(cands), tuple(bad), details)
