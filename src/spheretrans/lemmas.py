"""Machine checks for the structural claims behind the constructions.

Each check enumerates a candidate family verbatim from its printed
ranges and tests the claimed property against independently built
complexes, reporting every failing candidate instead of stopping at
the first.  The checks:

* RSQ_FACETS: six families of faces each contained in exactly one facet
  of the relative squeezed ball of the crossing antichain (hence lying
  on its boundary sphere).
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

from .complexes import Face, PureComplex, face, negate
from .cs_family import cs_ball, cs_sphere
from .errors import InvalidParameters
from .squeezed import (
    enumerate_pair_poset,
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
    by two, with a gap after each pair."""
    if k < 1:
        raise InvalidParameters("need k >= 1")
    skeletons: list[tuple[tuple[int, int], ...]] = []

    def extend(pairs: list[tuple[int, int]], lo: int) -> None:
        if len(pairs) == k:
            skeletons.append(tuple(pairs))
            return
        gap = 1 if not pairs else 2
        for a in range(lo, n + 1):
            if a + gap > n:
                break
            extend(pairs + [(a, a + gap)], a + gap + 1)

    extend([], 1)
    out = []
    for sk in skeletons:
        for signs in itertools.product((1, -1), repeat=k):
            out.append(face(s * v for s, pair in zip(signs, sk) for v in pair))
    return out


def _rsq_candidates(k: int, n: int) -> list[Face]:
    if k < 3:
        raise InvalidParameters("need k >= 3")
    if n < 2 * k + 1:
        raise InvalidParameters(f"need n >= {2 * k + 1}")
    out: list[Face] = []
    for i in range(1, n // 2 - k + 2):
        for h in enumerate_pair_poset(k - 2, i + 2, n - i):
            out.append(face((i, i + 1) + h.face() + (n - i + 1,)))
        for h in enumerate_pair_poset(k - 2, i + 2, n - i - 2):
            out.append(face((i, i + 1) + h.face() + (n - i - 1,)))
        for h in enumerate_pair_poset(k - 2, i + 2, n - i - 1):
            out.append(face((i + 1,) + h.face() + (n - i, n - i + 1)))
        for h in enumerate_pair_poset(k - 2, i + 2, n - i - 2):
            out.append(face((i,) + h.face() + (n - i - 1, n - i)))
    for h in enumerate_pair_poset(k - 2, 2, n - 2):
        out.append(face((1,) + h.face() + (n - 1, n)))
    for h in enumerate_pair_poset(k - 1, n // 2 - k + 3, (n + 1) // 2 + k):
        out.append(face((n // 2 - k + 2,) + h.face()))
    return out


def generate_candidates(lemma_id: LemmaId | str, k: int, n: int) -> list[Face]:
    """Candidate faces for the face-family checks, ranges verbatim.

    CHAIN and BDL have no face candidates and raise InvalidParameters.
    """
    lid = LemmaId(lemma_id)
    if lid is LemmaId.RSQ_FACETS:
        return _rsq_candidates(k, n)
    if lid is LemmaId.PN_FACETS:
        if k < 2:
            raise InvalidParameters("need k >= 2")
        return _signed_pair_sets(k, n)
    if lid is LemmaId.EVEN_FACETS:
        if k < 2:
            raise InvalidParameters("need k >= 2")
        out = []
        for g in _signed_pair_sets(k - 1, n - 3):
            for tail in ((n - 2, n - 1, n + 1), (n - 2, n, n + 1)):
                cand = face(g + tail)
                out.append(cand)
                out.append(face(-v for v in cand))  # closed under negation
        return out
    if lid is LemmaId.BALL_FACET:
        if k < 2:
            raise InvalidParameters("need k >= 2")
        return [face(g + (n - 2, n - 1, n)) for g in _signed_pair_sets(k - 1, n - 3)]
    raise InvalidParameters(f"{lid.value} has no face candidates")


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
    """Run one check and report candidates, failures, and context.

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
        edges = [p.face() for p in enumerate_pair_poset(k, 1, n)]
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

    cands = generate_candidates(lid, k, n)

    if lid is LemmaId.RSQ_FACETS:
        ball = relative_squeezed_ball(neighborly_antichain(k, n))
        facet_sets = [set(F) for F in ball.sorted_facets()]
        bad = []
        for c in cands:
            cv = set(c)
            hits = sum(1 for F in facet_sets if cv <= F)
            if hits != 1:
                bad.append(c)
        details["ball_facets"] = len(facet_sets)
        return LemmaReport(lid, params, len(cands), tuple(bad), details)

    if lid is LemmaId.PN_FACETS:
        allowed = _facets_outside_balls(2 * k - 1, k - 1, n, cache)
        bad = [c for c in cands if c not in allowed]
        details["allowed_facets"] = len(allowed)
        return LemmaReport(lid, params, len(cands), tuple(bad), details)

    if lid is LemmaId.EVEN_FACETS:
        mm = n + 1 if m is None else m
        if mm <= n:
            raise InvalidParameters(f"need m > n, got m={mm}")
        params = {"k": k, "n": n, "m": mm}
        allowed = _facets_outside_balls(2 * k, k - 1, mm, cache)
        bad = [c for c in cands if c not in allowed]
        details["allowed_facets"] = len(allowed)
        return LemmaReport(lid, params, len(cands), tuple(bad), details)

    # BALL_FACET
    ball = cs_ball(2 * k, k - 1, n, cache=cache)
    bad = [c for c in cands if c not in ball.facets]
    details["ball_facets"] = len(ball.facets)
    return LemmaReport(lid, params, len(cands), tuple(bad), details)
