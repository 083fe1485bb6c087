"""Correctness checks of the benchmark, written apart from spheretrans.

Each function returns a list of problems (empty when the output is
right).  The checks use only the standard library and mathematical
facts about the instances, never the program's own routines.
"""

from __future__ import annotations

from math import comb


def hitting_set_problems(facets, hitting_set, lower, upper, optimal, tau) -> list[str]:
    """A certificate is right when its set meets every facet, has size
    `upper`, and `lower <= tau <= upper`; when it claims optimality,
    `lower == upper == tau`."""
    out = []
    hs = set(hitting_set)
    missed = sum(1 for f in facets if hs.isdisjoint(f))
    if missed:
        out.append(f"hitting set misses {missed} facets")
    if len(hs) != upper:
        out.append(f"hitting set has size {len(hs)}, upper bound {upper}")
    if not lower <= tau <= upper:
        out.append(f"bounds [{lower}, {upper}] do not bracket tau={tau}")
    if optimal and not lower == upper == tau:
        out.append(f"claims optimality at [{lower}, {upper}], tau={tau}")
    return out


def h_vector(f: tuple[int, ...]) -> list[int]:
    """h-vector of a complex with f = (f_{-1}, f_0, ..., f_{d-1})."""
    d = len(f) - 1
    return [
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    ]


def sphere_problems(f: tuple[int, ...], betti: tuple[int, ...]) -> list[str]:
    """A simplicial sphere of dimension d-1 has Euler characteristic
    1 + (-1)^(d-1), a palindromic h-vector (Dehn-Sommerville) and GF(2)
    Betti numbers (1, 0, ..., 0, 1)."""
    out = []
    dim = len(f) - 2
    chi = sum((-1) ** i * c for i, c in enumerate(f[1:]))
    if chi != 1 + (-1) ** dim:
        out.append(f"euler characteristic {chi}")
    h = h_vector(f)
    if h != h[::-1]:
        out.append(f"h-vector {h} is not palindromic")
    expect = (1,) + (0,) * (dim - 1) + (1,)
    if tuple(betti) != expect:
        out.append(f"betti {tuple(betti)} != {expect}")
    return out


def neighborly_face_counts(family: str, params: tuple[int, ...]) -> dict[int, int]:
    """Face counts f_{k-1} (keyed by k) that the construction forces.

    cs spheres on +-1..+-n are cs-ceil(d/2)-neighborly: f_{k-1} = 2^k C(n,k).
    The cyclic d-polytope is floor(d/2)-neighborly and has the Upper Bound
    Theorem facet count.  The boundary of the relative squeezed ball of the
    crossing antichain of arity k is (k-1)-neighborly on 1..n.  The sewn
    sphere of arity k is k-neighborly on 1..n+1.
    """
    if family == "cs-delta":
        d, n = params
        return {k: 2**k * comb(n, k) for k in range(1, (d + 1) // 2 + 1)}
    if family == "cyclic":
        d, n = params
        m = d // 2
        counts = {k: comb(n, k) for k in range(1, m + 1)}
        if d % 2 == 0:
            counts[d] = n * comb(n - m, m) // (n - m)
        else:
            counts[d] = 2 * comb(n - m - 1, m)
        return counts
    if family == "relative-squeezed":
        k, n = params
        return {j: comb(n, j) for j in range(1, k)}
    if family == "sewn":
        k, n = params
        return {j: comb(n + 1, j) for j in range(1, k + 1)}
    raise ValueError(f"no face counts for {family!r}")


def neighborly_degree(family: str, params: tuple[int, ...]) -> int:
    """The k for which the complex is (cs-)k-neighborly."""
    if family == "cs-delta":
        return (params[0] + 1) // 2
    if family == "cyclic":
        return params[0] // 2
    if family == "relative-squeezed":
        return params[0] - 1
    if family == "sewn":
        return params[0]
    raise ValueError(f"no neighborliness for {family!r}")
