"""Instance lists of the spheretrans benchmark and the code that builds them.

An instance is a (family, params) pair with a stable name.  The solver
instances of `search-ladder` and `wide-solve` are also the rows of the
HiGHS reference table, so `reference.py` builds them through the same
`build` function.  `build` takes a `call(layer, fn, *args, **kwargs)`
hook so the runner can time every call into the program by layer.
"""

from __future__ import annotations

# The ladders stop five or six rungs under the 20 s solve frontier (cs d=3
# solves n=22 there).  Each rung costs 1.5 to 3 times the one before, so
# the frontier rung alone would take a whole run.
SEARCH_LADDER = (
    [("cs-delta", (3, n)) for n in range(4, 18)]
    + [("cs-delta", (4, n)) for n in range(5, 18)]
    + [("cyclic", (4, n)) for n in range(6, 28)]
    + [("sewn", (2, n)) for n in range(6, 26)]
    + [("sewn", (3, n)) for n in range(8, 21)]
)

WIDE_SOLVE = (
    [("cross", (d,)) for d in (11, 12, 13)]
    + [("cyclic", (7, n)) for n in range(18, 23)]
    + [("cyclic", (8, n)) for n in (18, 20)]
    + [("cs-delta", (6, n)) for n in range(8, 13)]
    + [("cs-delta", (7, n)) for n in range(8, 12)]
    + [("stacked", (4, 300))]
)

# tau adds over connected components, so k disjoint copies of one sphere
# have tau = k * tau(sphere); the solver does not split components.
DISJOINT = ("disjoint-cs-delta", (3, 9, 3))

BUILD_VERIFY = [
    ("cs-delta", (3, 60)),
    ("cs-delta", (4, 40)),
    ("cs-delta", (6, 16)),
    ("relative-squeezed", (4, 40)),
    ("cyclic", (6, 30)),
    ("cyclic", (8, 24)),
    ("sewn", (3, 24)),
]

LEMMAS = [
    ("rsq-facets", 4, 22),
    ("pn", 3, 14),
    ("even-facets", 3, 13),
    ("ball-facet", 3, 13),
    ("chain", 3, 14),
]


def name(family: str, params: tuple[int, ...]) -> str:
    return family + ":" + ",".join(str(p) for p in params)


def direct(layer, fn, *args, **kwargs):
    """A `call` hook that only calls."""
    return fn(*args, **kwargs)


def disjoint_copies(facets, copies: int) -> list[tuple[int, ...]]:
    """`copies` vertex-disjoint copies of a facet list; copy j moves label
    v to sign(v) * (|v| + j * m), where m is the largest |label|."""
    m = max(abs(v) for f in facets for v in f)
    out = []
    for j in range(copies):
        for f in facets:
            out.append(tuple(sorted(v + j * m if v > 0 else v - j * m for v in f)))
    return out


def build(st, family: str, params: tuple[int, ...], call=direct, cache=None):
    """Build one instance with the program `st` (the spheretrans module).

    Returns a PureComplex.  `cache` is the cs recursion memo table.
    """
    if family == "cs-delta":
        d, n = params
        return call("cs_family.build", st.cs_sphere, d, n, cache=cache)
    if family == "cyclic":
        return call("polytopes.build", st.cyclic_boundary, *params)
    if family == "cross":
        return call("polytopes.build", st.cross_boundary, *params)
    if family == "stacked":
        return call("polytopes.build", st.stacked_sphere, *params)
    if family == "relative-squeezed":
        k, n = params
        return call(
            "squeezed.build",
            lambda: st.relative_squeezed_sphere(st.neighborly_antichain(k, n)),
        )
    if family == "sewn":
        # the cli's sewn family: the sewing ball planted in the cyclic sphere
        k, n = params
        sphere = call("polytopes.build", st.cyclic_boundary, 2 * k, n)
        ball = call(
            "squeezed.build",
            lambda: st.relative_squeezed_ball(st.sewing_antichain(k, n)),
        )
        return call("squeezed.sew", st.sew, sphere, ball, n + 1)
    if family == "disjoint-cs-delta":
        d, n, copies = params
        base = call("cs_family.build", st.cs_sphere, d, n, cache=cache)
        return st.PureComplex(disjoint_copies(base.facets, copies))
    raise ValueError(f"unknown family {family!r}")
