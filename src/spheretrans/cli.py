"""Command line front end.

Subcommands: build (construct a family member and write it out),
verify (run structural checks on a stored complex), transversal
(exact hitting set of the facet hypergraph, or greedy with --greedy),
lemmas (run one of the packaged claim checks), report mu (transversal
ratio table as CSV, ratios written exactly as p/q).  Exit codes:
0 success, 1 failed check or construction error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .complexes import (
    PureComplex,
    f_vector,
    gf2_betti,
    is_closed_pseudomanifold,
    is_cs,
    is_cs_k_neighborly,
    is_k_neighborly,
    sphere_betti_profile,
)
from .cs_family import cs_ball, cs_sphere, edge_link_sphere
from .errors import NotCentrallySymmetric
from .fileio import FORMATS, dumps_complex, load_complex, save_complex
from .lemmas import LemmaId, verify_lemma
from .polytopes import cross_boundary, cyclic_boundary, stacked_sphere
from .squeezed import (
    neighborly_antichain,
    relative_squeezed_ball,
    relative_squeezed_sphere,
    sew,
    sewing_antichain,
    squeezed_ball,
)
from .transversal import exact_transversal, facet_hypergraph, transversal_ratio

CHECK_NAMES = ("pseudomanifold", "euler", "betti", "neighborly", "cs", "cs-neighborly")


class UsageError(Exception):
    pass


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise UsageError(what)


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        parts = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        parts = []
    if len(parts) != 2:
        raise UsageError(f'--edge expects two integers like "3 -5", got {text!r}')
    return parts[0], parts[1]


def _cs_delta(d: int, n: int, i: int | None = None) -> tuple[PureComplex, dict]:
    return (cs_sphere(d, n) if i is None else cs_ball(d, i, n)), {}


def _cs_lambda(k: int, n: int, edge: str) -> tuple[PureComplex, dict]:
    a, b = _parse_edge(edge)
    return edge_link_sphere(k, n, (a, b)), {"edge": f"{a} {b}"}


def _sewn(k: int, n: int) -> tuple[PureComplex, dict]:
    ball = relative_squeezed_ball(sewing_antichain(k, n))
    return sew(cyclic_boundary(2 * k, n), ball, n + 1), {"apex": n + 1}


# family -> (the flags it takes, in metadata order; a builder that takes
# them as keywords and returns the complex plus the metadata it adds or
# rewrites).  Every flag is required except those in OPTIONAL_FLAGS.
FAMILIES = {
    "cyclic": (("d", "n"), lambda d, n: (cyclic_boundary(d, n), {})),
    "cross": (("d",), lambda d: (cross_boundary(d), {})),
    "stacked": (("d", "n"), lambda d, n: (stacked_sphere(d, n), {})),
    "squeezed": (("k", "n"), lambda k, n: (squeezed_ball(neighborly_antichain(k, n)), {})),
    "relative-squeezed": (
        ("k", "n"),
        lambda k, n: (relative_squeezed_sphere(neighborly_antichain(k, n)), {}),
    ),
    "cs-delta": (("d", "n", "i"), _cs_delta),
    "cs-lambda": (("k", "n", "edge"), _cs_lambda),
    "sewn": (("k", "n"), _sewn),
}
OPTIONAL_FLAGS = ("i",)
FLAG_HINTS = {"edge": ' "a b"'}
# report sweeps n and passes no edge
REPORT_FAMILIES = tuple(
    name for name, (takes, _) in FAMILIES.items() if "n" in takes and "edge" not in takes
)


def _construct(family: str, **flags) -> tuple[PureComplex, dict]:
    """Build a member of the family from the flags given (None means
    absent); the metadata is the family, then each flag in table order."""
    takes, builder = FAMILIES[family]
    given = {f: v for f, v in flags.items() if v is not None}
    unused = [f"--{f}" for f in given if f not in takes]
    _require(not unused, f"{family} does not take {', '.join(unused)}")
    required = [f for f in takes if f not in OPTIONAL_FLAGS]
    if any(f not in given for f in required):
        needs = [f"--{f}{FLAG_HINTS.get(f, '')}" for f in required]
        listed = ", ".join(needs[:-1]) + " and " + needs[-1] if needs[1:] else needs[0]
        raise UsageError(f"{family} needs {listed}")
    delta, rewritten = builder(**given)
    meta = {"family": family, **{f: given[f] for f in takes if f in given}}
    meta.update(rewritten)
    return delta, meta


def _cmd_build(args) -> int:
    delta, meta = _construct(
        args.family, d=args.d, n=args.n, k=args.k, i=args.i, edge=args.edge
    )
    if args.out:
        save_complex(delta, args.out, args.format, meta)
        print(f"wrote {len(delta)} facets to {args.out}")
    else:
        sys.stdout.write(dumps_complex(delta, args.format, meta))
    return 0


def _parse_checks(spec: str) -> list[tuple[str, int | None]]:
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, arg = token.partition("=")
        if name not in CHECK_NAMES:
            raise UsageError(f"unknown check {name!r}")
        if name in ("neighborly", "cs-neighborly"):
            if not arg.isdecimal() or int(arg) < 1:
                raise UsageError(f"check {name} needs =K with K >= 1")
            out.append((name, int(arg)))
        else:
            if arg:
                raise UsageError(f"check {name} takes no argument")
            out.append((name, None))
    if not out:
        raise UsageError("no checks given")
    return out


def _run_check(delta: PureComplex, name: str, k: int | None) -> tuple[bool, str]:
    if name == "pseudomanifold":
        report = is_closed_pseudomanifold(delta)
        if report.passed:
            return True, "closed pseudomanifold, dual graph connected"
        issues = []
        if not report.ridges_ok:
            issues.append(f"{len(report.bad_ridges)} bad ridges e.g. {report.bad_ridges[:3]}")
        if not report.connected:
            issues.append("dual graph disconnected")
        return False, "; ".join(issues)
    if name == "euler":
        chi = f_vector(delta).euler_characteristic
        expect = 0 if delta.dimension % 2 else 2
        return chi == expect, f"chi={chi} expected {expect}"
    if name == "betti":
        betti = gf2_betti(delta)
        expect = sphere_betti_profile(delta.dimension)
        return betti == expect, f"betti={betti} expected {expect}"
    if name == "neighborly":
        ok = is_k_neighborly(delta, k)
        return ok, f"k={k}"
    if name == "cs":
        ok = is_cs(delta)
        return ok, "negation-invariant, antipode-free" if ok else "not cs"
    # cs-neighborly
    try:
        ok = is_cs_k_neighborly(delta, k)
    except NotCentrallySymmetric:
        return False, "not centrally symmetric"
    return ok, f"k={k}"


def _cmd_verify(args) -> int:
    checks = _parse_checks(args.checks)
    delta = load_complex(args.infile)
    results = []
    for name, k in checks:
        label = name if k is None else f"{name}={k}"
        ok, detail = _run_check(delta, name, k)
        results.append({"name": label, "passed": ok, "detail": detail})
        if not args.json:
            print(f"{label:<18} {'PASS' if ok else 'FAIL'}  {detail}")
    all_ok = all(r["passed"] for r in results)
    if args.json:
        print(json.dumps({"checks": results, "passed": all_ok}, indent=2))
    return 0 if all_ok else 1


def _cmd_transversal(args) -> int:
    delta = load_complex(args.infile)
    h = facet_hypergraph(delta)
    # a zero budget gives the greedy cover with the matching bound
    cert = exact_transversal(h, time_budget=0 if args.greedy else args.budget)
    payload = {
        "mode": "greedy" if args.greedy else "exact",
        "vertices": len(h.vertices),
        "edges": len(h.edges),
        "lower_bound": cert.lower_bound,
        "upper_bound": cert.upper_bound,
    }
    if not args.greedy:
        payload.update(
            optimal=cert.optimal,
            timed_out=cert.timed_out,
            nodes_explored=cert.nodes_explored,
        )
    payload["hitting_set"] = sorted(cert.hitting_set)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{key} {value}")
    return 0


def _cmd_lemmas(args) -> int:
    lemma = LemmaId(args.lemma)
    _require(args.m is None or lemma is LemmaId.EVEN_FACETS, f"{lemma.value} does not take --m")
    report = verify_lemma(lemma, args.k, args.n, m=args.m)
    print(f"lemma {report.lemma_id.value}")
    print(f"params {report.params}")
    print(f"candidates_checked {report.candidates_checked}")
    for key, value in sorted(report.details.items()):
        print(f"{key} {value}")
    if report.failures:
        shown = ", ".join(str(f) for f in report.failures[:5])
        more = "" if len(report.failures) <= 5 else f" (+{len(report.failures) - 5} more)"
        print(f"failures {len(report.failures)}: {shown}{more}")
    print("PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 1


CSV_HEADER = "family,d,n,f0,facet_count,tau_lower,tau_upper,optimal,mu_lower,mu_upper,wall_time_ms"


def _cmd_report(args) -> int:
    """One CSV row per n; d is the facet dimension of the complex and the
    mu bounds are exact rationals."""
    _require(args.n_from <= args.n_to, "--n-from must be <= --n-to")
    lines = []
    for n in range(args.n_from, args.n_to + 1):
        started = time.monotonic()
        delta, _ = _construct(args.family, d=args.d, n=n, k=args.k)
        cert = exact_transversal(facet_hypergraph(delta), time_budget=args.budget)
        elapsed = int(round((time.monotonic() - started) * 1000))
        mu_lower, mu_upper = transversal_ratio(delta, cert)
        row = (
            args.family,
            delta.dimension,
            n,
            delta.vertex_count,
            len(delta),
            cert.lower_bound,
            cert.upper_bound,
            "true" if cert.optimal else "false",
            mu_lower,
            mu_upper,
            elapsed,
        )
        lines.append(",".join(str(v) for v in row))
        print(lines[-1])
    with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in lines:
            fh.write(line + "\n")
    print(f"wrote {len(lines)} rows to {args.csv}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheretrans",
        description="Construct simplicial spheres and measure facet transversals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a complex and write it out")
    p_build.add_argument("--family", required=True, choices=FAMILIES)
    p_build.add_argument("--d", type=int, help="dimension parameter")
    p_build.add_argument("--n", type=int, help="vertex range parameter")
    p_build.add_argument("--k", type=int, help="pair arity parameter")
    p_build.add_argument("--i", type=int, help="emit the i-th recursion ball instead")
    p_build.add_argument("--edge", help='edge whose link to build, e.g. "1 2"')
    p_build.add_argument("--out", help="output path (default stdout)")
    p_build.add_argument("--format", choices=FORMATS, default="facets")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run structural checks on a stored complex")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument(
        "--checks",
        required=True,
        help="comma list: pseudomanifold,euler,betti,neighborly=K,cs,cs-neighborly=K",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_trans = sub.add_parser("transversal", help="transversal of the facet hypergraph")
    p_trans.add_argument("--in", dest="infile", required=True)
    p_trans.add_argument("--greedy", action="store_true", help="greedy cover only")
    p_trans.add_argument("--budget", type=float, default=60.0, help="seconds for exact")
    p_trans.add_argument("--json", action="store_true")
    p_trans.set_defaults(func=_cmd_transversal)

    p_lem = sub.add_parser("lemmas", help="run one packaged claim check")
    p_lem.add_argument(
        "--lemma", required=True, choices=[lid.value for lid in LemmaId]
    )
    p_lem.add_argument("--k", type=int, required=True)
    p_lem.add_argument("--n", type=int, required=True)
    p_lem.add_argument("--m", type=int, help="ambient bound for even-facets (default n+1)")
    p_lem.set_defaults(func=_cmd_lemmas)

    p_rep = sub.add_parser("report", help="tabulate transversal ratios")
    p_rep.add_argument("what", choices=("mu",))
    p_rep.add_argument("--family", required=True, choices=REPORT_FAMILIES)
    p_rep.add_argument("--d", type=int)
    p_rep.add_argument("--k", type=int)
    p_rep.add_argument("--n-from", dest="n_from", type=int, required=True)
    p_rep.add_argument("--n-to", dest="n_to", type=int, required=True)
    p_rep.add_argument("--budget", type=float, default=60.0, help="seconds per instance")
    p_rep.add_argument("--csv", required=True, help="output CSV path")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
