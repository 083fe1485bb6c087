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
from dataclasses import dataclass
from fractions import Fraction

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
from .fileio import load_complex, save_complex, dumps_facets, dumps_json
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
from .transversal import (
    exact_transversal,
    facet_hypergraph,
    greedy_transversal,
    matching_lower_bound,
)

FAMILIES = (
    "cyclic",
    "cross",
    "stacked",
    "squeezed",
    "relative-squeezed",
    "cs-delta",
    "cs-lambda",
    "sewn",
)

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


def _construct(args) -> tuple[PureComplex, dict]:
    family = args.family
    meta = {"family": family}
    if family == "cyclic":
        _require(args.d is not None and args.n is not None, "cyclic needs --d and --n")
        meta.update(d=args.d, n=args.n)
        return cyclic_boundary(args.d, args.n), meta
    if family == "cross":
        _require(args.d is not None, "cross needs --d")
        meta.update(d=args.d)
        return cross_boundary(args.d), meta
    if family == "stacked":
        _require(args.d is not None and args.n is not None, "stacked needs --d and --n")
        meta.update(d=args.d, n=args.n)
        return stacked_sphere(args.d, args.n), meta
    if family == "squeezed":
        _require(args.k is not None and args.n is not None, "squeezed needs --k and --n")
        meta.update(k=args.k, n=args.n)
        return squeezed_ball(neighborly_antichain(args.k, args.n)), meta
    if family == "relative-squeezed":
        _require(
            args.k is not None and args.n is not None,
            "relative-squeezed needs --k and --n",
        )
        meta.update(k=args.k, n=args.n)
        return relative_squeezed_sphere(neighborly_antichain(args.k, args.n)), meta
    if family == "cs-delta":
        _require(args.d is not None and args.n is not None, "cs-delta needs --d and --n")
        meta.update(d=args.d, n=args.n)
        if args.i is not None:
            meta.update(i=args.i)
            return cs_ball(args.d, args.i, args.n), meta
        return cs_sphere(args.d, args.n), meta
    if family == "cs-lambda":
        _require(
            args.k is not None and args.n is not None and args.edge is not None,
            'cs-lambda needs --k, --n and --edge "a b"',
        )
        edge = _parse_edge(args.edge)
        meta.update(k=args.k, n=args.n, edge=f"{edge[0]} {edge[1]}")
        return edge_link_sphere(args.k, args.n, edge), meta
    if family == "sewn":
        _require(args.k is not None and args.n is not None, "sewn needs --k and --n")
        meta.update(k=args.k, n=args.n, apex=args.n + 1)
        ball = relative_squeezed_ball(sewing_antichain(args.k, args.n))
        return sew(cyclic_boundary(2 * args.k, args.n), ball, args.n + 1), meta
    raise UsageError(f"unknown family {family!r}")


def _cmd_build(args) -> int:
    delta, meta = _construct(args)
    if args.out:
        save_complex(delta, args.out, fmt=args.format, metadata=meta)
        print(f"wrote {len(delta)} facets to {args.out}")
    else:
        text = (
            dumps_json(delta, meta) if args.format == "json" else dumps_facets(delta, meta)
        )
        sys.stdout.write(text)
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
            if not arg.isdigit() or int(arg) < 1:
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
        expect = 1 + (-1) ** delta.dimension
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
    all_ok = True
    for name, k in checks:
        label = name if k is None else f"{name}={k}"
        ok, detail = _run_check(delta, name, k)
        all_ok &= ok
        print(f"{label:<18} {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all_ok else 1


def _cmd_transversal(args) -> int:
    delta = load_complex(args.infile)
    h = facet_hypergraph(delta)
    if args.greedy:
        t = greedy_transversal(h)
        payload = {
            "mode": "greedy",
            "vertices": len(h.vertices),
            "edges": len(h.edges),
            "lower_bound": matching_lower_bound(h),
            "upper_bound": len(t),
            "hitting_set": sorted(t),
        }
    else:
        cert = exact_transversal(h, time_budget=args.budget)
        payload = {
            "mode": "exact",
            "vertices": len(h.vertices),
            "edges": len(h.edges),
            "lower_bound": cert.lower_bound,
            "upper_bound": cert.upper_bound,
            "optimal": cert.optimal,
            "timed_out": cert.timed_out,
            "nodes_explored": cert.nodes_explored,
            "hitting_set": sorted(cert.hitting_set),
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{key} {value}")
    return 0


def _cmd_lemmas(args) -> int:
    report = verify_lemma(LemmaId(args.lemma), args.k, args.n, m=args.m)
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


@dataclass(frozen=True)
class ReportRow:
    """One line of the transversal ratio report; d is the facet
    dimension of the complex and the mu bounds are exact rationals."""

    family: str
    d: int
    n: int
    f0: int
    facet_count: int
    tau_lower: int
    tau_upper: int
    optimal: bool
    mu_lower: Fraction
    mu_upper: Fraction
    wall_time_ms: int


CSV_HEADER = "family,d,n,f0,facet_count,tau_lower,tau_upper,optimal,mu_lower,mu_upper,wall_time_ms"


def _csv_line(row: ReportRow) -> str:
    return ",".join(
        [
            row.family,
            str(row.d),
            str(row.n),
            str(row.f0),
            str(row.facet_count),
            str(row.tau_lower),
            str(row.tau_upper),
            "true" if row.optimal else "false",
            str(row.mu_lower),
            str(row.mu_upper),
            str(row.wall_time_ms),
        ]
    )


def _cmd_report(args) -> int:
    _require(args.n_from <= args.n_to, "--n-from must be <= --n-to")
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        started = time.monotonic()
        ns = argparse.Namespace(
            family=args.family, d=args.d, n=n, k=args.k, i=None, edge=None
        )
        delta, _ = _construct(ns)
        cert = exact_transversal(facet_hypergraph(delta), time_budget=args.budget)
        elapsed = int(round((time.monotonic() - started) * 1000))
        f0 = delta.vertex_count
        row = ReportRow(
            family=args.family,
            d=delta.dimension,
            n=n,
            f0=f0,
            facet_count=len(delta),
            tau_lower=cert.lower_bound,
            tau_upper=cert.upper_bound,
            optimal=cert.optimal,
            mu_lower=Fraction(cert.lower_bound, f0),
            mu_upper=Fraction(cert.upper_bound, f0),
            wall_time_ms=elapsed,
        )
        rows.append(row)
        print(_csv_line(row))
    with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(_csv_line(row) + "\n")
    print(f"wrote {len(rows)} rows to {args.csv}")
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
    p_build.add_argument("--k", type=int, help="pair arity for the squeezed families")
    p_build.add_argument(
        "--i", type=int, help="with cs-delta: emit the i-th recursion ball instead"
    )
    p_build.add_argument("--edge", help='edge for cs-lambda, e.g. "1 2"')
    p_build.add_argument("--out", help="output path (default stdout)")
    p_build.add_argument("--format", choices=("facets", "json"), default="facets")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run structural checks on a stored complex")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument(
        "--checks",
        required=True,
        help="comma list: pseudomanifold,euler,betti,neighborly=K,cs,cs-neighborly=K",
    )
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
    p_rep.add_argument(
        "--family",
        required=True,
        choices=("cyclic", "stacked", "squeezed", "relative-squeezed", "cs-delta", "sewn"),
    )
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
