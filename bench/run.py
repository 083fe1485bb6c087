"""Benchmark of spheretrans: solver search, wide solves, and build-and-verify.

Usage, from the repository root:

    python3 bench/run.py --workload search-ladder --seed 1 --seconds 40 --trace 0

A run repeats the workload's fixed list of operations (a round) until
`--seconds` have passed, and checks every output.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones
(`run_s`, `setup_s`, `peak_rss_mib`); with `--trace 1` rounds alternate
between untraced and traced, the traced ones keep a span around every
call into the program, and the metrics are the per-layer ones derived
from those spans.  The spans are written to `.bench_out/` as JSONL.
See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

import checks  # noqa: E402
import instances as inst  # noqa: E402

SOLVE_BUDGET = 60.0  # the cli's default budget; every ladder rung solves well inside it
DISJOINT_BUDGET = 1.0  # fixed budget of the instance that times out today
SETUP_PROBES = 9


def import_program():
    """Import spheretrans from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import spheretrans
        import spheretrans.fileio  # noqa: F401  (not re-exported by the package)
    except ImportError as exc:
        sys.exit(f"cannot import spheretrans from {SRC}: {exc}")
    if not Path(spheretrans.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"spheretrans was imported from {spheretrans.__file__}, not {SRC}")
    return spheretrans


def load_reference() -> dict:
    try:
        table = json.loads(REFERENCE.read_text())["instances"]
    except (OSError, ValueError, KeyError) as exc:
        sys.exit(f"cannot read {REFERENCE} ({exc}); run bench/reference.py")
    for family, params in inst.SEARCH_LADDER + inst.WIDE_SOLVE + [inst.DISJOINT]:
        if inst.name(family, params) not in table:
            sys.exit(f"{REFERENCE} has no row for {inst.name(family, params)}")
    return table


def relabel(facets, seed: int, key: str) -> list[tuple[int, ...]]:
    """Apply the signed relabelling of `seed` to an instance: a permutation
    of 1..m with sign flips, extended by v -> -image(-v) so antipodes stay
    antipodal.  Seed 0 keeps the labels."""
    if seed == 0:
        return list(facets)
    rng = random.Random(f"{seed}/{key}")
    m = max(abs(v) for f in facets for v in f)
    image = list(range(1, m + 1))
    rng.shuffle(image)
    signed = [0] + [img * rng.choice((1, -1)) for img in image]
    return [tuple(sorted(signed[v] if v > 0 else -signed[-v] for v in f)) for f in facets]


class Round:
    """One round of a workload: times every call into the program, counts
    operations, collects problems, and, when traced, keeps spans."""

    def __init__(self, st, reference, seed: int, traced: bool, origin: float):
        self.st = st
        self.reference = reference
        self.seed = seed
        self.traced = traced
        self.origin = origin
        self.run_s = 0.0
        self.op_s: list[float] = []  # timed seconds of each operation, in order
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self._parent = None

    def _span(self, name, t0, t1, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": t0 - self.origin,
            "end": t1 - self.origin,
            "parent": self._parent,
        }
        span.update(attrs)
        self.spans.append(span)
        return span

    def call(self, layer, fn, *args, **kwargs):
        """Call into the program; the time counts toward run_s."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.run_s += t1 - t0
        if self.traced:
            self._span(layer, t0, t1)
        return out

    def probe(self, layer, fn, *args, **kwargs):
        """A call made only in traced rounds to split a layer's time; it is
        not part of run_s."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self._span(layer, t0, time.perf_counter())
        return out

    def note(self, **counts) -> None:
        """Attach counts to the latest span."""
        if self.traced:
            self.spans[-1].update(counts)

    @contextmanager
    def op(self, key: str):
        self.attempted += 1
        before = self.run_s
        if not self.traced:
            yield
            self.op_s.append(self.run_s - before)
            return
        t0 = time.perf_counter()
        span = self._span("op", t0, t0, instance=key)
        self._parent = span["id"]
        try:
            yield
        finally:
            self._parent = None
            span["end"] = time.perf_counter() - self.origin
        self.op_s.append(self.run_s - before)

    def problem(self, key: str, found: list[str]) -> None:
        self.problems.extend(f"{key}: {p}" for p in found)


def solve(r: Round, family, params, cache, budget=SOLVE_BUDGET, relabelled=True) -> None:
    """The `report mu` pipeline on one instance: build, facet hypergraph,
    exact transversal; the certificate is checked against the reference."""
    st = r.st
    key = inst.name(family, params)
    ref = r.reference[key]
    with r.op(key):
        delta = inst.build(st, family, params, r.call, cache)
        facets = relabel(delta.facets, r.seed, key) if relabelled else list(delta.facets)
        solver_input = st.PureComplex(facets) if r.seed and relabelled else delta
        h = r.call("transversal.facet_hypergraph", st.facet_hypergraph, solver_input)
        cert = r.call("transversal.exact", st.exact_transversal, h, time_budget=budget)
        r.note(nodes=cert.nodes_explored, optimal=cert.optimal)
        if r.traced and cert.optimal:
            root = r.probe("transversal.preprocess", st.exact_transversal, h, time_budget=0)
            r.note(root_gap=cert.upper_bound - root.lower_bound)
            r.probe("transversal.greedy", st.greedy_transversal, h)
            r.probe("transversal.matching", st.matching_lower_bound, h)
        found = checks.hitting_set_problems(
            facets, cert.hitting_set, cert.lower_bound, cert.upper_bound, cert.optimal, ref["tau"]
        )
        if len(facets) != ref["facets"]:
            found.append(f"{len(facets)} facets, reference has {ref['facets']}")
        r.problem(key, found)
        if not cert.optimal:
            r.failed += 1


def search_ladder(r: Round) -> None:
    cache: dict = {}  # one cs memo table per round, filled rung by rung
    for family, params in inst.SEARCH_LADDER:
        solve(r, family, params, cache)


def wide_solve(r: Round) -> None:
    for family, params in inst.WIDE_SOLVE:
        solve(r, family, params, {})
    family, params = inst.DISJOINT
    solve(r, family, params, {}, budget=DISJOINT_BUDGET, relabelled=False)


def verify_complex(r: Round, family, params) -> None:
    st = r.st
    key = inst.name(family, params)
    with r.op(key):
        delta = inst.build(st, family, params, r.call, cache={})
        fv = r.call("complexes.f_vector", st.f_vector, delta)
        r.note(faces=sum(fv.counts[1:]))
        betti = r.call("complexes.gf2_betti", st.gf2_betti, delta)
        pm = r.call("complexes.pseudomanifold", st.is_closed_pseudomanifold, delta)
        k = checks.neighborly_degree(family, params)
        check_nb = st.is_cs_k_neighborly if family == "cs-delta" else st.is_k_neighborly
        neighborly = r.call("complexes.neighborly", check_nb, delta, k)
        found = checks.sphere_problems(fv.counts, betti)
        for size, count in checks.neighborly_face_counts(family, params).items():
            if fv.counts[size] != count:
                found.append(f"f_{size - 1} = {fv.counts[size]}, expected {count}")
        if not pm.passed:
            found.append("not a closed pseudomanifold")
        if not neighborly:
            found.append(f"not {k}-neighborly")
        for fmt in ("facets", "json"):
            path = OUT / f"roundtrip.{fmt}"
            r.call("fileio.store", st.fileio.save_complex, delta, str(path), fmt, {"instance": key})
            r.note(bytes=path.stat().st_size)
            back = r.call("fileio.load", st.fileio.load_complex, str(path))
            if back.facets != delta.facets:
                found.append(f"{fmt} round trip changed the facets")
        r.problem(key, found)


def verify_lemma(r: Round, lemma, k, n) -> None:
    key = f"lemma:{lemma},{k},{n}"
    with r.op(key):
        report = r.call("lemmas.verify", r.st.verify_lemma, lemma, k, n, cache={})
        r.note(candidates=report.candidates_checked)
        if not report.passed or report.failures or not report.candidates_checked:
            r.problem(key, [f"report failed with {len(report.failures)} failures"])


def build_verify(r: Round) -> None:
    for family, params in inst.BUILD_VERIFY:
        verify_complex(r, family, params)
    for lemma, k, n in inst.LEMMAS:
        verify_lemma(r, lemma, k, n)


WORKLOADS = {
    "search-ladder": search_ladder,
    "wide-solve": wide_solve,
    "build-verify": build_verify,
}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round.  Transversal figures cover
    completed solves only: nodes reached at a timeout do not repeat."""
    by_op: dict[int, dict[str, dict]] = {}
    total: dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        by_op.setdefault(s["parent"], {})[s["name"]] = s
    search = preprocess = 0.0
    nodes = gap = 0
    for calls in by_op.values():
        exact = calls.get("transversal.exact")
        if exact is None or not exact["optimal"]:
            continue
        pre = calls["transversal.preprocess"]
        preprocess += pre["end"] - pre["start"]
        search += (exact["end"] - exact["start"]) - (pre["end"] - pre["start"])
        nodes += exact["nodes"]
        gap += pre["root_gap"]

    def count(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def secs(name):
        return (total.get(name, 0.0), "s")

    return {
        "transversal.search_s": (search, "s"),
        "transversal.nodes": (nodes, "count"),
        "transversal.us_per_node": (search / nodes * 1e6 if nodes else 0.0, "us"),
        "transversal.root_gap": (gap, "count"),
        "transversal.preprocess_s": (preprocess, "s"),
        "transversal.facet_hypergraph_s": secs("transversal.facet_hypergraph"),
        "transversal.greedy_s": secs("transversal.greedy"),
        "transversal.matching_s": secs("transversal.matching"),
        "cs_family.build_s": secs("cs_family.build"),
        "squeezed.build_s": secs("squeezed.build"),
        "squeezed.sew_s": secs("squeezed.sew"),
        "polytopes.build_s": secs("polytopes.build"),
        "complexes.f_vector_s": secs("complexes.f_vector"),
        "complexes.gf2_betti_s": secs("complexes.gf2_betti"),
        "complexes.pseudomanifold_s": secs("complexes.pseudomanifold"),
        "complexes.neighborly_s": secs("complexes.neighborly"),
        "complexes.faces": (count("complexes.f_vector", "faces"), "count"),
        "lemmas.verify_s": secs("lemmas.verify"),
        "lemmas.candidates": (count("lemmas.verify", "candidates"), "count"),
        "fileio.store_s": secs("fileio.store"),
        "fileio.load_s": secs("fileio.load"),
        "fileio.bytes": (count("fileio.store", "bytes"), "count"),
    }


def median_round(rounds: list[Round]) -> float:
    """Timed seconds of one round, taking each operation's median over the
    rounds: a burst of machine noise then moves one sample of a few
    operations instead of a whole round."""
    return sum(statistics.median(times) for times in zip(*(r.op_s for r in rounds)))


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that do the run's set-up
    (start, import spheretrans, load the reference table) and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-only"], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    st = import_program()
    reference = load_reference()
    if args.setup_only:
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    # whole rounds only, and a new round only when it should end in time
    origin = time.perf_counter()
    rounds: list[Round] = []
    longest = 0.0
    while len(rounds) < 1 + args.trace or time.perf_counter() - origin + longest <= args.seconds:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        r = Round(st, reference, args.seed, traced, origin)
        gc.collect()
        started = time.perf_counter()
        workload(r)
        longest = max(longest, time.perf_counter() - started)
        rounds.append(r)

    plain = median_round([r for r in rounds if not r.traced])
    if args.trace:
        traced = [r for r in rounds if r.traced]
        per_round = [layer_metrics(r.spans) for r in traced]
        metrics = {
            key: {"value": statistics.median(m[key][0] for m in per_round), "unit": unit}
            for key, (_, unit) in per_round[0].items()
        }
        overhead = median_round(traced) - plain
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(traced):
                for s in r.spans:
                    fh.write(json.dumps({"round": i, **s}) + "\n")
    else:
        metrics = {
            "run_s": {"value": plain, "unit": "s"},
            "setup_s": {"value": setup_seconds(), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    for p in OUT.glob("roundtrip.*"):
        p.unlink()

    problems = [p for r in rounds for p in r.problems]
    for p in sorted(set(problems)):
        print(f"PROBLEM {p}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} attempted={attempted} failed={failed}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
