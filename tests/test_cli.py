import csv
import json
from fractions import Fraction

import pytest

from spheretrans import (
    EMPTY,
    PureComplex,
    cross_boundary,
    cs_sphere,
    cyclic_boundary,
    edge_link_sphere,
    explicit_cs_transversal,
    facet_hypergraph,
    greedy_transversal,
    matching_lower_bound,
    neighborly_antichain,
    relative_squeezed_ball,
    relative_squeezed_sphere,
    sew,
    sewing_antichain,
    squeezed_ball,
    stacked_sphere,
)
from spheretrans import cli
from spheretrans.cli import CSV_HEADER, main
from spheretrans.fileio import (
    JSON_FORMAT,
    dumps_facets,
    dumps_json,
    load_complex,
    loads_facets,
    loads_json,
    save_complex,
)


@pytest.fixture
def sphere():
    return cs_sphere(3, 5)


def test_facet_round_trip(sphere):
    text = dumps_facets(sphere, {"family": "cs-delta", "d": 3, "n": 5})
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0].startswith("#")
    body = [l for l in lines if not l.startswith("#")]
    assert body == sorted(body, key=lambda l: [int(t) for t in l.split()])
    assert loads_facets(text) == sphere
    tiny = PureComplex([(1, 3), (-2, 1)])
    assert dumps_facets(tiny, {"k": 1}) == "# spheretrans-facets\n# k=1\n-2 1\n1 3\n"


def test_json_round_trip(sphere):
    metadata = {"family": 'cs "delta"', "note": "sphère ∂Δ", "n": 5}
    text = dumps_json(sphere, metadata)
    assert text.endswith("\n")
    payload = json.loads(text)
    expected = {
        "format": JSON_FORMAT,
        "facet_dimension": 3,
        "vertex_count": 10,
        "facets": [list(f) for f in sorted(sphere.facets)],
        "metadata": metadata,
    }
    assert payload == expected
    assert list(payload) == list(expected)
    assert loads_json(text) == sphere
    # earlier versions wrote the document indented
    assert loads_json(json.dumps(payload, indent=2)) == sphere


def test_loads_facets_validation():
    with pytest.raises(ValueError):
        loads_facets("1 2\n3 x\n")
    with pytest.raises(ValueError):
        loads_facets("1 2\n1 2 3\n")
    with pytest.raises(ValueError):
        loads_facets("2 1\n")
    for empty in ("", "  \n\n", "# spheretrans-facets\n# family=cs-delta\n"):
        with pytest.raises(ValueError):
            loads_facets(empty)


def test_loads_json_validation(sphere):
    payload = json.loads(dumps_json(sphere))
    foreign = dict(payload, format="something-else")
    unlabelled = {k: v for k, v in payload.items() if k != "format"}
    malformed = [dict(payload, facets=f) for f in (5, [[1, "2"]], [[1, True]])]
    no_facets = [dict(payload, facets=[]), {"format": JSON_FORMAT}]
    for bad in (foreign, unlabelled, *no_facets, *malformed):
        with pytest.raises(ValueError):
            loads_json(json.dumps(bad))


def test_load_complex_sniffs_both_formats(tmp_path, sphere):
    fpath = tmp_path / "s.facets"
    jpath = tmp_path / "s.json"
    save_complex(sphere, str(fpath), fmt="facets")
    save_complex(sphere, str(jpath), fmt="json")
    assert load_complex(str(fpath)) == sphere
    assert load_complex(str(jpath)) == sphere
    with pytest.raises(ValueError):
        save_complex(sphere, str(fpath), fmt="pickle")
    with pytest.raises(ValueError):
        save_complex(EMPTY, str(tmp_path / "empty.facets"))
    assert not (tmp_path / "empty.facets").exists()


def test_build_writes_the_octahedron_family_to_stdout(capsys):
    assert main(["build", "--family", "cross", "--d", "3"]) == 0
    out = capsys.readouterr().out
    facet_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(facet_lines) == 8


def test_build_verify_round_trip(tmp_path, capsys):
    path = str(tmp_path / "d3n6.facets")
    assert main(
        ["build", "--family", "cs-delta", "--d", "3", "--n", "6", "--out", path]
    ) == 0
    checks = "pseudomanifold,euler,betti,cs,cs-neighborly=2"
    assert main(["verify", "--in", path, "--checks", checks]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_build_json_format(tmp_path):
    path = str(tmp_path / "ball.json")
    rc = main(
        [
            "build", "--family", "cs-delta", "--d", "2", "--n", "4",
            "--i", "1", "--out", path, "--format", "json",
        ]
    )
    assert rc == 0
    assert len(load_complex(path)) == 6


def test_verify_reports_failures(tmp_path, capsys):
    path = str(tmp_path / "stacked.facets")
    main(["build", "--family", "stacked", "--d", "3", "--n", "7", "--out", path])
    assert main(["verify", "--in", path, "--checks", "betti,cs"]) == 1
    out = capsys.readouterr().out
    assert "cs" in out and "FAIL" in out


def test_verify_json_reports_every_check(tmp_path, capsys):
    path = str(tmp_path / "stacked.facets")
    main(["build", "--family", "stacked", "--d", "3", "--n", "7", "--out", path])
    capsys.readouterr()
    assert main(["verify", "--in", path, "--checks", "betti,cs,neighborly=1", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "checks": [
            {"name": "betti", "passed": True, "detail": "betti=(1, 0, 1) expected (1, 0, 1)"},
            {"name": "cs", "passed": False, "detail": "not cs"},
            {"name": "neighborly=1", "passed": True, "detail": "k=1"},
        ],
        "passed": False,
    }
    assert main(["verify", "--in", path, "--checks", "pseudomanifold,euler", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["pseudomanifold", "euler"]
    assert main(["verify", "--in", path, "--checks", "bogus", "--json"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "facets, detail",
    [
        ("1 2 3\n", "3 bad ridges e.g. ((1, 2), (1, 3), (2, 3))"),
        ("1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n", "dual graph disconnected"),
        ("1 2 3\n4 5 6\n", "6 bad ridges e.g. ((1, 2), (1, 3), (2, 3)); dual graph disconnected"),
    ],
)
def test_verify_names_the_pseudomanifold_failure(tmp_path, capsys, facets, detail):
    path = tmp_path / "bad.facets"
    path.write_text(facets)
    assert main(["verify", "--in", str(path), "--checks", "pseudomanifold,cs-neighborly=1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"pseudomanifold     FAIL  {detail}",
        "cs-neighborly=1    FAIL  not centrally symmetric",
    ]


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["build", "--family", "cyclic", "--d", "4"]) == 2
    assert main(["build", "--family", "cs-lambda", "--k", "2", "--n", "6"]) == 2
    assert '--edge "a b"' in capsys.readouterr().err
    rc = main(
        [
            "report", "mu", "--family", "cyclic", "--d", "4", "--k", "9",
            "--n-from", "6", "--n-to", "7", "--csv", str(tmp_path / "mu.csv"),
        ]
    )
    assert rc == 2 and "does not take --k" in capsys.readouterr().err
    assert not (tmp_path / "mu.csv").exists()
    path = str(tmp_path / "x.facets")
    main(["build", "--family", "cross", "--d", "3", "--out", path])
    assert main(["verify", "--in", path, "--checks", "bogus"]) == 2
    capsys.readouterr()
    for checks, message in (
        ("neighborly", "check neighborly needs =K with K >= 1"),
        ("neighborly=\u00b2", "check neighborly needs =K with K >= 1"),
        ("cs=3", "check cs takes no argument"),
        (",", "no checks given"),
    ):
        assert main(["verify", "--in", path, "--checks", checks]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
    edge = ["build", "--family", "cs-lambda", "--k", "2", "--n", "6", "--edge", "1 x"]
    assert main(edge) == 2
    assert "--edge expects two integers like \"3 -5\", got '1 x'" in capsys.readouterr().err
    # --m belongs to even-facets alone
    assert main(["lemmas", "--lemma", "bdl", "--k", "2", "--n", "8", "--m", "3"]) == 2
    assert "bdl does not take --m" in capsys.readouterr().err
    assert main(["lemmas", "--lemma", "even-facets", "--k", "2", "--n", "8", "--m", "10"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "moebius", "--d", "3"])
    assert exc.value.code == 2


def test_construction_errors_exit_one(capsys):
    assert main(["build", "--family", "cs-delta", "--d", "3", "--n", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_build_refuses_the_empty_complex(tmp_path, capsys):
    path = tmp_path / "empty.facets"
    empty_ball = ["build", "--family", "cs-delta", "--d", "3", "--n", "6", "--i", "-1"]
    assert main(empty_ball) == 1
    assert main([*empty_ball, "--out", str(path)]) == 1
    assert not path.exists()
    assert capsys.readouterr().out == ""


def test_verify_rejects_files_without_facets(tmp_path, capsys):
    for i, text in enumerate(["", " \n\t\n", "# spheretrans-facets\n# i=-1\n"]):
        path = tmp_path / f"empty{i}.facets"
        path.write_text(text)
        assert main(["verify", "--in", str(path), "--checks", "euler"]) == 1
        assert "PASS" not in capsys.readouterr().out


def test_euler_expectation_is_an_integer():
    assert cli._run_check(cross_boundary(3), "euler", None) == (True, "chi=2 expected 2")
    assert cli._run_check(cross_boundary(4), "euler", None) == (True, "chi=0 expected 0")
    assert cli._run_check(EMPTY, "euler", None)[1].endswith("expected 0")


# one small member of every build family: its flags, the direct library
# call that must give the same complex, and whether it is a sphere
SMALL_FAMILIES = {
    "cyclic": (["--d", "4", "--n", "7"], lambda: cyclic_boundary(4, 7), True),
    "cross": (["--d", "3"], lambda: cross_boundary(3), True),
    "stacked": (["--d", "3", "--n", "7"], lambda: stacked_sphere(3, 7), True),
    "squeezed": (
        ["--k", "3", "--n", "9"],
        lambda: squeezed_ball(neighborly_antichain(3, 9)),
        False,
    ),
    "relative-squeezed": (
        ["--k", "3", "--n", "9"],
        lambda: relative_squeezed_sphere(neighborly_antichain(3, 9)),
        True,
    ),
    "cs-delta": (["--d", "3", "--n", "6"], lambda: cs_sphere(3, 6), True),
    "cs-lambda": (
        ["--k", "2", "--n", "6", "--edge", "-8 -7"],
        lambda: edge_link_sphere(2, 6, (-8, -7)),
        True,
    ),
    "sewn": (
        ["--k", "2", "--n", "8"],
        lambda: sew(cyclic_boundary(4, 8), relative_squeezed_ball(sewing_antichain(2, 8)), 9),
        True,
    ),
}


def test_small_families_cover_the_family_table():
    assert set(SMALL_FAMILIES) == set(cli.FAMILIES)


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_every_family_builds_through_main(family, tmp_path, capsys):
    flags, direct, is_sphere = SMALL_FAMILIES[family]
    path = str(tmp_path / f"{family}.facets")
    assert main(["build", "--family", family, *flags, "--out", path]) == 0
    assert load_complex(path) == direct()
    if is_sphere:
        checks = "pseudomanifold,euler,betti"
        assert main(["verify", "--in", path, "--checks", checks]) == 0
    takes, _ = cli.FAMILIES[family]
    unused = next(f for f in ("d", "k", "i") if f not in takes)
    assert main(["build", "--family", family, *flags, f"--{unused}", "1"]) == 2
    assert f"does not take --{unused}" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["cross", "cs-lambda"])
def test_report_refuses_families_it_cannot_sweep(family, tmp_path, capsys):
    argv = [
        "report", "mu", "--family", family, "--d", "3", "--k", "2",
        "--n-from", "6", "--n-to", "7", "--csv", str(tmp_path / "mu.csv"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_transversal_exact_output(tmp_path, capsys):
    path = str(tmp_path / "c510.facets")
    main(["build", "--family", "cyclic", "--d", "5", "--n", "10", "--out", path])
    capsys.readouterr()
    assert main(["transversal", "--in", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact"
    assert payload["upper_bound"] == 2
    assert payload["optimal"] is True


def test_transversal_greedy_output(tmp_path, capsys):
    # the greedy cover and the matching bound, on a cs sphere and on two
    # disjoint copies of it
    one = sorted(cs_sphere(3, 9).facets)
    two = one + [tuple(sorted(v + 9 if v > 0 else v - 9 for v in f)) for f in one]
    for facets in (one, two):
        delta = PureComplex(facets)
        h = facet_hypergraph(delta)
        path = str(tmp_path / f"{len(facets)}.facets")
        save_complex(delta, path, "facets", {"family": "cs-delta"})
        cover = sorted(greedy_transversal(h))
        expected = {
            "mode": "greedy",
            "vertices": len(h.vertices),
            "edges": len(h.edges),
            "lower_bound": matching_lower_bound(h),
            "upper_bound": len(cover),
            "hitting_set": cover,
        }
        assert main(["transversal", "--in", path, "--greedy", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == expected
        assert main(["transversal", "--in", path, "--greedy"]) == 0
        lines = [
            f"{key} {' '.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in expected.items()
        ]
        assert capsys.readouterr().out.splitlines() == lines


def test_nan_budget_exits_one(tmp_path, capsys):
    path = str(tmp_path / "c510.facets")
    main(["build", "--family", "cyclic", "--d", "5", "--n", "10", "--out", path])
    capsys.readouterr()
    assert main(["transversal", "--in", path, "--budget", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    csv = tmp_path / "mu.csv"
    rc = main(
        [
            "report", "mu", "--family", "cyclic", "--d", "4", "--budget", "nan",
            "--n-from", "6", "--n-to", "7", "--csv", str(csv),
        ]
    )
    assert rc == 1 and capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_lemma_command(capsys):
    assert main(["lemmas", "--lemma", "bdl", "--k", "2", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "bound 3" in out
    assert out.rstrip().endswith("PASSED")
    assert main(["lemmas", "--lemma", "rsq-facets", "--k", "2", "--n", "9"]) == 1
    capsys.readouterr()
    # tau of the arity-2 pair poset on [1, 9] is 3, one under the bound 4
    assert main(["lemmas", "--lemma", "bdl", "--k", "2", "--n", "9"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["failures 1: (2, 4, 6)", "FAILED"]


def test_build_edge_link_family(tmp_path, capsys):
    path = str(tmp_path / "lambda.facets")
    rc = main(
        [
            "build", "--family", "cs-lambda", "--k", "2", "--n", "6",
            "--edge", "-8 -7", "--out", path,
        ]
    )
    assert rc == 0
    assert len(load_complex(path)) == 48
    assert main(["verify", "--in", path, "--checks", "betti,cs"]) == 0
    capsys.readouterr()


def test_build_sewn_family(tmp_path):
    path = str(tmp_path / "sewn.facets")
    assert main(
        ["build", "--family", "sewn", "--k", "2", "--n", "8", "--out", path]
    ) == 0
    sewn = load_complex(path)
    assert sewn.vertex_count == 9


def test_report_writes_stable_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "mu.csv")
    rc = main(
        [
            "report", "mu", "--family", "cyclic", "--d", "5",
            "--n-from", "7", "--n-to", "9", "--csv", out_csv,
        ]
    )
    assert rc == 0
    with open(out_csv, newline="") as fh:
        header = fh.readline().rstrip("\n")
        assert header == CSV_HEADER
        rows = list(csv.DictReader(fh, fieldnames=header.split(",")))
    assert [r["n"] for r in rows] == ["7", "8", "9"]
    assert all(r["tau_upper"] == "2" and r["optimal"] == "true" for r in rows)
    for r in rows:  # mu is written exactly, as p/q
        assert Fraction(r["mu_upper"]) == Fraction(int(r["tau_upper"]), int(r["f0"]))
        assert Fraction(r["mu_lower"]) == Fraction(int(r["tau_lower"]), int(r["f0"]))
    capsys.readouterr()


def test_report_ratios_stay_below_the_closed_form(tmp_path, capsys):
    out_csv = str(tmp_path / "cs.csv")
    rc = main(
        [
            "report", "mu", "--family", "cs-delta", "--d", "3",
            "--n-from", "4", "--n-to", "10", "--csv", out_csv,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out_csv, newline="") as fh:
        fh.readline()
        rows = list(
            csv.DictReader(fh, fieldnames=CSV_HEADER.split(","))
        )
    assert len(rows) == 7
    for row in rows:
        n = int(row["n"])
        witness = Fraction(len(explicit_cs_transversal(3, n)), 2 * n)
        assert Fraction(row["tau_upper"]) / (2 * n) <= witness


def test_report_range_validation(tmp_path):
    rc = main(
        [
            "report", "mu", "--family", "cyclic", "--d", "5",
            "--n-from", "9", "--n-to", "7", "--csv", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
