"""Command-line interface: subcommands, formats, flags, exit codes, no files written."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import building_forge
from helpers import dynamics_report, hecke_report, orbits_report
from building_forge import cli, group, hecke
from building_forge.cli import main
from building_forge.tree import (
    EXTEND_CONSTANT,
    TablePortrait,
    TreeEnd,
    TreeVertex,
    parallel_transport,
)

S3_DOC = '{"degree": 3, "generators": ["1 0 2", "0 2 1"]}\n'
C3_DOC = '{"degree": 3, "generators": ["1 2 0"]}\n'


@pytest.fixture
def groups(tmp_path):
    s3 = tmp_path / "s3.json"
    s3.write_text(S3_DOC)
    c3 = tmp_path / "c3.json"
    c3.write_text(C3_DOC)
    return {"s3": str(s3), "c3": str(c3)}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOrbits:
    def test_s3_counts(self, groups, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--group", groups["s3"], "--radius", "4"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sphere_counts"] == [1, 1, 1, 1, 1]
        assert doc["radius"] == 4
        assert doc["format_version"] == 3

    def test_c3_counts_increase(self, groups, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--group", groups["c3"], "--radius", "4"],
        )
        doc = json.loads(out)
        counts = doc["sphere_counts"]
        assert counts == [1, 1, 2, 4, 8]

    def test_radius_zero(self, groups, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--group", groups["c3"], "--radius", "0"],
        )
        assert json.loads(out)["sphere_counts"] == [1]

    def test_csv_and_md_formats(self, groups, capsys):
        _, out, _ = run(
            capsys,
            ["orbits", "--group", groups["c3"], "--radius", "2", "--format", "csv"],
        )
        assert out.splitlines()[0] == "distance,representative,size"
        _, out, _ = run(
            capsys,
            ["orbits", "--group", groups["c3"], "--radius", "2", "--format", "md"],
        )
        assert "| distance | representative | size |" in out


ORBITS_DOCS = {
    "trivial3": '{"degree": 3, "generators": []}\n',
    "C3": C3_DOC,
    "C5": '{"degree": 5, "generators": ["1 2 3 4 0"]}\n',
    "S3": S3_DOC,
    "D4": '{"degree": 4, "generators": ["1 2 3 0", "3 2 1 0"]}\n',
}


class TestOrbitsRowWriter:
    """The report is written row by row from the table, byte for byte as the
    standard library renders a list of one dict per class."""

    @pytest.mark.parametrize("name", sorted(ORBITS_DOCS))
    def test_every_format_matches_the_dict_rows_rendering(self, name, capsys, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(ORBITS_DOCS[name])
        F = group.parse_local_group(ORBITS_DOCS[name])
        for radius in range(5):
            table = group.orbit_table(F, radius)
            for fmt in ("json", "csv", "md"):
                argv = ["orbits", "--group", str(path), "--radius", str(radius), "--format", fmt]
                code, out, err = run(capsys, argv)
                assert (code, err) == (0, ""), (name, radius, fmt)
                assert out == orbits_report(F, table, fmt), (name, radius, fmt)


class TestHeckeRowWriter:
    """The report is written from row templates, byte for byte as the
    standard library renders one dict per orbit and per tensor entry."""

    @pytest.mark.parametrize("name", sorted(ORBITS_DOCS))
    def test_every_format_matches_the_dict_rows_rendering(self, name, capsys, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(ORBITS_DOCS[name])
        F = group.parse_local_group(ORBITS_DOCS[name])
        for radius in range(6):
            sc = hecke.intersection_numbers(F, radius)
            for fmt in ("json", "csv", "md"):
                argv = ["hecke", "--group", str(path), "--radius", str(radius), "--format", fmt]
                code, out, err = run(capsys, argv)
                assert (code, err) == (0, ""), (name, radius, fmt)
                assert out == hecke_report(F, sc, fmt), (name, radius, fmt)


class TestHecke:
    def test_csv_columns(self, groups, capsys):
        code, out, _ = run(
            capsys,
            ["hecke", "--group", groups["s3"], "--radius", "4", "--format", "csv"],
        )
        lines = out.splitlines()
        assert lines[0] == "i,j,k,N"
        assert "1,1,0,3" in lines

    def test_symmetric_table_for_s3(self, groups, capsys):
        _, out, _ = run(capsys, ["hecke", "--group", groups["s3"], "--radius", "4"])
        doc = json.loads(out)
        assert doc["verdict"] == "commutative_up_to_4"
        table = {(r["i"], r["j"], r["k"]): r["N"] for r in doc["constants"]}
        for (i, j, k), n in table.items():
            assert table.get((j, i, k), 0) == n

    def test_asymmetry_flagged_for_c3(self, groups, capsys):
        _, out, _ = run(capsys, ["hecke", "--group", groups["c3"], "--radius", "4"])
        assert "noncommutative" in json.loads(out)["verdict"]

    def test_radius_zero_unit_row(self, groups, capsys):
        _, out, _ = run(
            capsys, ["hecke", "--group", groups["c3"], "--radius", "0", "--format", "csv"]
        )
        assert out.splitlines() == ["i,j,k,N", "0,0,0,1"]


class TestGelfand:
    def test_consistent_exit_zero(self, groups, capsys):
        for name in ("s3", "c3"):
            code, out, _ = run(capsys, ["gelfand", "--group", groups[name], "--radius", "3"])
            assert code == 0
            assert json.loads(out)["consistent"] is True

    def test_depth_in_report(self, groups, capsys):
        _, out, _ = run(capsys, ["gelfand", "--group", groups["s3"], "--radius", "3"])
        assert json.loads(out)["depth"] == 3

    def test_inconsistent_exit_one(self, groups, capsys, monkeypatch):
        # a witness view that misses the noncommutative side's witness
        # disagrees with the other views: flagged, exit code 1
        from building_forge import gelfand

        monkeypatch.setattr(gelfand, "find_witness", lambda F, budget, strong: None)
        code, out, _ = run(capsys, ["gelfand", "--group", groups["c3"], "--radius", "3"])
        assert code == 1
        doc = json.loads(out)
        assert doc["consistent"] is False and doc["witness"] is None

    def test_exhausted_witness_budget_exits_three(self, groups, capsys):
        # a weak-side search out of budget is refused; the strong side
        # answers before any search, at any budget
        for budget in ("0", "1"):
            code, out, err = run(
                capsys, ["gelfand", "--group", groups["c3"], "--budget", budget]
            )
            assert (code, out) == (3, "")
            assert "budget" in err
        code, out, _ = run(capsys, ["gelfand", "--group", groups["s3"], "--budget", "0"])
        assert code == 0 and json.loads(out)["consistent"] is True


class TestDynamics:
    def test_agreement_table(self, groups, capsys):
        code, out, _ = run(
            capsys,
            [
                "dynamics",
                "--group", groups["c3"],
                "--auto", "transport:0,1",
                "--end", ":0,2",
                "--nmax", "4",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["translation_length"] == 2
        depths = [row["agreement_depth"] for row in doc["rows"]]
        assert depths == [3, 5, 7, 9]

    def test_elliptic_rejected(self, groups, capsys, tmp_path):
        spec = tmp_path / "rot.json"
        spec.write_text(json.dumps({"base_image": "", "exceptions": {"": "1 2 0"}, "extension": "constant"}))
        code, _, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", str(spec), "--end", ":0,1", "--nmax", "2"],
        )
        assert code == 2
        assert "hyperbolic" in err

    def test_repelling_end_rejected(self, groups, capsys):
        code, out, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", "transport:0,1", "--end", ":1,0"],
        )
        assert code == 2 and out == ""
        assert "repelling" in err

    def test_table_portrait_spec(self, groups, capsys, tmp_path):
        spec = tmp_path / "step.json"
        spec.write_text(
            json.dumps(
                {"base_image": "1", "exceptions": {"": "1 0 2"}, "extension": "constant"}
            )
        )
        code, out, _ = run(
            capsys,
            ["dynamics", "--group", groups["s3"], "--auto", str(spec), "--end", ":0,2", "--nmax", "3"],
        )
        assert code == 0
        assert json.loads(out)["translation_length"] == 1

    def test_automorphism_outside_the_group_refused(self, groups, capsys, tmp_path):
        # sigma at (0,) is the transposition (1 2), which is not in C3
        spec = tmp_path / "outside.json"
        spec.write_text(
            json.dumps({"base_image": "0 1", "exceptions": {"0": "0 2 1"}, "extension": "sparse"})
        )
        code, out, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", str(spec), "--end", ":0,2", "--nmax", "3"],
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: automorphism {str(spec)!r} is not in U(F): its local permutation "
            "at the vertex (0,) is not in the group\n"
        )

    def test_table_document_inside_the_group(self, groups, capsys, tmp_path):
        spec = tmp_path / "inside.json"
        spec.write_text(
            json.dumps({"base_image": "0 2", "exceptions": {"": "1 2 0"}, "extension": "constant"})
        )
        code, out, _ = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", str(spec), "--end", ":0,2",
             "--nmax", "4", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines() == [
            "n,agreement_depth,axis_overlap", "1,4,2", "2,6,4", "3,8,6", "4,10,8"
        ]

    @pytest.mark.parametrize("end", [":0,5", "9:0,1", "-1:0,1", ":0,-2"])
    def test_end_color_outside_the_degree_rejected(self, groups, capsys, end):
        # --end=SPEC, since argparse reads a separate "-1:0,1" as a flag
        code, _, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", "transport:0,1", f"--end={end}"],
        )
        assert code == 2
        assert "error: bad end spec" in err

    @pytest.mark.parametrize("key", ["5", "0 5", "0 -1"])
    def test_table_key_color_outside_the_degree_rejected(self, groups, capsys, tmp_path, key):
        spec = tmp_path / "bad-key.json"
        spec.write_text(json.dumps({"base_image": "1", "exceptions": {key: "1 0 2"}}))
        code, _, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", str(spec), "--end", ":0,2"],
        )
        assert code == 2
        assert "error:" in err and "outside the degree" in err

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ('{"base_image": "1", "exceptions": []}', "exceptions must map"),
            ('[{"base_image": "1"}]', "JSON object"),
            ('{"base_image": 5}', "base_image must be a word"),
            ('{"base_image": "1", "exceptions": {"": 7}}', "exceptions must map"),
            ('{"base_image": "1", "extension": "dense"}', "extension must be"),
            ('{"base_image": "1", "extension": ["sparse"]}', "extension must be"),
            ('{"base_image": "1", "exceptions": {"0 0": "0 2 1"}}', "backtracking"),
        ],
    )
    def test_malformed_automorphism_document_refused(self, groups, capsys, tmp_path, doc, reason):
        spec = tmp_path / "bad-auto.json"
        spec.write_text(doc)
        code, out, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", str(spec), "--end", ":0,2"],
        )
        assert code == 2 and out == ""
        assert "error: bad automorphism spec" in err and reason in err

    @pytest.mark.parametrize(
        "auto, reason",
        [
            ("transport:a,b", "invalid literal for int()"),
            ("transport:0,5", "outside the degree"),
            ("transport:0,0", "backtracking"),
            ("transport:0,-1", "non-negative"),
        ],
    )
    def test_malformed_transport_refused(self, groups, capsys, auto, reason):
        code, out, err = run(
            capsys,
            ["dynamics", "--group", groups["c3"], "--auto", auto, "--end", ":0,2"],
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad automorphism spec {auto!r}: ") and reason in err

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_nmax_below_one_rejected_at_parsing(self, groups, capsys, nmax):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--group", groups["c3"], "--auto", "transport:0,1",
                  "--end", ":0,2", "--nmax", nmax])
        assert exc.value.code == 2
        assert "--nmax" in capsys.readouterr().err


S4_DOC = '{"degree": 4, "generators": ["1 0 2 3", "1 2 3 0"]}\n'
INSIDE_C3 = {"base_image": "0 2", "exceptions": {"": "1 2 0"}, "extension": "constant"}
STEP_S3 = {"base_image": "1", "exceptions": {"": "1 0 2"}, "extension": "constant"}


class TestDynamicsRowWriter:
    """The report is streamed one iterate at a time, byte for byte as the
    standard library renders a list of one dict per iterate."""

    @pytest.mark.parametrize(
        "doc, auto, end, portrait",
        [
            (C3_DOC, "transport:0,1", ":0,2", lambda: parallel_transport((0, 1), 3)),
            # the attracting end itself: every row reads -1
            (C3_DOC, "transport:0,1", ":0,1", lambda: parallel_transport((0, 1), 3)),
            (C3_DOC, "transport:2,1,0", "1 2:0,1", lambda: parallel_transport((2, 1, 0), 3)),
            (S4_DOC, "transport:0,1,2", "3:0,2", lambda: parallel_transport((0, 1, 2), 4)),
            (C3_DOC, INSIDE_C3, ":0,2",
             lambda: TablePortrait(TreeVertex((0, 2)), {(): (1, 2, 0)}, 3, EXTEND_CONSTANT)),
            (S3_DOC, STEP_S3, ":0,2",
             lambda: TablePortrait(TreeVertex((1,)), {(): (1, 0, 2)}, 3, EXTEND_CONSTANT)),
        ],
        ids=["C3-t01", "C3-t01-attracting", "C3-t210", "S4-t012", "C3-table", "S3-table"],
    )
    def test_every_format_matches_the_dict_rows_rendering(
        self, capsys, tmp_path, doc, auto, end, portrait
    ):
        path = tmp_path / "group.json"
        path.write_text(doc)
        if isinstance(auto, dict):
            (tmp_path / "auto.json").write_text(json.dumps(auto))
            auto = str(tmp_path / "auto.json")
        pre, per = end.split(":")
        xi = TreeEnd(tuple(map(int, pre.replace(",", " ").split())), tuple(map(int, per.split(","))))
        a = portrait()
        for nmax in (1, 12):
            for fmt in ("json", "csv", "md"):
                argv = ["dynamics", "--group", str(path), "--auto", auto, "--end", end,
                        "--nmax", str(nmax), "--format", fmt]
                code, out, err = run(capsys, argv)
                assert (code, err) == (0, ""), (nmax, fmt)
                assert out == dynamics_report(a, xi, nmax, fmt), (nmax, fmt)

    def test_peak_memory_grows_linearly_with_nmax(self, groups, monkeypatch):
        """No iterate outlives its row.  Holding every iterate, whose prefix
        grows with m, made the peak quadratic in --nmax (ten times the peak
        at a quarter of the nmax); what is left grows linearly: the one end
        walked, whose prefix is about 2m letters, and the rows of one batch."""

        def peak(nmax):
            monkeypatch.setattr(sys, "stdout", CountingStdout())
            argv = ["dynamics", "--group", groups["c3"], "--auto", "transport:0,1",
                    "--end", ":0,2", "--nmax", str(nmax)]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)
        assert peak(800) < 1.5 * 4 * peak(200)


class TestFindSR:
    def test_finds_translation(self, groups, capsys):
        code, out, _ = run(
            capsys,
            ["find-sr", "--group", groups["c3"], "--budget", "6"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["translation_length"] == 2

    def test_negative_budget_rejected_at_parsing(self, groups, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["find-sr", "--group", groups["c3"], "--budget", "-1"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_budget_zero_exhausts(self, groups, capsys):
        code, _, err = run(
            capsys,
            ["find-sr", "--group", groups["c3"], "--budget", "0"],
        )
        assert code == 3
        assert "budget" in err


class CountingStdout:
    """A stdout stand-in that keeps only the number of writes, the
    characters and the longest write."""

    def __init__(self):
        self.writes = 0
        self.chars = 0
        self.longest = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        self.longest = max(self.longest, len(text))


def synthetic_report(n_rows):
    """An orbits-shaped report of ``n_rows`` classes."""
    return {
        "command": "orbits",
        "classes": [
            {"distance": i % 9, "representative": " ".join("01234"[: i % 6]), "size": 4 ** (i % 9)}
            for i in range(n_rows)
        ],
    }


class TestEmit:
    """Reports go out in writes of WRITE_BATCH characters and up, as
    json.dumps would print them."""

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"a": [], "b": {}, "c": [[], [{}]], "d": {"z": {"y": []}}},
            {"s": "ünïcödé ✓ \u00e9\n\t\"", "ü": ["ß", "€"], "t": True, "f": False, "n": None},
            {"floats": [0.1, -2.5, 1e300, 3.0], "ints": [0, 10**30], "mixed": [None, 1.5, "x"]},
            synthetic_report(50),
        ],
    )
    def test_json_equals_dumps(self, capsys, doc):
        cli.emit_json(doc)
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.fixture(scope="class")
    def big(self):
        """A report of 20,000 rows and the length of its rendered text."""
        doc = synthetic_report(20_000)
        return doc, len(json.dumps(doc, sort_keys=True, indent=2)) + 1

    def test_json_writes_are_batched(self, monkeypatch, big):
        doc, text_length = big
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        cli.emit_json(doc)
        assert out.chars == text_length
        assert out.writes <= text_length // cli.WRITE_BATCH + 1

    def test_json_peak_memory_below_the_text(self, monkeypatch, big):
        doc, text_length = big
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            cli.emit_json(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.chars == text_length
        assert peak < text_length

    def test_csv_and_md_batched(self, monkeypatch, big):
        fields = ["distance", "representative", "size"]
        rows = [[str(c[f]) for f in fields] for c in big[0]["classes"]]
        for table in (cli.csv_lines, cli.md_lines):
            out = CountingStdout()
            monkeypatch.setattr(sys, "stdout", out)
            cli.write_pieces(table(fields, rows))
            assert out.chars == len("".join(table(fields, rows)))
            assert out.writes <= out.chars // cli.WRITE_BATCH + 1

    def test_write_memory_is_bounded_by_size(self, monkeypatch):
        """Wide pieces fill a write by their characters, not their count:
        4,096 pieces of 1,000 characters never sit joined in memory."""
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            cli.write_pieces("x" * 1000 for _ in range(4096))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.chars == 4096 * 1000
        assert out.longest < cli.WRITE_BATCH + 1000
        assert peak < 4 * cli.WRITE_BATCH


class TestErrors:
    def test_missing_group_file(self, capsys):
        code, _, err = run(capsys, ["gelfand", "--group", "no-such-file.json", "--radius", "3"])
        assert code == 2

    def test_unparsable_group_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 3, "generators": [')
        code, _, err = run(capsys, ["orbits", "--group", str(bad), "--radius", "2"])
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"degree": 3, "generators": [[1, 2, 0]]}', "generators"),
            ('{"degree": 3, "generators": [null]}', "generators"),
            ('{"degree": [3], "generators": ["1 2 0"]}', "degree"),
            ('{"degree": 3.7, "generators": ["1 2 0"]}', "degree"),
            ('{"degree": "3", "generators": ["1 2 0"]}', "degree"),
        ],
    )
    def test_group_document_of_the_wrong_type(self, capsys, tmp_path, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, out, err = run(capsys, ["orbits", "--group", str(bad), "--radius", "2"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: '{field}' must be")

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--group", "c3", "--radius", "6"],
            ["hecke", "--group", "c3", "--radius", "6"],
            # gelfand holds the whole ball only on the commutative side
            ["gelfand", "--group", "s3", "--radius", "6"],
        ],
    )
    def test_oversized_ball_refused(self, groups, capsys, monkeypatch, argv):
        # the ball of radius 6 in the 3-regular tree has 190 words
        monkeypatch.setattr(group, "_BALL_WORD_CAP", 189)
        code, out, err = run(capsys, [groups.get(a, a) for a in argv])
        assert code == 3 and out == ""
        assert "190 words" in err

    def test_noncommutative_gelfand_answers_past_the_cap(self, groups, capsys, monkeypatch):
        # the verdict is read off radius 3, so the radius-6 ball is never built
        argv = ["gelfand", "--group", groups["c3"], "--radius", "6"]
        uncapped = run(capsys, argv)
        monkeypatch.setattr(group, "_BALL_WORD_CAP", 189)
        assert run(capsys, argv) == uncapped
        assert uncapped[0] == 0 and "noncommutative" in uncapped[1]

    def test_bad_permutation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 3, "generators": ["7 8 9"]}')
        code, _, _ = run(capsys, ["orbits", "--group", str(bad), "--radius", "2"])
        assert code == 2

    def test_gelfand_radius_too_small(self, groups, capsys):
        code, _, err = run(capsys, ["gelfand", "--group", groups["s3"], "--radius", "2"])
        assert code == 2
        assert "depth" in err

    def test_negative_radius(self, groups, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbits", "--group", groups["s3"], "--radius", "-1"])
        assert exc.value.code == 2
        assert "--radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--budget", "3"],
            ["dynamics", "--radius", "3", "--auto", "transport:0,1", "--end", ":0,2"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_rejected(self, groups, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--group", groups["c3"]] + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWorkingDirectory:
    def test_every_subcommand_leaves_it_unchanged(self, groups, capsys, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        c3 = ["--group", groups["c3"]]
        orbits = ["orbits", *c3, "--radius", "3"]
        _, first, _ = run(capsys, orbits)
        _, second, _ = run(capsys, orbits)
        assert first == second
        for argv in (
            ["hecke", *c3, "--radius", "3"],
            ["gelfand", *c3, "--radius", "3"],
            ["dynamics", *c3, "--auto", "transport:0,1", "--end", ":0,2", "--nmax", "2"],
            ["find-sr", *c3, "--budget", "6"],
        ):
            code, _, _ = run(capsys, argv)
            assert code == 0, argv
        assert list(work.iterdir()) == []


class TestImports:
    """The package imports no submodule, so a command loads only what it runs."""

    def loaded(self, statement):
        """The modules a fresh interpreter holds after ``statement``."""
        src = str(Path(building_forge.__file__).parents[1])
        code = f"import sys; {statement}; print(*sorted(sys.modules))"
        got = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert got.returncode == 0, got.stderr
        return set(got.stdout.split())

    def run_command(self, tmp_path, argv):
        """The modules a fresh interpreter holds after ``cli.main`` runs
        ``argv`` on the C3 document."""
        path = tmp_path / "c3.json"
        path.write_text(C3_DOC)
        argv = [argv[0], "--group", str(path), *argv[1:]]
        return self.loaded(
            "import io, building_forge.cli as cli; out, sys.stdout = sys.stdout, io.StringIO(); "
            f"code = cli.main({argv!r}); sys.stdout = out; assert code == 0"
        )

    def test_package_loads_no_submodule(self):
        loaded = self.loaded("import building_forge")
        assert not [m for m in loaded if m.startswith("building_forge.")]

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--radius", "3"],
            ["dynamics", "--auto", "transport:0,1", "--end", ":0,2", "--nmax", "3"],
        ],
    )
    def test_command_leaves_gelfand_and_hecke_out(self, tmp_path, argv):
        loaded = self.run_command(tmp_path, argv)
        assert "building_forge.group" in loaded
        assert "building_forge.gelfand" not in loaded
        assert "building_forge.hecke" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--radius", "3"],
            ["hecke", "--radius", "3"],
            ["gelfand"],
            ["dynamics", "--auto", "transport:0,1", "--end", ":0,2", "--nmax", "3"],
            ["find-sr"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_loads_no_dataclasses_inspect_or_fractions(self, tmp_path, argv):
        # against a bare interpreter, since a site .pth file may preload
        # modules; these json runs need no csv either
        added = self.run_command(tmp_path, argv) - self.loaded("pass")
        assert "building_forge.cli" in added
        assert not added & {"dataclasses", "inspect", "fractions", "csv"}

    def test_parsing_a_group_loads_neither_tree_nor_hashlib(self):
        added = self.loaded(
            "import building_forge.group as g; "
            "g.parse_local_group('{\"degree\": 3, \"generators\": [\"1 2 0\"]}')"
        ) - self.loaded("pass")
        assert "building_forge.group" in added
        assert not added & {"building_forge.tree", "hashlib"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--radius", "3"],
            ["hecke", "--radius", "3"],
            ["orbits", "--radius", "3", "--format", "csv"],
        ],
        ids=["orbits", "hecke", "orbits-csv"],
    )
    def test_tables_load_no_tree(self, tmp_path, argv):
        added = self.run_command(tmp_path, argv) - self.loaded("pass")
        assert "building_forge.words" in added
        assert "building_forge.tree" not in added
        if "csv" in argv:
            # the csv table prints no generator hash
            assert "hashlib" not in added

    def test_cli_leaves_coxeter_out(self):
        loaded = self.loaded("import building_forge.cli")
        assert "building_forge.cli" in loaded
        assert "building_forge.coxeter" not in loaded
