"""Command-line interface: subcommands, formats, flags, exit codes, no files written."""

import json

import pytest

from building_forge.cli import main

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

    def test_inconsistent_exit_one(self, groups, capsys):
        # a witness budget too small to even walk the apartment leaves the
        # noncommutative side without its witness: flagged, exit code 1
        code, out, _ = run(
            capsys,
            ["gelfand", "--group", groups["c3"], "--radius", "3", "--budget", "1"],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["consistent"] is False and doc["witness"] is None


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


    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_nmax_below_one_rejected_at_parsing(self, groups, capsys, nmax):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--group", groups["c3"], "--auto", "transport:0,1",
                  "--end", ":0,2", "--nmax", nmax])
        assert exc.value.code == 2
        assert "--nmax" in capsys.readouterr().err


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
