"""The committed output corpus of the command line.

``corpus/cli.jsonl`` holds one line per command: its argv, its exit code
and the sha256 of its stdout and of its stderr.  ``test_corpus.py`` replays
every line through ``cli.main`` and requires the same four values, so a
change that moves one byte of any report, error message or exit code shows
there.  The inputs the commands read (group documents and automorphism
documents) live beside the corpus, under paths relative to it.

Regenerate after a deliberate change of output, and say why in the change:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
CORPUS = CORPUS_DIR / "cli.jsonl"

GROUPS = {
    "trivial3": {"degree": 3, "generators": []},
    "c3": {"degree": 3, "generators": ["1 2 0"]},
    "s3": {"degree": 3, "generators": ["1 0 2", "0 2 1"]},
    "c5": {"degree": 5, "generators": ["1 2 3 4 0"]},
    "d4": {"degree": 4, "generators": ["1 2 3 0", "0 3 2 1"]},
    "s4": {"degree": 4, "generators": ["1 0 2 3", "1 2 3 0"]},
}

# documents the commands must refuse, each with the reason it is refused
BAD_GROUPS = {
    "not_json": "{degree: 3}",  # not JSON
    "list": "[3]",  # not an object
    "no_generators": '{"degree": 3}',  # a missing field
    "degree_text": '{"degree": "3", "generators": []}',  # a degree that is no integer
    "thin": '{"degree": 2, "generators": []}',  # degree below 3
    "bad_perm": '{"degree": 3, "generators": ["0 0 1"]}',  # no permutation
}

AUTOS = {
    # a constant portrait inside U(C3) and U(S3), outside U(trivial)
    "c3_inside": {"base_image": "0 2", "exceptions": {"": "1 2 0"}, "extension": "constant"},
    # a constant portrait inside U(S3), outside U(C3)
    "s3_step": {"base_image": "1", "exceptions": {"": "1 0 2"}, "extension": "constant"},
    # a constant portrait inside U(S4) and U(D4)
    "d4_inside": {"base_image": "0 1", "exceptions": {"": "2 3 0 1"}, "extension": "constant"},
    # sigma at (0,) is (1 2), outside C3
    "c3_outside": {"base_image": "0 1", "exceptions": {"0": "0 2 1"}, "extension": "sparse"},
    # refused documents
    "not_object": [{"base_image": "1"}],
    "base_number": {"base_image": 5},
    "bad_extension": {"base_image": "1", "extension": "dense"},
    "bad_exceptions": {"base_image": "1", "exceptions": {"": 3}},
}

FORMATS = ("json", "csv", "md")


def _with_formats(argv: list[str]) -> list[list[str]]:
    return [argv + ["--format", fmt] for fmt in FORMATS]


def command_lines() -> list[list[str]]:
    """Every command of the corpus, in a fixed order."""
    lines: list[list[str]] = []
    for name, doc in GROUPS.items():
        group = f"groups/{name}.json"
        degree = doc["degree"]
        top = 5 if degree == 3 else 4
        for radius in range(top + 1):
            lines += _with_formats(["orbits", "--group", group, "--radius", str(radius)])
        for radius in range(top + 1):
            lines += _with_formats(["hecke", "--group", group, "--radius", str(radius)])
        lines += _with_formats(["gelfand", "--group", group])
        lines += _with_formats(["gelfand", "--group", group, "--radius", "4"])
        for budget in (0, 1, 2):
            lines += _with_formats(["gelfand", "--group", group, "--budget", str(budget)])
        lines.append(["gelfand", "--group", group, "--radius", "2"])
        for budget in (0, 1, 3):
            lines += _with_formats(["find-sr", "--group", group, "--budget", str(budget)])
        lines += _with_formats(["find-sr", "--group", group])
        last = str(degree - 1)
        transports = ["0,1", "1,2,0", f"2,0,1,{last}"]
        ends = [":0,2", f"{last},1:0,1"]
        for word in transports:
            for end in ends:
                lines += _with_formats(
                    ["dynamics", "--group", group, "--auto", f"transport:{word}",
                     "--end", end, "--nmax", "5"]
                )
    # gelfand deep past the listed orbit counts: C3 answers with counts to
    # sphere 64, S3 is refused by the ball cap; and C3 at a budget far past
    # the first label repeat (answered as at a small one)
    lines += _with_formats(["gelfand", "--group", "groups/c3.json", "--radius", "14286"])
    for group in ("c3", "s3"):
        deep = ["gelfand", "--group", f"groups/{group}.json", "--radius", str(10**11)]
        lines += _with_formats(deep)
    lines += _with_formats(["find-sr", "--group", "groups/c3.json", "--budget", "1000000"])
    dyn = ["dynamics", "--group", "groups/c3.json"]
    for nmax in ("1", "12"):
        lines += _with_formats(dyn + ["--auto", "transport:0,1", "--end", ":0,2", "--nmax", nmax])
    # the attracting end itself: every row reads -1
    lines += _with_formats(dyn + ["--auto", "transport:0,1", "--end", ":0,1"])
    for group, auto in [
        ("c3", "c3_inside"), ("s3", "c3_inside"), ("s3", "s3_step"),
        ("d4", "d4_inside"), ("s4", "d4_inside"),
    ]:
        lines += _with_formats(
            ["dynamics", "--group", f"groups/{group}.json", "--auto", f"autos/{auto}.json",
             "--end", ":0,2", "--nmax", "6"]
        )
    # dynamics refusals: elliptic, inversion, repelling end, outside U(F),
    # malformed ends, transports and documents
    for group, auto, end in [
        ("c3", "transport:", ":0,2"),
        ("c3", "transport:0", ":0,2"),
        ("c3", "transport:0,1", ":1,0"),
        ("c3", "transport:0,1", "1:0,1"),
        ("c3", "autos/c3_outside.json", ":0,2"),
        ("trivial3", "autos/c3_inside.json", ":0,2"),
        ("c3", "autos/s3_step.json", ":0,2"),
        ("c3", "transport:0,1", "0,2"),
        ("c3", "transport:0,1", ":0,5"),
        ("c3", "transport:0,1", ":0,0"),
        ("c3", "transport:0,1", ":0,-2"),
        ("c3", "transport:0,1", "a:0,1"),
        ("c3", "transport:0,0", ":0,2"),
        ("c3", "transport:a,b", ":0,2"),
        ("c3", "transport:0,5", ":0,2"),
        ("c3", "transport:0,-1", ":0,2"),
        ("c3", "autos/missing.json", ":0,2"),
        ("c3", "autos/not_object.json", ":0,2"),
        ("c3", "autos/base_number.json", ":0,2"),
        ("c3", "autos/bad_extension.json", ":0,2"),
        ("c3", "autos/bad_exceptions.json", ":0,2"),
        ("s4", "transport:0,3", ":0,2"),
        ("s4", "transport:0,4", ":0,2"),
    ]:
        lines.append(["dynamics", "--group", f"groups/{group}.json", "--auto", auto,
                      "--end", end, "--nmax", "3"])
    # group documents every subcommand refuses
    for name in [*BAD_GROUPS, "missing"]:
        for command in ("orbits", "hecke", "gelfand", "find-sr"):
            lines.append([command, "--group", f"groups/{name}.json"])
        lines.append(["dynamics", "--group", f"groups/{name}.json", "--auto", "transport:0,1",
                      "--end", ":0,2"])
    return lines


class CountingStringIO(io.StringIO):
    """A text stream that counts its writes."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def replay(argv: list[str]) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and the number of stdout writes of
    ``cli.main(argv)``, run with the corpus directory as working directory."""
    from building_forge import cli

    out, err = CountingStringIO(), io.StringIO()
    with _chdir(CORPUS_DIR):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), out.writes


@contextlib.contextmanager
def _chdir(path: Path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def entry(argv: list[str]) -> dict:
    code, out, err, _ = replay(argv)
    return {"argv": argv, "code": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}


def load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def write_inputs() -> None:
    (CORPUS_DIR / "groups").mkdir(parents=True, exist_ok=True)
    (CORPUS_DIR / "autos").mkdir(exist_ok=True)
    for name, doc in GROUPS.items():
        (CORPUS_DIR / "groups" / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for name, text in BAD_GROUPS.items():
        (CORPUS_DIR / "groups" / f"{name}.json").write_text(text + "\n")
    for name, doc in AUTOS.items():
        (CORPUS_DIR / "autos" / f"{name}.json").write_text(json.dumps(doc) + "\n")


def main() -> int:
    write_inputs()
    entries = [entry(argv) for argv in command_lines()]
    CORPUS.write_text("".join(json.dumps(e) + "\n" for e in entries))
    print(f"{len(entries)} command lines written to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
