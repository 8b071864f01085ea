"""Every command of the committed output corpus, replayed byte for byte."""

from building_forge import cli
from cli_corpus import command_lines, load, replay, sha256

CORPUS = load()

# the md reports of gelfand and find-sr print each of their dozen lines
# whole, in two writes (the text, the newline); every table goes out in
# batches of cli.WRITE_BATCH characters
PRINTED_WRITES = 24


def test_corpus_lists_every_command_line():
    assert [entry["argv"] for entry in CORPUS] == command_lines()


def test_every_line_replays_byte_for_byte():
    differ, longest = [], 0
    for entry in CORPUS:
        code, out, err, writes = replay(entry["argv"])
        got = {"argv": entry["argv"], "code": code,
               "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
        if got != entry:
            differ.append((" ".join(entry["argv"]), code, err[-200:]))
        assert writes <= len(out) // cli.WRITE_BATCH + 1 + PRINTED_WRITES, entry["argv"]
        longest = max(longest, out.count("\n"))
    assert not differ, f"{len(differ)} of {len(CORPUS)} lines differ, first {differ[:3]}"
    # a writer that wrote each row on its own would exceed the write bound
    assert longest > 4 * PRINTED_WRITES
