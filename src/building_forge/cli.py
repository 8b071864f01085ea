"""Command-line front end.

Subcommands: orbits, hecke, gelfand, dynamics, find-sr; each takes
--group, --format and only the flags it reads.  Every depth-bounded report
carries the depth or radius it was computed at.  Reports go to stdout; no
subcommand writes a file.  Exit codes: 0 success (and consistent verdicts),
1 inconsistent verdict, 2 input error (bad arguments are refused by the
parser before any work), 3 budget/radius errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import group
from .group import LocalGroup, ParseError
from .perms import parse_perm
from .words import BudgetExhausted, OutOfBudget

if TYPE_CHECKING:
    from .tree import Portrait, TreeEnd


def load_group(path: str) -> LocalGroup:
    """The group document at ``path``; an unreadable file is a ParseError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read group file {path}: {exc}")
    return group.parse_local_group(text)


# ---------------------------------------------------------------------------
# rendering


# The characters joined into one write: a report never exists whole beside
# its table, however wide its rows, and an unbuffered stdout still sees few
# system calls.
WRITE_BATCH = 1 << 16


def write_pieces(pieces) -> None:
    """Write the text ``pieces`` to stdout, joined until ``WRITE_BATCH``
    characters are reached."""
    out = sys.stdout
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= WRITE_BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))


class Rows:
    """A list of objects in a report, written one row at a time.

    ``template`` lays out one object as ``json.dumps(..., sort_keys=True,
    indent=2)`` does inside a top-level list (see ``row_template``); each
    row holds its cells in key order.  A plain class: a NamedTuple would
    cost every command a third of a millisecond at import.
    """

    __slots__ = ("template", "rows")

    def __init__(self, template: str, rows: Iterable[tuple]):
        self.template = template
        self.rows = rows


def row_template(**cells: str) -> str:
    """The template of one object whose values are the %-placeholders
    ``cells``; the placeholders take no escaping, so the cells must be
    numbers or words of digits and spaces."""
    body = ",\n".join(f'      "{key}": {cells[key]}' for key in sorted(cells))
    return "    {\n" + body + "\n    }"


def _rows_pieces(rows: Rows) -> Iterator[str]:
    sep = "[\n"
    for row in rows.rows:
        yield sep + rows.template % row
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def json_pieces(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, in
    pieces; a top-level ``Rows`` value is written from its template."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    sep = "{\n  "
    for key in sorted(doc):
        yield sep + json.dumps(key) + ": "
        value = doc[key]
        if isinstance(value, Rows):
            yield from _rows_pieces(value)
        else:
            # a value nested one level deeper: each line break gains an indent
            yield from (chunk.replace("\n", "\n  ") for chunk in encoder.iterencode(value))
        sep = ",\n  "
    yield "{}\n" if sep == "{\n  " else "\n}\n"


def emit_json(doc: dict) -> None:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, in batches."""
    write_pieces(json_pieces(doc))


class _Echo:
    """A file whose ``write`` hands the text back, so a csv writer yields rows."""

    def write(self, text: str) -> str:
        return text


def csv_lines(header: list[str], rows: Iterable[Iterable]) -> Iterator[str]:
    """A csv table: the header, then one line per row of cells."""
    import csv  # only a csv report loads it

    writer = csv.writer(_Echo())
    return chain([writer.writerow(header)], map(writer.writerow, rows))


def md_lines(header: list[str], rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """A markdown table: the header, its rule, then one line per row of cells."""
    yield "| " + " | ".join(header) + " |\n"
    yield "|" + "|".join(" --- " for _ in header) + "|\n"
    for cells in rows:
        yield "| " + " | ".join(cells) + " |\n"


@cache
def _word_format(length: int) -> str:
    return " ".join(["%d"] * length)


def word_str(w: tuple[int, ...]) -> str:
    """The letters of ``w`` separated by spaces, from one format per length."""
    return _word_format(len(w)) % w


# ---------------------------------------------------------------------------
# subcommands


_ORBIT_CLASS_JSON = row_template(distance="%d", representative='"%s"', size="%d")
_HECKE_ORBIT_JSON = row_template(distance="%d", id="%d", representative='"%s"', valency="%d")
_HECKE_CONSTANT_JSON = row_template(N="%d", i="%d", j="%d", k="%d")
_DYNAMICS_ROW_JSON = row_template(agreement_depth="%d", axis_overlap="%d", n="%d")


def cmd_orbits(args) -> int:
    F = load_group(args.group)
    table = group.orbit_table(F, args.radius)
    fields = ["distance", "representative", "size"]
    rows = ((c.distance, word_str(c.representative), c.size) for c in table.classes)
    if args.format == "json":
        emit_json(
            {
                "format_version": 3,
                "command": "orbits",
                "degree": F.degree,
                "generator_hash": F.hash_key(),
                "radius": table.radius,
                "sphere_counts": table.sphere_counts(),
                "classes": Rows(_ORBIT_CLASS_JSON, rows),
            }
        )
    elif args.format == "csv":
        write_pieces(csv_lines(fields, rows))
    else:
        print(f"orbit classes, radius {table.radius}, sphere counts {table.sphere_counts()}")
        write_pieces(md_lines(fields, (map(str, row) for row in rows)))
    return 0


def cmd_hecke(args) -> int:
    from . import hecke

    F = load_group(args.group)
    sc = hecke.intersection_numbers(F, args.radius)
    verdict = hecke.commutativity_of(sc)
    if args.format == "json":
        emit_json(
            {
                "format_version": hecke.FORMAT_VERSION,
                "command": "hecke",
                "degree": F.degree,
                "generator_hash": F.hash_key(),
                "radius": args.radius,
                "verdict": verdict.describe(),
                "orbits": Rows(
                    _HECKE_ORBIT_JSON,
                    ((o.distance, o.id, word_str(o.representative), o.size) for o in sc.orbits),
                ),
                "constants": Rows(
                    _HECKE_CONSTANT_JSON, ((n, i, j, k) for i, j, k, n in sc.entries())
                ),
            }
        )
    elif args.format == "csv":
        write_pieces(csv_lines(["i", "j", "k", "N"], sc.entries()))
    else:
        print(f"orbit algebra at radius {args.radius}: {verdict.describe()}")
        size = len(sc.orbits)

        def row(o):
            found = sc.row(o.id)
            cells = [" + ".join(f"{n}[{k}]" for k, n in t.items()) if t else "0" for t in found]
            return [str(o.id), *cells, *["."] * (size - len(cells))]

        header = ["i\\j"] + [str(o.id) for o in sc.orbits]
        write_pieces(md_lines(header, map(row, sc.orbits)))
    return 0


def cmd_gelfand(args) -> int:
    from . import gelfand

    F = load_group(args.group)
    verdict = gelfand.main_theorem_report(F, args.radius, args.budget)
    doc = verdict.to_dict()
    if args.format == "json":
        emit_json(doc)
    elif args.format == "csv":
        flat = {k: json.dumps(v) if isinstance(v, (dict, list)) else v for k, v in doc.items()}
        write_pieces(csv_lines(list(flat), [flat.values()]))
    else:
        for key in sorted(doc):
            print(f"- **{key}**: {doc[key]}")
    return 0 if verdict.consistent else 1


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.replace(",", " ").split())


def parse_automorphism(spec: str, degree: int) -> Portrait:
    """Command-line automorphism forms.

    ``transport:<letters>`` is the color-preserving translation by the given
    word; anything else is a path to a JSON document with fields
    ``base_image`` (word), ``exceptions`` (object: word -> one-line
    permutation) and optional ``extension`` ("sparse" or "constant").
    """
    from . import tree  # only dynamics handles a portrait

    try:
        if spec.startswith("transport:"):
            return tree.parallel_transport(parse_word(spec[len("transport:"):]), degree)
        doc = json.loads(Path(spec).read_text())
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        base, exceptions = doc["base_image"], doc.get("exceptions", {})
        extension = doc.get("extension", tree.EXTEND_SPARSE)
        if not isinstance(base, str):
            raise ValueError("base_image must be a word string")
        if not isinstance(exceptions, dict) or {type(v) for v in exceptions.values()} - {str}:
            raise ValueError("exceptions must map words to permutation strings")
        table = {parse_word(k): parse_perm(v, degree) for k, v in exceptions.items()}
        return tree.TablePortrait(parse_word(base), table, degree, extension)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ParseError(f"bad automorphism spec {spec!r}: {exc}")


def parse_end(spec: str, degree: int) -> TreeEnd:
    """Ends are written "<prefix>:<period>" with comma/space separated colors."""
    from .tree import TreeEnd

    if ":" not in spec:
        raise ParseError(f"bad end spec {spec!r}: expected 'prefix:period'")
    pre, per = spec.split(":", 1)
    try:
        pre, per = parse_word(pre), parse_word(per)
        if any(not 0 <= c < degree for c in pre + per):
            raise ValueError(f"colors must lie in 0..{degree - 1}")
        return TreeEnd(pre, per)
    except ValueError as exc:
        raise ParseError(f"bad end spec {spec!r}: {exc}")


def cmd_dynamics(args) -> int:
    from . import tree

    F = load_group(args.group)
    degree = F.degree
    a = parse_automorphism(args.auto, degree)
    xi = parse_end(args.end, degree)
    outside = F.first_outside(a)
    if outside is not None:
        raise ParseError(
            f"automorphism {args.auto!r} is not in U(F): its local permutation "
            f"at the vertex {outside} is not in the group"
        )
    cls = tree.classify_isometry(a)
    ends = tree.iterate_on_end(a, cls, xi, args.nmax)
    overlaps = tree.segment_through_apartment(a, cls, tree.ROOT, tree.ROOT, args.nmax)
    plus = cls.axis.end_plus
    # one (n, agreement_depth, axis_overlap) row per iterate, none for m = 0
    rows = (
        (n, end.agreement_depth(plus) if end != plus else -1, overlap)
        for n, (end, overlap) in enumerate(zip(ends, overlaps))
        if n
    )
    fields = ["n", "agreement_depth", "axis_overlap"]
    if args.format == "json":
        emit_json(
            {
                "format_version": 2,
                "command": "dynamics",
                "degree": degree,
                "translation_length": cls.length,
                "nmax": args.nmax,
                "rows": Rows(_DYNAMICS_ROW_JSON, ((d, o, n) for n, d, o in rows)),
                "note": "agreement_depth -1 means the iterate equals the attracting end",
            }
        )
    elif args.format == "csv":
        write_pieces(csv_lines(fields, rows))
    else:
        print(f"hyperbolic of length {cls.length}; iterating toward the attracting end")
        write_pieces(md_lines(fields, (map(str, row) for row in rows)))
    return 0


def cmd_find_sr(args) -> int:
    from . import gelfand

    F = load_group(args.group)
    g, cls = gelfand.find_strongly_regular(F, args.budget)
    doc = {
        "format_version": 1,
        "command": "find-sr",
        "degree": F.degree,
        "budget": args.budget,
        "base_image": word_str(g.base_image),
        "portrait_support": "color-preserving transport (empty exception table)",
        "translation_length": cls.length,
        "axis_prefix_plus": word_str(cls.axis.end_plus.word_prefix(10)),
        "axis_prefix_minus": word_str(cls.axis.end_minus.word_prefix(10)),
    }
    if args.format == "json":
        emit_json(doc)
    elif args.format == "csv":
        write_pieces(csv_lines(list(doc), [doc.values()]))
    else:
        for key, val in doc.items():
            print(f"- **{key}**: {val}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="building-forge",
        description="orbit tables, Hecke structure constants and Gelfand-pair "
        "verdicts for universal groups acting on colored trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, *, radius=None, budget=False):
        """A subparser with --group, --format and only the flags ``func`` reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--group", required=True, help="path to a group document (JSON)")
        if radius is not None:
            p.add_argument("--radius", type=non_negative_int, default=radius)
        if budget:
            p.add_argument("--budget", type=non_negative_int, default=6)
        p.add_argument("--format", choices=["json", "csv", "md"], default="json")
        p.set_defaults(func=func)
        return p

    subcommand("orbits", cmd_orbits, "stabilizer orbit tables on a ball", radius=4)
    subcommand("hecke", cmd_hecke, "intersection numbers and commutativity", radius=4)
    subcommand("gelfand", cmd_gelfand, "the full three-way verdict", radius=3, budget=True)
    p = subcommand("dynamics", cmd_dynamics, "iteration of an end under a hyperbolic")
    p.add_argument("--auto", required=True, help="automorphism spec (transport:... or JSON file)")
    p.add_argument("--end", required=True, help="end spec 'prefix:period'")
    p.add_argument("--nmax", type=positive_int, default=8)
    subcommand("find-sr", cmd_find_sr, "find a hyperbolic element by pigeonhole", budget=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"error: {exc}{loc}", file=sys.stderr)
        return 2
    except (BudgetExhausted, OutOfBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
