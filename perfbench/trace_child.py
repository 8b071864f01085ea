"""Run one building-forge CLI invocation with wrappers around each layer.

    python3 trace_child.py spans  OUT.json <cli arguments...>
    python3 trace_child.py counts OUT.json <cli arguments...>

``spans`` wraps the public functions of each module (the layers ``perms``,
``tree``, ``group``, ``hecke``, ``gelfand`` and ``cli``) and records one
span per call: [name, start, end, index of the enclosing span or -1, work].
``counts`` wraps only the hot functions, whose calls are too many to time
without distorting their caller, and counts calls.  Spans and counts are
kept in memory and written to OUT.json when the invocation ends.

Each function is patched under every name it is looked up by, since a
module that imported a function by name holds its own reference to it.
The importing package must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from building_forge import cli, gelfand, group, hecke, perms, tree

# span name -> the (owner, attribute) pairs that call sites look up
SPANS = {
    "cli": [(cli, "main")],
    "cli.load_or_build_table": [(cli, "load_or_build_table")],
    "perms.closure": [(perms, "closure")],
    "group.orbit_table": [(group, "orbit_table"), (hecke, "orbit_table")],
    "group.k_orbit": [(group, "k_orbit"), (gelfand, "k_orbit")],
    "group.pair_proxy": [
        (group, "two_transitivity_on_ends_proxy"),
        (gelfand, "two_transitivity_on_ends_proxy"),
    ],
    "group.orbit_count_growth": [(group, "orbit_count_growth"), (gelfand, "orbit_count_growth")],
    "group.fixed_end_check": [(group, "fixed_end_check"), (gelfand, "fixed_end_check")],
    "hecke.structure_constants": [(hecke, "intersection_numbers")],
    "hecke.commutativity": [
        (hecke, "commutativity_of"),
        (hecke, "commutativity_report"),
        (gelfand, "commutativity_report"),
    ],
    "gelfand.report": [(gelfand, "main_theorem_report")],
    "gelfand.find_witness": [(gelfand, "find_witness")],
    "gelfand.certify_disjoint": [(gelfand, "certify_disjoint")],
    "gelfand.find_strongly_regular": [(gelfand, "find_strongly_regular")],
    "tree.pigeonhole": [
        (tree, "pigeonhole_find_hyperbolic"),
        (gelfand, "pigeonhole_find_hyperbolic"),
    ],
    "tree.classify_isometry": [(tree, "classify_isometry"), (gelfand, "classify_isometry")],
    "tree.segment_through_apartment": [(tree, "segment_through_apartment")],
    "tree.image_of_end": [(tree.Portrait, "image_of_end")],
}

# work done by one call, read from its result (recorded after the span ends)
WORK = {
    "group.orbit_table": lambda table: len(table.classes),
    "hecke.structure_constants": lambda sc: len(sc.entries()),
    "gelfand.certify_disjoint": lambda result: len(result[1]) + len(result[2]),
}

# counter name -> (owner, attribute) pairs; hecke's reduce_word counts only
# the transports made by the Hecke layer
COUNTS = {
    "hecke.transport": [(hecke, "reduce_word")],
    "group.k_orbit": [(group, "k_orbit"), (gelfand, "k_orbit")],
}


def install_spans(spans: list, stack: list) -> None:
    def wrap(name, fn, work):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        return traced

    for name, sites in SPANS.items():
        for owner, attr in sites:
            if hasattr(owner, attr):
                setattr(owner, attr, wrap(name, getattr(owner, attr), WORK.get(name)))


def install_counts(counts: Counter) -> None:
    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, sites in COUNTS.items():
        for owner, attr in sites:
            if hasattr(owner, attr):
                setattr(owner, attr, wrap(name, getattr(owner, attr)))


def main() -> int:
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    spans: list = []
    counts: Counter = Counter()
    if mode == "spans":
        install_spans(spans, [])
    elif mode == "counts":
        install_counts(counts)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
