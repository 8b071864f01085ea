"""Small helpers for permutations in one-line image notation.

A permutation of {0, ..., d-1} is a tuple p of length d with p[i] the image
of i.  The textual form is the space-separated image list, e.g. "1 2 0" for
the 3-cycle 0 -> 1 -> 2 -> 0.
"""

from __future__ import annotations

from typing import Iterable

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(p: Iterable[int], degree: int) -> bool:
    t = tuple(p)
    return len(t) == degree and sorted(t) == list(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a o b)[i] = a[b[i]]."""
    return tuple(a[x] for x in b)


def transposition(degree: int, i: int, j: int) -> Perm:
    out = list(range(degree))
    out[i], out[j] = j, i
    return tuple(out)


def parse_perm(text: str, degree: int) -> Perm:
    """Parse one-line image notation, e.g. "1 2 0"."""
    try:
        images = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"bad permutation literal {text!r}") from exc
    if not is_perm(images, degree):
        raise ValueError(f"{text!r} is not a permutation of degree {degree}")
    return images


def format_perm(p: Perm) -> str:
    return " ".join(str(x) for x in p)


def closure(generators: Iterable[Perm], degree: int) -> frozenset[Perm]:
    """All products of the generators (always contains the identity)."""
    gens = [tuple(g) for g in generators]
    seen: set[Perm] = {identity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)
