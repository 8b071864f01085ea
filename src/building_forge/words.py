"""Color words: the vertices of the colored tree, as paths from its base vertex.

A vertex is a non-backtracking word over the colors {0, ..., q}, read from
the base vertex; the orbit tables, the Hecke tensor and the portraits of
``tree`` all work on these words.  This layer holds no geometry, so a
command that only counts orbits loads it without ``tree``.  The errors the
command line maps to its budget exit code live here for the same reason.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class BudgetExhausted(RuntimeError):
    """A search or table over its budget: a pigeonhole walk that found no
    repeat, a witness search that certified no pair, or a ball too large to
    build."""


class OutOfBudget(ValueError):
    """A Hecke entry or convolution beyond the radius the tensor was
    computed to; kept here so that the CLI maps it without loading hecke."""


Word = tuple[int, ...]


def is_nonbacktracking(word: Sequence[int]) -> bool:
    return all(a != b for a, b in zip(word, word[1:]))


def reduce_word(a: Word, b: Word) -> Word:
    """Concatenate two words as paths, cancelling backtracks at the seam."""
    out = list(a)
    for c in b:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def lcp_len(a: Sequence[int], b: Sequence[int]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def word_distance(a: Word, b: Word) -> int:
    k = lcp_len(a, b)
    return len(a) + len(b) - 2 * k


def sphere_words(degree: int, n: int) -> Iterator[Word]:
    """Non-backtracking words of length n over {0, ..., degree-1}, lex order."""

    def extend(w: Word) -> Iterator[Word]:
        if len(w) == n:
            yield w
            return
        for c in range(degree):
            if not w or c != w[-1]:
                yield from extend(w + (c,))

    yield from extend(())
