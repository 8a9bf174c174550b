"""The subset search shared by the exact engines.

Candidates are tried in order of increasing size, lexicographically within
a size, so every engine reports the same first hit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterator, Sequence

from .graph import Edge
from .model import ConflictChecker


class SearchBudgetExceeded(RuntimeError):
    """The candidate cap was hit before the enumeration finished."""


def iter_subsets(candidates: Sequence[Edge], max_size: int) -> Iterator[tuple[Edge, ...]]:
    """All subsets of size 0..max_size, sizes ascending, lexicographic within."""
    ordered = sorted(candidates)
    for size in range(max_size + 1):
        yield from combinations(ordered, size)


def _first_of_size(checker: ConflictChecker, base: list[Edge], ordered: list[Edge],
                   masks: list[int], size: int) -> tuple[int, ...] | None:
    """First index combination of ``size`` that ``checker`` accepts on top
    of the edges ``base``.

    A combination is checked exactly only if it hits every ellipse mask.
    Each prefix of size - 1 intersects the masks it misses; the last index
    ranges over that intersection alone.  The mask that emptied it moves to
    the front, since it is likely to reject the next prefix too.
    """
    if size == 0:
        return () if checker.is_free(base) else None
    m = len(ordered)
    for prefix in combinations(range(m - 1), size - 1):
        covered = 0
        for i in prefix:
            covered |= 1 << i
        start = prefix[-1] + 1 if prefix else 0
        tails = (1 << m) - (1 << start)
        for pos, mask in enumerate(masks):
            if not mask & covered:
                tails &= mask
                if not tails:
                    masks.insert(0, masks.pop(pos))
                    break
        while tails:
            low = tails & -tails
            combo = prefix + (low.bit_length() - 1,)
            if checker.is_free(base + [ordered[i] for i in combo]):
                return combo
            tails ^= low
    return None


def first_conflict_free(checker: ConflictChecker, candidates: Sequence[Edge],
                        k: int, committed: Collection[Edge] = frozenset()
                        ) -> frozenset[Edge] | None:
    """First subset S of ``candidates`` (|S| <= k), in the canonical order,
    such that G + committed + S is conflict-free; None if there is none.

    Only the pairs still in conflict in G + committed get an ellipse mask.
    """
    ordered = sorted(candidates)
    base = sorted(committed)
    masks = checker.ellipse_masks(ordered, checker.violated(base))
    for size in range(k + 1):
        combo = _first_of_size(checker, base, ordered, masks, size)
        if combo is not None:
            return frozenset(ordered[i] for i in combo)
    return None
