"""The subset search shared by the exact engines.

Candidates are tried in order of increasing size, lexicographically within
a size, so every engine reports the same first hit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterator, Sequence

from .graph import Edge
from .model import ConflictChecker


def iter_subsets(candidates: Sequence[Edge], max_size: int) -> Iterator[tuple[Edge, ...]]:
    """All subsets of size 0..max_size, sizes ascending, lexicographic within."""
    ordered = sorted(candidates)
    for size in range(min(max_size, len(ordered)) + 1):
        yield from combinations(ordered, size)


def first_conflict_free(checker: ConflictChecker, conflicts: frozenset[Edge],
                        candidates: Sequence[Edge], k: int,
                        committed: Collection[Edge] = frozenset()
                        ) -> frozenset[Edge] | None:
    """First subset S of ``candidates``, non-edges of G (|S| <= k), in the
    canonical order, such that G + committed + S is conflict-free; None if
    there is none.

    ``conflicts`` is the set of pairs in conflict in G + committed.  Only
    they get an ellipse mask, the bits of the candidates in the checker's
    ``ellipses`` of the pair, and only they are checked for each S.

    A combination is checked exactly only if it hits every ellipse mask.
    Each prefix of size - 1 intersects the masks it misses; the last index
    ranges over that intersection alone.  The mask that emptied it moves to
    the front, since it is likely to reject the next prefix too.
    """
    if not conflicts:
        return frozenset()
    ordered = sorted(candidates)
    base = sorted(committed)
    pending = sorted(conflicts)
    at = {e: i for i, e in enumerate(ordered)}
    masks = [sum(1 << at[e] for e in checker.ellipses[p] if e in at) for p in pending]
    m = len(ordered)
    for size in range(1, min(k, m) + 1):
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
                s = [ordered[i] for i in combo]
                if next(checker.violated(base + s, pending), None) is None:
                    return frozenset(s)
                tails ^= low
    return None
