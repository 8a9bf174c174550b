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
    """The whole solution committed + S, for the first subset S of
    ``candidates``, non-edges of G (|S| <= k), in the canonical order, such
    that G + committed + S is conflict-free; None if there is none.

    ``conflicts`` is the set of pairs in conflict in G + committed.  Only
    they get an ellipse mask, the bits of the candidates in the checker's
    ``ellipses`` of the pair; every S that fixes the pair meets its mask.
    So an empty mask, or more than k pairwise disjoint masks in a greedy
    packing (smallest first), proves that there is no S, and a mask of one
    bit puts its edge in every S.  With such forced edges F the answer is
    this function's own for committed + F, the pairs still pending, the
    candidates but F and budget k - |F|: two sets of one size are ordered
    by the least element of their symmetric difference, which F does not
    touch, so F plus the first set for the rest is the first S.

    A combination is checked exactly only if it hits every ellipse mask.
    Each prefix of size - 1 intersects the masks it misses; the last index
    ranges over that intersection alone.
    """
    ordered = sorted(candidates)
    base = sorted(committed)
    pending = sorted(conflicts)
    at = {e: i for i, e in enumerate(ordered)}
    masks = [sum(1 << at[e] for e in checker.ellipses[p] if e in at) for p in pending]
    packed = used = 0
    for mask in sorted(masks, key=int.bit_count):
        if not mask & used:
            packed, used = packed + 1, used | mask
    if packed > k or 0 in masks:
        return None
    present = set(masks)
    forced = [e for i, e in enumerate(ordered) if 1 << i in present]
    if forced:
        base += forced
        rest = [e for i, e in enumerate(ordered) if 1 << i not in present]
        return first_conflict_free(checker, frozenset(checker.violated(base, pending)),
                                   rest, k - len(forced), base)
    if not pending:
        return frozenset(base)
    m = len(ordered)
    for size in range(1, min(k, m) + 1):
        for prefix in combinations(range(m - 1), size - 1):
            covered = 0
            for i in prefix:
                covered |= 1 << i
            start = prefix[-1] + 1 if prefix else 0
            tails = (1 << m) - (1 << start)
            for mask in masks:
                if not mask & covered:
                    tails &= mask
                    if not tails:
                        break
            while tails:
                low = tails & -tails
                combo = prefix + (low.bit_length() - 1,)
                s = [ordered[i] for i in combo]
                if next(checker.violated(base + s, pending), None) is None:
                    return frozenset(base + s)
                tails ^= low
    return None
