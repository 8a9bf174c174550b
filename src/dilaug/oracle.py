"""Brute-force exact solver: the ground truth the other engines are tested
against.  Deliberately free of pruning beyond the candidate set, and of the
shared conflict kernel: every subset gets the full per-subset check."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge
from .model import Instance, is_conflict_free
from .search import iter_subsets

DEFAULT_CANDIDATE_CAP = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The candidate cap was hit before the enumeration finished."""


@dataclass(frozen=True)
class Verdict:
    yes: bool
    solution: frozenset[Edge] | None = None

    @staticmethod
    def of(solution) -> "Verdict":
        return Verdict(True, frozenset(solution))

    @staticmethod
    def no() -> "Verdict":
        return Verdict(False)


def solve_min(inst: Instance, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> Verdict:
    """Enumerate subsets of non-edges of G by size, lexicographically, and
    return the first that verifies: a deterministic minimum-cardinality
    solution.  Intended for desk-scale instances only.
    """
    for examined, combo in enumerate(iter_subsets(inst.non_edges(), inst.k), start=1):
        if examined > max_candidates:
            raise SearchBudgetExceeded("budget exceeded")
        if is_conflict_free(inst, combo):
            return Verdict.of(combo)
    return Verdict.no()
