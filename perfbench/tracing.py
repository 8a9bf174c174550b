"""Span tracing of dilaug's public functions, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` in every ``dilaug``
module namespace that binds it (``adjacent_conflicts``, for one, is bound
in ``model``, ``structured``, ``kdd`` and the package itself), so a call is
recorded whichever name it goes through.  ``restore`` puts the originals
back.  A target that no longer exists is reported absent, never an error,
so refactors of the package keep the benchmark running.

Spans (name, namespace called through, start, end, parent) are kept in
flat arrays in memory and written out by ``write_spans``; self time is the
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Canonical name -> (defining module, attribute path).  Engine entry points
# double as the route record: the engine that a ``cli.run`` span calls
# directly is the one ``auto`` chose.
TARGETS = {
    "cli.run": ("dilaug.cli", "run"),
    "fileformat.parse_instance": ("dilaug.fileformat", "parse_instance"),
    "model.build_instance": ("dilaug.model", "build_instance"),
    "graph.weighted_distances": ("dilaug.graph", "Graph.weighted_distances"),
    "graph.ball": ("dilaug.graph", "ball"),
    "model.is_conflict_free": ("dilaug.model", "is_conflict_free"),
    "model.adjacent_conflicts": ("dilaug.model", "adjacent_conflicts"),
    "model.verify_solution": ("dilaug.model", "verify_solution"),
    "search.first_conflict_free": ("dilaug.search", "first_conflict_free"),
    "search.iter_subsets": ("dilaug.search", "iter_subsets"),
    "oracle.solve_min": ("dilaug.oracle", "solve_min"),
    "structured.solve_tree_gamma": ("dilaug.structured", "solve_tree_gamma"),
    "structured.solve_bounded_gamma": ("dilaug.structured", "solve_bounded_gamma"),
    "structured.solve_bounded_g": ("dilaug.structured", "solve_bounded_g"),
    "kdd.solve_kdd": ("dilaug.kdd", "solve_kdd"),
    "kdd.find_blocking_set": ("dilaug.kdd", "find_blocking_set"),
    "kdd.branch_blocking": ("dilaug.kdd", "branch_blocking"),
    "kdd.twin_reduce": ("dilaug.kdd", "twin_reduce"),
    "reductions.gen_spanner_edgeless": ("dilaug.reductions", "gen_spanner_edgeless"),
    "reductions.gen_dominating_set_star": ("dilaug.reductions", "gen_dominating_set_star"),
    "reductions.gen_diameter2_clique": ("dilaug.reductions", "gen_diameter2_clique"),
    "reductions.gen_diameter2_weighted": ("dilaug.reductions", "gen_diameter2_weighted"),
}

ROUTES = {
    "brute": "oracle.solve_min",
    "tree": "structured.solve_tree_gamma",
    "bounded-gamma": "structured.solve_bounded_gamma",
    "bounded-g": "structured.solve_bounded_g",
    "kdd": "kdd.solve_kdd",
}

GENERATORS = tuple(name for name in TARGETS if name.startswith("reductions.gen_"))

# Generator functions: counted per yielded item, no span (their time is
# spent in the caller's loop).
COUNTED_GENERATORS = {"search.iter_subsets"}


# Per-target functions of (args, result) whose values are summed.
OBSERVERS = {
    "model.is_conflict_free": lambda args, res: 1 if res else 0,
    "graph.ball": lambda args, res: len(res) / args[0].n,
    "kdd.branch_blocking": lambda args, res: len(res),
    "kdd.twin_reduce": lambda args, res: len(res.candidates) / args[0].base.n,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_via = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, via: str, observe):
        name_id, via_id = self._id(name), self._id(via)
        names, vias, parents = self.span_name, self.span_via, self.span_parent
        starts, ends, stack, sums = self.span_start, self.span_end, self._stack, self.sums
        absent = self.absent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            vias.append(via_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    sums[name] += observe(args, result)
                except (AttributeError, TypeError, IndexError, ZeroDivisionError):
                    absent.add(name)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                sums[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``dilaug`` namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "dilaug" or name.startswith("dilaug."))}
        for name, (module_name, path) in TARGETS.items():
            owner = modules.get(module_name)
            attr_path = path.split(".")
            for part in attr_path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr_path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            if len(attr_path) > 1:
                bindings = [(owner, attr_path[-1], module_name.split(".")[-1])]
            else:
                bindings = [(mod, attr, mod_name.split(".")[-1])
                            for mod_name, mod in sorted(modules.items())
                            for attr, value in list(vars(mod).items()) if value is original]
            for holder, attr, via in bindings:
                if name in COUNTED_GENERATORS:
                    wrapper = self._count_wrapper(original, name)
                else:
                    wrapper = self._span_wrapper(original, name, via, OBSERVERS.get(name))
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def restore(self) -> None:
        """Put back every function ``install`` replaced."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- analysis ---------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], list[float]]:
        """(name, via) -> [calls, total seconds, self seconds].

        Totals count only outermost spans of a name, so a recursive call is
        not counted twice; self time subtracts every child span.
        """
        count = len(self.span_name)
        child = [0.0] * count
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        parents = self.span_parent
        for i in range(count):
            if parents[i] >= 0:
                child[parents[i]] += duration[i]
        stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        names, vias = self.span_name, self.span_via
        for i in range(count):
            entry = stats[(self.names[names[i]], self.names[vias[i]])]
            entry[0] += 1
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                entry[1] += duration[i]
            entry[2] += duration[i] - child[i]
        return stats

    def routes(self) -> dict[str, int]:
        """Engine entry calls made directly from ``cli.run``, by engine."""
        run_id = self._name_ids.get("cli.run")
        counts = dict.fromkeys(ROUTES, 0)
        by_name = {self._name_ids.get(fn): engine for engine, fn in ROUTES.items()}
        for i in range(len(self.span_name)):
            engine = by_name.get(self.span_name[i])
            p = self.span_parent[i]
            if engine is not None and p >= 0 and self.span_name[p] == run_id:
                counts[engine] += 1
        return counts

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tvia\tstart\tend\n")
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                          f"{self.names[self.span_via[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\n")


def _sum(stats, name: str, field: int, via: str | None = None) -> float:
    return sum(v[field] for (n, w), v in stats.items()
               if n == name and (via is None or w == via))


# Per-layer metrics: name -> (unit, how to read it).
# ("calls"|"total"|"self", target[, namespace]) read the span statistics;
# ("sum", target) reads an observer or counter sum; ("mean", target) is that
# sum per call; ("route", engine), ("setup",) and ("overhead",) are
# explained in ``summarize``.
LAYER_METRICS = {
    # search workload
    "model.is_conflict_free.calls": ("count", ("calls", "model.is_conflict_free")),
    "model.is_conflict_free.total_s": ("s", ("total", "model.is_conflict_free")),
    "model.is_conflict_free.hit_ratio": ("ratio", ("mean", "model.is_conflict_free")),
    "search.first_conflict_free.calls": ("count", ("calls", "search.first_conflict_free")),
    "search.first_conflict_free.self_s": ("s", ("self", "search.first_conflict_free")),
    "oracle.solve_min.total_s": ("s", ("total", "oracle.solve_min")),
    "structured.solve_bounded_gamma.total_s": ("s", ("total", "structured.solve_bounded_gamma")),
    "structured.solve_bounded_g.total_s": ("s", ("total", "structured.solve_bounded_g")),
    "structured.solve_tree_gamma.calls": ("count", ("calls", "structured.solve_tree_gamma")),
    "graph.ball.region_frac": ("ratio", ("mean", "graph.ball")),
    # kdd workload
    "kdd.solve_kdd.self_s": ("s", ("self", "kdd.solve_kdd")),
    "kdd.adjacent_conflicts.calls": ("count", ("calls", "model.adjacent_conflicts", "kdd")),
    "kdd.find_blocking_set.calls": ("count", ("calls", "kdd.find_blocking_set")),
    "kdd.branch_blocking.children": ("count", ("sum", "kdd.branch_blocking")),
    "kdd.twin_reduce.calls": ("count", ("calls", "kdd.twin_reduce")),
    "kdd.twin_reduce.candidate_frac": ("ratio", ("mean", "kdd.twin_reduce")),
    "search.iter_subsets.yielded": ("count", ("sum", "search.iter_subsets")),
    # verify workload
    "fileformat.parse_instance.self_s": ("s", ("self", "fileformat.parse_instance")),
    "model.build_instance.total_s": ("s", ("total", "model.build_instance")),
    "graph.weighted_distances.calls": ("count", ("calls", "graph.weighted_distances")),
    "graph.weighted_distances.total_s": ("s", ("total", "graph.weighted_distances")),
    "model.verify_solution.total_s": ("s", ("total", "model.verify_solution")),
    "model.adjacent_conflicts.calls": ("count", ("calls", "model.adjacent_conflicts")),
    "model.adjacent_conflicts.total_s": ("s", ("total", "model.adjacent_conflicts")),
    # cli: time in the front end itself, and which engine auto picked
    "cli.run.self_s": ("s", ("self", "cli.run")),
    **{f"cli.route.{engine}": ("count", ("route", engine)) for engine in ROUTES},
    # reductions: hardness generators, run during set-up only
    "reductions.gen.total_s": ("s", ("setup",)),
    "trace.overhead_ratio": ("ratio", ("overhead",)),
}


def summarize(loop: Tracer, passes: int, setup: Tracer, setups: int,
              overhead: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric as (value, unit), additive ones per pass over
    the corpus (per set-up for the generators), plus the absent metrics."""
    stats = loop.aggregate()
    routes = loop.routes()
    setup_stats = setup.aggregate()
    field = {"calls": 0, "total": 1, "self": 2}
    values: dict[str, tuple[float, str]] = {}
    absent = []
    for metric, (unit, (kind, *rest)) in LAYER_METRICS.items():
        if kind == "overhead":
            values[metric] = (overhead, unit)
            continue
        if kind == "setup":
            missing = all(name in setup.absent for name in GENERATORS)
        elif kind == "route":
            missing = "cli.run" in loop.absent or ROUTES[rest[0]] in loop.absent
        else:
            missing = rest[0] in loop.absent
        if missing:
            absent.append(metric)
            values[metric] = (0.0, unit)
            continue
        if kind == "setup":
            value = sum(_sum(setup_stats, name, 1) for name in GENERATORS) / setups
        elif kind == "route":
            value = routes[rest[0]] / passes
        elif kind == "sum":
            value = loop.sums[rest[0]] / passes
        elif kind == "mean":
            count = _sum(stats, rest[0], 0)
            value = loop.sums[rest[0]] / count if count else 0.0
        else:
            value = _sum(stats, rest[0], field[kind], *rest[1:]) / passes
        values[metric] = (value, unit)
    return values, absent
