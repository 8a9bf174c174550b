"""Exact decision solvers for dilation t-augmentation of graph spanners."""

from .graph import Graph, GraphError, INF, ball, greedy_maximal_matching, norm_edge
from .model import (ConflictChecker, Instance, InstanceError,
                    MetricUndefinedError, Stretch, VerifyResult,
                    adjacent_conflicts, build_instance, stretch_limit,
                    verify_solution)
from .oracle import Verdict, solve_min
from .structured import (EngineInapplicable, solve_bounded_g, solve_bounded_gamma,
                         solve_tree_gamma)
from .kdd import (AnnotatedInstance, BlockingSet, NotKddFree,
                  branch_blocking, f_value, find_blocking_set, solve_kdd,
                  twin_reduce)
from .reductions import (GeneratedInstance, SourceProblem,
                         gen_diameter2_clique, gen_diameter2_weighted,
                         gen_dominating_set_star, gen_multicolored_clique,
                         gen_spanner_edgeless, lift_witness)
from .fileformat import (ParseError, parse_instance, parse_solution,
                         serialize_instance, serialize_solution)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
