"""Finite cycle sets: construction, structure theory, enumeration, and
verification of their combinatorial laws.

A cycle set is a finite set with a binary operation whose left
translations are bijective, satisfying (x*y)*(x*z) = (y*x)*(y*z), and
whose squaring map x -> x*x is bijective.  These structures are in
bijection with involutive non-degenerate set-theoretic solutions of the
Yang-Baxter equation; see :meth:`CycleSet.to_solution`.

Quick start::

    from cycleset import cycle_set, enumerate_cycle_sets

    X = cycle_set([[0, 1, 3, 2], [2, 3, 1, 0], [1, 0, 2, 3], [3, 2, 0, 1]])
    X.is_indecomposable      # True
    X.squaring_map           # (1, 3, 2, 0) acting 0->1->3->2->0
    enumerate_cycle_sets(4).count
"""

from ._version import __version__
from .perm import (
    OrderCapExceeded,
    Perm,
    PermGroup,
    compose,
    cycle_type,
    cycles,
    fixed_points,
    from_cycles,
    identity,
    inverse,
    perm_order,
    power,
    prime_support,
)
from .core import (
    Congruence,
    CycleSet,
    InvalidCycleSet,
    SolutionPair,
    canonical_form,
    canonical_relabeling,
    cycle_set,
    direct_product,
    is_isomorphic,
    relabel,
    trivial_cycle_set,
    validate_table,
)
from .brace import (
    BraceConstructionError,
    BraceOrderCapExceeded,
    CycleBase,
    GroupBrace,
    InvalidBrace,
    LeftBrace,
    brace_is_isomorphic,
    brace_of_cycle_set,
    coset_construction,
    cycle_bases,
    cyclic_brace,
    direct_product_brace,
    left_brace,
    pp_brace,
)
from .analysis import AnalysisReport, analyze
from .enumeration import (
    Census,
    EnumerationFilter,
    SearchCancelled,
    brute_force_census,
    enumerate_cycle_sets,
    scan_cycle_sets,
    size_cap,
)
from .verify import (
    CHECKERS,
    Counterexample,
    Verdict,
    run_all,
    run_checker,
)

__all__ = [
    "__version__",
    # permutations
    "Perm", "PermGroup", "OrderCapExceeded", "compose", "inverse", "power",
    "identity", "cycles", "cycle_type", "perm_order", "fixed_points",
    "from_cycles", "prime_support",
    # cycle sets
    "CycleSet", "InvalidCycleSet", "SolutionPair",
    "Congruence", "cycle_set", "validate_table", "trivial_cycle_set",
    "direct_product", "relabel", "canonical_relabeling", "canonical_form",
    "is_isomorphic",
    # braces
    "LeftBrace", "InvalidBrace", "BraceConstructionError",
    "BraceOrderCapExceeded", "GroupBrace",
    "CycleBase", "left_brace", "brace_of_cycle_set", "cycle_bases",
    "coset_construction", "cyclic_brace", "pp_brace", "direct_product_brace",
    "brace_is_isomorphic",
    # analysis
    "AnalysisReport", "analyze",
    # enumeration
    "Census", "EnumerationFilter", "SearchCancelled", "enumerate_cycle_sets",
    "scan_cycle_sets", "brute_force_census", "size_cap",
    # verification
    "CHECKERS", "Counterexample", "Verdict", "run_all", "run_checker",
]
