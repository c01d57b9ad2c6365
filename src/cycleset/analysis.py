"""One-stop structural report for a cycle set."""

from __future__ import annotations

from dataclasses import dataclass

from .core import CONGRUENCE_MAX_N, CycleSet, DehornoyCapExceeded
from .perm import cycle_type


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    squaring_cycle_type: tuple[int, ...]
    fixed_points: tuple[int, ...]
    decomposable: bool
    decomposition: tuple[tuple[int, ...], ...] | None
    latin: bool
    simple: bool | None
    retractable: bool
    dehornoy_class: int | None
    group_order: int
    displacement_order: int
    group_nilpotent: bool
    displacement_nilpotent: bool
    prime_support_match: bool

    def to_dict(self) -> dict:
        """JSON-ready form with stable key order."""
        return {
            "n": self.n,
            "squaring_cycle_type": list(self.squaring_cycle_type),
            "fixed_points": list(self.fixed_points),
            "decomposable": self.decomposable,
            "decomposition": (
                None
                if self.decomposition is None
                else [list(part) for part in self.decomposition]
            ),
            "latin": self.latin,
            "simple": self.simple,
            "retractable": self.retractable,
            "dehornoy_class": self.dehornoy_class,
            "group_order": self.group_order,
            "displacement_order": self.displacement_order,
            "group_nilpotent": self.group_nilpotent,
            "displacement_nilpotent": self.displacement_nilpotent,
            "prime_support_match": self.prime_support_match,
        }


def analyze(X: CycleSet) -> AnalysisReport:
    """Populate every report field.

    Simplicity is skipped (None) above ``CONGRUENCE_MAX_N``, the size cap of
    the congruence search; the Dehornoy class is None when the capped scan
    gives up, which only happens on decomposable inputs.
    """
    retract, _ = X.retraction()
    try:
        d = X.dehornoy_class()
    except DehornoyCapExceeded:
        d = None
    return AnalysisReport(
        n=X.n,
        squaring_cycle_type=cycle_type(X.squaring_map),
        fixed_points=tuple(sorted(X.fixed_points)),
        decomposable=X.is_decomposable,
        decomposition=X.decomposition,
        latin=X.is_latin,
        simple=X.is_simple if X.n <= CONGRUENCE_MAX_N else None,
        retractable=retract.n < X.n,
        dehornoy_class=d,
        group_order=X.perm_group.order,
        displacement_order=X.displacement_group.order,
        group_nilpotent=X.perm_group.is_nilpotent,
        displacement_nilpotent=X.displacement_group.is_nilpotent,
        prime_support_match=X.prime_support_match(),
    )
