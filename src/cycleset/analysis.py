"""One-stop structural report for a cycle set."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import CONGRUENCE_MAX_N, CycleSet
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
    dehornoy_class: int
    group_order: int
    displacement_order: int
    group_nilpotent: bool
    displacement_nilpotent: bool
    prime_support_match: bool

    def to_dict(self) -> dict:
        """JSON-ready form, keys in field order, tuples as lists."""

        def plain(v):
            return [plain(x) for x in v] if isinstance(v, tuple) else v

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


def analyze(X: CycleSet) -> AnalysisReport:
    """Populate every report field.

    Simplicity is skipped (None) above ``CONGRUENCE_MAX_N``, the size cap of
    the congruence search.  The group order is read first: past the group
    cap it raises at once, before the cablings of the Dehornoy class are
    built.
    """
    group_order = X.perm_group.order
    return AnalysisReport(
        n=X.n,
        squaring_cycle_type=cycle_type(X.squaring_map),
        fixed_points=tuple(sorted(X.fixed_points)),
        decomposable=X.is_decomposable,
        decomposition=X.decomposition,
        latin=X.is_latin,
        simple=X.is_simple if X.n <= CONGRUENCE_MAX_N else None,
        retractable=not X.is_irretractable,
        dehornoy_class=X.dehornoy_class(),
        group_order=group_order,
        displacement_order=X.displacement_group.order,
        group_nilpotent=X.perm_group.is_nilpotent,
        displacement_nilpotent=X.displacement_group.is_nilpotent,
        prime_support_match=X.prime_support_match(),
    )
