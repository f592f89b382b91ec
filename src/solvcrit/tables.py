"""Expected-outcome tables: rows of (group, a, b, allowed subgroup orders).

A row claims that every pair of elements of orders a and b in the named
group generates a nonsolvable subgroup whose order is one of the allowed
values.  Rows marked ``beyond-desk`` describe groups too large to check by
enumeration and are reported SKIPPED, never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

from .catalog import UnknownGroupError, catalog_group
from .criterion import WitnessReport, verify_witness_pair
from .engine import GroupHandle, enumeration_cap

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class TableFormatError(ValueError):
    """Malformed expected-outcome table file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ExpectedOutcomeRow:
    """One table row: the order pair to check and the orders allowed to
    appear among the generated subgroups."""

    group_label: str
    a: int
    b: int
    allowed_orders: frozenset
    outcome_labels: tuple = ()
    desk_scale: bool = True

    def __post_init__(self):
        if not self.allowed_orders:
            raise TableFormatError(
                f"{self.group_label}: allowed_orders must be nonempty")
        if any(n <= 1 for n in self.allowed_orders):
            raise TableFormatError(
                f"{self.group_label}: allowed orders must exceed 1")
        if self.a < 1 or self.b < 1:
            raise TableFormatError(
                f"{self.group_label}: element orders must be positive")


@dataclass(frozen=True)
class RowResult:
    row: ExpectedOutcomeRow
    status: str
    reason: str = ""
    report: WitnessReport | None = None


def parse_expected_table(text: str) -> list:
    """Parse the tab-separated table format.

    Columns: group label, a, b, comma-separated outcome labels,
    comma-separated allowed orders, scale (``desk`` or ``beyond-desk``).
    ``#`` lines are comments.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise TableFormatError(
                f"expected 6 tab-separated columns, got {len(parts)}", lineno)
        label, a_s, b_s, outcomes, orders, scale = parts
        try:
            a, b = int(a_s), int(b_s)
            allowed = frozenset(int(x) for x in orders.split(","))
        except ValueError:
            raise TableFormatError("bad integer field", lineno) from None
        if scale not in ("desk", "beyond-desk"):
            raise TableFormatError(f"bad scale {scale!r}", lineno)
        rows.append(ExpectedOutcomeRow(
            group_label=label, a=a, b=b, allowed_orders=allowed,
            outcome_labels=tuple(outcomes.split(",")),
            desk_scale=(scale == "desk")))
    if not rows:
        raise TableFormatError("table has no rows")
    return rows


def shipped_table_text() -> str:
    return resources.files("solvcrit.data").joinpath(
        "expected_outcomes.tsv").read_text(encoding="utf-8")


def load_shipped_table() -> list:
    return parse_expected_table(shipped_table_text())


def verify_expected_table(rows: Sequence[ExpectedOutcomeRow],
                          resolve: Callable[[str], GroupHandle] | None = None,
                          ) -> list:
    """Check each desk-scale row with ``verify_witness_pair``.

    A row passes when the pair verifies (no solvable subgroup) and every
    observed subgroup order is allowed.  Beyond-desk rows, and rows whose
    group exceeds the enumeration cap, are reported SKIPPED with a reason.
    """
    resolve = resolve or catalog_group
    results = []
    for row in rows:
        if not row.desk_scale:
            results.append(RowResult(row, SKIPPED, "beyond desk scale"))
            continue
        try:
            group = resolve(row.group_label)
        except UnknownGroupError as exc:
            raise UnknownGroupError(
                f"desk-scale row {row.group_label!r} is unresolvable") from exc
        if group.order() > enumeration_cap():
            results.append(RowResult(
                row, SKIPPED,
                f"order {group.order()} exceeds enumeration cap"))
            continue
        report = verify_witness_pair(group, row.a, row.b)
        observed = report.orders()
        stray = observed - row.allowed_orders
        if report.verified and not stray:
            results.append(RowResult(row, PASS, report=report))
        elif not report.verified:
            x, y = report.counterexample
            results.append(RowResult(
                row, FAIL,
                f"solvable subgroup generated by {x} and {y}",
                report=report))
        else:
            results.append(RowResult(
                row, FAIL,
                f"unexpected subgroup orders {sorted(stray)}",
                report=report))
    return results
