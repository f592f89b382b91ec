"""Solvability-criterion checking and nonsolvable witness-pair search.

Two predicates drive everything here:

* ``check_criterion``: for every ordered pair of conjugacy classes (C, D),
  is there x in C and y in D with <x, y> solvable?  A finite group satisfies
  this for all pairs exactly when it is solvable.
* ``verify_witness_pair``: do all pairs (x, y) with |x| = a, |y| = b generate
  a nonsolvable subgroup?  Such (a, b) exist in every nonabelian simple group.

Both reduce the pair scan by conjugation equivariance: <x, y> and
<x^g, y^g> are conjugate, hence share order and solvability.  So one side
of the scan is fixed to class representatives, and with x fixed, the
verdict is constant on the orbits of y under conjugation by the centralizer
C_G(x), since <x, y^c> = <x, y>^c for c in C_G(x).  Both scans run through
one core, ``_PairJudge.first_solvable``, which judges one y per C_G(x)-orbit
and tallies every scanned y with its orbit's verdict, so the reports are
exactly those of a scan that judges every y.  Each scan reads one class
partition, one enumeration of G.  Scans are deterministic (enumeration
order, first hit wins).  The exhaustive recheck of a criterion
counterexample judges every pair and relies on no equivariance.

Work a theorem settles is skipped: ``check_criterion`` judges nothing in a
solvable group, whose subgroups are all solvable, and a verdict's chain
stops closing at |G|, which proves <x, y> = G (see ``StabilizerChain``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .engine import GroupHandle, StabilizerChain
from .numbertheory import is_prime
from .permutation import Permutation, _conjugators, _mult
from .structure import (
    _centralizer_tuples,
    _class_partition,
    _solvability_tuples,
    conjugacy_classes,
    is_solvable,
)


class OrderNotInSpectrumError(ValueError):
    """Requested witness order does not occur in the group."""


@dataclass(frozen=True)
class ClassRef:
    """Identifies a conjugacy class within a report's sorted class list."""

    index: int
    order_of_elements: int
    size: int

    def __str__(self) -> str:
        return (f"class #{self.index} "
                f"(element order {self.order_of_elements}, size {self.size})")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the per-class-pair solvable-witness search.

    When ``holds``, ``solvable_witnesses`` maps every ordered class-index
    pair to one witnessing (x, y).  When it fails, ``counterexample`` names
    the first ordered pair (C, D) for which no x in C, y in D generate a
    solvable subgroup; the verdict is confirmed by an exhaustive scan of the
    full C x D rectangle, not just the reduced one.
    """

    holds: bool
    classes: tuple
    pairs_checked: int
    solvable_witnesses: dict = field(default_factory=dict)
    counterexample: tuple | None = None
    counterexample_rechecked: bool = False
    subgroups_examined: int = 0


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of checking one (a, b) order pair.

    ``outcome_orders`` is a multiset of (subgroup order, solvable) verdicts
    over the scanned pairs.  ``verified`` means no solvable subgroup was
    found; otherwise ``counterexample`` is the first (x, y), in scan order,
    whose subgroup is solvable.
    """

    a: int
    b: int
    verified: bool
    outcome_orders: dict
    counterexample: tuple | None = None
    pairs_checked: int = 0

    def orders(self) -> frozenset:
        """The set of subgroup orders observed."""
        return frozenset(order for order, _solvable in self.outcome_orders)


class _PairJudge:
    """(order, solvable) verdicts for two-generated subgroups of one group.

    <x, y>'s chain is bounded by |G|, so a pair generating G stops closing
    as soon as its order reaches |G|, and G's solvability is reused without
    rerunning the derived series.  Centralizer generators are computed the
    first time a scan needs them for an x, and kept.
    """

    __slots__ = ("degree", "gens", "parent_order", "parent_solvable",
                 "centralizers")

    def __init__(self, group: GroupHandle):
        self.degree = group.degree
        self.gens = group._gen_tuples
        self.parent_order = group.order()
        self.parent_solvable = is_solvable(group).solvable
        self.centralizers: dict = {}

    def verdict(self, x: tuple, y: tuple) -> tuple:
        order = StabilizerChain.build((x, y), self.degree,
                                      bound=self.parent_order).order()
        if order == self.parent_order:
            return order, self.parent_solvable
        return order, _solvability_tuples((x, y), self.degree, order).solvable

    def first_solvable(self, x: tuple, ys: Sequence[tuple],
                       outcomes: Counter, orbits: bool = True) -> tuple | None:
        """The first y, in ``ys`` order, with <x, y> solvable, else None.

        Every y on the way, the solvable one included, is tallied in
        ``outcomes`` with its verdict, so the tally is that of judging each
        y in turn.  With ``orbits``, ``ys`` must be closed under conjugation
        by C_G(x): a nonsolvable verdict is given to the whole C_G(x)-orbit
        of y, and later members of that orbit are tallied without being
        judged again.  Without it, every y is judged.
        """
        known = None  # per position in ys: its orbit's verdict, once judged
        for k, y in enumerate(ys):
            verdict = None if known is None else known[k]
            if verdict is None:
                verdict = self.verdict(x, y)
                if orbits and not verdict[1]:
                    if known is None:
                        known = [None] * len(ys)
                        position = {t: i for i, t in enumerate(ys)}
                    self._mark_orbit(x, k, verdict, ys, position, known)
            outcomes[verdict] += 1
            if verdict[1]:
                return y
        return None

    def _mark_orbit(self, x: tuple, k: int, verdict: tuple,
                    ys: Sequence[tuple], position: dict, known: list) -> None:
        # <x, y^c> = <x, y>^c for c in C_G(x): one verdict per orbit
        conjugators = self.centralizers.get(x)
        if conjugators is None:
            conjugators = _conjugators(_centralizer_tuples(
                self.gens, x, self.parent_order))
            self.centralizers[x] = conjugators
        known[k] = verdict
        stack = [k]
        while stack:
            z = ys[stack.pop()]
            for c, by_c_inv in conjugators:
                i = position[by_c_inv(_mult(z, c))]
                if known[i] is None:
                    known[i] = verdict
                    stack.append(i)


def check_criterion(group: GroupHandle) -> CriterionReport:
    """Check every ordered pair of conjugacy classes for a solvable witness.

    In a solvable group every subgroup is solvable, so each witness is (C's
    representative, D's first member), and nothing is judged.  Otherwise x
    is C's representative and y ranges over D in enumeration order (sound
    by conjugation equivariance), one y judged per C_G(x)-orbit;
    ``subgroups_examined`` counts every y scanned.  The first failing pair
    is rechecked exhaustively over all of C x D, every pair judged with no
    orbit reduction, and reported as the counterexample.
    """
    classes = conjugacy_classes(group)
    refs = tuple(ClassRef(i, c.order_of_elements, c.size)
                 for i, c in enumerate(classes))
    judge = _PairJudge(group)
    if judge.parent_solvable:
        witnesses = {(i, j): (c.representative, d.members[0])
                     for i, c in enumerate(classes)
                     for j, d in enumerate(classes)}
        return CriterionReport(holds=True, classes=refs,
                               pairs_checked=len(witnesses),
                               solvable_witnesses=witnesses,
                               subgroups_examined=len(witnesses))

    members = [[m.images for m in c.members] for c in classes]
    witnesses = {}
    tally: Counter = Counter()

    for i, class_c in enumerate(classes):
        x = class_c.representative
        for j, ys in enumerate(members):
            y = judge.first_solvable(x.images, ys, tally)
            if y is not None:
                witnesses[(i, j)] = (x, Permutation._wrap(y))
                continue
            _recheck_counterexample(judge, members[i], ys)
            return CriterionReport(
                holds=False, classes=refs, pairs_checked=len(witnesses) + 1,
                solvable_witnesses=witnesses,
                counterexample=(refs[i], refs[j]),
                counterexample_rechecked=True,
                subgroups_examined=sum(tally.values()))
    raise AssertionError("criterion holds on a nonsolvable group (engine bug)")


def _recheck_counterexample(judge: _PairJudge, xs: Sequence[tuple],
                            ys: Sequence[tuple]) -> None:
    # Exhaustive confirmation over the full rectangle; the reduced scan's
    # soundness rests on conjugation equivariance, this rests on nothing,
    # so it judges every pair without the orbit reduction.
    unused_tally: Counter = Counter()
    for x in xs:
        if judge.first_solvable(x, ys, unused_tally,
                                orbits=False) is not None:
            raise AssertionError(
                "reduced scan missed a solvable pair; conjugation "
                "equivariance violated (engine bug)")


def verify_witness_pair(group: GroupHandle, a: int, b: int) -> WitnessReport:
    """Check that every (x, y) with |x| = a, |y| = b generates nonsolvably.

    The scan pairs each conjugacy-class representative x of order ``a`` with
    the elements of order ``b`` in enumeration order (sound by conjugation
    equivariance), judges one y per C_G(x)-orbit and stops at the first
    solvable subgroup found.  ``outcome_orders`` and ``pairs_checked`` count
    every y scanned with its orbit's verdict, so they equal those of a scan
    that judges each pair.
    """
    elements, partition = _class_partition(group)
    orders = {order for order, _positions in partition}
    for m in (a, b):
        if m not in orders:
            raise OrderNotInSpectrumError(
                f"no element of order {m} in the group")
    return _witness_report(_PairJudge(group), elements, partition, a, b)


def _witness_report(judge: _PairJudge, elements: list, partition: list,
                    a: int, b: int) -> WitnessReport:
    # the scan behind verify_witness_pair and each search candidate; the
    # order-b classes' merged positions list order b in enumeration order
    ys = [elements[k] for k in sorted(
        k for order, positions in partition if order == b for k in positions)]
    outcomes: Counter = Counter()
    counterexample = None
    for order, positions in partition:
        if order != a:
            continue
        x = elements[positions[0]]
        y = judge.first_solvable(x, ys, outcomes)
        if y is not None:
            counterexample = (Permutation._wrap(x), Permutation._wrap(y))
            break
    return WitnessReport(a=a, b=b, verified=counterexample is None,
                         outcome_orders=dict(outcomes),
                         counterexample=counterexample,
                         pairs_checked=sum(outcomes.values()))


def search_witness_pairs(group: GroupHandle,
                         restrict_to_primes: bool = False) -> list:
    """All unordered order pairs {a, b} that verify as witness pairs.

    Pairs are drawn from the group's order spectrum (a = b permitted) and
    returned in lexicographic order.  With ``restrict_to_primes``, only
    pairs of distinct primes are tried.  Every candidate is scanned as in
    ``verify_witness_pair``, from the one class partition of the group and
    one shared set of verdicts and centralizers.
    """
    elements, partition = _class_partition(group)
    orders = sorted({order for order, _positions in partition})
    judge = _PairJudge(group)
    return [(a, b) for i, a in enumerate(orders) for b in orders[i:]
            if not (restrict_to_primes
                    and (a == b or not is_prime(a) or not is_prime(b)))
            and _witness_report(judge, elements, partition, a, b).verified]
