"""Solvability-criterion checking and nonsolvable witness-pair search.

Two predicates drive everything here:

* ``check_criterion``: for every ordered pair of conjugacy classes (C, D),
  is there x in C and y in D with <x, y> solvable?  A finite group satisfies
  this for all pairs exactly when it is solvable.
* ``verify_witness_pair``: do all pairs (x, y) with |x| = a, |y| = b generate
  a nonsolvable subgroup?  Such (a, b) exist in every nonabelian simple group.

Both reduce the pair scan by conjugation equivariance: <x, y> and
<x^g, y^g> are conjugate, hence share order and solvability, so one side of
the scan may be fixed to class representatives.  Scans are deterministic
(enumeration order, first hit wins), and both run through one core,
``_PairJudge.first_solvable``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import GroupHandle, StabilizerChain
from .numbertheory import is_prime
from .permutation import Permutation
from .structure import (
    ConjugacyClass,
    _solvability_tuples,
    conjugacy_classes,
    elements_of_order,
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
    """Memoized (order, solvable) verdicts for two-generated subgroups.

    The cache key is the sorted generator pair, so (x, y) and (y, x) share
    one verdict; caching cannot change any verdict.  A subgroup whose order
    equals the parent's order *is* the parent, so the parent's solvability
    is reused without rerunning the derived series.
    """

    __slots__ = ("degree", "parent_order", "parent_solvable", "cache")

    def __init__(self, group: GroupHandle):
        self.degree = group.degree
        self.parent_order = group.order()
        self.parent_solvable = is_solvable(group).solvable
        self.cache: dict = {}

    def verdict(self, x: tuple, y: tuple) -> tuple:
        key = (x, y) if x <= y else (y, x)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        order = StabilizerChain.build(key, self.degree).order()
        if order == self.parent_order:
            solvable = self.parent_solvable
        else:
            solvable = _solvability_tuples(key, self.degree, order).solvable
        result = (order, solvable)
        self.cache[key] = result
        return result

    def first_solvable(self, x: tuple, ys: Iterable[tuple],
                       outcomes: Counter) -> tuple | None:
        """The first y, in ``ys`` order, with <x, y> solvable, else None.

        Every verdict on the way, the solvable one included, is tallied in
        ``outcomes``.
        """
        for y in ys:
            verdict = self.verdict(x, y)
            outcomes[verdict] += 1
            if verdict[1]:
                return y
        return None


def check_criterion(group: GroupHandle) -> CriterionReport:
    """Check every ordered pair of conjugacy classes for a solvable witness.

    For each ordered pair (C, D) the scan fixes x at C's representative and
    ranges y over D in enumeration order (sound by conjugation equivariance).
    The first failing pair is rechecked exhaustively over all of C x D and
    reported as the counterexample.
    """
    classes = conjugacy_classes(group)
    refs = tuple(ClassRef(i, c.order_of_elements, c.size)
                 for i, c in enumerate(classes))
    judge = _PairJudge(group)
    witnesses: dict = {}
    tally: Counter = Counter()

    for i, class_c in enumerate(classes):
        x = class_c.representative
        for j, class_d in enumerate(classes):
            y = judge.first_solvable(
                x.images, (m.images for m in class_d.members), tally)
            if y is not None:
                witnesses[(i, j)] = (x, Permutation._wrap(y))
                continue
            _recheck_counterexample(judge, class_c, class_d)
            return CriterionReport(
                holds=False, classes=refs, pairs_checked=len(witnesses) + 1,
                solvable_witnesses=witnesses,
                counterexample=(refs[i], refs[j]),
                counterexample_rechecked=True,
                subgroups_examined=sum(tally.values()))

    return CriterionReport(holds=True, classes=refs,
                           pairs_checked=len(witnesses),
                           solvable_witnesses=witnesses,
                           subgroups_examined=sum(tally.values()))


def _recheck_counterexample(judge: _PairJudge, class_c: ConjugacyClass,
                            class_d: ConjugacyClass) -> None:
    # Exhaustive confirmation over the full rectangle; the reduced scan's
    # soundness rests on conjugation equivariance, this rests on nothing.
    ys = [m.images for m in class_d.members]
    unused_tally: Counter = Counter()
    for xm in class_c.members:
        if judge.first_solvable(xm.images, ys, unused_tally) is not None:
            raise AssertionError(
                "reduced scan missed a solvable pair; conjugation "
                "equivariance violated (engine bug)")


def verify_witness_pair(group: GroupHandle, a: int, b: int,
                        classes: Sequence[ConjugacyClass] | None = None,
                        ) -> WitnessReport:
    """Check that every (x, y) with |x| = a, |y| = b generates nonsolvably.

    The scan pairs each conjugacy-class representative of order ``a`` with
    every element of order ``b`` in enumeration order (sound by conjugation
    equivariance) and stops at the first solvable subgroup found.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    reps_a = [c.representative for c in classes if c.order_of_elements == a]
    if not reps_a:
        raise OrderNotInSpectrumError(f"no element of order {a} in the group")
    if not any(c.order_of_elements == b for c in classes):
        raise OrderNotInSpectrumError(f"no element of order {b} in the group")
    ys = [p.images for p in elements_of_order(group, b)]

    judge = _PairJudge(group)
    outcomes: Counter = Counter()
    counterexample = None
    for rep in reps_a:
        y = judge.first_solvable(rep.images, ys, outcomes)
        if y is not None:
            counterexample = (rep, Permutation._wrap(y))
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
    pairs of distinct primes are tried.
    """
    classes = conjugacy_classes(group)
    orders = sorted({c.order_of_elements for c in classes})
    candidates = []
    for i, a in enumerate(orders):
        for b in orders[i:]:
            if restrict_to_primes and (a == b or not is_prime(a)
                                       or not is_prime(b)):
                continue
            candidates.append((a, b))
    found = []
    for a, b in candidates:
        report = verify_witness_pair(group, a, b, classes=classes)
        if report.verified:
            found.append((a, b))
    return found
