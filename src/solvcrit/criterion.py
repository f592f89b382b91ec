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
C_G(x), since <x, y^c> = <x, y>^c for c in C_G(x).  It is also constant on
the generators of <y>: <x, y^k> = <x, y> when k is coprime to |y|, and
(y^c)^k = (y^k)^c, so an orbit closed under both maps is one verdict.
Both scans run through one core, ``_PairJudge.first_solvable``, which
judges one y per such orbit and tallies every scanned y with its orbit's
verdict, so the reports are exactly those of a scan that judges every y.
Each scan reads one class partition, one enumeration of G, and C_G(x) is
generated by elements of that same list that commute with x, swept until
their group has order |G| / |x^G|.  Scans are deterministic (enumeration
order, first hit wins).  The exhaustive recheck of a criterion
counterexample judges every distinct subgroup <x, y> with (x, y) in the
C x D rectangle.  It relies on no equivariance, only on the power
identity <x^j, y^k> = <x, y> for j, k coprime to |x|, |y|: it judges one
pair per (<x>, <y>).

Work a theorem settles is skipped: ``check_criterion`` judges nothing in a
solvable group, whose subgroups are all solvable, and a verdict's chain
stops closing at |G|, which proves <x, y> = G (see ``StabilizerChain``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .engine import GroupHandle, StabilizerChain
from .numbertheory import is_prime
from .permutation import Permutation, _conjugators, _mult_by
from .structure import (
    _centralizer_tuples,
    _class_partition,
    _positions_of_order,
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
    solvable subgroup; the verdict is confirmed by an exhaustive scan of
    every subgroup <x, y> of the C x D rectangle, not just the reduced one.
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
    rerunning the derived series.  ``elements`` is G as the scan lists it;
    the first time a scan needs C_G(x), its generators are swept from that
    list (``_centralizer_tuples``) and kept.
    """

    __slots__ = ("degree", "elements", "parent_order", "parent_solvable",
                 "centralizers")

    def __init__(self, group: GroupHandle, elements: Sequence[tuple]):
        self.degree = group.degree
        self.elements = elements
        self.parent_order = group.order()
        self.parent_solvable = is_solvable(group).solvable
        self.centralizers: dict = {}

    def verdict(self, x: tuple, y: tuple) -> tuple:
        order = StabilizerChain.build((x, y), self.degree,
                                      bound=self.parent_order).order()
        if order == self.parent_order:
            return order, self.parent_solvable
        return order, _solvability_tuples((x, y), self.degree, order).solvable

    def first_solvable(self, x: tuple, class_size: int, ys: Sequence[tuple],
                       outcomes: Counter) -> tuple | None:
        """The first y, in ``ys`` order, with <x, y> solvable, else None.

        ``class_size`` is |x^G|.  Every y on the way, the solvable one
        included, is tallied in ``outcomes`` with its verdict, so the tally
        is that of judging each y in turn.  A nonsolvable verdict is given
        to the whole orbit of y under C_G(x) and coprime powers, and later
        members of that orbit are tallied without being judged again.
        """
        known: dict = {}  # orbit member -> its orbit's verdict, once judged
        for y in ys:
            verdict = known.get(y)
            if verdict is None:
                verdict = self.verdict(x, y)
                if not verdict[1]:
                    self._mark_orbit(x, class_size, y, verdict, known)
            outcomes[verdict] += 1
            if verdict[1]:
                return y
        return None

    def _mark_orbit(self, x: tuple, class_size: int, y: tuple,
                    verdict: tuple, known: dict) -> None:
        # <x, y^c> = <x, y>^c for c in C_G(x), and <x, y^k> = <x, y> for k
        # coprime to |y|: one verdict per orbit.  The coprime powers are
        # marked first; since (y^c)^k = (y^k)^c, their C_G(x)-orbits close
        # the marked set under both maps.
        conjugators = self.centralizers.get(x)
        if conjugators is None:
            conjugators = _conjugators(_centralizer_tuples(
                self.elements, x, self.parent_order // class_size))
            self.centralizers[x] = conjugators
        stack = [y, *_coprime_powers(y)]
        for z in stack:
            known[z] = verdict
        while stack:
            by_z = _mult_by(stack.pop())
            for c, by_c_inv in conjugators:
                w = by_c_inv(by_z(c))
                if w not in known:
                    known[w] = verdict
                    stack.append(w)


def check_criterion(group: GroupHandle) -> CriterionReport:
    """Check every ordered pair of conjugacy classes for a solvable witness.

    In a solvable group every subgroup is solvable, so each witness is (C's
    representative, D's first member), and nothing is judged.  Otherwise x
    is C's representative and y ranges over D in enumeration order (sound
    by conjugation equivariance), one y judged per orbit of C_G(x) and of
    coprime powers; ``subgroups_examined`` counts every y scanned.  The
    first failing pair is rechecked exhaustively over C x D, one pair
    judged per (<x>, <y>) and no conjugation used, and reported as the
    counterexample.
    """
    classes = conjugacy_classes(group)
    refs = tuple(ClassRef(i, c.order_of_elements, c.size)
                 for i, c in enumerate(classes))
    members = [[m.images for m in c.members] for c in classes]
    judge = _PairJudge(group, [t for ys in members for t in ys])
    if judge.parent_solvable:
        witnesses = {(i, j): (c.representative, d.members[0])
                     for i, c in enumerate(classes)
                     for j, d in enumerate(classes)}
        return CriterionReport(holds=True, classes=refs,
                               pairs_checked=len(witnesses),
                               solvable_witnesses=witnesses,
                               subgroups_examined=len(witnesses))

    witnesses = {}
    tally: Counter = Counter()

    for i, class_c in enumerate(classes):
        x = class_c.representative
        for j, ys in enumerate(members):
            y = judge.first_solvable(x.images, class_c.size, ys, tally)
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
    """Confirm that no (x, y) in ``xs`` x ``ys`` generates solvably.

    The reduced scan's soundness rests on conjugation equivariance; this
    recheck uses no conjugation.  Its one assumption is the power identity
    <x^j, y^k> = <x, y> for j coprime to |x| and k coprime to |y|, so it
    skips each member that is a coprime power of an earlier member of its
    own class and judges every remaining pair: every distinct subgroup
    <x, y> of the rectangle is still judged.
    """
    ys = _cyclic_representatives(ys)
    for x in _cyclic_representatives(xs):
        for y in ys:
            if judge.verdict(x, y)[1]:
                raise AssertionError(
                    "reduced scan missed a solvable pair; conjugation "
                    "equivariance or the power identity violated "
                    "(engine bug)")


def _cyclic_representatives(members: Sequence[tuple]) -> list:
    # the members, in order, that are no coprime power of an earlier one
    # (coprime powers of a skipped member are coprime powers of a kept one)
    powers: set = set()
    kept = []
    for z in members:
        if z not in powers:
            kept.append(z)
            powers.update(_coprime_powers(z))
    return kept


def _coprime_powers(y: tuple) -> list:
    """y^k for 1 < k < |y| with gcd(k, |y|) = 1, in increasing k."""
    by_y = _mult_by(y)
    identity = tuple(range(len(y)))
    powers = [y]  # y^1, ..., y^|y| = identity
    while powers[-1] != identity:
        powers.append(by_y(powers[-1]))
    order = len(powers)
    return [p for k, p in enumerate(powers[1:-1], start=2)
            if math.gcd(k, order) == 1]


def verify_witness_pair(group: GroupHandle, a: int, b: int) -> WitnessReport:
    """Check that every (x, y) with |x| = a, |y| = b generates nonsolvably.

    The scan pairs each conjugacy-class representative x of order ``a`` with
    the elements of order ``b`` in enumeration order (sound by conjugation
    equivariance), judges one y per orbit of C_G(x) and of coprime powers,
    and stops at the first solvable subgroup found.  ``outcome_orders`` and
    ``pairs_checked`` count every y scanned with its orbit's verdict, so
    they equal those of a scan that judges each pair.
    """
    elements, partition = _class_partition(group)
    orders = {order for order, _positions in partition}
    for m in (a, b):
        if m not in orders:
            raise OrderNotInSpectrumError(
                f"no element of order {m} in the group")
    return _witness_report(_PairJudge(group, elements), partition, a, b)


def _witness_report(judge: _PairJudge, partition: tuple, a: int,
                    b: int) -> WitnessReport:
    # the scan behind verify_witness_pair and each search candidate
    elements = judge.elements
    ys = [elements[k] for k in _positions_of_order(partition, b)]
    outcomes: Counter = Counter()
    counterexample = None
    for order, positions in partition:
        if order != a:
            continue
        x = elements[positions[0]]
        y = judge.first_solvable(x, len(positions), ys, outcomes)
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
    judge = _PairJudge(group, elements)
    return [(a, b) for i, a in enumerate(orders) for b in orders[i:]
            if not (restrict_to_primes
                    and (a == b or not is_prime(a) or not is_prime(b)))
            and _witness_report(judge, partition, a, b).verified]
