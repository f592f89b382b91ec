"""Solvability-criterion checking and nonsolvable witness-pair search.

Two predicates drive everything here:

* ``check_criterion``: for every ordered pair of conjugacy classes (C, D),
  is there x in C and y in D with <x, y> solvable?  A finite group satisfies
  this for all pairs exactly when it is solvable.
* ``verify_witness_pair``: do all pairs (x, y) with |x| = a, |y| = b generate
  a nonsolvable subgroup?  Such (a, b) exist in every nonabelian simple group.

The class-pair and witness scans run through one core,
``_PairJudge.first_solvable``.  With x fixed, it judges y in order; after
a nonsolvable verdict, every y' in y's orbit (``mark_orbit``) is settled
with it.  Every scanned y is tallied with its verdict, so the reports are
those of a scan that judges every y, and scans are deterministic
(enumeration order, first hit wins).

The scans rest on conjugation equivariance, <x^g, y^g> = <x, y>^g: x is a
class representative, and ``mark_orbit`` names y's orbit under the
generators of <y> (<x, y^k> = <x, y> for k coprime to |y|) and under
C_G(x).  C_G(x) is listed on the first nonsolvable verdict for x, from a
chain on the elements that commute with x, in a sweep that streams G's
enumeration.  Marking costs phi(|y|) |C_G(x)| conjugations per judged y.

The exhaustive recheck of a criterion counterexample (C, D) rests on
equalities of subgroups alone: replacing a generator by a coprime power of
itself, or by its conjugate under the other generator, keeps the subgroup,
<x, y> = <x^k, y> = <y^-1 x y, y> = <x, x^-1 y x>.  It judges the cells
of C x D in row-major order with ``_PairJudge.verdict``, and one verdict
settles every cell that these moves reach, so every distinct subgroup
<x, y> of the rectangle is still judged.

Work a theorem settles is skipped.  ``check_criterion`` judges nothing in
a solvable group, whose subgroups are all solvable: it reads the class
record and composes only the class representatives.  A verdict's chain
stops closing at |G|, which proves <x, y> = G (see ``StabilizerChain``).
By Burnside's p^a q^b theorem a group whose order has at most two prime
divisors is solvable (``_burnside``), so neither G nor such a proper
<x, y> runs a derived series.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import GroupHandle, StabilizerChain, _check_cap
from .numbertheory import factorize, is_prime
from .permutation import (
    Permutation,
    _conjugates,
    _conjugators,
    _cyclic_generators,
    _inv,
    _mult_by,
)
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
    rerunning the derived series; a proper <x, y> whose order has at most
    two prime divisors is solvable by Burnside's theorem (``_burnside``),
    and only the rest run their derived series.  ``parent`` holds |G|'s
    primes and G's solvability: ``check_criterion`` hands in what it has
    decided, and other scans decide it on the first verdict.  The scans
    read G through ``classes``, its class record (read first, so the cap
    is checked first): x is each class's earliest member, and ``ys`` maps
    each scanned order to its elements, composed once from their positions
    (``_witness_report``).
    """

    __slots__ = ("chain", "classes", "degree", "group", "parent",
                 "parent_order", "centralizers", "ys")

    def __init__(self, group: GroupHandle):
        self.chain = group.chain
        self.classes = _class_partition(group)
        self.degree = group.degree
        self.group = group
        self.parent = None  # _parent_solvability(group), on first need
        self.parent_order = group.order()
        self.centralizers: dict = {}
        self.ys: dict = {}

    def verdict(self, x: tuple, y: tuple) -> tuple:
        order = StabilizerChain.build((x, y), self.degree,
                                      bound=self.parent_order).order()
        if self.parent is None:
            self.parent = _parent_solvability(self.group)
        primes, parent_solvable = self.parent
        if order == self.parent_order:
            return order, parent_solvable
        if _burnside(primes, order):
            return order, True
        return order, _solvability_tuples((x, y), self.degree, order).solvable

    def mark_orbit(self, x: tuple, class_size: int, y: tuple) -> list:
        """y's orbit under C_G(x) and the generators of <y>, listed as the
        (y^k)^c, whose <x, (y^k)^c> = <x, y>^c share <x, y>'s verdict.

        C_G(x) is listed by a sweep of ``chain.iter_tuples()``
        (``_centralizer_tuples``) on the first call for x and kept;
        ``class_size`` is |x^G|.  A central x is never marked: <x, y> is
        abelian, so its first verdict is solvable.
        """
        conjugators = self.centralizers.get(x)
        if conjugators is None:
            conjugators = _conjugators(_centralizer_tuples(
                self.chain.iter_tuples(), x, self.parent_order // class_size))
            self.centralizers[x] = conjugators
        return [c for z in _cyclic_generators(y)
                for c in _conjugates(z, conjugators)]

    def first_solvable(self, x: tuple, class_size: int, ys: Iterable[tuple],
                       outcomes: Counter) -> tuple | None:
        """The first y, in ``ys`` order, with <x, y> solvable, else None.

        Each y up to and including it is tallied in ``outcomes`` with its
        verdict.  After a nonsolvable verdict, every y' in y's orbit
        (``mark_orbit``; ``class_size`` is |x^G|) is settled with that
        verdict, and no settled y is judged again.
        """
        known: dict = {}  # settled y -> its verdict
        for y in ys:
            verdict = known.get(y)
            if verdict is None:
                verdict = self.verdict(x, y)
                if not verdict[1]:
                    known.update(dict.fromkeys(
                        self.mark_orbit(x, class_size, y), verdict))
            outcomes[verdict] += 1
            if verdict[1]:
                return y
        return None


def _parent_solvability(group: GroupHandle) -> tuple:
    """(the prime divisors of |G|, whether G is solvable), with |G| factored
    once; G's derived series runs only where ``_burnside`` cannot decide."""
    order = group.order()
    primes = frozenset(factorize(order)) if order > 1 else frozenset()
    return primes, _burnside(primes, order) or is_solvable(group).solvable


def _burnside(primes: frozenset, order: int) -> bool:
    """Burnside's p^a q^b theorem: a group of ``order`` is solvable when at
    most two primes divide it.  ``order`` divides |G|, so only |G|'s
    ``primes`` can divide it."""
    return sum(order % p == 0 for p in primes) <= 2


def _class_refs(record: Sequence) -> tuple:
    return tuple(ClassRef(i, order, len(positions))
                 for i, (order, positions) in enumerate(record))


def check_criterion(group: GroupHandle) -> CriterionReport:
    """Check every ordered pair of conjugacy classes for a solvable witness.

    The cap is checked first, and G's solvability is decided once
    (``_parent_solvability``).  In a solvable group every subgroup is
    solvable, so each witness is (C's representative, D's representative)
    and nothing is judged: the report is read from the class record, and
    only the representatives are composed.  Otherwise x is C's
    representative and y ranges over D in enumeration order (sound by
    conjugation equivariance), one y judged per orbit of C_G(x) and of
    coprime powers; ``subgroups_examined`` counts every y scanned.  The
    first failing pair is rechecked over every subgroup <x, y> of C x D
    (``_recheck_counterexample``) and reported as the counterexample.
    """
    _check_cap(group)
    parent = _parent_solvability(group)
    if parent[1]:
        record = _class_partition(group)
        reps = list(map(Permutation._wrap, group.chain.tuples_at(
            [positions[0] for _order, positions in record])))
        witnesses = {(i, j): (x, y) for i, x in enumerate(reps)
                     for j, y in enumerate(reps)}
        return CriterionReport(holds=True, classes=_class_refs(record),
                               pairs_checked=len(witnesses),
                               solvable_witnesses=witnesses,
                               subgroups_examined=len(witnesses))

    classes = conjugacy_classes(group)  # a fresh handle's walk reads its list
    members = [[m.images for m in c.members] for c in classes]
    judge = _PairJudge(group)
    judge.parent = parent
    refs = _class_refs(judge.classes)
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
    """Confirm that no (x, y) in classes ``xs`` x ``ys`` generates solvably.

    It uses only equalities of subgroups, no conjugation equivariance.  A
    generator may be replaced by a coprime power of itself, so the
    rectangle is walked in cyclic cells: one row per cyclic group <x> and
    one column per <y>, named by their first members in ``xs`` and ``ys``.
    A generator may also be replaced by its conjugate under the other, as
    <x, y> = <x, x^-1 y x> = <y^-1 x y, y>.  The first unsettled cell, in
    row-major order, is judged with ``verdict``, and a nonsolvable verdict
    settles every cell that these two moves reach.  Each move permutes the
    cells, so forward moves reach the whole orbit, and one pair is judged
    per orbit: every distinct subgroup <x, y> of the rectangle is judged.
    """
    rows, row_of = _cyclic_cells(xs)
    cols, col_of = _cyclic_cells(ys)
    width = len(cols)
    row_maps = [(_mult_by(x), _mult_by(_inv(x))) for x in rows]
    col_maps = [(_mult_by(y), _mult_by(_inv(y))) for y in cols]
    settled = bytearray(len(rows) * width)  # cell r * width + c
    cell = settled.find(0)
    while cell >= 0:
        r, c = divmod(cell, width)
        if judge.verdict(rows[r], cols[c])[1]:
            raise AssertionError("reduced scan missed a solvable pair; "
                                 "equivariance violated (engine bug)")
        settled[cell] = 1
        stack = array("I", (cell,))
        while stack:  # settle every cell that the two moves reach
            r, c = divmod(stack.pop(), width)
            (by_x, by_x_inv), (by_y, by_y_inv) = row_maps[r], col_maps[c]
            for reached in (r * width + col_of[by_x_inv(by_y(rows[r]))],
                            row_of[by_y_inv(by_x(cols[c]))] * width + c):
                if not settled[reached]:
                    settled[reached] = 1
                    stack.append(reached)
        cell = settled.find(0, cell + 1)


def _cyclic_cells(members: Sequence[tuple]) -> tuple:
    """The members, in order, that are no coprime power of an earlier one,
    and a map from each member to the index of the one it is a power of."""
    index: dict = dict.fromkeys(members)
    kept = []
    for z in members:
        if index[z] is None:
            for p in _cyclic_generators(z):
                if p in index:
                    index[p] = len(kept)
            kept.append(z)
    return kept, index


def verify_witness_pair(group: GroupHandle, a: int, b: int) -> WitnessReport:
    """Check that every (x, y) with |x| = a, |y| = b generates nonsolvably.

    The scan pairs each conjugacy-class representative x of order ``a`` with
    the elements of order ``b`` in enumeration order (sound by conjugation
    equivariance), judges one y per orbit of C_G(x) and of coprime powers,
    and stops at the first solvable subgroup found.  ``outcome_orders`` and
    ``pairs_checked`` count every y scanned with its orbit's verdict, so
    they equal those of a scan that judges each pair.
    """
    orders = {order for order, _positions in _class_partition(group)}
    for m in (a, b):
        if m not in orders:
            raise OrderNotInSpectrumError(
                f"no element of order {m} in the group")
    return _witness_report(_PairJudge(group), a, b)


def _witness_report(judge: _PairJudge, a: int, b: int) -> WitnessReport:
    # the scan behind verify_witness_pair and each search candidate
    if b not in judge.ys:
        judge.ys[b] = list(judge.chain.tuples_at(
            _positions_of_order(judge.classes, b)))
    ys = judge.ys[b]
    classes = [positions for order, positions in judge.classes if order == a]
    xs = judge.chain.tuples_at([positions[0] for positions in classes])
    outcomes: Counter = Counter()
    counterexample = None
    for x, positions in zip(xs, classes):
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
    ``verify_witness_pair`` by one judge, so the candidates share its
    centralizers and its per-order y-lists (no verdict is shared).  The
    candidates run b-major, so each y-list is dropped after its last
    candidate (a, b) and the judge holds one at a time.
    """
    judge = _PairJudge(group)
    orders = sorted({order for order, _positions in judge.classes})
    found = []
    for j, b in enumerate(orders):
        found += [(a, b) for a in orders[:j + 1]
                  if not (restrict_to_primes
                          and (a == b or not is_prime(a) or not is_prime(b)))
                  and _witness_report(judge, a, b).verified]
        judge.ys.pop(b, None)
    return sorted(found)
