"""Structural queries: derived series, solvability, classes, order spectrum."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .engine import (
    GroupHandle,
    StabilizerChain,
    _check_cap,
    _element_tuples,
    _normal_closure_tuples,
)
from .permutation import (
    Permutation,
    _conjugates,
    _conjugators,
    _inv,
    _mult,
    _mult_by,
    _tuple_order,
)


@dataclass(frozen=True)
class SolvabilityResult:
    """Verdict of the derived-series test.

    ``series_orders`` lists the orders of successive derived subgroups,
    starting with the group itself.  For a solvable group it ends in 1; for
    a nonsolvable group it ends where the series stabilizes at a repeated
    nontrivial order.
    """

    solvable: bool
    series_orders: tuple

    def __bool__(self) -> bool:
        return self.solvable


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugation orbit: representative, size, members, common element order.

    The representative is the earliest member in the group's enumeration
    order, and ``members`` is sorted by that same order.
    """

    representative: Permutation
    size: int
    members: tuple
    order_of_elements: int


@dataclass(frozen=True)
class OrderSpectrum:
    """The set of element orders occurring in a group."""

    orders: tuple
    group_order: int


def _commutator_tuples(gens: Sequence[tuple]) -> list[tuple]:
    """The commutators a^-1 b^-1 a b, in (a, b) order; the normal closure
    skips the identity and repeats, which its chain already contains."""
    pairs = [(_inv(g), g) for g in gens]
    return [_mult(_mult(_mult(a_inv, b_inv), a), b)
            for a_inv, a in pairs for b_inv, b in pairs]


def _centralizer_tuples(elements: Iterable[tuple], x: tuple,
                        order: int) -> list[tuple]:
    """Every element of the centralizer C_G(x), as image tuples.

    ``elements`` runs over all of G, and ``order`` is |C_G(x)| = |G| / |x^G|
    (orbit-stabilizer).  The sweep hands each element that commutes with
    x to the chain, whose sift adds it only when it lies outside, until
    the chain's order reaches ``order``; the stopped chain is then
    complete (see ``StabilizerChain.build``) and lists C_G(x).
    """
    by_x = _mult_by(x)
    chain = StabilizerChain(len(x))
    reached = 1
    for g in elements:
        if reached == order:
            break
        if by_x(g) == _mult(g, x):
            chain.extend([g], bound=order)
            reached = chain.order()
    if reached != order:
        raise AssertionError(
            "centralizer order differs from |G| / |class| (builder bug)")
    return list(chain.iter_tuples())


def _solvability_tuples(gen_tuples: Sequence[tuple], degree: int,
                        order: int) -> SolvabilityResult:
    orders = [order]
    gens = list(gen_tuples)
    while orders[-1] > 1:
        # the derived subgroup lies in the current term, whose order bounds
        # its chain: a perfect term stops closing at its own order
        gens, chain = _normal_closure_tuples(
            gens, _commutator_tuples(gens), degree, bound=orders[-1])
        next_order = chain.order()
        if next_order == orders[-1]:
            # the series is stuck at a perfect nontrivial subgroup
            orders.append(next_order)
            return SolvabilityResult(False, tuple(orders))
        orders.append(next_order)
    return SolvabilityResult(True, tuple(orders))


def is_solvable(group: GroupHandle) -> SolvabilityResult:
    """Decide solvability by iterating the derived series until it stabilizes."""
    gens = [g.images for g in group.generators]
    return _solvability_tuples(gens, group.degree, group.order())


def _class_partition(group: GroupHandle,
                     elements: list[tuple] | None = None) -> tuple:
    """The group's class record, checking the cap first.

    The record lists the conjugacy classes in ``conjugacy_classes`` order
    as (element order, sorted member positions), the positions an
    ``array("I")``.  This is its one writer: ``conjugacy_classes``,
    ``elements_of_order`` and the scans' ``_PairJudge`` call it, and the
    first call on a handle walks the record and keeps it there; only that
    call reads G, from ``elements`` when the caller has already listed G
    in enumeration order, else from its own enumeration.  Each class grows
    from its earliest member by a walk over its members that pops every
    conjugate it reaches from ``unassigned`` (element -> position); its
    order is its first member's.
    """
    _check_cap(group)
    if group._classes is not None:
        return group._classes
    if elements is None:
        elements = list(group.chain.iter_tuples())
    unassigned = {t: i for i, t in enumerate(elements)}
    conjugators = _conjugators([g.images for g in group.generators])

    classes = []
    for i, start in enumerate(elements):
        if unassigned.pop(start, None) is None:
            continue
        members_idx = [i]
        for k in members_idx:  # conjugates reached are appended
            for t in _conjugates(elements[k], conjugators):
                j = unassigned.pop(t, None)
                if j is not None:
                    members_idx.append(j)
        members_idx.sort()
        classes.append((_tuple_order(start), array("I", members_idx)))
    classes.sort(key=lambda c: (c[0], len(c[1]), c[1][0]))
    record = tuple(classes)
    object.__setattr__(group, "_classes", record)
    return record


def _positions_of_order(classes: Sequence, m: int) -> list:
    """Positions of the elements of order m, in enumeration order."""
    return sorted(k for order, positions in classes if order == m
                  for k in positions)


def conjugacy_classes(group: GroupHandle) -> list:
    """Partition of the group into conjugation orbits.

    Classes are sorted by (element order, size, first appearance in the
    enumeration order); each class representative is its earliest member.
    Requires the group to be within the enumeration cap.
    """
    elements = list(_element_tuples(group))  # every member is wrapped
    partition = _class_partition(group, elements)  # a fresh handle's walk
    classes = []
    for elt_order, members_idx in partition:
        members = tuple(map(Permutation._wrap,
                            map(elements.__getitem__, members_idx)))
        classes.append(ConjugacyClass(members[0], len(members), members,
                                      elt_order))
    return classes


def order_spectrum(group: GroupHandle) -> OrderSpectrum:
    """oe(G): the exact set of element orders of the group.

    Read from the class record once the handle has one (the cap is still
    checked).  A fresh handle gets one sweep of G's element orders and no
    record: ``solvcrit spectrum`` needs nothing more, and on M12 the sweep
    takes under half the walk's time.  ``_class_partition`` lists the
    queries that write the record.
    """
    if group._classes is None:
        orders = set(map(_tuple_order, _element_tuples(group)))
    else:
        orders = {order for order, _positions in _class_partition(group)}
    return OrderSpectrum(tuple(sorted(orders)), group.order())


def elements_of_order(group: GroupHandle, m: int) -> Iterator[Permutation]:
    """All elements of order exactly m, in enumeration order.

    Their positions come from the class record, which a call on a fresh
    handle walks and keeps, as every caller of ``_class_partition`` does;
    ``StabilizerChain.tuples_at`` composes only the elements at those
    positions, not the rest of G.
    """
    if m < 1:
        raise ValueError("order must be positive")
    positions = _positions_of_order(_class_partition(group), m)
    tuples = group.chain.tuples_at(positions)
    # a generator, so the elements are composed as the caller iterates
    return (Permutation._wrap(t) for t in tuples)
