"""Stabilizer chains (base and strong generating set) for permutation groups.

The builder is a deterministic incremental Schreier-Sims: base points are
chosen as the smallest moved point not yet in the base, Schreier generators
are processed deepest-level-first in a fixed order, and transversals are
append-only.  Two builds from the same generator list therefore produce
identical chains and identical element enumeration order.

Hot paths work on raw 0-based image tuples through the kernel in
:mod:`.permutation`; :class:`Permutation` objects appear only at the public
surface.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .permutation import (
    Permutation,
    _check_degrees,
    _conjugates,
    _conjugators,
    _inv,
    _mult,
    _mult_by,
)

DEFAULT_ENUM_CAP = 2_000_000
ENUM_CAP_ENV = "SOLVCRIT_ENUM_CAP"


class EnumerationCapExceeded(RuntimeError):
    """Group is too large for element enumeration at the configured cap."""


def enumeration_cap() -> int:
    """Current enumeration cap (default 2e6, overridable via SOLVCRIT_ENUM_CAP)."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


class _Level:
    """One level of the chain: a base point with transversal and generators.

    The keys of ``transversal`` are the orbit of the base point, in
    discovery order.  ``inverses`` holds each transversal representative's
    inverse, computed once when its orbit point is added, for sifting and
    Schreier generators.
    """

    __slots__ = ("point", "gens", "transversal", "inverses", "pending")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple] = {point: identity}
        self.inverses: dict[int, tuple] = {point: identity}
        # Schreier-generator work queue of (orbit point, generator)
        self.pending: deque = deque()

    def sorted_reps(self) -> list[tuple]:
        """The transversal representatives, by sorted orbit point."""
        return [self.transversal[x] for x in sorted(self.transversal)]

    def add_generator(self, gen: tuple) -> None:
        self.gens.append(gen)
        self.pending.extend((x, gen) for x in self.transversal)
        self._extend_orbit()

    def _extend_orbit(self) -> None:
        # Transversals are append-only: reps for already-known points never
        # change, which keeps previously processed Schreier pairs valid.
        transversal = self.transversal
        inverses = self.inverses
        gens = self.gens
        orbit = list(transversal)
        for x in orbit:  # breadth first: new points are appended
            rep = transversal[x]
            for gen in gens:
                y = gen[x]
                if y not in transversal:
                    transversal[y] = new_rep = _mult(rep, gen)
                    inverses[y] = _inv(new_rep)
                    orbit.append(y)
                    self.pending.extend((y, g) for g in gens)


def _prefixed(prefixes: Iterable[tuple],
              runs: Iterable[Sequence[tuple]]) -> Iterator[tuple]:
    """prefix * rep for each rep of each run, with the prefixes taken in
    step with the runs, composed at C speed."""
    return itertools.chain.from_iterable(map(
        lambda prefix, reps: map(_mult_by(prefix), reps), prefixes, runs))


class StabilizerChain:
    """Base, transversals and strong generators of a permutation group."""

    __slots__ = ("degree", "_identity", "_levels")

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self._identity = tuple(range(degree))
        self._levels: list[_Level] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, generators: Sequence[tuple], degree: int, *,
              bound: float = math.inf) -> "StabilizerChain":
        """Chain of <generators>; ``bound``, the order of a group known to
        contain it, stops closing once the chain's order reaches it.

        Each transversal is at most the orbit of the true stabilizer, so a
        partial chain's order is at most |<generators>|.  Reaching the bound
        proves equality level by level: the stopped chain is a complete base
        and strong generating set, and every query on it is exact.
        """
        chain = cls(degree)
        chain.extend(generators, bound=bound)
        return chain

    def extend(self, generators: Iterable[tuple], *,
               bound: float = math.inf) -> None:
        """Adjoin generators and re-close the chain, up to ``bound``."""
        for gen in generators:
            self._insert(gen, 0)
        self._process_pending(bound)

    def _insert(self, g: tuple, entry: int) -> bool:
        """Sift g from ``entry`` and add a new strong generator if needed.

        ``g`` must fix the base points above ``entry``.  The sift residue
        generates (part of) every stabilizer from ``entry`` down to the level
        where sifting stuck, so it is recorded at each of those levels.
        """
        residue, stuck = self._sift(g, start=entry)
        if residue is None:
            return False
        if stuck == len(self._levels):
            point = min(i for i, j in enumerate(residue) if i != j)
            self._levels.append(_Level(point, self._identity))
        for level in range(entry, stuck + 1):
            self._levels[level].add_generator(residue)
        return True

    def _process_pending(self, bound: float) -> None:
        levels = self._levels
        order = self.order()
        while order < bound:
            level = None
            for i in range(len(levels) - 1, -1, -1):
                if levels[i].pending:
                    level = i
                    break
            if level is None:
                return
            lv = levels[level]
            x, gen = lv.pending.popleft()
            walked = _mult(lv.transversal[x], gen)
            y = gen[x]
            if walked == lv.transversal[y]:
                continue
            schreier = _mult(walked, lv.inverses[y])
            if self._insert(schreier, level + 1):
                # the order moves only when a strong generator is added
                order = self.order()

    def _sift(self, g: tuple, start: int = 0) -> tuple:
        """Reduce g by transversal representatives.

        Returns ``(residue, level)`` where ``residue`` is None when g sifts
        to the identity, else the first level whose transversal cannot absorb
        the remainder (== number of levels when a new level is needed).
        """
        levels = self._levels
        identity = self._identity
        for i in range(start, len(levels)):
            lv = levels[i]
            y = g[lv.point]
            if y == lv.point:
                continue
            rep_inv = lv.inverses.get(y)
            if rep_inv is None:
                return g, i
            g = _mult(g, rep_inv)
        if g == identity:
            return None, len(levels)
        return g, len(levels)

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        return math.prod(len(lv.transversal) for lv in self._levels)

    def contains_tuple(self, g: tuple) -> bool:
        _check_degrees(len(g), self.degree)
        return self._sift(g)[0] is None

    def iter_tuples(self) -> Iterator[tuple]:
        """All elements, exactly once, in the chain's deterministic order.

        An element is the product (deepest level first) of one transversal
        representative per level; orbit points are taken in sorted order with
        the top level varying fastest.
        """
        elements: Iterable[tuple] = (self._identity,)
        for lv in reversed(self._levels):
            elements = _prefixed(elements, itertools.repeat(lv.sorted_reps()))
        return iter(elements)

    def tuples_at(self, positions: Sequence[int]) -> Iterator[tuple]:
        """The tuples ``iter_tuples`` yields at ``positions``, in that order.

        A position is a mixed-radix number over the transversal sizes, the
        top level's digit varying fastest.  Each level splits off its digit
        and groups runs of positions that share the deeper digits (the
        prefix); each prefix's product is composed once, deepest level
        first, by ``_prefixed`` as in ``iter_tuples``.  Ascending positions
        share the most.
        """
        selected = []  # per level, top first: the reps of each prefix run
        for lv in self._levels:
            reps = lv.sorted_reps()
            n = len(reps)
            prefixes: list[int] = []
            runs: list[list] = []
            last = None
            for k in positions:
                prefix, digit = divmod(k, n)
                if prefix != last:
                    last = prefix
                    prefixes.append(prefix)
                    run = []
                    runs.append(run)
                run.append(reps[digit])
            selected.append(runs)
            positions = prefixes
        if any(positions):
            raise IndexError("position outside the group's enumeration")
        elements: Iterable[tuple] = [self._identity] * len(positions)
        for runs in reversed(selected):
            elements = _prefixed(elements, runs)
        return iter(elements)


@dataclass(frozen=True, eq=False)
class GroupHandle:
    """An immutable permutation group: generators plus an eagerly built chain.

    ``_classes`` is the class record; ``structure._class_partition``
    writes it and names its callers.
    """

    generators: tuple
    chain: StabilizerChain
    label: str | None = None
    _classes: tuple | None = field(init=False, default=None, repr=False)

    @property
    def degree(self) -> int:
        return self.chain.degree

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, p: Permutation) -> bool:
        return self.chain.contains_tuple(p.images)

    def __repr__(self) -> str:
        name = self.label or "group"
        return f"<{name}: degree {self.degree}, order {self.order()}>"


def build_group(generators: Sequence[Permutation],
                label: str | None = None) -> GroupHandle:
    """Build a group handle from a nonempty, degree-matched generator list.

    Deterministic: a fixed generator list always yields the same base
    (smallest moved point first) and the same enumeration order.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator list must be nonempty")
    degree = gens[0].degree
    for g in gens[1:]:
        _check_degrees(g.degree, degree)
    chain = StabilizerChain.build([g.images for g in gens], degree)
    return GroupHandle(gens, chain, label)


def _check_cap(group: GroupHandle) -> None:
    """Raise EnumerationCapExceeded if the group is above the cap.

    Every query that reads the group element by element calls this, also
    when it is served from the handle's class record.
    """
    order = group.order()
    limit = enumeration_cap()
    if order > limit:
        raise EnumerationCapExceeded(
            f"group order {order} exceeds enumeration cap {limit}; "
            f"raise {ENUM_CAP_ENV} or use class-based algorithms")


def _element_tuples(group: GroupHandle) -> Iterator[tuple]:
    """Every element's image tuple, exactly once, in enumeration order.

    The cap is checked before anything is enumerated.
    """
    _check_cap(group)
    return group.chain.iter_tuples()


def enumerate_elements(group: GroupHandle) -> Iterator[Permutation]:
    """Yield every element exactly once, in deterministic order."""
    return (Permutation._wrap(t) for t in _element_tuples(group))


def _normal_closure_tuples(parent_gens: Sequence[tuple],
                           seeds: Sequence[tuple], degree: int, *,
                           bound: float = math.inf) -> tuple:
    """Generators of the normal closure, as image tuples, and its chain,
    which stops closing at ``bound`` (see :meth:`StabilizerChain.build`)."""
    chain = StabilizerChain(degree)
    added: list[tuple] = []
    queue = deque(seeds)
    conjugators = _conjugators(parent_gens)
    while queue:
        h = queue.popleft()
        if chain.contains_tuple(h):
            continue
        chain.extend([h], bound=bound)
        added.append(h)
        queue.extend(_conjugates(h, conjugators))
    for h in added:
        if not all(map(chain.contains_tuple, _conjugates(h, conjugators))):
            raise AssertionError(
                "normal closure not conjugation-closed (builder bug)")
    return added, chain
