"""Immutable permutations of {1..n} with disjoint-cycle notation.

Points are 1-based in every public surface (cycle strings, ``support``,
``apply``); storage is a 0-based image tuple.  Composition is fixed once,
package-wide, as left-to-right application: ``(p * q)`` means "apply p,
then q", i.e. ``(p * q)(x) = q(p(x))``.

The private kernel below is the only compose, invert, conjugate, power and
order code in the package.  Composition runs at C speed: ``_mult_by(p)`` is
``operator.itemgetter(*p)``, the map q -> p * q, since
``(p * q)[i] = q[p[i]]``.  A hot loop with a fixed left factor builds that
getter once and calls it per element; ``_mult(p, q)`` builds it per call.
With a single index ``itemgetter`` returns a scalar, not a 1-tuple, so at
degree 1 ``_mult_by`` returns ``tuple`` instead (the only permutation of
one point is the identity, and ``tuple`` returns a tuple argument as is).
``_mult_by`` is the one place that builds an ``itemgetter``.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Sequence


class CycleParseError(ValueError):
    """Malformed or inconsistent cycle-notation input."""


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


def _mult_by(p: tuple) -> Callable[[tuple], tuple]:
    """The map q -> p * q (apply p, then q) for a fixed left factor p."""
    if len(p) == 1:
        return tuple
    return itemgetter(*p)


def _mult(p: tuple, q: tuple) -> tuple:
    # apply p, then q
    return _mult_by(p)(q)


def _inv(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _conjugators(gens: Sequence[tuple]) -> list:
    """(g, by_g_inv) for each g, with by_g_inv = _mult_by(g^-1) prebuilt,
    for ``_conjugates``; build it once per conjugating set."""
    return [(g, _mult_by(_inv(g))) for g in gens]


def _conjugates(t: tuple, conjugators: Sequence[tuple]) -> list:
    """t^g = g^-1 * t * g for each g of ``_conjugators``, in order.

    ``by_g_inv(by_t(g))``: ``by_t = _mult_by(t)`` is built once per t and
    serves every g.
    """
    by_t = _mult_by(t)
    return [by_g_inv(by_t(g)) for g, by_g_inv in conjugators]


def _tuple_order(p: tuple) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i] or p[i] == i:
            continue
        length = 1
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            length += 1
            j = p[j]
        order = math.lcm(order, length)
    return order


def _powers(y: tuple) -> list:
    """y, y^2, ..., y^|y| = identity."""
    by_y = _mult_by(y)
    powers = [y]
    for _ in range(_tuple_order(y) - 1):
        powers.append(by_y(powers[-1]))
    return powers


def _cyclic_generators(y: tuple) -> list:
    """The generators y^k of <y>, gcd(k, |y|) = 1, y first, in increasing k."""
    powers = _powers(y)
    return [p for k, p in enumerate(powers, start=1)
            if math.gcd(k, len(powers)) == 1]


def _decimal(text: str) -> int:
    """``text`` as an int when it is ASCII digits only ([0-9]+), else
    ValueError: ``int`` would also take a sign, underscores, surrounding
    whitespace and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _check_degrees(a: int, b: int) -> None:
    if a != b:
        raise DegreeMismatchError(f"degree mismatch: {a} vs {b}")


class Permutation:
    """A bijection of {1..n}, stored as the 0-based tuple of images."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        """Build from 0-based images: point i maps to images[i] (both 0-based)."""
        img = tuple(images)
        n = len(img)
        if n == 0:
            raise ValueError("degree must be at least 1")
        seen = [False] * n
        for x in img:
            if not 0 <= x < n or seen[x]:
                raise ValueError(f"images {img!r} are not a bijection of 0..{n - 1}")
            seen[x] = True
        self._images = img

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls._wrap(tuple(range(degree)))

    @classmethod
    def _wrap(cls, images: tuple) -> "Permutation":
        # fast path for internally-produced image tuples, skips validation
        p = object.__new__(cls)
        p._images = images
        return p

    @property
    def images(self) -> tuple:
        """The 0-based image tuple (``images[i]`` is where 0-based point i goes)."""
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self._images):
            raise ValueError(f"point {point} out of range 1..{len(self._images)}")
        return self._images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self, then other."""
        _check_degrees(self.degree, other.degree)
        return Permutation._wrap(_mult(self._images, other._images))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inv(self._images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(len(self._images)))
        base = self._images
        while k:
            if k & 1:
                result = _mult(result, base)
            base = _mult(base, base)
            k >>= 1
        return Permutation._wrap(result)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self._images))

    def order(self) -> int:
        """Least k >= 1 with p**k = identity; the lcm of the cycle lengths."""
        return _tuple_order(self._images)

    def support(self) -> frozenset:
        """The 1-based points moved by this permutation."""
        return frozenset(i + 1 for i, j in enumerate(self._images) if i != j)

    def cycles(self) -> tuple:
        """Disjoint cycles of length >= 2, as 1-based tuples.

        Each cycle starts at its smallest point; cycles are sorted by that
        point, so the decomposition is canonical.
        """
        img = self._images
        seen = [False] * len(img)
        out = []
        for i in range(len(img)):
            if seen[i] or img[i] == i:
                continue
            cycle = [i + 1]
            seen[i] = True
            j = img[i]
            while j != i:
                seen[j] = True
                cycle.append(j + 1)
                j = img[j]
            out.append(tuple(cycle))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"parse_cycles({format_cycles(self)!r}, {self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation into a permutation of {1..degree}.

    Grammar: ``perm := cycle*`` with ``cycle := '(' int (ws int)* ')'``;
    integers are 1-based points in ASCII decimal, whitespace-separated.
    Points may appear in at most one cycle; unlisted points are fixed.  The
    empty string and ``()`` both denote the identity.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    images = list(range(degree))
    used = [False] * degree

    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise CycleParseError(f"expected '(' at position {pos}, got {ch!r}")
        close = text.find(")", pos)
        if close < 0:
            raise CycleParseError(f"unclosed cycle starting at position {pos}")
        body = text[pos + 1:close]
        pos = close + 1
        points = []
        for token in body.split():
            try:
                point = _decimal(token)
            except ValueError:
                raise CycleParseError(f"invalid point {token!r}") from None
            if not 1 <= point <= degree:
                raise CycleParseError(
                    f"point {point} out of range 1..{degree}")
            if used[point - 1]:
                raise CycleParseError(f"point {point} repeated")
            used[point - 1] = True
            points.append(point - 1)
        for i, a in enumerate(points):
            images[a] = points[(i + 1) % len(points)]

    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Canonical cycle string; the identity prints as ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
