"""Group constructors, the catalog name resolver, and group-definition files.

Every constructor validates the built group's order against the closed-form
value, and every file load enforces the file's declared order, so bad
generator data can never masquerade as the intended group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources

from .engine import GroupHandle, build_group
from .numbertheory import PrimePower
from .permutation import Permutation, _decimal, parse_cycles


class GroupFileError(ValueError):
    """Malformed group-definition file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class OrderGateError(ValueError):
    """Built group's order contradicts the declared or closed-form order."""


class UnknownGroupError(ValueError):
    """Catalog name does not resolve to a constructor or shipped file."""


def _gate(handle: GroupHandle, expected: int) -> GroupHandle:
    got = handle.order()
    if got != expected:
        raise OrderGateError(
            f"{handle.label or 'group'}: built order {got}, expected {expected}")
    return handle


# The largest catalog constructions, refused before anything of their size
# is built.  A chain for C_n or D_n stores about 2n^2 entries: C2000 and
# D2000 build in 0.7 s and 184 MB (53 MB at n = 1000).  S100 and A100 build
# in 3.4-3.7 s and 24 MB, and the build time grows with m.
_MAX_N = 2000
_MAX_M = 100


def make_cyclic(n: int) -> GroupHandle:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N}")
    images = tuple((i + 1) % n for i in range(n))
    return _gate(build_group([Permutation(images)], label=f"C{n}"), n)


def make_symmetric(m: int) -> GroupHandle:
    if m < 2:
        raise ValueError("need m >= 2")
    if m > _MAX_M:
        raise ValueError(f"need m <= {_MAX_M}")
    cycle = Permutation(tuple((i + 1) % m for i in range(m)))
    swap = parse_cycles("(1 2)", m)
    return _gate(build_group([cycle, swap], label=f"S{m}"),
                 math.factorial(m))


def make_alternating(m: int) -> GroupHandle:
    if m < 3:
        raise ValueError("need m >= 3")
    if m > _MAX_M:
        raise ValueError(f"need m <= {_MAX_M}")
    three = parse_cycles("(1 2 3)", m)
    if m == 3:
        gens = [three]
    elif m % 2:
        gens = [three, Permutation(tuple((i + 1) % m for i in range(m)))]
    else:
        rotate = list(range(m))
        for i in range(1, m):
            rotate[i] = i % (m - 1) + 1
        gens = [three, Permutation(tuple(rotate))]
    return _gate(build_group(gens, label=f"A{m}"), math.factorial(m) // 2)


def make_dihedral(n: int) -> GroupHandle:
    """Dihedral group of order 2n (faithful point actions for n = 1, 2 too)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N}")
    if n == 1:
        gens = [parse_cycles("(1 2)", 2)]
    elif n == 2:
        gens = [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)]
    else:
        rotation = Permutation(tuple((i + 1) % n for i in range(n)))
        reflection = Permutation(tuple((n - i) % n for i in range(n)))
        gens = [rotation, reflection]
    return _gate(build_group(gens, label=f"D{n}"), 2 * n)


def make_frobenius20() -> GroupHandle:
    """The Frobenius group of order 20 on 5 points (a 5-cycle and an
    order-4 point-normalizer)."""
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 3 5 4)", 5)]
    return _gate(build_group(gens, label="F20"), 20)


def _field_tables(q: int) -> tuple:
    """Addition and multiplication tables of GF(q), q = p^k.

    Element a encodes the polynomial over GF(p) whose coefficients are a's
    base-p digits, lowest first.  The modulus is the least monic irreducible
    x^k + tail in that encoding: the first tail whose quotient ring has no
    zero divisors, so the field construction is deterministic.
    """
    pp = PrimePower.of(q)
    p, k = pp.p, pp.k
    digits = [[a // p ** i % p for i in range(k)] for a in range(q)]

    def encode(coeffs) -> int:
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def product(a: int, b: int, tail: list) -> int:
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # x^k = -tail
            for j in range(k):
                prod[top - k + j] -= prod[top] * tail[j]
        return encode(prod[:k])

    add = [[encode(x + y for x, y in zip(da, db)) for db in digits]
           for da in digits]
    for tail in digits:
        mul = []
        for a in range(q):
            row = [product(a, b, tail) for b in range(q)]
            if a and 0 in row[1:]:
                break  # a zero divisor: x^k + tail is reducible
            mul.append(row)
        else:
            return add, mul
    raise AssertionError("no irreducible polynomial found")


def make_psl2(q: int) -> GroupHandle:
    """PSL(2, q) acting on the q + 1 points of the projective line.

    Point i (1-based) is the field element i - 1 for i <= q; point q + 1 is
    infinity.  Generators: translation x -> x + 1, scaling x -> v^2 x for the
    least primitive element v (the square keeps it inside PSL for odd q),
    and the inversion x -> -1/x.  Order is verified against
    q(q^2 - 1)/gcd(2, q-1).
    """
    if not 4 <= q <= 32:
        raise ValueError("need a prime power q with 4 <= q <= 32")
    add, mul = _field_tables(q)
    infinity = q  # 0-based index of the projective point at infinity

    def multiplicative_order(a: int) -> int:
        x, n = a, 1
        while x != 1:
            x, n = mul[x][a], n + 1
        return n

    nu = next(a for a in range(2, q) if multiplicative_order(a) == q - 1)
    nu2 = mul[nu][nu]

    def translation(x: int) -> int:
        return infinity if x == infinity else add[x][1]

    def scaling(x: int) -> int:
        return infinity if x == infinity else mul[nu2][x]

    def inversion(x: int) -> int:
        if x == infinity:
            return 0
        if x == 0:
            return infinity
        return add[mul[x].index(1)].index(0)

    gens = [Permutation(tuple(f(x) for x in range(q + 1)))
            for f in (translation, scaling, inversion)]
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    return _gate(build_group(gens, label=f"psl2:{q}"), expected)


@dataclass(frozen=True)
class GroupSpecFile:
    """Parsed group-definition file: a label, a degree, generator strings
    and an optional declared order (enforced at load time)."""

    label: str
    degree: int
    generator_strings: tuple
    expected_order: int | None = None


def parse_group_file(text: str) -> GroupSpecFile:
    """Parse the line-oriented group file grammar.

    Lines: ``label <string>``, ``degree <int>``, optional ``order <int>``,
    each at most once, and one ``gen <cycles>`` per generator; ``#``
    starts a comment.  Each ``<int>`` is ASCII decimal digits.
    """
    header: dict = {}  # keyword -> value, each at most once
    gens: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "gen":
            if "degree" not in header:
                raise GroupFileError("gen before degree", lineno)
            try:
                parse_cycles(rest, header["degree"])
            except ValueError as exc:
                raise GroupFileError(str(exc), lineno) from None
            gens.append(rest)
            continue
        if keyword == "label":
            if not rest:
                raise GroupFileError("label requires a value", lineno)
            value = rest
        elif keyword in ("degree", "order"):
            try:
                value = _decimal(rest)
            except ValueError:
                raise GroupFileError(f"bad {keyword} {rest!r}",
                                     lineno) from None
            if value < 1:
                raise GroupFileError(f"{keyword} must be positive", lineno)
        else:
            raise GroupFileError(f"unknown keyword {keyword!r}", lineno)
        if keyword in header:
            raise GroupFileError(f"repeated {keyword} line", lineno)
        header[keyword] = value
    for keyword in ("label", "degree"):
        if keyword not in header:
            raise GroupFileError(f"missing {keyword}")
    if not gens:
        raise GroupFileError("no generators")
    return GroupSpecFile(header["label"], header["degree"], tuple(gens),
                         header.get("order"))


def load_group(spec: GroupSpecFile) -> GroupHandle:
    """Build the group a spec file describes, enforcing its order gate."""
    gens = [parse_cycles(s, spec.degree) for s in spec.generator_strings]
    handle = build_group(gens, label=spec.label)
    if spec.expected_order is not None:
        _gate(handle, spec.expected_order)
    return handle


def load_group_file(path) -> GroupHandle:
    with open(path, encoding="utf-8") as fh:
        return load_group(parse_group_file(fh.read()))


def _shipped_group(name: str) -> GroupHandle:
    data = resources.files("solvcrit.data.groups").joinpath(f"{name}.grp")
    return load_group(parse_group_file(data.read_text(encoding="utf-8")))


_CATALOG_PATTERNS = (
    (re.compile(r"A([0-9]+)"), lambda m: make_alternating(int(m.group(1)))),
    (re.compile(r"S([0-9]+)"), lambda m: make_symmetric(int(m.group(1)))),
    (re.compile(r"C([0-9]+)"), lambda m: make_cyclic(int(m.group(1)))),
    (re.compile(r"D([0-9]+)"), lambda m: make_dihedral(int(m.group(1)))),
    (re.compile(r"F20"), lambda m: make_frobenius20()),
    (re.compile(r"psl2:([0-9]+)"), lambda m: make_psl2(int(m.group(1)))),
    (re.compile(r"M11"), lambda m: _shipped_group("m11")),
    (re.compile(r"M12"), lambda m: _shipped_group("m12")),
)


def catalog_group(name: str) -> GroupHandle:
    """Resolve a catalog name like ``A5``, ``S6``, ``D10``, ``C12``,
    ``F20``, ``psl2:7``, ``M11`` or ``M12`` to a built group."""
    for pattern, builder in _CATALOG_PATTERNS:
        match = pattern.fullmatch(name)
        if match:
            return builder(match)
    raise UnknownGroupError(f"unknown catalog group {name!r}")
