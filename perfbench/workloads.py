"""Seeded inputs, operations and output checks for the benchmark workloads.

Every group a workload uses is built in set-up: its generators (from a
catalog constructor, or built here from public constructors) are conjugated
by a permutation of the points drawn from the seed, then passed to
``build_group``.  The program therefore sees only generated inputs, and every
check below compares against a fact about the abstract group (class sizes,
element counts, subgroup orders), which relabelling cannot change.  None of
the expected values is recorded program output; each one carries the
argument it rests on.

The ``ppd`` workload has no groups: the seed orders the cells of a fixed
(q, e) grid, so every seed does the same work in a different order.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter
from typing import Callable

WORKLOADS = ("witness", "criterion", "classes", "ppd")


@dataclass
class Op:
    """One operation: ``run`` calls the library, ``check`` lists problems
    with its result (an empty list means the result is correct)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Outcome:
    digest: str
    problems: list  # empty when the operation passed (or was not checked)
    seconds: float


@dataclass
class Workload:
    ops: list
    probe: list  # permutations for the permutation-kernel probe


# -- generic pass machinery ---------------------------------------------

def run_pass(ops: list, check: bool = True, tracer=None) -> list:
    """Run every operation once, back to back, timing each call alone.

    Each result is digested (and checked, if asked) as soon as its call
    returns, outside the timed call, then released, so a pass never holds
    more than one operation's result.  With a tracer, spans are recorded
    under the operation's index and only while the library call runs.
    """
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result, problems = op.run(), []
        except Exception as exc:  # a raising operation is a counted failure
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.op = None
        text = repr(_canonical(result)) if not problems else problems[0]
        if check and not problems:
            try:
                problems = op.check(result)
            except Exception as exc:  # a crashing check counts, never aborts
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        del result
        outcomes.append(Outcome(hashlib.sha256(text.encode()).hexdigest(),
                                problems, seconds))
    return outcomes


def _canonical(obj):
    """A form of a report whose repr is the same in every process."""
    if hasattr(obj, "images") and hasattr(obj, "cycles"):
        return obj.images
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _canonical(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, dict):
        return tuple(sorted((_canonical(k), _canonical(v))
                            for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(_canonical(x) for x in obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(x) for x in obj)
    return obj


# -- seeded input generation ---------------------------------------------

def relabel(sc, gens: list, rng: random.Random) -> list:
    """Conjugate every generator by one random permutation of the points."""
    points = list(range(gens[0].degree))
    rng.shuffle(points)
    sigma = sc.Permutation(points)
    sigma_inv = sigma.inverse()
    return [sigma_inv * g * sigma for g in gens]


def seeded_group(sc, gens: list, label: str, seed: int):
    rng = random.Random(f"{seed}:{label}")
    return sc.build_group(relabel(sc, gens, rng), label=label)


def _catalog(sc, name: str, seed: int):
    return seeded_group(sc, list(sc.catalog_group(name).generators), name,
                        seed)


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Least generator of the multiplicative group mod the prime p."""
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1)):
            return g
    raise ValueError(f"{p} has no primitive root")


def affine_gens(sc, p: int) -> list:
    """AGL(1, p) on the points 0..p-1: x -> x + 1 and x -> g x."""
    g = primitive_root(p)
    return [sc.Permutation([(x + 1) % p for x in range(p)]),
            sc.Permutation([g * x % p for x in range(p)])]


def wreath_gens(sc, base_degree: int, top) -> list:
    """S_m wr H in its imprimitive action on len(H-points) blocks of m.

    The base factor's generators act on the first block; ``top`` (a group
    handle on the blocks) permutes whole blocks.
    """
    m = base_degree
    blocks = top.degree
    n = m * blocks
    gens = []
    for g in sc.make_symmetric(m).generators:
        gens.append(sc.Permutation(list(g.images) + list(range(m, n))))
    for t in top.generators:
        gens.append(sc.Permutation([t.images[i // m] * m + i % m
                                    for i in range(n)]))
    return gens


# -- checks shared by the group workloads --------------------------------

def _order(p) -> int:
    return math.lcm(*(len(c) for c in p.cycles()))


def _closure(gens: list) -> set:
    """All elements of <gens>, by breadth-first multiplication of tuples."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _brute_solvable(elements: set) -> bool:
    """Derived series from the commutators of all element pairs."""
    current = elements
    while len(current) > 1:
        comms = set()
        for a in current:
            a_inv = tuple(sorted(range(len(a)), key=a.__getitem__))
            for b in current:
                b_inv = tuple(sorted(range(len(b)), key=b.__getitem__))
                # apply a^-1, b^-1, a, b in turn
                comms.add(tuple(b[a[b_inv[a_inv[i]]]] for i in range(len(a))))
        nxt = _closure(sorted(comms))
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def _check_verified(pairs: int, orders: set):
    def check(report) -> list:
        problems = []
        if not report.verified:
            problems.append(f"not verified: {report.counterexample}")
        if report.pairs_checked != pairs:
            problems.append(f"pairs_checked {report.pairs_checked} != {pairs}")
        got = {o for o, _solvable in report.outcome_orders}
        if got != orders:
            problems.append(f"outcome orders {sorted(got)} != {sorted(orders)}")
        if any(s for _o, s in report.outcome_orders):
            problems.append("a solvable outcome in a verified report")
        return problems
    return check


def _check_refuted(a: int, b: int, order: int):
    def check(report) -> list:
        if report.verified or report.counterexample is None:
            return ["not refuted"]
        x, y = report.counterexample
        problems = []
        if (_order(x), _order(y)) != (a, b):
            problems.append(f"counterexample orders {_order(x)}, {_order(y)}")
        sub = _closure([x.images, y.images])
        if len(sub) != order or not _brute_solvable(sub):
            problems.append(f"<x, y> has order {len(sub)}, expected a "
                            f"solvable subgroup of order {order}")
        if report.outcome_orders.get((len(sub), True), 0) != 1:
            problems.append("solvable outcome missing from the report")
        return problems
    return check


def _check_equal(expected):
    def check(result) -> list:
        return [] if result == expected else [f"{result!r} != {expected!r}"]
    return check


# -- witness --------------------------------------------------------------

# (group, a, b, pairs_checked, outcome orders).  A full scan checks
# (number of classes of order a) x (number of elements of order b) pairs.
# Class counts: M11 has one class of involutions and 1440 elements of order
# 11; A7 one class of 5-elements and 6! = 720 7-cycles; A6 two classes of
# order 3 and 144 elements of order 5.  In PSL(2, q) an element order d > 2
# dividing (q +- 1)/gcd(2, q-1) gives phi(d)/2 classes of size q(q -+ 1).
# Outcome orders: the subgroups whose order a*b divides (ATLAS maximal
# subgroup lists); every solvable candidate lacks the needed element orders.
VERIFIED = (
    ("M11", 2, 11, 1 * 1440, {660, 7920}),
    ("A7", 5, 7, 1 * 720, {2520}),
    ("A6", 3, 5, 2 * 144, {60, 360}),
    ("psl2:8", 9, 7, 3 * 216, {504}),
    ("psl2:9", 5, 4, 2 * 90, {360}),
    ("psl2:11", 6, 5, 1 * 264, {660}),
    ("psl2:13", 7, 6, 3 * 182, {1092}),
)

# (group, a, b, order of the refuting subgroup): an order-4 and an order-3
# element of PSL(2, 7) can generate S4; in A7 a double 3-cycle normalising a
# 7-cycle generates 7:3.
REFUTED = (("psl2:7", 4, 3, 24), ("A7", 3, 7, 21))

# Distinct-prime witness pairs.  A solvable <x, y> with p*q dividing its
# order has a Hall {p, q}-subgroup; for {3, 5}, {3, 11} the Hall subgroups
# of these orders are abelian, yet neither group has elements of order 15
# or 33.  {2, 11} in M11 and {2, 7} in A7 fail because the Sylow normalisers
# 11:5 and 7:3 hold no involution.  S3, D10 and 11:5 / 7:3 refute the rest.
SEARCHES = (("M11", [(2, 11), (3, 5), (3, 11)]),
            ("A7", [(2, 7), (3, 5), (5, 7)]))


def witness(sc, seed: int) -> Workload:
    names = sorted({v[0] for v in VERIFIED} | {r[0] for r in REFUTED})
    groups = {name: _catalog(sc, name, seed) for name in names}
    table = [row for row in sc.load_shipped_table() if row.group_label == "M11"]

    ops = []
    for name, a, b, pairs, orders in VERIFIED:
        g = groups[name]
        ops.append(Op(f"verify {name} ({a},{b})",
                      lambda g=g, a=a, b=b: sc.verify_witness_pair(g, a, b),
                      _check_verified(pairs, orders)))
    for name, a, b, order in REFUTED:
        g = groups[name]
        ops.append(Op(f"verify {name} ({a},{b})",
                      lambda g=g, a=a, b=b: sc.verify_witness_pair(g, a, b),
                      _check_refuted(a, b, order)))
    for name, expected in SEARCHES:
        g = groups[name]
        ops.append(Op(f"search {name} primes",
                      lambda g=g: sc.search_witness_pairs(
                          g, restrict_to_primes=True),
                      _check_equal(expected)))

    def check_table(results) -> list:
        if [r.status for r in results] != ["PASS"]:
            return [f"statuses {[(r.status, r.reason) for r in results]}"]
        return _check_verified(1440, {660, 7920})(results[0].report)

    ops.append(Op("verify_expected_table M11",
                  lambda: sc.verify_expected_table(table,
                                                   resolve=groups.__getitem__),
                  check_table))
    return Workload(ops, _probe_elements(sc, groups["M11"]))


# -- criterion ------------------------------------------------------------

# Solvable groups: the criterion holds, and since every subgroup is
# solvable the first y tried is always a witness, so the scan examines one
# subgroup per class pair.  Class counts: AGL(1, p) has p classes; D_n for
# even n has n/2 + 3; S4 wr C2 has 5*6/2 + 5 = 20; S3 wr S3 has 22 (the
# 3-coloured partitions of 3).
def _solvable_groups(sc, seed: int) -> list:
    out = []
    for p in (31, 43, 53):
        out.append((f"AGL(1,{p})", seeded_group(sc, affine_gens(sc, p),
                                                f"AGL(1,{p})", seed), p))
    out.append(("D60", _catalog(sc, "D60", seed), 60 // 2 + 3))
    out.append(("S4wrC2", seeded_group(
        sc, wreath_gens(sc, 4, sc.make_cyclic(2)), "S4wrC2", seed), 20))
    out.append(("S3wrS3", seeded_group(
        sc, wreath_gens(sc, 3, sc.make_symmetric(3)), "S3wrS3", seed), 22))
    return out


# Nonsolvable groups: the scan runs class by class in (element order, size)
# order and stops at the first class pair with no solvable witness, which it
# then rechecks over the whole rectangle.  A6: involutions pair solvably with
# everything, a 3-element with 1, 2, 3 and 4 (inside S4 and 3^2), but no
# solvable subgroup has order divisible by 15.  PSL(2, 8): none is divisible
# by 21.  PSL(2, 11): none by 22 (the 11-normaliser 11:5 has no involution).
# (group, first failing (order, size) pair, pairs_checked = i * k + j + 1).
NONSOLVABLE = (
    ("A6", ((3, 40), (5, 72)), 2 * 7 + 5 + 1),
    ("psl2:8", ((3, 56), (7, 72)), 2 * 9 + 3 + 1),
    ("psl2:11", ((2, 55), (11, 60)), 1 * 8 + 6 + 1),
)


def _check_holds(classes: int):
    def check(report) -> list:
        problems = []
        if not report.holds:
            problems.append(f"criterion fails at {report.counterexample}")
        if len(report.classes) != classes:
            problems.append(f"{len(report.classes)} classes != {classes}")
        if report.pairs_checked != classes * classes:
            problems.append(f"pairs_checked {report.pairs_checked}")
        if report.subgroups_examined != classes * classes:
            problems.append(f"subgroups_examined {report.subgroups_examined}")
        return problems
    return check


def _check_fails(pair: tuple, pairs_checked: int):
    def check(report) -> list:
        if report.holds or report.counterexample is None:
            return ["criterion holds for a nonsolvable group"]
        got = tuple((c.order_of_elements, c.size)
                    for c in report.counterexample)
        problems = []
        if got != pair:
            problems.append(f"counterexample classes {got} != {pair}")
        if not report.counterexample_rechecked:
            problems.append("counterexample not rechecked")
        if report.pairs_checked != pairs_checked:
            problems.append(f"pairs_checked {report.pairs_checked}")
        return problems
    return check


def criterion(sc, seed: int) -> Workload:
    ops = []
    probe_group = None
    for name, g, classes in _solvable_groups(sc, seed):
        if name == "D60":
            probe_group = g
        ops.append(Op(f"criterion {name}",
                      lambda g=g: sc.check_criterion(g), _check_holds(classes)))
    for name, pair, pairs_checked in NONSOLVABLE:
        g = _catalog(sc, name, seed)
        ops.append(Op(f"criterion {name}", lambda g=g: sc.check_criterion(g),
                      _check_fails(pair, pairs_checked)))
    return Workload(ops, _probe_elements(sc, probe_group))


# -- classes ----------------------------------------------------------------

# (order, size) of every conjugacy class (ATLAS; A8 from its cycle types).
CLASS_DATA = {
    "M12": {1: [1], 2: [396, 495], 3: [1760, 2640], 4: [2970, 2970],
            5: [9504], 6: [7920, 15840], 8: [11880, 11880], 10: [9504],
            11: [8640, 8640]},
    "A8": {1: [1], 2: [105, 210], 3: [112, 1120], 4: [1260, 2520],
           5: [1344], 6: [1680, 3360], 7: [2880, 2880], 15: [1344, 1344]},
    "M11": {1: [1], 2: [165], 3: [440], 4: [990], 5: [1584], 6: [1320],
            8: [990, 990], 11: [720, 720]},
}


def _check_classes(data: dict):
    expected = sorted((o, s) for o, sizes in data.items() for s in sizes)
    total = sum(s for _o, s in expected)

    def check(classes) -> list:
        problems = []
        got = sorted((c.order_of_elements, c.size) for c in classes)
        if got != expected:
            problems.append(f"(order, size) classes {got}")
        if sum(c.size for c in classes) != total:
            problems.append("class sizes do not sum to |G|")
        for c in classes:
            if len(c.members) != c.size or c.members[0] != c.representative:
                problems.append(f"malformed class of size {c.size}")
            elif _order(c.representative) != c.order_of_elements:
                problems.append("representative has the wrong order")
        return problems
    return check


def _check_spectrum(data: dict):
    orders = tuple(sorted(data))
    group_order = sum(sum(sizes) for sizes in data.values())

    def check(spectrum) -> list:
        if (spectrum.orders, spectrum.group_order) != (orders, group_order):
            return [f"spectrum {spectrum.orders} of |G| {spectrum.group_order}"]
        return []
    return check


def _check_elements(m: int, count: int):
    def check(elements) -> list:
        problems = []
        if len(elements) != count:
            problems.append(f"{len(elements)} elements of order {m} != {count}")
        if any(_order(p) != m for p in elements[::97]):
            problems.append(f"an element of the wrong order among order {m}")
        return problems
    return check


def classes(sc, seed: int) -> Workload:
    ops = []
    groups = {}
    for name, data in CLASS_DATA.items():
        g = groups[name] = _catalog(sc, name, seed)
        ops.append(Op(f"classes {name}", lambda g=g: sc.conjugacy_classes(g),
                      _check_classes(data)))
        ops.append(Op(f"spectrum {name}", lambda g=g: sc.order_spectrum(g),
                      _check_spectrum(data)))
        for m, sizes in data.items():
            ops.append(Op(f"elements_of_order {name} {m}",
                          lambda g=g, m=m: list(sc.elements_of_order(g, m)),
                          _check_elements(m, sum(sizes))))
    return Workload(ops, _probe_elements(sc, groups["M12"]))


# -- ppd --------------------------------------------------------------------

PPD_QMAX = 64
PPD_EMAX = 24
VALUE_LIMIT = 2**96
BRUTE_LIMIT = 10**8  # trial-division oracle only below this value


def _prime_power(q: int) -> tuple:
    ps = _prime_factors(q)
    if len(ps) != 1:
        return None
    p, k = ps[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def ppd_cells() -> list:
    """The fixed (q, e) grid: prime powers q <= 64, 2 <= e <= 24, q^e < 2^96."""
    return [(q, e) for q in range(2, PPD_QMAX + 1) if _prime_power(q)
            for e in range(2, PPD_EMAX + 1) if q**e < VALUE_LIMIT]


def _mobius(n: int) -> int:
    ps = _prime_factors(n)
    m = n
    for p in ps:
        m //= p
    return 0 if m != 1 else (-1) ** len(ps)


def _cyclotomic(n: int, base: int) -> int:
    num = den = 1
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu == 1:
                num *= base**d - 1
            elif mu == -1:
                den *= base**d - 1
    return num // den


def _probable_prime(r: int) -> bool:
    if r < 2:
        return False
    return all(pow(a, r - 1, r) == 1 for a in (2, 3, 5, 7) if a % r)


def _ppd_problems(primes: tuple, base: int, n: int) -> list:
    """Soundness and completeness of the primitive prime divisors of
    base^n - 1.  A prime dividing Phi_n(base) either has multiplicative
    order exactly n or divides n, so removing the claimed primes from
    Phi_n(base) must leave only primes of n."""
    problems = []
    if list(primes) != sorted(set(primes)):
        problems.append(f"not sorted and distinct: {primes}")
    for r in primes:
        if not _probable_prime(r) or pow(base, n, r) != 1 or any(
                pow(base, n // s, r) == 1 for s in _prime_factors(n)):
            problems.append(f"{r} is not a primitive prime divisor")
    rest = _cyclotomic(n, base)
    for r in primes:
        while r > 1 and rest % r == 0:
            rest //= r
    for s in _prime_factors(n):
        while rest % s == 0:
            rest //= s
    if rest != 1:
        problems.append(f"cofactor {rest} holds a missing primitive divisor")
    value = base**n - 1
    if value < BRUTE_LIMIT:
        brute = tuple(r for r in _prime_factors(value)
                      if all((base**i - 1) % r for i in range(1, n)))
        if brute != tuple(primes):
            problems.append(f"trial division gives {brute}")
    return problems


def _large(primes: tuple, q: int, e: int) -> tuple:
    square = None
    if e + 1 in primes and (q**e - 1) % ((e + 1) ** 2) == 0:
        square = (e + 1) ** 2
    return tuple(r for r in primes if r > e + 1), square


def _check_cell(q: int, e: int):
    p, k = _prime_power(q)

    def check(result) -> list:
        ppd, bppd, lpd, lbpd, zsig, lbpd_cf = result
        problems = _ppd_problems(ppd.primes, q, e)
        problems += _ppd_problems(bppd.primes, p, k * e)
        for name, big, small in (("lpd", lpd, ppd), ("lbpd", lbpd, bppd)):
            want = _large(small.primes, q, e)
            if (big.primes, big.square_entry) != want:
                problems.append(f"{name} {big} != {want}")
        if zsig != bppd.is_empty():
            problems.append(f"zsigmondy_empty {zsig} vs bppd {bppd}")
        if lbpd_cf is not None and lbpd_cf != lbpd.is_empty():
            problems.append(f"lbpd closed form {lbpd_cf} vs lbpd {lbpd}")
        return problems
    return check


def _cell(sc, q: int, e: int) -> tuple:
    return (sc.ppd(q, e), sc.bppd(q, e), sc.lpd(q, e), sc.lbpd(q, e),
            sc.zsigmondy_empty(q, e),
            sc.lbpd_empty_closed_form(q, e) if e >= 3 else None)


CYCLOTOMIC_SWEEP = [(k, q) for q in (2, 3, 5, 10) for k in range(1, 41)
                    if q**k < VALUE_LIMIT]
ALT_SWEEP = range(5, 301)


def _check_cyclotomic(values) -> list:
    return [f"Phi_{k}({q}) = {v}" for (k, q), v in zip(CYCLOTOMIC_SWEEP, values)
            if v != _cyclotomic(k, q)]


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _check_alternating(pairs) -> list:
    problems = []
    for m, (p, q) in zip(ALT_SWEEP, pairs):
        if not (_is_prime(p) and _is_prime(q) and 2 * p >= m and p < q <= m):
            problems.append(f"alternating_pair({m}) = ({p}, {q})")
    return problems


def ppd(sc, seed: int) -> Workload:
    cells = ppd_cells()
    random.Random(f"{seed}:ppd").shuffle(cells)
    sc.factorize(2)  # builds the trial-division sieve, as every CLI run does
    ops = [Op(f"ppd cell ({q},{e})", lambda q=q, e=e: _cell(sc, q, e),
              _check_cell(q, e)) for q, e in cells]
    ops.append(Op("cyclotomic sweep",
                  lambda: [sc.cyclotomic_value(k, q)
                           for k, q in CYCLOTOMIC_SWEEP],
                  _check_cyclotomic))
    ops.append(Op("alternating_pair sweep",
                  lambda: [sc.alternating_pair(m) for m in ALT_SWEEP],
                  _check_alternating))
    rng = random.Random(f"{seed}:probe")
    probe = []
    for _ in range(128):
        images = list(range(12))
        rng.shuffle(images)
        probe.append(sc.Permutation(images))
    return Workload(ops, probe)


# -- permutation probe ----------------------------------------------------

def _probe_elements(sc, group, count: int = 128) -> list:
    out = []
    for p in sc.enumerate_elements(group):
        out.append(p)
        if len(out) == count:
            break
    return out


BUILDERS = {"witness": witness, "criterion": criterion,
            "classes": classes, "ppd": ppd}
