"""Independent brute-force oracles for cross-checking the engine.

Everything here works on raw 0-based image tuples by exhaustive closure and
never touches a stabilizer chain, so these are genuinely independent of the
code under test.
"""

from __future__ import annotations

import math
from itertools import permutations


def mult(p: tuple, q: tuple) -> tuple:
    """Apply p, then q (same convention as the package)."""
    return tuple(q[i] for i in p)


def inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def tuple_order(p: tuple) -> int:
    identity = tuple(range(len(p)))
    k, x = 1, p
    while x != identity:
        x = mult(x, p)
        k += 1
    return k


def closure(gen_tuples, degree: int, limit: int = 10**6) -> set:
    """All elements of the generated group, by breadth-first multiplication."""
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gen_tuples:
                y = mult(x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
        if len(elements) > limit:
            raise RuntimeError("closure exceeded oracle limit")
    return elements


def closure_order(gen_tuples, degree: int) -> int:
    return len(closure(gen_tuples, degree))


def commutator_closure_series(elements: set, degree: int) -> list:
    """Orders along the derived series, from full element-set commutators.

    Each step generates the next term from the commutators of *all* element
    pairs of the previous term (not just generators), so this is a
    maximally dumb reference for the derived series.
    """
    orders = [len(elements)]
    current = elements
    while orders[-1] > 1:
        commutators = set()
        for a in current:
            a_inv = inv(a)
            for b in current:
                commutators.add(mult(mult(mult(a_inv, inv(b)), a), b))
        nxt = closure(commutators, degree)
        orders.append(len(nxt))
        if len(nxt) == len(current):
            break
        current = nxt
    return orders


def brute_is_solvable(elements: set, degree: int) -> bool:
    return commutator_closure_series(elements, degree)[-1] == 1


def conjugacy_partition(elements: set) -> list:
    """Classes as frozensets, via the definition: x ~ g^-1 x g over all g."""
    remaining = set(elements)
    classes = []
    while remaining:
        x = remaining.pop()
        cls = {mult(mult(inv(g), x), g) for g in elements}
        remaining -= cls
        classes.append(frozenset(cls))
    return classes


def even_permutations(degree: int):
    for img in permutations(range(degree)):
        inversions = sum(1 for i in range(degree) for j in range(i + 1, degree)
                         if img[i] > img[j])
        if inversions % 2 == 0:
            yield img


def brute_solvable_pair_exists(class_c, class_d, degree: int) -> bool:
    """Is there x in C, y in D with <x, y> solvable?  Pure brute force."""
    for x in sorted(class_c):
        for y in sorted(class_d):
            sub = closure([x, y], degree)
            if brute_is_solvable(sub, degree):
                return True
    return False


def trial_division_factorize(n: int) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def multiplicative_order(q: int, r: int) -> int:
    k, x = 1, q % r
    while x != 1:
        x = x * q % r
        k += 1
    return k


def brute_ppd_primes(q: int, e: int) -> tuple:
    """Primitive prime divisors straight from the definition."""
    value = q**e - 1
    primes = sorted(set(trial_division_factorize(value)))
    return tuple(r for r in primes
                 if all((q**i - 1) % r != 0 for i in range(1, e)))


def naive_cyclotomic(k: int, q: int) -> int:
    """Phi_k(q) by dividing q^k - 1 by all lower cyclotomic values."""
    value = q**k - 1
    for d in range(1, k):
        if k % d == 0:
            value //= naive_cyclotomic(d, q)
    return value


def alternating_pair(m: int) -> tuple:
    """The least and greatest primes in (m/2, m], from a sieve; when that
    interval holds a single prime, (m/2, that prime)."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(m) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, m + 1, d)))
    primes = [r for r in range(m // 2 + 1, m + 1) if sieve[r]]
    if len(primes) >= 2:
        return primes[0], primes[-1]
    return m // 2, primes[0]
