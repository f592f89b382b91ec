"""Primitive prime divisors of q^e - 1 and related arithmetic.

A prime r is a primitive prime divisor of q^e - 1 when r divides q^e - 1
but no q^i - 1 with i < e; equivalently the multiplicative order of q mod r
is exactly e, so e divides r - 1 and r >= e + 1.  For q = p^k, the *basic*
primitive prime divisors of q^e - 1 are the primitive prime divisors of
p^(ke) - 1.  The *large* variants keep only primes r > e + 1, together with
the composite (e+1)^2 when e + 1 is itself a (basic) primitive prime divisor
and (e+1)^2 divides q^e - 1.

The alternating group on m points gets the prime pair (smallest prime above
m/2, largest prime at most m), or (m/2, the one prime in (m/2, m]) for
m = 6 and m = 10, the only m >= 5 with fewer than two primes there (the
Ramanujan prime R_2 is 11).

Phi_e(q) holds every primitive prime divisor of q^e - 1, and for q = p^k
it is a product of the smaller cyclotomic values Phi_ed(p) (the algebraic
factorization of the Cunningham tables), so each of those is factored
apart.  The last 12 pieces factored are kept, so ppd, bppd, lpd and lbpd
of one (q, e) factor each piece once.  Inputs are range-checked against
VALUE_LIMIT (2^96).  Primality is proven below psi_13 (about 3.3e24);
above it, primes are only strong probable primes to the bases 2..97.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

VALUE_LIMIT = 2**96

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
             41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_TRIAL_PRIMES = _MR_BASES[:12]  # 2..37
# (psi_j, j): below psi_j the first j bases prove primality (OEIS A014233)
_MR_PROVEN = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


class ValueOutOfRangeError(ValueError):
    """Input exceeds the supported exact-arithmetic range."""


def _check_range(n: int, what: str = "value") -> None:
    if n >= VALUE_LIMIT:
        # past 2048 bits the value is named by its size: Python may refuse
        # to print it (its int-to-str limit is 640 digits at the lowest)
        shown = n if n.bit_length() <= 2048 else f"of {n.bit_length()} bits"
        raise ValueOutOfRangeError(f"{what} {shown} is not below 2**96")


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fewest prime bases that prove the answer.

    psi_j is the least strong pseudoprime to the first j prime bases
    (OEIS A014233; Sorenson and Webster, Math. Comp. 2017), so below psi_j
    those j bases decide primality exactly:

        j   psi_j
        1   2,047
        2   1,373,653
        3   25,326,001
        4   3,215,031,751
        5   2,152,302,898,747
        6   3,474,749,660,383
        7   341,550,071,728,321        (= psi_8)
        9   3,825,123,056,546,413,051  (= psi_10 = psi_11)
        12  318,665,857,834,031,151,167,461
        13  3,317,044,064,679,887,385,961,981

    n is tested with the j bases of the first psi_j above it.  At or above
    psi_13 (about 3.3e24) all 25 bases 2..97 run, and a True is a strong
    probable prime to each of them; that set has no known failures anywhere
    near the 2^96 working range.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = next((j for psi, j in _MR_PROVEN if n < psi), len(_MR_BASES))
    for a in _MR_BASES[:bases]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, power: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    The sequence is x -> x^power + c mod n, with c = 1, 2, 3, ... tried in
    order, so the factor found for a given n never varies between runs.
    Any factor found is a gcd with n, so ``power`` affects only the speed:
    when every prime p of n is 1 mod power, the map x -> x^power has about
    p/power images mod p and the walk closes its cycle about sqrt(power)
    times sooner.  Brent and Pollard factored F8 this way, with
    x^(2^10) + 1 (Math. Comp. 36 (1981) 627-630).
    """
    for c in range(1, 10_000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (pow(y, power, n) + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (pow(y, power, n) + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (pow(ys, power, n) + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def _factor(n: int, power: int) -> tuple:
    # shift out the 2s, then split the odd part by rho on x^power + c
    twos = (n & -n).bit_length() - 1
    factors = [2] * twos
    odd = n >> twos
    stack = [odd] if odd > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors.append(m)
            continue
        d = _pollard_rho(m, power)
        stack.append(d)
        stack.append(m // d)
    factors.sort()
    return tuple(factors)


def factorize(n: int) -> tuple:
    """Prime factorization of n as a sorted multiset (tuple) of factors.

    The factors of 2 are shifted out; Pollard rho on x^2 + c splits the
    odd part, small primes within a few steps.  Factors above psi_13
    (3.3e24) are strong probable primes.
    """
    if n < 2:
        raise ValueError(f"cannot factor {n}; need n >= 2")
    _check_range(n)
    return _factor(n, 2)


@dataclass(frozen=True)
class PrimePower:
    """q = p^k with p prime and k >= 1."""

    p: int
    k: int
    q: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 1 or self.p ** self.k != self.q:
            raise ValueError(f"{self.q} != {self.p}^{self.k}")

    @classmethod
    def of(cls, q: int) -> "PrimePower":
        """Parse an integer >= 2 as a prime power, or raise ValueError.

        Nothing is factored: q = p^k exactly when the integer k-th root of
        q, for some k with 2^k <= q, is prime and its k-th power is q.
        """
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        _check_range(q)
        for k in range(1, q.bit_length()):
            r = _integer_root(q, k)
            if r ** k == q and is_prime(r):
                return cls(r, k, q)
        raise ValueError(f"{q} is not a prime power")

    def __str__(self) -> str:
        return str(self.q) if self.k == 1 else f"{self.p}^{self.k}"


def _integer_root(n: int, k: int) -> int:
    # floor(n^(1/k)) for n >= 1: Newton's method from 2^ceil(bits / k),
    # which lies above the root, so the iterates fall to the floor
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _as_prime_power(q) -> PrimePower:
    return q if isinstance(q, PrimePower) else PrimePower.of(q)


@dataclass(frozen=True)
class DivisorSet:
    """Primes from a primitive-prime-divisor computation, plus the optional
    composite entry (e+1)^2 used by the large variants.

    The square entry is kept apart from ``primes`` so that no caller can
    mistake it for a prime.
    """

    flavor: str
    q: PrimePower
    e: int
    primes: tuple
    square_entry: int | None = None

    def values(self) -> tuple:
        """All members, primes first, square entry (if any) last."""
        if self.square_entry is None:
            return self.primes
        return self.primes + (self.square_entry,)

    def is_empty(self) -> bool:
        return not self.primes and self.square_entry is None

    def __str__(self) -> str:
        body = ", ".join(str(v) for v in self.values())
        return "{" + body + "}"


def _cyclotomic_orders(e: int, k: int) -> list:
    """The m with Phi_e(x^k) = prod of Phi_m(x), each e times a divisor of k.

    Phi_n(x^r) = Phi_nr(x) for a prime r, times Phi_n(x) when r does not
    divide n; this is applied once for each prime r of k, counted with
    multiplicity.
    """
    orders = [e]
    r = 2
    while k > 1:
        while k % r:
            r += 1
        k //= r
        orders = [m * r for m in orders] + [m for m in orders if m % r]
    return orders


# A bounded memo, sized to the largest call: an accepted call has k * e <= 95
# (p^(ke) < 2^96), where _cyclotomic_orders(e, k) has at most 12 entries
# (e = 1 with k = 60, 72, 84 or 90).  So ppd, bppd, lpd and lbpd of one
# (q, e), asked in turn, factor each piece once, while a sweep over many
# (q, e) factors every piece again on each pass.
@functools.lru_cache(maxsize=12)
def _cyclotomic_primes(m: int, p: int) -> tuple:
    # the prime factors of Phi_m(p), by rho on x^lcm(2, m) + c
    return _factor(_cyclotomic(m, p), math.lcm(2, m))


def _ppd_primes(p: int, k: int, e: int) -> tuple:
    """Primes r with r | q^e - 1 and r not dividing q^i - 1 for i < e,
    where q = p^k.

    Every such r divides the cyclotomic factor Phi_e(q) of q^e - 1.  A
    prime r of Phi_e(q) has order e / r^j mod r for some j >= 0, with j > 0
    only if r | e, while order e forces r = 1 mod e, so r does not divide
    e: r is primitive exactly when r does not divide e.  Phi_e(q) is not
    factored as one number: it is the product of the values Phi_m(p) over
    ``_cyclotomic_orders(e, k)``, and each is factored apart.  By the same
    argument for p, every odd prime of Phi_m(p) is 1 mod m, the shape that
    x^lcm(2, m) + c needs, or divides m (at most 95 here), which rho
    splits off at once.  The 2s are shifted out before rho runs.  Each
    piece goes through the memo ``_cyclotomic_primes``: bppd(q, e)'s one
    piece Phi_ke(p) is the first piece of ppd(q, e), and lpd and lbpd call
    ppd and bppd again, so the four factor each piece of one (q, e) once.
    """
    if e < 1:
        raise ValueError("e must be at least 1")
    base = p ** k
    if e > 96:
        # base >= 2, so base^e - 1 >= 2^97 - 1: refused before it is formed
        raise ValueOutOfRangeError(f"{base}^{e} - 1 is not below 2**96")
    _check_range(base ** e - 1, f"{base}^{e} - 1")
    primes = set()
    for m in _cyclotomic_orders(e, k):
        primes.update(_cyclotomic_primes(m, p))
    return tuple(r for r in sorted(primes) if e % r)


def ppd(q, e: int) -> DivisorSet:
    """Primitive prime divisors of q^e - 1."""
    qq = _as_prime_power(q)
    return DivisorSet("ppd", qq, e, _ppd_primes(qq.p, qq.k, e))


def bppd(q, e: int) -> DivisorSet:
    """Basic primitive prime divisors of q^e - 1: those of p^(ke) - 1."""
    qq = _as_prime_power(q)
    return DivisorSet("bppd", qq, e, _ppd_primes(qq.p, 1, qq.k * e))


def _enlarge(base_set: DivisorSet, flavor: str) -> DivisorSet:
    e = base_set.e
    threshold = e + 1
    large = tuple(r for r in base_set.primes if r > threshold)
    square = None
    if threshold in base_set.primes:
        candidate = threshold * threshold
        if (base_set.q.q ** e - 1) % candidate == 0:
            square = candidate
    return DivisorSet(flavor, base_set.q, e, large, square)


def lpd(q, e: int) -> DivisorSet:
    """Large primitive divisors: ppd primes above e+1, plus (e+1)^2 when
    e+1 is a ppd prime and (e+1)^2 divides q^e - 1."""
    return _enlarge(ppd(q, e), "lpd")


def lbpd(q, e: int) -> DivisorSet:
    """Large basic primitive divisors (the bppd analogue of lpd)."""
    return _enlarge(bppd(q, e), "lbpd")


def is_mersenne_prime(n: int) -> bool:
    """Is n a prime of the form 2^m - 1?"""
    return n >= 3 and (n & (n + 1)) == 0 and is_prime(n)


def zsigmondy_empty(q, e: int) -> bool:
    """Closed form for bppd(q, e) being empty, for e >= 2.

    Exactly three exceptional families lack a basic primitive prime
    divisor: q a Mersenne prime with e = 2; (q, e) = (2, 6); and
    (q, e) in {(4, 3), (8, 2)}.
    """
    qq = _as_prime_power(q)
    if e < 2:
        raise ValueError("e must be at least 2")
    if e == 2 and qq.k == 1 and is_mersenne_prime(qq.p):
        return True
    return (qq.q, e) in {(2, 6), (4, 3), (8, 2)}


LBPD_EMPTY_PAIRS = frozenset({
    (2, 4), (2, 6), (2, 10), (2, 12), (2, 18),
    (3, 4), (3, 6), (4, 3), (5, 6),
})


def lbpd_empty_closed_form(q, e: int) -> bool:
    """Closed form for lbpd(q, e) being empty, for e >= 3: exactly nine
    (q, e) pairs qualify."""
    qq = _as_prime_power(q)
    if e < 3:
        raise ValueError("e must be at least 3")
    return (qq.q, e) in LBPD_EMPTY_PAIRS


def largest_prime_upto(n: int) -> int:
    while n >= 2 and not is_prime(n):
        n -= 1
    if n < 2:
        raise ValueError("no prime available")
    return n


def alternating_pair(m: int) -> tuple:
    """The prime pair (p, q) attached to the alternating group on m points.

    p is the smallest prime above m/2 and q the largest prime at most m,
    except for m = 6 and m = 10, which take (3, 5) and (5, 7): (m/2, m]
    holds two primes for every m >= 5 but those two, since the Ramanujan
    prime R_2 is 11 (Ramanujan 1919).  Always m/2 <= p < q <= m, with
    equality only at m = 6 and m = 10.  m >= 2^96 is refused.
    """
    _check_range(m, "m")
    if m < 5:
        raise ValueError("need m >= 5")
    if m in (6, 10):
        p, q = (3, 5) if m == 6 else (5, 7)
    else:
        p = m // 2 + 1
        while not is_prime(p):
            p += 1
        q = largest_prime_upto(m)
    if not (2 * p >= m and p < q <= m):
        raise AssertionError(
            f"pair ({p}, {q}) violates m/2 <= p < q <= m for m={m}")
    return p, q


def cyclotomic_value(k: int, q: int) -> int:
    """The k-th cyclotomic polynomial evaluated at q, for k <= 120.

    Computed exactly by recursion on the least prime p of k = p*m:
    Phi_1(q) = q - 1, and Phi_k(q) = Phi_m(q^p), divided by Phi_m(q)
    when p does not divide m."""
    if not 1 <= k <= 120:
        raise ValueError("need 1 <= k <= 120")
    if q < 2:
        raise ValueError("need q >= 2")
    _check_range(q, "q")  # before q^k is formed
    _check_range(q ** k, f"{q}^{k}")
    return _cyclotomic(k, q)


def _cyclotomic(k: int, q: int) -> int:
    # Phi_k(q), unchecked; the recursion is as deep as k has prime
    # factors (six for k = 64), and (q^p)^m = q^k bounds every power formed
    if k == 1:
        return q - 1
    p = next(d for d in range(2, k + 1) if k % d == 0)
    m = k // p
    value = _cyclotomic(m, q ** p)
    if m % p == 0:
        return value
    value, rem = divmod(value, _cyclotomic(m, q))
    if rem:
        raise AssertionError("cyclotomic quotient did not divide exactly")
    return value


def prime_powers_upto(limit: int) -> list:
    """All prime powers q <= limit, ascending, as PrimePower objects."""
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        k, q = 1, p
        while q <= limit:
            out.append(PrimePower(p, k, q))
            k += 1
            q *= p
    return sorted(out, key=lambda pp: pp.q)
