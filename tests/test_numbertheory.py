import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from solvcrit import numbertheory
from solvcrit.numbertheory import (
    LBPD_EMPTY_PAIRS,
    PrimePower,
    ValueOutOfRangeError,
    _cyclotomic,
    _cyclotomic_orders,
    _cyclotomic_primes,
    _factor,
    _pollard_rho,
    _ppd_primes,
    alternating_pair,
    bppd,
    cyclotomic_value,
    factorize,
    is_mersenne_prime,
    is_prime,
    largest_prime_upto,
    lbpd,
    lbpd_empty_closed_form,
    lpd,
    ppd,
    prime_powers_upto,
    zsigmondy_empty,
)


# psi_j, the least strong pseudoprime to the first j prime bases (OEIS
# A014233), for each j at which it grows; below psi_j those j bases decide
PSI = {1: 2_047, 2: 1_373_653, 3: 25_326_001, 4: 3_215_031_751,
       5: 2_152_302_898_747, 6: 3_474_749_660_383,
       7: 341_550_071_728_321, 9: 3_825_123_056_546_413_051,
       12: 318_665_857_834_031_151_167_461,
       13: 3_317_044_064_679_887_385_961_981}
BASES = tuple(sympy.primerange(98))  # the 25 primes 2..97


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _all_bases_is_prime(n):
    # every one of the 25 bases on every n, with no proven shortcut
    if n < 2:
        return False
    for a in BASES:
        if n % a == 0:
            return n == a
    return all(_strong_probable_prime(n, a) for a in BASES)


class TestPrimality:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=300)
    def test_agrees_with_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    def test_large_values(self):
        assert is_prime(2**89 - 1)  # Mersenne prime
        assert not is_prime(2**67 - 1)  # famous composite
        assert is_prime(2**31 - 1)

    def test_strong_pseudoprimes_rejected(self):
        # psi_12 fools every base 2..37, psi_13 every base 2..41
        assert not is_prime(318665857834031151167461)
        assert not is_prime(3317044064679887385961981)

    @pytest.mark.parametrize("j", sorted(PSI))
    def test_each_psi_rejected(self, j):
        # psi_j fools the first j bases, so it is tested with more
        psi = PSI[j]
        assert all(_strong_probable_prime(psi, a) for a in BASES[:j])
        assert not is_prime(psi)

    @given(st.sampled_from(sorted(PSI.values())),
           st.integers(min_value=-2000, max_value=2000))
    @settings(max_examples=500)
    def test_matches_all_bases_around_each_psi(self, psi, offset):
        n = (psi + offset) | 1
        assert is_prime(n) == _all_bases_is_prime(n)

    def test_mersenne_recognition(self):
        assert [n for n in range(2, 200) if is_mersenne_prime(n)] == [3, 7, 31, 127]


class TestFactorize:
    def test_spec_values(self):
        assert factorize(15) == (3, 5)
        assert factorize(2) == (2,)
        assert factorize(2**18 - 1) == (3, 3, 3, 7, 19, 73)

    def test_rejects_small_and_huge(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(ValueOutOfRangeError):
            factorize(2**96)

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_product_and_primality(self, n):
        fs = factorize(n)
        assert math.prod(fs) == n
        assert all(is_prime(p) for p in fs)
        assert list(fs) == sorted(fs)

    def test_hard_grid_value(self):
        # largest value on the cross-check grid
        n = 31**19 - 1
        fs = factorize(n)
        assert math.prod(fs) == n
        assert all(sympy.isprime(p) for p in fs)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100)
    def test_agrees_with_trial_division(self, n):
        assert factorize(n) == oracles.trial_division_factorize(n)

    # primes in (2^16, 10^6), whose products and squares rho splits
    _rho_primes = st.integers(min_value=2**16, max_value=999_982).map(
        sympy.nextprime)

    @given(_rho_primes, _rho_primes)
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_sympy_above_trial_division(self, p, q):
        for n in (p * q, p * p):
            expected = sorted(r for r, m in sympy.factorint(n).items()
                              for _ in range(m))
            assert factorize(n) == tuple(expected)

    # products of powers of primes below 2^16, as q^e - 1 carries them,
    # times at most one larger prime, each exponent cut to stay below 2^96
    @given(st.lists(st.tuples(st.integers(min_value=3, max_value=2**16)
                              .map(sympy.prevprime),
                              st.integers(min_value=1, max_value=24)),
                    min_size=1, max_size=6),
           st.one_of(st.just(1), _rho_primes))
    @settings(max_examples=200, deadline=None)
    def test_small_prime_powers_agree_with_sympy(self, powers, big):
        n = big
        for p, m in powers:
            while n * p**m >= 2**96:
                m -= 1  # the first power always fits at m = 1
            n *= p**m
        expected = sorted(r for r, m in sympy.factorint(n).items()
                          for _ in range(m))
        assert factorize(n) == tuple(expected)

    @pytest.mark.parametrize("n", [
        math.factorial(27), 3**60, 5**41, 2**95, 65521**5,
        math.prod(sympy.primerange(72)),  # the primes up to 71
    ])
    def test_many_small_factors(self, n):
        assert n < 2**96
        expected = sorted(r for r, m in sympy.factorint(n).items()
                          for _ in range(m))
        assert factorize(n) == tuple(expected)

    @pytest.mark.parametrize("k", [2, 6, 22, 96])
    def test_every_small_n_at_each_power(self, k):
        for n in range(2, 5000):
            assert _factor(n, k) == oracles.trial_division_factorize(n), n

    @pytest.mark.parametrize("k", [22, 34, 94, 190])
    def test_shaped_rho_splits_primes_one_mod_k(self, k):
        # primes 1 mod k just above 2^16, where x^k has the fewest images
        start = (2**16 // k + 1) * k + 1
        primes = [p for p in range(start, 4 * start, k) if is_prime(p)][:12]
        for i, p in enumerate(primes):
            for q in primes[i:]:
                assert _pollard_rho(p * q, k) in (p, q)

    def test_cyclotomic_primes_off_the_shape_are_trial_divided(self):
        # the primes of Phi_e(q) that are not 1 mod lcm(2, e) are 2, which
        # is shifted out, and primes dividing e, which rho splits off at
        # once; every other prime has the shape its power assumes
        for q in range(2, 17):
            for e in range(1, 25):
                if q**e >= 2**96:
                    break
                value = _cyclotomic(e, q)
                if value == 1:
                    continue
                k = math.lcm(2, e)
                for r in set(factorize(value)):
                    if r % k != 1:
                        assert r == 2 or e % r == 0, (q, e, r)

    def test_shaped_rho_on_base_two_skips_c_one(self):
        # 2^11 = 1 mod Phi_11(2) = 2047 = 23 * 89, so x^22 + 1 fixes the
        # start 2 and the walk for c = 1 never splits; c = 2 finds 23.  Every
        # factor of Phi_e(2) fixes 2 alike, which costs one short batch
        assert (pow(2, 22, 2047) + 1) % 2047 == 2
        assert _pollard_rho(2047, 22) == 23


class TestRangeRefusals:
    # a value past Python's int-to-str digit limit, or a power too large to
    # form quickly, is still refused with the module's own error
    @pytest.mark.parametrize("call", [
        lambda: factorize(10**5000),
        lambda: cyclotomic_value(120, 10**40),
        lambda: ppd(3, 10**6),
        lambda: bppd(3, 10**6),
        lambda: alternating_pair(2**96),
    ], ids=["factorize", "cyclotomic_value", "ppd", "bppd",
            "alternating_pair"])
    def test_refused_with_range_error(self, call):
        with pytest.raises(ValueOutOfRangeError):
            call()

    def test_messages_name_the_refused_value(self):
        with pytest.raises(ValueOutOfRangeError) as raised:
            factorize(10**5000)
        assert str(raised.value) == \
            "value of 16610 bits is not below 2**96"
        with pytest.raises(ValueOutOfRangeError) as raised:
            ppd(3, 10**6)
        assert str(raised.value) == \
            "3^1000000 - 1 is not below 2**96"


class TestArgumentRefusals:
    @pytest.mark.parametrize("call,message", [
        (lambda: ppd(4, 0), "e must be at least 1"),
        (lambda: bppd(4, 0), "e must be at least 1"),
        (lambda: lpd(4, 0), "e must be at least 1"),
        (lambda: lbpd(4, 0), "e must be at least 1"),
        (lambda: cyclotomic_value(3, 1), "need q >= 2"),
        (lambda: largest_prime_upto(1), "no prime available"),
    ], ids=["ppd", "bppd", "lpd", "lbpd", "cyclotomic_value",
            "largest_prime_upto"])
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


class TestPrimePower:
    def test_parse(self):
        pp = PrimePower.of(27)
        assert (pp.p, pp.k, pp.q) == (3, 3, 27)

    def test_rejects_non_prime_powers(self):
        for bad in (1, 6, 12, 100):
            with pytest.raises(ValueError):
                PrimePower.of(bad)

    def test_parse_factors_nothing(self, monkeypatch):
        # q = p^k is read off the exact integer k-th roots of q, so rho is
        # never reached, even for a balanced semiprime near 2^89
        def no_rho(n, power):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(numbertheory, "_pollard_rho", no_rho)
        for p, k in ((2, 95), (3, 59), (2**31 - 1, 3), (2**89 - 1, 1),
                     (1_000_003, 4), (65_537, 5), (7, 1)):
            pp = PrimePower.of(p**k)
            assert (pp.p, pp.k, pp.q) == (p, k, p**k)
        semiprime = (2**44 + 7) * (2**45 + 12_435)
        assert semiprime == 618970019861695261516583941
        with pytest.raises(ValueError, match="is not a prime power"):
            PrimePower.of(semiprime)
        for bad in ((2**31 - 1)**2 * 2, 2**94 * 3, 6**37):
            with pytest.raises(ValueError, match="is not a prime power"):
                PrimePower.of(bad)

    def test_out_of_range_keeps_its_message(self):
        message = f"value {2**96} is not below 2**96"
        with pytest.raises(ValueOutOfRangeError) as raised:
            PrimePower.of(2**96)
        assert str(raised.value) == message

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            PrimePower(4, 1, 4)
        with pytest.raises(ValueError):
            PrimePower(3, 2, 27)


class TestPpd:
    def test_spec_values(self):
        assert ppd(4, 3).primes == (7,)
        assert ppd(8, 2).primes == (3,)
        assert ppd(7, 2).primes == ()
        assert ppd(2, 4).primes == (5,)

    def test_bppd_spec_values(self):
        assert bppd(4, 3).is_empty()
        assert bppd(2, 5).primes == (31,)
        assert bppd(9, 2).primes == (5,)
        assert bppd(9, 2).primes == ppd(3, 4).primes

    def test_matches_definition_oracle(self):
        for pp in prime_powers_upto(16):
            for e in range(1, 9):
                assert ppd(pp, e).primes == oracles.brute_ppd_primes(pp.q, e)

    def test_cyclotomic_factor_beyond_cyclotomic_range(self):
        # Phi_96(2) is factored although cyclotomic_value(96, 2) refuses
        # 2^96; all four name the same primitive divisors of 2^96 - 1
        with pytest.raises(ValueOutOfRangeError):
            cyclotomic_value(96, 2)
        expected = (193, 22253377)
        assert ppd(2, 96).primes == expected
        assert ppd(4, 48).primes == expected
        assert ppd(16, 24).primes == expected
        assert bppd(16, 24).primes == expected

    def test_matches_factor_everything_on_benchmark_grid(self):
        # the grid of the benchmark's ppd workload: prime powers q <= 64,
        # 2 <= e <= 24, q^e < 2^96, with each ppd and bppd exponent
        def factor_everything(base, e):
            value = base**e - 1
            if value == 1:
                return ()
            return tuple(r for r in sorted(set(factorize(value)))
                         if all(pow(base, i, r) != 1 for i in range(1, e)))

        cells = set()
        for pp in prime_powers_upto(64):
            for e in range(2, 25):
                if pp.q**e < 2**96:
                    cells.add((pp.q, e))
                    cells.add((pp.p, pp.k * e))
        assert len(cells) == 601
        for base, e in sorted(cells):
            pp = PrimePower.of(base)
            assert _ppd_primes(pp.p, pp.k, e) == \
                factor_everything(base, e), (base, e)

    def test_split_matches_factor_everything_on_larger_powers(self):
        # prime powers above the grid, each split into several pieces
        for q in (81, 125, 128, 243, 256, 343, 512, 625, 729, 1024):
            pp = PrimePower.of(q)
            e = 1
            while q**e < 2**64:
                expected = tuple(
                    r for r in sorted(set(factorize(q**e - 1)))
                    if all(pow(q, i, r) != 1 for i in range(1, e)))
                assert _ppd_primes(pp.p, pp.k, e) == expected, (q, e)
                e += 1

    def test_bppd_subset_of_ppd_and_strict_somewhere(self):
        strict = False
        for pp in prime_powers_upto(9):
            for e in range(2, 9):
                basic = set(bppd(pp, e).primes)
                plain = set(ppd(pp, e).primes)
                assert basic <= plain
                if basic < plain:
                    strict = True
        assert strict
        assert set(bppd(4, 3).primes) < set(ppd(4, 3).primes)

    def test_residue_condition(self):
        for pp in prime_powers_upto(16):
            for e in range(2, 11):
                for r in ppd(pp, e).primes:
                    assert r % e == 1
                    assert r >= e + 1


class TestLargeVariants:
    def test_lbpd_spec_values(self):
        assert lbpd(2, 4).is_empty()
        assert lbpd(2, 5).primes == (31,)

    def test_lpd_square_entry_only(self):
        ds = lpd(17, 2)
        assert ds.primes == ()
        assert ds.square_entry == 9
        assert ds.values() == (9,)

    def test_square_entry_kept_apart_from_primes(self):
        ds = lpd(17, 2)
        assert 9 not in ds.primes

    def test_square_entry_conditions(self):
        for pp in prime_powers_upto(16):
            for e in range(2, 10):
                ds = lpd(pp, e)
                if ds.square_entry is not None:
                    assert ds.square_entry == (e + 1) ** 2
                    assert e + 1 in ppd(pp, e).primes
                    assert (pp.q**e - 1) % ds.square_entry == 0

    def test_large_primes_exceed_threshold(self):
        for pp in prime_powers_upto(16):
            for e in range(2, 10):
                assert all(r > e + 1 for r in lpd(pp, e).primes)
                assert all(r > e + 1 for r in lbpd(pp, e).primes)


class TestZsigmondy:
    def test_spec_cases(self):
        assert zsigmondy_empty(7, 2)
        assert zsigmondy_empty(2, 6)
        assert zsigmondy_empty(4, 3)
        assert zsigmondy_empty(8, 2)
        assert not zsigmondy_empty(2, 5)

    def test_mersenne_case_has_empty_ppd_too(self):
        for q in (3, 7, 31):
            assert zsigmondy_empty(q, 2)
            assert ppd(q, 2).is_empty()

    def test_requires_e_at_least_two(self):
        with pytest.raises(ValueError):
            zsigmondy_empty(2, 1)

    def test_small_grid_cross_check(self):
        for pp in prime_powers_upto(16):
            for e in range(2, 13):
                assert zsigmondy_empty(pp, e) == bppd(pp, e).is_empty()


class TestLbpdClosedForm:
    def test_listed_pairs(self):
        assert lbpd_empty_closed_form(3, 6)
        assert lbpd_empty_closed_form(5, 6)
        assert not lbpd_empty_closed_form(2, 5)
        assert LBPD_EMPTY_PAIRS == {
            (2, 4), (2, 6), (2, 10), (2, 12), (2, 18),
            (3, 4), (3, 6), (4, 3), (5, 6)}

    def test_requires_e_at_least_three(self):
        with pytest.raises(ValueError):
            lbpd_empty_closed_form(2, 2)


class TestAlternatingPair:
    def test_explicit_windows(self):
        assert alternating_pair(5) == (3, 5)
        assert alternating_pair(6) == (3, 5)
        assert alternating_pair(9) == (5, 7)
        assert alternating_pair(15) == (11, 13)

    def test_rule_cases(self):
        assert alternating_pair(11) == (7, 11)
        assert alternating_pair(13) == (7, 13)
        assert alternating_pair(17) == (11, 17)
        assert alternating_pair(20) == (11, 19)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            alternating_pair(4)

    def test_matches_sieve_oracle(self):
        # the exact pair, not only some valid one: the least and greatest
        # primes in (m/2, m], or (m/2, q) where q is the only prime there
        for m in range(5, 3001):
            assert alternating_pair(m) == oracles.alternating_pair(m), m

    @given(st.integers(min_value=5, max_value=500))
    @settings(max_examples=200)
    def test_inequality_chain(self, m):
        p, q = alternating_pair(m)
        assert is_prime(p) and is_prime(q)
        assert 2 * p >= m
        assert p < q <= m
        if m not in (6, 10):
            assert 2 * p > m


class TestCyclotomicSplit:
    def test_pieces_multiply_to_phi(self):
        # Phi_e(p^k) = prod of Phi_m(p): the m are e * k / d over the d | k
        # prime to e, and e = 1 splits p^k - 1 over the divisors of k
        for pp in prime_powers_upto(64):
            if pp.k < 2:
                continue
            divisors = [d for d in range(1, pp.k + 1) if pp.k % d == 0]
            e = 1
            while pp.q**e < 2**96:
                orders = _cyclotomic_orders(e, pp.k)
                assert sorted(orders) == sorted(
                    e * pp.k // d for d in divisors if math.gcd(d, e) == 1)
                pieces = math.prod(_cyclotomic(m, pp.p) for m in orders)
                assert pieces == _cyclotomic(e, pp.q), (pp.q, e)
                e += 1
            assert math.prod(_cyclotomic(m, pp.p)
                             for m in _cyclotomic_orders(1, pp.k)) == pp.q - 1


def _grid_cells():
    # the benchmark's ppd grid: prime powers q <= 64, 2 <= e <= 24,
    # q^e < 2^96
    return [(pp.q, e) for pp in prime_powers_upto(64)
            for e in range(2, 25) if pp.q**e < 2**96]


_FLAVORS = {"ppd": ppd, "bppd": bppd, "lpd": lpd, "lbpd": lbpd}


class TestPieceMemo:
    # _cyclotomic_primes keeps the last few factored pieces Phi_m(p), so
    # that ppd, bppd, lpd and lbpd of one (q, e) factor each piece once

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []

        def counting(n, power):
            calls.append(n)
            return _factor(n, power)

        _cyclotomic_primes.cache_clear()
        monkeypatch.setattr(numbertheory, "_factor", counting)
        yield calls
        _cyclotomic_primes.cache_clear()

    def test_bound_is_the_largest_call(self):
        # every accepted call has p^(ke) < 2^96, so k * e <= 95; a memo
        # smaller than the largest call would factor that call's pieces
        # again when lpd follows ppd
        largest = max(len(_cyclotomic_orders(e, k))
                      for k in range(1, 96) for e in range(1, 95 // k + 1))
        assert largest == 12
        assert _cyclotomic_primes.cache_info().maxsize == largest

    def test_one_cell_factors_each_piece_once(self, factor_calls):
        for q, e in ((43, 17), (32, 19), (64, 5), (2, 60)):
            pp = PrimePower.of(q)
            pieces = {_cyclotomic(m, pp.p)
                      for m in _cyclotomic_orders(e, pp.k)}
            pieces.add(_cyclotomic(pp.k * e, pp.p))  # bppd's one piece
            factor_calls.clear()
            for flavor in _FLAVORS.values():
                flavor(q, e)
            assert sorted(factor_calls) == sorted(pieces), (q, e)

    def test_sweeps_factor_again(self, factor_calls):
        # the memo holds 12 pieces, far fewer than the grid needs, so a
        # second sweep in the same order factors as often as the third;
        # only the first sweep, which starts cold, may differ, and by at
        # most the 12 pieces the previous sweep can leave behind
        cells = _grid_cells()
        assert len(cells) == 524
        random.Random(7).shuffle(cells)
        counts = []
        for _ in range(3):
            factor_calls.clear()
            for q, e in cells:
                for flavor in _FLAVORS.values():
                    flavor(q, e)
            counts.append(len(factor_calls))
        assert counts[1] == counts[2]
        assert 0 <= counts[0] - counts[1] <= 12
        pieces = set()
        for q, e in cells:
            pp = PrimePower.of(q)
            pieces.update((m, pp.p) for m in _cyclotomic_orders(e, pp.k))
        assert counts[1] >= len(pieces) - 12

    _calls = st.lists(
        st.tuples(st.sampled_from(sorted(_FLAVORS)),
                  st.one_of(
                      st.sampled_from(_grid_cells()),
                      st.sampled_from([(q, e) for q in (81, 256, 729)
                                       for e in range(1, 25)
                                       if q**e < 2**96]),
                      st.sampled_from([(pp.q, 1)
                                       for pp in prime_powers_upto(64)]))),
        min_size=1, max_size=8)

    @given(_calls)
    @settings(max_examples=40, deadline=None)
    def test_memo_state_does_not_change_results(self, calls):
        warm = [_FLAVORS[flavor](q, e) for flavor, (q, e) in calls]
        for (flavor, (q, e)), result in zip(calls, warm):
            _cyclotomic_primes.cache_clear()
            assert _FLAVORS[flavor](q, e) == result, (flavor, q, e)

    @pytest.mark.parametrize("call,error,message", [
        (lambda: ppd(3, 30_000_000), ValueOutOfRangeError,
         "3^30000000 - 1 is not below 2**96"),
        (lambda: ppd(6, 3), ValueError, "6 is not a prime power"),
        (lambda: bppd(4, 0), ValueError, "e must be at least 1"),
        (lambda: ppd(2**96, 2), ValueOutOfRangeError,
         f"value {2**96} is not below 2**96"),
    ], ids=["exponent", "not-prime-power", "zero-exponent", "base"])
    def test_refusals_ignore_the_memo(self, call, error, message):
        for warm in (True, False):
            _cyclotomic_primes.cache_clear()
            if warm:
                ppd(64, 5)
            before = _cyclotomic_primes.cache_info()
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error
            assert str(raised.value) == message
            assert _cyclotomic_primes.cache_info() == before


class TestCyclotomic:
    def test_spec_values(self):
        assert cyclotomic_value(6, 5) == 21
        assert cyclotomic_value(12, 2) == 13
        assert cyclotomic_value(30, 2) == 331

    def test_degree_eight_expansion(self):
        # the octic used for the largest exceptional family
        for q in range(2, 8):
            assert cyclotomic_value(30, q) == (
                q**8 + q**7 - q**5 - q**4 - q**3 + q + 1)
        for q in range(2, 10):
            assert cyclotomic_value(12, q) == q**4 - q**2 + 1
            assert cyclotomic_value(6, q) == q**2 - q + 1

    def test_product_over_divisors(self):
        for k in range(1, 31):
            divisors = [d for d in range(1, k + 1) if k % d == 0]
            for q in range(2, 10):
                assert math.prod(
                    cyclotomic_value(d, q) for d in divisors) == q**k - 1

    def test_matches_recursive_oracle(self):
        for k in range(1, 25):
            for q in (2, 3, 5):
                assert cyclotomic_value(k, q) == oracles.naive_cyclotomic(k, q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 64])
    def test_every_reachable_index_matches_oracle(self, q):
        # every k with q^k below the value limit: 353 indices in all
        k = 1
        while q**k < 2**96:
            assert _cyclotomic(k, q) == oracles.naive_cyclotomic(k, q), k
            k += 1

    def test_agrees_with_sympy(self):
        from sympy.abc import x

        for k in (1, 2, 6, 12, 30, 60, 105, 120):
            poly = sympy.cyclotomic_poly(k, x)
            for q in (2, 3, 7):
                if q**k >= 2**96:
                    continue
                assert cyclotomic_value(k, q) == int(poly.subs(x, q))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            cyclotomic_value(121, 2)
        with pytest.raises(ValueOutOfRangeError):
            cyclotomic_value(120, 3)
