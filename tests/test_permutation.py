import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from solvcrit.engine import enumerate_elements
from solvcrit.permutation import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    _conjugates,
    _conjugators,
    _mult_by,
    format_cycles,
    parse_cycles,
)

perms = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(range(n))).map(Permutation)


def same_degree_pairs(max_degree=9):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    ).map(lambda pair: (Permutation(pair[0]), Permutation(pair[1])))


class TestParse:
    def test_basic_cycle_product(self):
        p = parse_cycles("(1 2 3)(4 5)", 5)
        assert [p.apply(i) for i in range(1, 6)] == [2, 3, 1, 5, 4]

    def test_empty_string_is_identity(self):
        assert parse_cycles("", 4) == Permutation.identity(4)

    def test_identity_token(self):
        assert parse_cycles("()", 3) == Permutation.identity(3)

    def test_repeated_point_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("(1 2)(2 3)", 3)

    def test_repeated_point_within_cycle_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("(1 2 1)", 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("(1 6)", 5)

    def test_unclosed_cycle_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("(1 2", 3)

    def test_garbage_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("1 2 3", 3)

    def test_whitespace_tolerant(self):
        assert parse_cycles(" ( 1 2 )  ( 3 4 ) ", 4) == parse_cycles(
            "(1 2)(3 4)", 4)

    def test_invalid_point_named(self):
        with pytest.raises(CycleParseError, match="^invalid point 'x'$"):
            parse_cycles("(1 x)", 3)
        # int() takes a sign, underscores and other scripts' digits
        for token in ("+1", "1_0", "\u0663", "-1"):
            with pytest.raises(CycleParseError) as err:
                parse_cycles(f"({token} 2)", 12)
            assert str(err.value) == f"invalid point {token!r}"

    @pytest.mark.parametrize("call", [
        lambda: parse_cycles("", 0),
        lambda: Permutation.identity(0),
    ], ids=["parse_cycles", "identity"])
    def test_degree_zero_rejected(self, call):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            call()

    def test_apply_refuses_point_out_of_range(self):
        with pytest.raises(ValueError, match=r"^point 0 out of range 1\.\.3$"):
            parse_cycles("(1 2)", 3).apply(0)

    def test_fixed_point_cycle_allowed(self):
        assert parse_cycles("(2)", 3) == Permutation.identity(3)


class TestFormat:
    def test_identity_prints_as_unit(self):
        assert format_cycles(Permutation.identity(5)) == "()"

    def test_canonical_form(self):
        assert format_cycles(parse_cycles("(4 5)(1 2 3)", 6)) == "(1 2 3)(4 5)"

    @given(perms)
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p), p.degree) == p

    def test_repr_is_a_parse_cycles_call(self):
        p = parse_cycles("(1 2 3)(4 5)", 7)
        assert repr(p) == "parse_cycles('(1 2 3)(4 5)', 7)"
        assert eval(repr(p), {"parse_cycles": parse_cycles}) == p


class TestAlgebra:
    def test_compose_convention_left_to_right(self):
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(2 3)", 3)
        r = p * q
        assert [r.apply(i) for i in (1, 2, 3)] == [3, 1, 2]

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError,
                           match=r"^degree mismatch: 3 vs 4$"):
            Permutation.identity(3) * Permutation.identity(4)

    @given(perms)
    def test_identity_laws(self, p):
        e = Permutation.identity(p.degree)
        assert p * e == p
        assert e * p == p
        assert p * p.inverse() == e
        assert p.inverse().inverse() == p

    @given(same_degree_pairs().flatmap(
        lambda pq: st.permutations(range(pq[0].degree)).map(
            lambda r: (pq[0], pq[1], Permutation(r)))))
    def test_associative(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    @given(same_degree_pairs(max_degree=12))
    def test_kernel_matches_oracles(self, pq):
        p, q = pq
        assert (p * q).images == oracles.mult(p.images, q.images)
        assert p.inverse().images == oracles.inv(p.images)
        square = oracles.mult(p.images, p.images)
        assert (p ** -2).images == oracles.inv(square)
        assert p.order() == oracles.tuple_order(p.images)

    @given(same_degree_pairs(max_degree=12))
    @example((Permutation((0,)), Permutation((0,))))
    def test_mult_by_matches_oracle(self, pq):
        # degree 1 is the case where itemgetter alone would return a scalar
        p, q = pq
        assert _mult_by(p.images)(q.images) == oracles.mult(p.images, q.images)

    @given(same_degree_pairs(max_degree=12))
    @example((Permutation((0,)), Permutation((0,))))
    def test_conjugators_conjugate(self, pt):
        g, t = pt
        [(same, by_g_inv)] = _conjugators([g.images])
        assert same == g.images
        expected = oracles.mult(oracles.mult(oracles.inv(g.images), t.images),
                                g.images)
        assert by_g_inv(_mult_by(t.images)(g.images)) == expected

    @pytest.mark.parametrize("name, step", [("A5", 1), ("C1", 1),
                                            ("C300", 10)])
    def test_conjugates_match_permutation_conjugation(self, group, name,
                                                      step):
        # C1 is where _mult_by returns tuple, C300 is past degree 256; there
        # every t meets every step-th g
        elements = list(enumerate_elements(group(name)))
        gs = elements[::step]
        conjugators = _conjugators([g.images for g in gs])
        inverses = [g.inverse() for g in gs]
        for t in elements:
            assert _conjugates(t.images, conjugators) == [
                (g_inv * t * g).images for g, g_inv in zip(gs, inverses)]

    def test_pow(self):
        p = parse_cycles("(1 2 3 4 5)", 5)
        assert p**5 == Permutation.identity(5)
        assert p**-1 == p.inverse()
        assert p**7 == p * p


class TestOrderAndSupport:
    def test_order_examples(self):
        assert Permutation.identity(4).order() == 1
        assert parse_cycles("(1 2 3)(4 5)", 5).order() == 6
        assert parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11).order() == 11

    @given(perms)
    def test_order_is_minimal_annihilator(self, p):
        n = p.order()
        assert (p**n).is_identity()
        for k in range(1, n):
            if n % k == 0:
                assert not (p**k).is_identity()

    def test_support_examples(self):
        assert Permutation.identity(5).support() == frozenset()
        assert parse_cycles("(1 2 3)(4 5)", 7).support() == {1, 2, 3, 4, 5}
        assert parse_cycles("(2 7)", 7).support() == {2, 7}

    @given(same_degree_pairs())
    def test_support_of_product_within_union(self, pq):
        p, q = pq
        assert (p * q).support() <= p.support() | q.support()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation((0, 3, 1))
