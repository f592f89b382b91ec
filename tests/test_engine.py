import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import _build
from solvcrit.engine import (
    EnumerationCapExceeded,
    StabilizerChain,
    _normal_closure_tuples,
    build_group,
    enumerate_elements,
)
from solvcrit.permutation import DegreeMismatchError, Permutation, parse_cycles


def perm(text, degree):
    return parse_cycles(text, degree)


class TestBuildGroup:
    def test_s4(self):
        g = build_group([perm("(1 2 3 4)", 4), perm("(1 2)", 4)])
        assert g.order() == 24

    def test_cyclic(self):
        g = build_group([perm("(1 2 3 4 5 6)", 6)])
        assert g.order() == 6

    def test_a5_from_two_generators(self):
        # frozen from the even-permutation enumeration oracle
        g = build_group([perm("(1 2 3 4 5)", 5), perm("(3 4 5)", 5)])
        assert g.order() == 60
        assert {p.images for p in enumerate_elements(g)} == set(
            oracles.even_permutations(5))

    def test_trivial_group(self):
        g = build_group([Permutation.identity(5)])
        assert g.order() == 1

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            build_group([])

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError,
                           match=r"^degree mismatch: 4 vs 3$"):
            build_group([Permutation.identity(3), Permutation.identity(4)])

    def test_chain_invariants(self):
        g = build_group([perm("(1 2 3 4 5)", 5), perm("(3 4 5)", 5)])
        chain = g.chain
        # product of transversal sizes is the order
        prod = 1
        for lv in chain._levels:
            prod *= len(lv.transversal)
        assert prod == g.order()
        # strong generators at level i fix all earlier base points
        base0 = [lv.point for lv in chain._levels]
        for i, level in enumerate(chain._levels):
            for gen in level.gens:
                assert all(gen[b] == b for b in base0[:i])
                assert chain.contains_tuple(gen)

    @given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_order_matches_closure_oracle(self, images):
        gens = [Permutation(img) for img in images]
        g = build_group(gens)
        assert g.order() == oracles.closure_order(
            [tuple(i) for i in images], 6)

    @given(st.lists(st.permutations(range(7)), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_order_and_solvability_match_sympy(self, images):
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics import PermutationGroup

        from solvcrit.structure import is_solvable

        g = build_group([Permutation(img) for img in images])
        reference = PermutationGroup([SymPerm(list(img)) for img in images])
        assert g.order() == reference.order()
        assert is_solvable(g).solvable == reference.is_solvable

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            StabilizerChain(0)

    def test_degree_one(self):
        g = build_group([Permutation.identity(1)])
        assert g.order() == 1
        assert list(enumerate_elements(g)) == [Permutation.identity(1)]


class TestContains:
    def test_odd_permutation_not_in_a5(self, group):
        assert perm("(1 2)", 5) not in group("A5")

    def test_identity_always_contained(self, group):
        assert Permutation.identity(5) in group("A5")

    def test_double_transposition_in_a5(self, group):
        assert perm("(1 2)(3 4)", 5) in group("A5")

    def test_degree_mismatch(self, group):
        with pytest.raises(DegreeMismatchError,
                           match=r"^degree mismatch: 6 vs 5$"):
            Permutation.identity(6) in group("A5")

    def test_agrees_with_enumerated_set(self, group):
        # A4 and A5 are proper in their symmetric groups, so this checks
        # both members and non-members
        import itertools
        import random

        g = group("A4")
        members = set(enumerate_elements(g))
        hits = 0
        for img in itertools.permutations(range(4)):
            p = Permutation(img)
            inside = p in g
            assert inside == (p in members)
            hits += inside
        assert hits == 12

        g = group("A5")
        members = set(enumerate_elements(g))
        rng = random.Random(5)
        domain = list(itertools.permutations(range(5)))
        for img in rng.sample(domain, 40):
            p = Permutation(img)
            assert (p in g) == (p in members)


class TestEnumeration:
    def test_counts(self, group):
        for name, n in (("C6", 6), ("S4", 24), ("A5", 60)):
            elems = list(enumerate_elements(group(name)))
            assert len(elems) == n
            assert len(set(elems)) == n

    def test_a5_order_multiset(self, group):
        from collections import Counter

        counts = Counter(p.order() for p in enumerate_elements(group("A5")))
        assert counts == {1: 1, 2: 15, 3: 20, 5: 24}

    def test_all_members(self, group):
        g = group("S4")
        for p in enumerate_elements(g):
            assert p in g

    def test_cap_exceeded(self, group, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "59")
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_elements(group("A5")))

    def test_cap_env_override(self, group, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "10")
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_elements(group("A5")))
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "60")
        assert len(list(enumerate_elements(group("A5")))) == 60


class TestDeterminism:
    def test_identical_rebuild(self):
        gens = [perm("(1 2 3 4 5 6 7)", 7), perm("(1 2)(3 4)", 7)]
        a = build_group(gens)
        b = build_group(gens)
        assert [lv.point for lv in a.chain._levels] == \
            [lv.point for lv in b.chain._levels]
        assert list(a.chain.iter_tuples()) == list(b.chain.iter_tuples())

    def test_base_rule_smallest_moved_point(self):
        g = build_group([perm("(3 4 5)", 6)])
        # point 3, 0-based
        assert [lv.point for lv in g.chain._levels] == [2]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class TestEnumerationOrderPins:
    """Frozen digests of the chain's enumeration order, its transversal
    representatives, and each level's discovery order and strong generators.

    The CLI golden digests guard these only through their output; a change
    to the Schreier-Sims queue or the orbit walk that reorders anything
    shows here first.
    """

    PINS = {
        "M11": (
            "02d2a93755fa8e82ccfb391926bda8be3e7d8d61cb2bf6806702e5bec4138e7d",
            "545c3cd6d0246b7a976558758d413c8a8a30f439b7000a8a37a87f5841314154",
            "684f3b601d5a768d00c7f995055e5815e0258beeb44b4d34bbed3ad8a18d5f59",
        ),
        "psl2:11": (
            "17ed329e58bf86dcaf367b396d31bb744b19fb774ef3e6ecb2680621585b6a1a",
            "382962edfb445cf2b7c10f81def88997256c7051322d96dcea48ed6db0dc1433",
            "5a192e998205fd3b81d552d190a8b6827a4748d6e966e6307b208106d07d4a4c",
        ),
        "A7": (
            "6eaa3d9d2a91b15d852e295b2c4656d5081e0c7825b5ec08ae96c57f6364f211",
            "d81d5e4d2ce3c26b459daa2009fcfc616d2c485cf33a1000a1e0065e9e91be76",
            "f8ec8d41aff9432355ad0828b83450e42e6910914728114691b28b155a050f72",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_chain_digests(self, group, name):
        chain = group(name).chain
        levels = chain._levels
        assert (
            _sha(list(chain.iter_tuples())),
            _sha([(lv.point, sorted(lv.transversal.items())) for lv in levels]),
            _sha([(list(lv.transversal), lv.gens) for lv in levels]),
        ) == self.PINS[name]


# C1's chain has no levels; C300's degree is above 256
SELECTION_GROUPS = ["C1", "S4", "A6", "M11", "C300", "A5wrC2"]


@functools.cache
def _selection_case(name):
    chain = _build(name).chain
    return chain, list(chain.iter_tuples())


def _filtered(chain, positions):
    wanted = set(positions)
    return [t for k, t in enumerate(chain.iter_tuples()) if k in wanted]


class TestTuplesAt:
    """``tuples_at`` picks out of the enumeration without walking it."""

    @pytest.mark.parametrize("name", SELECTION_GROUPS)
    def test_every_position(self, name):
        chain, elements = _selection_case(name)
        every = range(len(elements))
        assert list(chain.tuples_at(every)) == _filtered(chain, every)

    @pytest.mark.parametrize("name", SELECTION_GROUPS)
    def test_no_position(self, name):
        chain, _elements = _selection_case(name)
        assert list(chain.tuples_at([])) == []

    @pytest.mark.parametrize("name", SELECTION_GROUPS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sorted_subsets(self, name, data):
        chain, elements = _selection_case(name)
        positions = sorted(data.draw(
            st.sets(st.integers(0, len(elements) - 1), max_size=200)))
        assert list(chain.tuples_at(positions)) == \
            _filtered(chain, positions)

    @pytest.mark.parametrize("name", SELECTION_GROUPS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_order_and_repeats(self, name, data):
        # positions come back in the order given, repeats included
        chain, elements = _selection_case(name)
        positions = data.draw(
            st.lists(st.integers(0, len(elements) - 1), max_size=50))
        assert list(chain.tuples_at(positions)) == \
            [elements[k] for k in positions]

    @pytest.mark.parametrize("name", SELECTION_GROUPS)
    def test_position_outside_rejected(self, name):
        chain, elements = _selection_case(name)
        for k in (-1, len(elements)):
            with pytest.raises(IndexError):
                chain.tuples_at([0, k])


class TestGeneratedSubgroup:
    def test_single_three_cycle(self):
        assert build_group([perm("(1 2 3)", 4)]).order() == 3

    def test_a4_on_support(self):
        # frozen from exhaustive closure of the two generators
        g = build_group([perm("(1 2)(3 4)", 5), perm("(1 2 3)", 5)])
        assert g.order() == 12

    def test_duplicate_generator(self):
        x = perm("(1 2 3 4 5 6)", 7)
        g = build_group([x, x])
        assert g.order() == x.order()


def _closure_chain(g, seeds):
    _gens, chain = _normal_closure_tuples(
        [p.images for p in g.generators], [s.images for s in seeds], g.degree)
    return chain


class TestNormalClosure:
    def test_three_cycle_in_s4_gives_a4(self, group):
        nc = _closure_chain(group("S4"), [perm("(1 2 3)", 4)])
        assert nc.order() == 12

    def test_identity_seed_gives_trivial(self, group):
        nc = _closure_chain(group("S4"), [Permutation.identity(4)])
        assert nc.order() == 1

    def test_simple_group_closure_is_whole_group(self, group):
        nc = _closure_chain(group("A5"), [perm("(1 2 3)", 5)])
        assert nc.order() == 60

    def test_matches_brute_force_closure(self, group):
        # independent oracle: conjugate by every group element, then close
        g = group("S4")
        seed = perm("(1 2)(3 4)", 4).images
        everything = oracles.closure(
            [x.images for x in g.generators], 4)
        conjugates = {oracles.mult(oracles.mult(oracles.inv(t), seed), t)
                      for t in everything}
        expected = len(oracles.closure(conjugates, 4))
        nc = _closure_chain(g, [perm("(1 2)(3 4)", 4)])
        assert nc.order() == expected == 4

    def test_result_closed_under_conjugation(self, group):
        g = group("S5")
        gens, nc = _normal_closure_tuples(
            [p.images for p in g.generators], [perm("(1 2 3)", 5).images], 5)
        for h in map(Permutation, gens):
            for gen in g.generators:
                assert nc.contains_tuple((gen.inverse() * h * gen).images)


class TestConjugationConsistency:
    def test_subgroup_order_is_conjugation_invariant(self, group):
        import random

        g = group("A5")
        elems = list(enumerate_elements(g))
        rng = random.Random(7)
        x = perm("(1 2 3)", 5)
        y = perm("(1 2 3 4 5)", 5)
        base = build_group([x, y]).order()
        for _ in range(20):
            t = rng.choice(elems)
            xt = t.inverse() * x * t
            yt = t.inverse() * y * t
            assert build_group([xt, yt]).order() == base


class TestKnownOrderBound:
    # <x, y> lies in G, so a build bounded by |G| may stop once its order
    # reaches |G|; the chain it stops with must be as exact as a closed one
    @pytest.mark.parametrize("name", ["A6", "psl2:8", "M11"])
    def test_bounded_build_is_exact(self, group, name):
        g = group(name)
        n, order = g.degree, g.order()
        elems = [p.images for p in enumerate_elements(g)]
        rng = random.Random(name)
        outsider = perm("(1 2)", n).images  # odd; these groups are simple
        assert not g.chain.contains_tuple(outsider)
        stopped = stopped_early = 0
        for _ in range(40):
            pair = (rng.choice(elems), rng.choice(elems))
            bounded = StabilizerChain.build(pair, n, bound=order)
            assert bounded.order() == StabilizerChain.build(pair, n).order()
            if bounded.order() != order:
                continue
            stopped += 1
            stopped_early += any(lv.pending for lv in bounded._levels)
            for t in rng.sample(elems, 200) + [outsider]:
                assert bounded.contains_tuple(t) == g.chain.contains_tuple(t)
            if stopped == 1:
                assert sorted(bounded.iter_tuples()) == sorted(elems)
        assert stopped_early > 0, name
