import functools
import random
from types import GeneratorType

import pytest

import oracles
from solvcrit import criterion, structure
from solvcrit.catalog import catalog_group
from solvcrit.criterion import (
    check_criterion,
    search_witness_pairs,
    verify_witness_pair,
)
from solvcrit.engine import (
    EnumerationCapExceeded,
    GroupHandle,
    StabilizerChain,
    _normal_closure_tuples,
    build_group,
    enumerate_elements,
)
from solvcrit.permutation import Permutation, parse_cycles
from solvcrit.structure import (
    _centralizer_tuples,
    _class_partition,
    _solvability_tuples,
    conjugacy_classes,
    elements_of_order,
    is_solvable,
    order_spectrum,
)


def perm(text, degree):
    return parse_cycles(text, degree)


def _derived(gens, degree):
    # [G, G] as the normal closure of the generators' commutators, closed
    # in full, with its order from a fresh chain on the closure's generators
    closure, _chain = _normal_closure_tuples(
        gens, structure._commutator_tuples(gens), degree)
    return closure, StabilizerChain.build(closure, degree)


class TestDerivedSubgroup:
    def test_s4(self, group):
        gens = [p.images for p in group("S4").generators]
        assert _derived(gens, 4)[1].order() == 12

    def test_abelian_gives_trivial(self, group):
        gens = [p.images for p in group("C6").generators]
        assert _derived(gens, 6)[1].order() == 1

    def test_perfect_group(self, group):
        gens = [p.images for p in group("A5").generators]
        assert _derived(gens, 5)[1].order() == 60

    def test_matches_full_commutator_brute_force(self, group):
        for name in ("S4", "D10", "F20", "A5"):
            g = group(name)
            elements = {p.images for p in enumerate_elements(g)}
            commutators = {
                oracles.mult(oracles.mult(oracles.mult(
                    oracles.inv(a), oracles.inv(b)), a), b)
                for a in elements for b in elements}
            expected = len(oracles.closure(commutators, g.degree))
            gens = [p.images for p in g.generators]
            assert _derived(gens, g.degree)[1].order() == expected

    def test_derived_subgroup_is_normal(self, group):
        g = group("S5")
        gens, d = _derived([p.images for p in g.generators], 5)
        for h in map(Permutation, gens):
            for gen in g.generators:
                assert d.contains_tuple((gen.inverse() * h * gen).images)


class TestSolvability:
    def test_s4_series(self, group):
        result = is_solvable(group("S4"))
        assert result.solvable
        assert result.series_orders == (24, 12, 4, 1)

    def test_a5_stabilizes(self, group):
        result = is_solvable(group("A5"))
        assert not result.solvable
        assert result.series_orders[-1] == 60

    def test_directly_built_handle_matches_built_group(self, group):
        g = group("A5")
        h = GroupHandle(g.generators, g.chain, g.label)
        assert is_solvable(h) == is_solvable(g)
        assert len(conjugacy_classes(h)) == 5
        _gens, chain = _normal_closure_tuples(
            [p.images for p in h.generators],
            [parse_cycles("(1 2 3)", 5).images], 5)
        assert chain.order() == 60

    def test_burnside_two_prime_corpus(self, group):
        # order p^a q^b forces solvability; sanity oracle, not implementation
        for name in ("F20", "S4", "D12", "C12", "D6"):
            assert is_solvable(group(name)).solvable

    def test_result_is_truthy_iff_solvable(self, group):
        assert is_solvable(group("C6"))
        assert not is_solvable(group("A5"))

    def test_matches_brute_force_series(self, group):
        for name in ("S4", "C12", "F20", "A5", "S5", "psl2:7"):
            g = group(name)
            elements = {p.images for p in enumerate_elements(g)}
            brute = oracles.brute_is_solvable(elements, g.degree)
            assert is_solvable(g).solvable == brute


def _unbounded_series(handle):
    # _derived closes every chain in full
    gens, orders = [p.images for p in handle.generators], [handle.order()]
    while orders[-1] > 1:
        gens, chain = _derived(gens, handle.degree)
        orders.append(chain.order())
        if orders[-1] == orders[-2]:
            break
    return orders


class TestBoundedDerivedStep:
    # each derived step stops once its closure reaches the order of the
    # subgroup it starts from, which proves that subgroup perfect
    def test_series_matches_unbounded_closure(self, group):
        for name in ("A6", "psl2:8", "M11"):
            g = group(name)
            elems = [p.images for p in enumerate_elements(g)]
            rng = random.Random(name)
            for _ in range(15):
                pair = (rng.choice(elems), rng.choice(elems))
                h = build_group([Permutation(t) for t in pair])
                series = _solvability_tuples(pair, g.degree, h.order())
                assert list(series.series_orders) == _unbounded_series(h), \
                    (name, pair)

    def test_perfect_subgroup_stops_at_its_order(self):
        # A5 on the points 2..6 of A6
        pair = (perm("(2 3 4 5 6)", 6).images, perm("(2 3 4)", 6).images)
        assert _solvability_tuples(pair, 6, 60).series_orders == (60, 60)


class TestConjugacyClasses:
    def test_a5_sizes(self, group):
        classes = conjugacy_classes(group("A5"))
        assert sorted(c.size for c in classes) == [1, 12, 12, 15, 20]

    def test_s3_sizes(self, group):
        assert sorted(c.size for c in conjugacy_classes(group("S3"))) == [1, 2, 3]

    def test_abelian_singletons(self, group):
        classes = conjugacy_classes(group("C6"))
        assert len(classes) == 6
        assert all(c.size == 1 for c in classes)

    def test_class_equation(self, group):
        for name in ("S4", "A5", "F20", "psl2:7"):
            g = group(name)
            classes = conjugacy_classes(g)
            assert sum(c.size for c in classes) == g.order()
            assert all(g.order() % c.size == 0 for c in classes)

    def test_matches_brute_force_partition(self, group):
        for name in ("S3", "S4", "A5", "D10"):
            g = group(name)
            elements = {p.images for p in enumerate_elements(g)}
            expected = {frozenset(c) for c in oracles.conjugacy_partition(elements)}
            got = {frozenset(m.images for m in c.members)
                   for c in conjugacy_classes(g)}
            assert got == expected

    def test_members_share_order_and_class(self, group):
        g = group("S4")
        for c in conjugacy_classes(g):
            assert len(c.members) == c.size
            assert all(m.order() == c.order_of_elements for m in c.members)
            assert c.representative == c.members[0]

    def test_conjugating_representative_stays_in_class(self, group):
        g = group("A5")
        elems = list(enumerate_elements(g))
        rng = random.Random(11)
        for c in conjugacy_classes(g):
            members = set(c.members)
            for _ in range(20):
                t = rng.choice(elems)
                assert t.inverse() * c.representative * t in members

    def test_m11_class_structure(self, group):
        # the classical degree-11 class data: ten classes, two of order 8
        # and two of order 11
        classes = conjugacy_classes(group("M11"))
        assert [(c.order_of_elements, c.size) for c in classes] == [
            (1, 1), (2, 165), (3, 440), (4, 990), (5, 1584),
            (6, 1320), (8, 990), (8, 990), (11, 720), (11, 720)]

    def test_m11_spectrum(self, group):
        assert order_spectrum(group("M11")).orders == (1, 2, 3, 4, 5, 6, 8, 11)

    def test_deterministic_ordering(self, group):
        a = conjugacy_classes(group("A6"))
        b = conjugacy_classes(group("A6"))
        assert [(c.order_of_elements, c.size, c.representative) for c in a] == \
               [(c.order_of_elements, c.size, c.representative) for c in b]
        keys = [(c.order_of_elements, c.size) for c in a]
        assert keys == sorted(keys)


class TestClassPartition:
    @pytest.mark.parametrize("name", ["A6", "psl2:8", "M11"])
    def test_merged_positions_are_elements_of_order(self, group, name):
        # the witness scans take their y-lists from these merged positions
        g = group(name)
        partition = _class_partition(g)
        assert partition is g._classes
        elements = [p.images for p in enumerate_elements(g)]
        # positions[0] is the representative: the earliest member
        assert all(list(ks) == sorted(ks) for _order, ks in partition)
        for b in order_spectrum(g).orders:
            merged = sorted(k for order, ks in partition if order == b
                            for k in ks)
            assert list(g.chain.tuples_at(merged)) == \
                [elements[k] for k in merged] == \
                [p.images for p in elements_of_order(g, b)], b


class TestOrderSpectrum:
    def test_a5(self, group):
        assert order_spectrum(group("A5")).orders == (1, 2, 3, 5)

    def test_c6(self, group):
        assert order_spectrum(group("C6")).orders == (1, 2, 3, 6)

    def test_psl27(self, group):
        assert order_spectrum(group("psl2:7")).orders == (1, 2, 3, 4, 7)

    def test_lagrange(self, group):
        for name in ("S4", "A6", "psl2:8", "F20"):
            spec = order_spectrum(group(name))
            assert 1 in spec.orders
            assert all(spec.group_order % m == 0 for m in spec.orders)

    def test_matches_enumeration_exactly(self, group):
        g = group("S5")
        expected = sorted({p.order() for p in enumerate_elements(g)})
        assert list(order_spectrum(g).orders) == expected


class TestElementsOfOrder:
    def test_a5_order_5(self, group):
        assert len(list(elements_of_order(group("A5"), 5))) == 24

    def test_a5_order_4_empty(self, group):
        assert list(elements_of_order(group("A5"), 4)) == []

    def test_order_1_is_identity(self, group):
        for name in ("A5", "C6", "S4"):
            only = list(elements_of_order(group(name), 1))
            assert only == [Permutation.identity(group(name).degree)]

    def test_orders_correct_and_deterministic(self, group):
        g = group("S4")
        first = list(elements_of_order(g, 2))
        assert all(p.order() == 2 for p in first)
        assert first == list(elements_of_order(g, 2))

    def test_cap_applies(self, group, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "10")
        with pytest.raises(EnumerationCapExceeded):
            list(elements_of_order(group("A5"), 5))

    # the call itself raises, before anything is iterated
    def test_nonpositive_order_rejected_at_call(self, group):
        with pytest.raises(ValueError):
            elements_of_order(group("A5"), 0)

    def test_cap_applies_at_call(self, group, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "10")
        with pytest.raises(EnumerationCapExceeded):
            elements_of_order(group("A5"), 5)


# C300 has 300 one-element classes and element orders past 255
INDEX_GROUPS = ["A6", "psl2:8", "M11", "S5", "C300"]


@functools.cache
def _brute_orders(name):
    """(element, order) over the enumeration of a new handle, each order
    from the oracle, so the filter shares no code with what it checks."""
    return [(p, oracles.tuple_order(p.images))
            for p in enumerate_elements(catalog_group(name))]


def _count_calls(monkeypatch, name):
    # counts the calls that structure makes to its kernel function ``name``
    calls = []
    original = getattr(structure, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(structure, name, counting)
    return calls


# an (a, b) order pair of each group; C300 is abelian, so its pair is
# refuted and the others verify
ORDER_PAIRS = {"A6": (3, 5), "psl2:8": (3, 7), "M11": (2, 11), "C300": (3, 4)}


class TestOrderIndex:
    """The spectrum and every order query read the handle's class record."""

    @pytest.mark.parametrize("spectrum_first", [True, False],
                             ids=["spectrum-first", "elements-first"])
    @pytest.mark.parametrize("seeded", [False, True],
                             ids=["fresh", "after-classes"])
    @pytest.mark.parametrize("name", INDEX_GROUPS)
    def test_matches_brute_filter(self, name, seeded, spectrum_first):
        g = catalog_group(name)
        if seeded:
            conjugacy_classes(g)
        brute = _brute_orders(name)
        spectrum = tuple(sorted({o for _p, o in brute}))

        def check_elements():
            # every m up to past the largest order, so absent orders too
            for m in range(1, spectrum[-1] + 2):
                assert list(elements_of_order(g, m)) == \
                    [p for p, o in brute if o == m], m

        if spectrum_first:
            assert order_spectrum(g).orders == spectrum
            check_elements()
        else:
            check_elements()
            assert order_spectrum(g).orders == spectrum

    def test_c1_has_only_its_identity(self):
        # C1's chain has no levels: position 0 is the identity, and an
        # order with no positions selects nothing
        g = catalog_group("C1")
        assert list(elements_of_order(g, 1)) == [Permutation.identity(1)]
        assert list(elements_of_order(g, 2)) == []

    @pytest.mark.parametrize("name", ["A6", "M11", "C300", "A5wrC2"])
    def test_recorded_handle_never_enumerates(self, group, monkeypatch,
                                              name):
        # with the record in hand, only the selected elements are composed
        g = group(name)
        conjugacy_classes(g)
        brute = [(p, oracles.tuple_order(p.images))
                 for p in enumerate_elements(g)]

        def refuse(chain):
            raise AssertionError("iter_tuples called")

        monkeypatch.setattr(StabilizerChain, "iter_tuples", refuse)
        for m in order_spectrum(g).orders:
            assert list(elements_of_order(g, m)) == \
                [p for p, o in brute if o == m], m

    def test_elements_of_order_is_a_generator(self):
        # a generator runs its enumeration as the caller iterates, on a
        # fresh handle, where the call walks and keeps the class record,
        # and on one whose record conjugacy_classes wrote
        g = catalog_group("A5")
        assert type(elements_of_order(g, 5)) is GeneratorType
        assert g._classes is not None
        recorded = catalog_group("A5")
        conjugacy_classes(recorded)
        assert type(elements_of_order(recorded, 5)) is GeneratorType


class TestClassRecord:
    """The classes, the spectrum, every order query and the scans read one
    per-handle class record, walked once."""

    @pytest.mark.parametrize("classes_first", [True, False],
                             ids=["classes-first", "scans-first"])
    @pytest.mark.parametrize("name", ["A6", "psl2:8", "C300"])
    def test_one_walk_per_handle(self, monkeypatch, name, classes_first):
        g = catalog_group(name)
        a, b = ORDER_PAIRS[name]
        walks = _count_calls(monkeypatch, "_conjugators")
        orders = _count_calls(monkeypatch, "_tuple_order")
        queries = [
            lambda: conjugacy_classes(g),
            lambda: order_spectrum(g),
            lambda: [list(elements_of_order(g, m))
                     for m in order_spectrum(g).orders],
            lambda: verify_witness_pair(g, a, b),
            lambda: search_witness_pairs(g),
            lambda: check_criterion(g),
        ]
        for query in queries if classes_first else reversed(queries):
            query()
        assert len(walks) == 1
        assert len(orders) <= len(g._classes)

    @pytest.mark.parametrize("name", ["A6", "M11", "C300"])
    def test_fresh_order_queries_walk_once(self, monkeypatch, name):
        # a one-off spectrum sweeps G, one order per element, and stores
        # nothing; the first order query walks the classes, one order per
        # class, and every later one reads that record
        g = catalog_group(name)
        walks = _count_calls(monkeypatch, "_conjugators")
        orders = _count_calls(monkeypatch, "_tuple_order")
        spectrum = order_spectrum(g).orders
        assert walks == []
        assert g._classes is None
        assert len(orders) == g.order()
        for m in spectrum:
            list(elements_of_order(g, m))
        assert len(walks) == 1
        assert len(orders) <= g.order() + len(g._classes)

    @pytest.mark.parametrize("name", ["A6", "M11", "C300"])
    def test_classes_enumerate_g_once(self, monkeypatch, name):
        # on a fresh handle the class walk reads the list of G that
        # conjugacy_classes wraps; a recorded handle lists G only to wrap
        g = catalog_group(name)
        iter_tuples = StabilizerChain.iter_tuples
        enumerations = []

        def counting(chain):
            if chain is g.chain:
                enumerations.append(1)
            return iter_tuples(chain)

        monkeypatch.setattr(StabilizerChain, "iter_tuples", counting)
        fresh = conjugacy_classes(g)
        assert len(enumerations) == 1
        assert repr(conjugacy_classes(g)) == repr(fresh)
        assert len(enumerations) == 2

    @pytest.mark.parametrize("name", ["A6", "psl2:8", "M11"])
    def test_record_changes_no_result(self, name):
        # each query runs on a fresh handle, which walks its own classes,
        # and on one whose record verify_witness_pair built; M11 leaves out
        # the searches, which take seconds there and read the same record
        recorded = catalog_group(name)
        a, b = ORDER_PAIRS[name]
        assert verify_witness_pair(recorded, a, b).verified
        assert recorded._classes is not None
        queries = [conjugacy_classes, lambda g: verify_witness_pair(g, a, b),
                   lambda g: [list(elements_of_order(g, m))
                              for m in order_spectrum(g).orders]]
        if name != "M11":
            queries += [lambda g: search_witness_pairs(g, True),
                        check_criterion]
        for query in queries:
            assert repr(query(catalog_group(name))) == repr(query(recorded))

    def test_relabelled_group_keeps_its_own_record(self):
        g = catalog_group("psl2:7")
        sigma = Permutation((3, 0, 6, 1, 7, 5, 2, 4))
        gens = [sigma.inverse() * h * sigma for h in g.generators]
        relabelled = build_group(gens)
        assert relabelled.order() == g.order()
        reps = [c.representative for c in conjugacy_classes(g)]
        relabelled_reps = [c.representative
                           for c in conjugacy_classes(relabelled)]
        assert reps != relabelled_reps
        assert relabelled._classes is not g._classes
        again = build_group(gens)
        assert repr(conjugacy_classes(again)) == \
            repr(conjugacy_classes(relabelled))
        assert relabelled._classes == again._classes

    def test_cap_applies_to_recorded_handle(self, group, monkeypatch):
        # S4 is solvable, so check_criterion reads only its record
        for name in ("A5", "S4"):
            g = group(name)
            conjugacy_classes(g)
            assert g._classes is not None
            with monkeypatch.context() as m:
                m.setenv("SOLVCRIT_ENUM_CAP", "10")
                for query in (order_spectrum,
                              lambda g: elements_of_order(g, 3),
                              conjugacy_classes,
                              lambda g: verify_witness_pair(g, 2, 3),
                              search_witness_pairs,
                              check_criterion):
                    with pytest.raises(EnumerationCapExceeded):
                        query(g)

    def test_cap_comes_before_solvability(self, monkeypatch):
        # a fresh solvable handle above the cap is refused before |G| is
        # factored or a derived series is run
        def refuse(*args):
            raise AssertionError("solvability decided above the cap")

        for attr in ("is_solvable", "factorize"):
            monkeypatch.setattr(criterion, attr, refuse)
        monkeypatch.setattr(structure, "is_solvable", refuse)
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "10")
        for query in (check_criterion,
                      lambda g: verify_witness_pair(g, 2, 3),
                      search_witness_pairs):
            g = catalog_group("S4")
            with pytest.raises(EnumerationCapExceeded):
                query(g)
            assert g._classes is None


def _agl1(p, root):
    # AGL(1, p) on the points 0..p-1: x -> x + 1 and x -> root * x
    g = build_group([Permutation([(x + 1) % p for x in range(p)]),
                     Permutation([root * x % p for x in range(p)])])
    assert g.order() == p * (p - 1)
    return g


class TestCentralizer:
    def test_generators_centralize_and_close_to_class_quotient(self, group):
        # C_G(x) has |G| / |class of x| elements (orbit-stabilizer)
        names = ("A5", "A6", "A7", "psl2:7", "psl2:8", "psl2:9", "psl2:11",
                 "psl2:13", "M11", "D60")
        cases = [(name, group(name)) for name in names]
        cases.append(("AGL(1,31)", _agl1(31, 3)))
        for name, g in cases:
            elements = [p.images for p in enumerate_elements(g)]
            for c in conjugacy_classes(g):
                x = c.representative.images
                listed = _centralizer_tuples(elements, x,
                                             g.order() // c.size)
                assert len(listed) == len(set(listed)) == g.order() // c.size
                commuting = {h for h in elements
                             if oracles.mult(h, x) == oracles.mult(x, h)}
                assert set(listed) == commuting, (name, c)

    def test_sweep_that_ends_short_raises(self, group):
        # an order above |C_G(x)| is never reached by elements commuting
        # with x, and the sweep says so instead of returning
        g = group("A5")
        elements = [p.images for p in enumerate_elements(g)]
        x = parse_cycles("(1 2 3)", 5).images
        with pytest.raises(AssertionError, match="centralizer order"):
            _centralizer_tuples(elements, x, g.order())


SMALL_DEGREE_GROUPS = {
    "trivial (degree 1)": [Permutation.identity(1)],
    "S2": [Permutation((1, 0))],
    "C2 x C2": [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))],
}


@pytest.mark.parametrize("name", sorted(SMALL_DEGREE_GROUPS))
class TestSmallDegrees:
    """Degrees 1 and 2, where a one-index ``itemgetter`` returns a scalar."""

    @staticmethod
    def _setup(name):
        g = build_group(SMALL_DEGREE_GROUPS[name])
        return g, oracles.closure([p.images for p in g.generators], g.degree)

    def test_enumerate_elements(self, name):
        g, elements = self._setup(name)
        listed = [p.images for p in enumerate_elements(g)]
        assert len(listed) == g.order() == len(elements)
        assert set(listed) == elements

    def test_conjugacy_classes(self, name):
        g, elements = self._setup(name)
        got = {frozenset(m.images for m in c.members)
               for c in conjugacy_classes(g)}
        assert got == {frozenset(c)
                       for c in oracles.conjugacy_partition(elements)}

    def test_centralizer(self, name):
        g, elements = self._setup(name)
        listed = [p.images for p in enumerate_elements(g)]
        for c in conjugacy_classes(g):
            x = c.representative.images
            gens = _centralizer_tuples(listed, x, g.order() // c.size)
            expected = {h for h in elements
                        if oracles.mult(h, x) == oracles.mult(x, h)}
            assert oracles.closure(gens, g.degree) == expected

    def test_normal_closure(self, name):
        g, elements = self._setup(name)
        for seed in sorted(elements):
            conjugates = {oracles.mult(oracles.mult(oracles.inv(t), seed), t)
                          for t in elements}
            _gens, closed = _normal_closure_tuples(
                [p.images for p in g.generators], [seed], g.degree)
            assert set(closed.iter_tuples()) == \
                oracles.closure(conjugates, g.degree)

    def test_is_solvable(self, name):
        g, elements = self._setup(name)
        result = is_solvable(g)
        assert result.solvable == oracles.brute_is_solvable(elements, g.degree)
        assert result.series_orders[0] == len(elements)
        assert result.series_orders[-1] == 1
