import hashlib
import math
import random
from collections import Counter

import pytest

import oracles
from solvcrit import criterion
from solvcrit.catalog import catalog_group
from solvcrit.criterion import (
    ClassRef,
    CriterionReport,
    OrderNotInSpectrumError,
    _PairJudge,
    _witness_report,
    check_criterion,
    search_witness_pairs,
    verify_witness_pair,
)
from solvcrit.engine import StabilizerChain, build_group, enumerate_elements
from solvcrit.numbertheory import factorize, is_prime
from solvcrit.permutation import (
    Permutation,
    _cyclic_generators,
    _powers,
    parse_cycles,
)
from solvcrit.structure import (
    _class_partition,
    _positions_of_order,
    _solvability_tuples,
    conjugacy_classes,
    elements_of_order,
    is_solvable,
    order_spectrum,
)
from test_structure import _agl1


def perm(text, degree):
    return parse_cycles(text, degree)


class TestCheckCriterion:
    def test_holds_for_solvable_groups(self, group):
        for name in ("S4", "C6", "F20", "D12"):
            report = check_criterion(group(name))
            assert report.holds
            n = len(report.classes)
            assert report.pairs_checked == n * n
            assert set(report.solvable_witnesses) == {
                (i, j) for i in range(n) for j in range(n)}

    def test_witnesses_are_genuine(self, group):
        g = group("S4")
        report = check_criterion(g)
        classes = conjugacy_classes(g)
        for (i, j), (x, y) in report.solvable_witnesses.items():
            assert x in set(classes[i].members)
            assert y in set(classes[j].members)
            assert is_solvable(build_group([x, y])).solvable

    def test_a5_fails_on_three_five_pair(self, group):
        report = check_criterion(group("A5"))
        assert not report.holds
        c, d = report.counterexample
        assert (c.order_of_elements, d.order_of_elements) == (3, 5)
        assert report.counterexample_rechecked

    def test_counterexample_matches_brute_force(self, group):
        g = group("A5")
        report = check_criterion(g)
        classes = conjugacy_classes(g)
        c = {m.images for m in classes[report.counterexample[0].index].members}
        d = {m.images for m in classes[report.counterexample[1].index].members}
        assert not oracles.brute_solvable_pair_exists(c, d, g.degree)

    def test_reduction_agrees_with_full_rectangle_scan(self, group):
        # the rep-vs-class reduction must match the raw definition pairwise
        for name in ("S4", "D10", "A5"):
            g = group(name)
            classes = conjugacy_classes(g)
            report = check_criterion(g)
            witnessed = set(report.solvable_witnesses)
            for i, c in enumerate(classes):
                for j, d in enumerate(classes):
                    if not report.holds and (i, j) not in witnessed:
                        continue  # scan stopped at the counterexample
                    brute = oracles.brute_solvable_pair_exists(
                        {m.images for m in c.members},
                        {m.images for m in d.members}, g.degree)
                    assert brute == ((i, j) in witnessed)

    def test_theorem_equivalence_small(self, group):
        for name in ("C6", "S4", "A4", "A5", "F20", "psl2:7"):
            g = group(name)
            assert check_criterion(g).holds == is_solvable(g).solvable


def _scan_core_report(g):
    # the report of the scan core judging every class pair of g
    classes = conjugacy_classes(g)
    judge = _PairJudge(g)
    witnesses, examined = {}, 0
    for i, c in enumerate(classes):
        x = c.representative.images
        for j, d in enumerate(classes):
            tally = Counter()
            y = judge.first_solvable(x, c.size, [m.images for m in d.members],
                                     tally)
            witnesses[i, j] = (c.representative, Permutation(y))
            examined += sum(tally.values())
    refs = tuple(ClassRef(i, c.order_of_elements, c.size)
                 for i, c in enumerate(classes))
    return CriterionReport(holds=True, classes=refs,
                           pairs_checked=len(witnesses),
                           solvable_witnesses=witnesses,
                           subgroups_examined=examined)


def _s3_wr_s3():
    # S3 wr S3 on three blocks of three points: S3 on the first block and
    # S3 permuting the blocks; 6^3 * 6 = 1296 elements in 22 classes
    g = build_group([perm(text, 9) for text in (
        "(1 2 3)", "(1 2)", "(1 4 7)(2 5 8)(3 6 9)", "(1 4)(2 5)(3 6)")])
    assert g.order() == 1296
    return g


class TestSolvableParentShortcut:
    def test_report_equals_scan_core(self, group):
        # the shortcut judges no subgroup; its report must be the one the
        # scan core gives when it judges every class pair
        cases = [group(name) for name in ("S4", "C6", "F20", "D12", "D60")]
        cases.append(_agl1(31, 3))
        for g in cases:
            assert check_criterion(g) == _scan_core_report(g), g

    @pytest.mark.parametrize("build", [lambda: catalog_group("S4"),
                                       lambda: _agl1(31, 3), _s3_wr_s3],
                             ids=["S4", "AGL(1,31)", "S3wrS3"])
    def test_composes_only_the_representatives(self, monkeypatch, build):
        # a recorded handle is never listed and no class is wrapped: one
        # tuples_at call composes the classes' first members; a fresh
        # handle's only listing is its class walk
        g = build()
        fresh = check_criterion(g)
        record = g._classes
        assert record is not None and fresh.holds
        iter_tuples, tuples_at = (StabilizerChain.iter_tuples,
                                  StabilizerChain.tuples_at)
        listed, composed = [], []

        def counting(chain):
            if chain is g.chain:
                listed.append(1)
            return iter_tuples(chain)

        def recording(chain, positions):
            if chain is g.chain:
                composed.append(list(positions))
            return tuples_at(chain, positions)

        def refuse(group):
            raise AssertionError("solvable G wrapped as conjugacy classes")

        monkeypatch.setattr(StabilizerChain, "iter_tuples", counting)
        monkeypatch.setattr(StabilizerChain, "tuples_at", recording)
        monkeypatch.setattr(criterion, "conjugacy_classes", refuse)
        recorded = check_criterion(g)
        monkeypatch.undo()
        assert listed == []
        assert composed == [[positions[0] for _order, positions in record]]
        assert fresh == recorded == _scan_core_report(g)

    def test_s4_witnesses_pass_the_oracles(self, group):
        g = group("S4")
        for (x, y) in check_criterion(g).solvable_witnesses.values():
            sub = oracles.closure([x.images, y.images], g.degree)
            assert oracles.brute_is_solvable(sub, g.degree)


class TestVerifyWitnessPair:
    def test_a5_3_5(self, group):
        report = verify_witness_pair(group("A5"), 3, 5)
        assert report.verified
        assert report.orders() == {60}

    def test_a6_3_5(self, group):
        report = verify_witness_pair(group("A6"), 3, 5)
        assert report.verified
        assert report.orders() <= {60, 360}

    def test_a5_2_3_refuted(self, group):
        report = verify_witness_pair(group("A5"), 2, 3)
        assert not report.verified
        x, y = report.counterexample
        sub = build_group([x, y])
        assert is_solvable(sub).solvable
        assert (x.order(), y.order()) == (2, 3)

    def test_a5_2_3_exhaustive_cross_check(self, group):
        # frozen from the exhaustive 15 x 20 scan: solvable pairs exist
        g = group("A5")
        twos = {p.images for p in enumerate_elements(g) if p.order() == 2}
        threes = {p.images for p in enumerate_elements(g) if p.order() == 3}
        assert oracles.brute_solvable_pair_exists(twos, threes, 5)

    def test_psl27_2_7(self, group):
        report = verify_witness_pair(group("psl2:7"), 2, 7)
        assert report.verified
        assert report.orders() == {168}

    def test_psl27_4_3_refuted_by_s4_subgroup(self, group):
        # an order-4 and an order-3 element can generate a solvable
        # subgroup of order 24, so (4, 3) is not a witness pair here
        report = verify_witness_pair(group("psl2:7"), 4, 3)
        assert not report.verified
        assert (24, True) in report.outcome_orders

    def test_symmetry_of_verification(self, group):
        g = group("A5")
        for a, b in ((2, 3), (3, 5), (2, 5), (3, 2), (5, 3)):
            assert (verify_witness_pair(g, a, b).verified
                    == verify_witness_pair(g, b, a).verified)

    def test_order_not_in_spectrum_rejected(self, group):
        with pytest.raises(OrderNotInSpectrumError):
            verify_witness_pair(group("A5"), 4, 5)
        with pytest.raises(OrderNotInSpectrumError):
            verify_witness_pair(group("A5"), 5, 7)

    def test_equal_orders_always_refuted(self, group):
        # x = y is allowed, and <x, x> is cyclic
        report = verify_witness_pair(group("A5"), 5, 5)
        assert not report.verified

    def test_deterministic_counterexample(self, group):
        a = verify_witness_pair(group("A5"), 2, 3)
        b = verify_witness_pair(group("A5"), 2, 3)
        assert a.counterexample == b.counterexample
        assert a.outcome_orders == b.outcome_orders


class TestReductionSoundness:
    def test_solvability_is_conjugation_equivariant(self, group):
        g = group("A5")
        elems = list(enumerate_elements(g))
        rng = random.Random(17)
        x = perm("(1 2)(3 4)", 5)
        y = perm("(1 2 3)", 5)
        base = is_solvable(build_group([x, y])).solvable
        for _ in range(25):
            t = rng.choice(elems)
            conjugated = build_group(
                [t.inverse() * x * t, t.inverse() * y * t])
            assert is_solvable(conjugated).solvable == base

    def test_nonsolvable_groups_have_nonsolvable_two_generated_subgroup(
            self, group):
        # one direction of the two-generator solvability characterization
        for name in ("A5", "S5", "psl2:7"):
            g = group(name)
            report = check_criterion(g)
            assert not report.holds
            classes = conjugacy_classes(g)
            x = classes[report.counterexample[0].index].representative
            y = classes[report.counterexample[1].index].members[0]
            assert not is_solvable(build_group([x, y])).solvable


class TestVerdicts:
    def test_verdicts_match_oracles(self, group):
        # every verdict, repeated and with the generators swapped, must
        # match the brute-force closure and derived series; on A6 most
        # pairs generate A6, so their chains stop at the known order
        for name, seed, count in (("A5", 3, 120), ("A6", 5, 200)):
            g = group(name)
            elems = list(enumerate_elements(g))
            rng = random.Random(seed)
            judge = _PairJudge(g)
            pairs = [(rng.choice(elems).images, rng.choice(elems).images)
                     for _ in range(count)]
            solvable = {}  # one brute-force series per distinct subgroup
            expected = {}
            for x, y in pairs:
                sub = frozenset(oracles.closure([x, y], g.degree))
                if sub not in solvable:
                    solvable[sub] = oracles.brute_is_solvable(sub, g.degree)
                expected[x, y] = (len(sub), solvable[sub])
            for x, y in pairs:
                assert judge.verdict(x, y) == expected[x, y]
            for x, y in pairs:
                assert judge.verdict(x, y) == expected[x, y]
                assert judge.verdict(y, x) == expected[x, y]


class TestBurnside:
    # check_criterion's and search_witness_pairs' derived-series runs, one
    # per verdict that neither |G| nor Burnside's theorem settles; every
    # verdict must equal the derived series' answer
    RUNS = {"A5": (0, 0), "A6": (22, 9), "S4": (0, 0), "psl2:7": (0, 0),
            "psl2:8": (0, 0), "psl2:11": (3, 6), "M11": (28, 91),
            "SL(2,5)": (0, 0), "A5xA5": (116, 26), "A5wrC2": (14, 26),
            "A5xC6": (68, 14)}

    @pytest.mark.parametrize("name", list(RUNS))
    def test_shortcut_agrees_with_the_derived_series(self, group,
                                                     monkeypatch, name):
        g = group(name)
        runs = self.RUNS[name]
        _class_partition(g)
        primes = set(factorize(g.order()))
        verdict, series = _PairJudge.verdict, criterion._solvability_tuples
        verdicts, counted = [], []

        def recording(judge, x, y):
            result = verdict(judge, x, y)
            assert judge.parent[0] == primes
            verdicts.append((x, y, result))
            return result

        def counting(*args):
            counted[-1] += 1
            return series(*args)

        monkeypatch.setattr(_PairJudge, "verdict", recording)
        monkeypatch.setattr(criterion, "_solvability_tuples", counting)
        for scan in (check_criterion, search_witness_pairs):
            counted.append(0)
            scan(g)
        monkeypatch.undo()
        assert tuple(counted) == runs, name
        settled = 0
        for x, y, (order, solvable) in verdicts:
            if order == g.order():
                assert solvable == is_solvable(g).solvable
                continue
            assert solvable == _solvability_tuples(
                (x, y), g.degree, order).solvable, (name, order)
            if criterion._burnside(primes, order):
                settled += 1
                assert solvable, (name, order)
        assert settled > 0, name


class TestSearchWitnessPairs:
    def test_a5_contains_3_5(self, group):
        assert (3, 5) in search_witness_pairs(group("A5"))

    def test_a5_excludes_2_5(self, group):
        assert (2, 5) not in search_witness_pairs(group("A5"))

    def test_a5_full_list(self, group):
        assert search_witness_pairs(group("A5")) == [(3, 5)]

    def test_solvable_group_has_no_witness_pairs(self, group):
        assert search_witness_pairs(group("S4")) == []

    def test_lexicographic_order(self, group):
        pairs = search_witness_pairs(group("psl2:11"))
        assert pairs == sorted(pairs)

    def test_prime_restriction(self, group):
        pairs = search_witness_pairs(group("psl2:11"), restrict_to_primes=True)
        assert pairs == [(2, 11), (3, 5), (3, 11)]
        assert all(a != b for a, b in pairs)


class TestSearchOrder:
    @pytest.mark.parametrize("primes", [False, True], ids=["all", "primes"])
    @pytest.mark.parametrize("name", ["A5", "A6", "A7", "M11"])
    def test_one_y_list_at_a_time(self, group, monkeypatch, name, primes):
        # b-major candidates drop each y-list after its last one, and the
        # result is the a-major scan's, in lexicographic order
        g = group(name)
        judge = _PairJudge(g)
        orders = sorted({order for order, _positions in judge.classes})
        expected = [(a, b) for i, a in enumerate(orders) for b in orders[i:]
                    if not (primes and (a == b or not is_prime(a)
                                        or not is_prime(b)))
                    and _witness_report(judge, a, b).verified]
        report, held = criterion._witness_report, []

        def recording(judge, a, b):
            held.append(len(judge.ys))
            out = report(judge, a, b)
            held.append(len(judge.ys))
            return out

        monkeypatch.setattr(criterion, "_witness_report", recording)
        assert search_witness_pairs(g, primes) == expected, name
        assert max(held) == 1, name


class TestScanCore:
    def test_counterexample_is_first_solvable_pair(self, group):
        # scan order: representatives of order a in class order, each
        # against the elements of order b in enumeration order
        for name, a, b in (("A5", 2, 3), ("psl2:7", 4, 3)):
            g = group(name)
            reps = [c.representative.images for c in conjugacy_classes(g)
                    if c.order_of_elements == a]
            ys = [p.images for p in elements_of_order(g, b)]
            scan = ((x, y) for x in reps for y in ys)
            for position, (x, y) in enumerate(scan, start=1):
                sub = oracles.closure([x, y], g.degree)
                if oracles.brute_is_solvable(sub, g.degree):
                    break
            else:
                pytest.fail(f"{name}: no solvable ({a}, {b}) pair")
            report = verify_witness_pair(g, a, b)
            assert tuple(p.images for p in report.counterexample) == (x, y)
            assert report.pairs_checked == position
            assert sum(report.outcome_orders.values()) == position


class _CountingJudge(_PairJudge):
    """The scan core, recording the pairs it judges in order."""

    __slots__ = ("judged",)

    def __init__(self, group):
        super().__init__(group)
        self.judged = []

    def verdict(self, x, y):
        self.judged.append((x, y))
        return super().verdict(x, y)


class _UnreducedJudge(_PairJudge):
    """The scan core with no orbit reduction: every y is judged."""

    def first_solvable(self, x, class_size, ys, outcomes):
        for y in ys:
            verdict = self.verdict(x, y)
            outcomes[verdict] += 1
            if verdict[1]:
                return y
        return None


def _witness_fields(report):
    # the outcome list in tally order, as the CLI prints it
    return (report.verified, report.counterexample, report.pairs_checked,
            list(report.outcome_orders.items()))


class TestOrbitReduction:
    @pytest.fixture
    def unreduced(self, monkeypatch):
        def call(fn, *args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(criterion, "_PairJudge", _UnreducedJudge)
                return fn(*args, **kwargs)
        return call

    def test_witness_reports_match_full_scan(self, group, unreduced):
        for name in ("A5", "A6", "A7", "psl2:7", "psl2:8", "psl2:9",
                     "psl2:11", "psl2:13"):
            g = group(name)
            classes = conjugacy_classes(g)
            orders = sorted({c.order_of_elements for c in classes})
            for a in orders:
                for b in orders:
                    reduced = verify_witness_pair(g, a, b)
                    full = unreduced(verify_witness_pair, g, a, b)
                    assert _witness_fields(reduced) == _witness_fields(full), \
                        (name, a, b)

    def test_m11_witness_reports_match_full_scan(self, group, unreduced):
        g = group("M11")
        for a, b in ((2, 11), (3, 5), (2, 3)):
            reduced = verify_witness_pair(g, a, b)
            full = unreduced(verify_witness_pair, g, a, b)
            assert _witness_fields(reduced) == _witness_fields(full), (a, b)

    def test_criterion_reports_match_full_scan(self, group, unreduced):
        # psl2:8 and psl2:11 have coprime powers of y outside y's class:
        # in psl2:11, non-residue powers swap 11A and 11B
        for name in ("S4", "A5", "A6", "psl2:7", "psl2:8", "psl2:11"):
            g = group(name)
            assert check_criterion(g) == unreduced(check_criterion, g), name

    def test_early_exit_past_the_first_orbit(self, group, unreduced):
        # nonsolvable orbits are judged before the solvable y, and only the
        # positions up to it may be tallied, not whole orbits
        for name, a, b in (("psl2:7", 4, 3), ("A7", 3, 7)):
            g = group(name)
            judge = _CountingJudge(g)
            reduced = _witness_report(judge, a, b)
            full = unreduced(verify_witness_pair, g, a, b)
            assert not reduced.verified
            assert 2 <= len(judge.judged) <= reduced.pairs_checked
            assert _witness_fields(reduced) == _witness_fields(full), name

    def test_verdict_counts(self, group, monkeypatch):
        # one verdict per orbit of C_G(x) and of coprime powers of y
        g = group("M12")
        judge = _CountingJudge(g)
        assert _witness_report(judge, 2, 11).verified
        assert len(judge.judged) <= 20
        judges = []

        def counting(*args):
            judges.append(_CountingJudge(*args))
            return judges[-1]

        monkeypatch.setattr(criterion, "_PairJudge", counting)
        check_criterion(group("A6"))
        # 39 in the scan and 14 in the recheck, one per orbit of cells
        assert [len(j.judged) for j in judges] == [53]

    def test_m12_2_11_full_scan_counts(self, group):
        # ATLAS: M12 has two classes of involutions (2A, 2B) and two classes
        # of elements of order 11, each of size |M12| / 11 = 8640; <x, y> is
        # L2(11), M11 or M12 itself
        report = verify_witness_pair(group("M12"), 2, 11)
        assert report.verified
        assert report.pairs_checked == 2 * 17280
        assert report.orders() == {660, 7920, 95040}
        assert sum(report.outcome_orders.values()) == report.pairs_checked


class _PlantedJudge(_PairJudge):
    """Calls (x, y) solvable exactly when it generates ``planted``, one
    subgroup and none of its conjugates: no verdict of a conjugacy class
    of subgroups, so the reduced scan, which takes one x per class, can
    miss it."""

    planted = frozenset()

    def verdict(self, x, y):
        order, solvable = super().verdict(x, y)
        planted = self.planted
        return order, solvable or (order == len(planted) and x in planted
                                   and y in planted)


class _BlindJudge(_CountingJudge):
    """Records the pairs it judges and calls every subgroup nonsolvable
    except ``planted``."""

    planted = frozenset()

    def verdict(self, x, y):
        order = super().verdict(x, y)[0]
        planted = self.planted
        return order, (order == len(planted) and x in planted
                       and y in planted)


def _rectangle(g, rectangle):
    # the member tuples of two classes of g
    classes = conjugacy_classes(g)
    if rectangle == "counterexample":
        refs = check_criterion(g).counterexample
        pair = (classes[ref.index] for ref in refs)
    else:
        pair = (next(c for c in classes if c.order_of_elements == 3
                     and len(c.representative.support()) == 3),
                next(c for c in classes if c.order_of_elements == 2))
    return tuple([m.images for m in c.members] for c in pair)


def _subgroups(degree):
    # <x, y> by brute-force closure, once per pair of cyclic groups
    cyclic, generated = {}, {}

    def cyclic_of(z):
        if z not in cyclic:
            cyclic[z] = frozenset(oracles.closure([z], degree))
        return cyclic[z]

    def subgroup(x, y):
        key = frozenset((cyclic_of(x), cyclic_of(y)))
        if key not in generated:
            generated[key] = frozenset(oracles.closure([x, y], degree))
        return generated[key]

    return subgroup


class TestRecheck:
    def test_recheck_catches_what_the_reduced_scan_cannot_see(
            self, group, monkeypatch):
        # H: the first point stabilizer A5 that meets both counterexample
        # classes C and D but misses C's representative, the one x that the
        # reduced scan takes from C
        g = group("A6")
        report = check_criterion(g)
        classes = conjugacy_classes(g)
        c, d = (classes[ref.index] for ref in report.counterexample)
        elements = [p.images for p in enumerate_elements(g)]

        def meets(h, members):
            return any(m.images in h for m in members)

        planted = next(
            h for h in (frozenset(t for t in elements if t[point] == point)
                        for point in range(g.degree))
            if c.representative.images not in h
            and meets(h, c.members) and meets(h, d.members))
        assert len(planted) == 60
        monkeypatch.setattr(_PlantedJudge, "planted", planted)
        monkeypatch.setattr(criterion, "_PairJudge", _PlantedJudge)
        with pytest.raises(AssertionError, match="reduced scan missed"):
            check_criterion(g)

    @pytest.mark.parametrize("name, rectangle", [
        ("A5", "counterexample"), ("A6", "counterexample"),
        ("A6", "3cycles-involutions"), ("SL(2,5)", "counterexample"),
        ("A5xA5", "counterexample"), ("A5xC6", "counterexample"),
        ("psl2:7", "counterexample"), ("psl2:8", "counterexample"),
        ("psl2:11", "counterexample")])
    def test_recheck_judges_every_subgroup_of_the_rectangle(
            self, group, name, rectangle):
        # every cell (x, y) generates the same subgroup as some judged pair,
        # with the classes passed in either order
        g = group(name)
        c, d = _rectangle(g, rectangle)
        subgroup = _subgroups(g.degree)
        cells = {subgroup(x, y) for x in c for y in d}
        counts = []
        for xs, ys in ((c, d), (d, c)):
            judge = _BlindJudge(g)
            criterion._recheck_counterexample(judge, xs, ys)
            assert {subgroup(x, y) for x, y in judge.judged} == cells, name
            counts.append(len(judge.judged))
        assert counts[0] == counts[1] < len(c) * len(d), name

    @pytest.mark.parametrize("name, rectangle, subgroups", [
        ("A6", "3cycles-involutions", 96), ("SL(2,5)", "counterexample", 1),
        ("A5xA5", "counterexample", 1), ("A5xC6", "counterexample", 1)],
        ids=["A6", "SL(2,5)", "A5xA5", "A5xC6"])
    def test_recheck_catches_every_planted_subgroup(self, group, name,
                                                    rectangle, subgroups):
        # a judge that calls one subgroup solvable, for each subgroup of the
        # rectangle: marking by C_G(x) for a 3-cycle x, which is larger than
        # <x>, would give verdicts to conjugates of <x, y> instead.  Every
        # cell of the nonsimple groups' rectangles generates one subgroup:
        # SL(2, 5) itself, or one A5 factor, whose centralizer is the other
        # factor
        g = group(name)
        c, d = _rectangle(g, rectangle)
        subgroup = _subgroups(g.degree)
        planted = {subgroup(x, y) for x in c for y in d}
        assert len(planted) == subgroups, name
        for h in planted:
            judge = _BlindJudge(g)
            judge.planted = h
            with pytest.raises(AssertionError, match="reduced scan missed"):
                criterion._recheck_counterexample(judge, c, d)

    @pytest.mark.parametrize("name, judged", [
        ("A6", 14), ("psl2:8", 4), ("psl2:11", 1), ("M11", 14),
        ("A5wrC2", 2)])
    def test_recheck_judges_one_pair_per_orbit_of_cells(self, group, name,
                                                          judged):
        # the counterexample rectangles: A6 (3A, 5A) has 20 x 36 cyclic
        # cells, M11 (2A, 11A) 165 x 144 and A5 wr C2 60 x 60, each of which
        # generates the whole group; the count is the number of orbits of
        # the generator moves, the same in either argument order
        g = group(name)
        c, d = _rectangle(g, "counterexample")
        for xs, ys in ((c, d), (d, c)):
            judge = _CountingJudge(g)
            criterion._recheck_counterexample(judge, xs, ys)
            assert len(judge.judged) == judged, name

    @pytest.mark.parametrize("name, digests", [
        ("A6", (
            "b14aeb21fdea2aaa68e5158fef8fa7ba3c179e7f65be5a4448f702e2bcb25793",
            "b06b4cd60fb5998ebf1132f460a5ee9e842f07326032bf71397b60d06d1fa0aa",
        )),
        ("psl2:8", (
            "1628fbcc194454930c0b2e7dc21dc07dda1fb1d83cdabae67a5eaececf8ce7c6",
            "c5da5261a812493c96272909402df8e5a798773aa028eb51eb3811112f19fb38",
        )),
        ("psl2:11", (
            "b7a996e0170c0f2c70bd576adfb04a52dd2eae02b46f85891efdf604c015eee9",
            "afae6b0f2162a31e4d7d73b70aaed1fd6e761b3a505e8562ae4798ab6e7e50f5",
        )),
        ("M11", (
            "7d9c060f3ad5af4ea6df8c5f99349227579a473b33d4f9a937641958c7c98f99",
            "0423e4b587f93ca6d0592d25a3d998cfb228b1da33981c08fc5a92db2e0a1895",
        ))])
    def test_recheck_judges_in_row_major_order(self, group, name, digests):
        # the judged pairs, in order, in either argument order: the order
        # sets the first solvable pair that the recheck would report.  Each
        # judged pair is the first unsettled cell, so the cells' row-major
        # indices increase
        g = group(name)
        c, d = _rectangle(g, "counterexample")
        for (xs, ys), digest in zip(((c, d), (d, c)), digests):
            judge = _CountingJudge(g)
            criterion._recheck_counterexample(judge, xs, ys)
            assert hashlib.sha256(
                repr(judge.judged).encode()).hexdigest() == digest, name
            (_rows, row_of), (cols, col_of) = map(criterion._cyclic_cells,
                                                  (xs, ys))
            cells = [row_of[x] * len(cols) + col_of[y]
                     for x, y in judge.judged]
            assert all(a < b for a, b in zip(cells, cells[1:])), name


class TestNonsimpleGroups:
    """The criterion on nonsolvable groups that are not simple: SL(2, 5)
    and A5 x C6 have a nontrivial centre, A5 x A5 and A5 wr C2 two
    nonabelian composition factors (see conftest)."""

    @pytest.mark.parametrize("name", ["SL(2,5)", "A5xA5", "A5wrC2", "A5xC6"])
    def test_criterion_fails_as_the_full_scan_reports(self, group,
                                                       monkeypatch, name):
        g = group(name)
        report = check_criterion(g)
        assert not report.holds and report.counterexample_rechecked
        # the reduced run has rechecked the rectangle; the unreduced one
        # would judge each of its cyclic cells, 3600 in A5 wr C2
        monkeypatch.setattr(criterion, "_PairJudge", _UnreducedJudge)
        monkeypatch.setattr(criterion, "_recheck_counterexample",
                            lambda *args: None)
        assert check_criterion(g) == report

    @pytest.mark.parametrize("name, pairs, verified", [
        ("SL(2,5)", [(3, 5), (6, 10), (4, 5)], [True, True, False]),
        ("A5xA5", [(3, 5), (10, 6), (5, 6)], [False, False, False]),
        ("A5wrC2", [(4, 15), (4, 5), (3, 5)], [True, False, False]),
        ("A5xC6", [(5, 3), (10, 3), (15, 6)], [False, False, False])],
        ids=["SL(2,5)", "A5xA5", "A5wrC2", "A5xC6"])
    def test_witness_reports_match_full_scan(self, group, monkeypatch, name,
                                             pairs, verified):
        # refuted pairs end past the first y: after 143 pairs for (10, 6) in
        # A5 x A5, and 11 for (5, 3) and (10, 3) in A5 x C6
        g = group(name)
        reduced = [verify_witness_pair(g, a, b) for a, b in pairs]
        assert [r.verified for r in reduced] == verified
        monkeypatch.setattr(criterion, "_PairJudge", _UnreducedJudge)
        full = [verify_witness_pair(g, a, b) for a, b in pairs]
        assert [_witness_fields(r) for r in reduced] == \
            [_witness_fields(r) for r in full], name
        _check_witness_reports_by_oracle(g, reduced)


def _cyclic(z):
    # the elements of <z>, by repeated multiplication
    powers, p = {z}, oracles.mult(z, z)
    while p != z:
        powers.add(p)
        p = oracles.mult(p, z)
    return frozenset(powers)


def _check_witness_reports_by_oracle(g, reports):
    # every refuted report's counterexample generates a solvable subgroup,
    # tallied once; a verified report's outcome multiset is that of each
    # class representative of order a against every element of order b.
    # <x, y> depends only on <x> and <y>, so closures are memoized by
    # those, and each subgroup's derived series is run once
    degree = g.degree
    closures, verdicts = {}, {}  # (<x>, <y>) -> <x, y>; <x, y> -> solvable

    def outcome(x, y):
        key = (_cyclic(x), _cyclic(y))
        if key not in closures:
            closures[key] = frozenset(oracles.closure([x, y], degree))
        h = closures[key]
        if h not in verdicts:
            verdicts[h] = oracles.brute_is_solvable(h, degree)
        return len(h), verdicts[h]

    for report in reports:
        a, b = report.a, report.b
        if not report.verified:
            x, y = (p.images for p in report.counterexample)
            assert (oracles.tuple_order(x), oracles.tuple_order(y)) == (a, b)
            order, solvable = outcome(x, y)
            assert solvable
            assert {k: n for k, n in report.outcome_orders.items()
                    if k[1]} == {(order, True): 1}
        elif g.order() < 7200:
            # A5 wr C2's (4, 15) would take 960 closures of order 7,200
            elements = oracles.closure([p.images for p in g.generators],
                                       degree)
            reps = [min(c) for c in oracles.conjugacy_partition(elements)
                    if oracles.tuple_order(next(iter(c))) == a]
            ys = [y for y in elements if oracles.tuple_order(y) == b]
            assert report.outcome_orders == dict(
                Counter(outcome(x, y) for x in reps for y in ys))


class TestGeneratorMoves:
    @pytest.mark.parametrize("name", ["A6", "psl2:8"])
    def test_moves_keep_the_subgroup(self, group, name):
        # the identities the recheck's walk rests on, by brute-force closure:
        # <x, y> = <y^-1 x y, y> = <x, x^-1 y x> = <x^k, y> = <x, y^k> for k
        # coprime to the order of the generator it powers
        g = group(name)
        degree = g.degree
        xs = [c.representative.images for c in conjugacy_classes(g)]
        elements = [p.images for p in enumerate_elements(g)]
        ys = random.Random(7).sample(elements, 8)

        def coprime_powers(z):
            n, powers, p = oracles.tuple_order(z), [], z
            for k in range(1, n):
                if math.gcd(k, n) == 1:
                    powers.append(p)
                p = oracles.mult(p, z)
            return powers

        def conjugate(t, by):
            return oracles.mult(oracles.mult(oracles.inv(by), t), by)

        checked = 0
        for x in xs[1:]:
            for y in ys:
                h = oracles.closure([x, y], degree)
                moved = [(conjugate(x, y), y), (x, conjugate(y, x))]
                moved += [(xk, y) for xk in coprime_powers(x)]
                moved += [(x, yk) for yk in coprime_powers(y)]
                for pair in moved:
                    assert oracles.closure(pair, degree) == h, (name, x, y)
                    checked += 1
        assert checked > 200, name


class TestMarkOrbit:
    @pytest.mark.parametrize("name, a, b", [
        ("A6", 3, 5), ("psl2:8", 9, 7), ("M11", 2, 11)])
    def test_marks_the_orbit_of_y(self, group, name, a, b):
        # the orbit of y under C_G(x) and coprime powers, by brute force
        g = group(name)
        judge = _CountingJudge(g)
        assert _witness_report(judge, a, b).verified
        x, y = judge.judged[0]
        verdict = judge.verdict(x, y)
        assert not verdict[1]
        elements = [p.images for p in enumerate_elements(g)]
        class_size = next(len(positions)
                          for _order, positions in _class_partition(g)
                          if elements[positions[0]] == x)
        known = dict.fromkeys(judge.mark_orbit(x, class_size, y), verdict)

        n = oracles.tuple_order(y)
        powers, z = [], y
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                powers.append(z)
            z = oracles.mult(z, y)
        centralizer = [c for c in elements
                       if oracles.mult(c, x) == oracles.mult(x, c)]
        orbit = {oracles.mult(oracles.mult(oracles.inv(c), z), c)
                 for z in powers for c in centralizer}
        assert set(known) == orbit
        assert set(known.values()) == {verdict}


@pytest.fixture
def sweeps_and_verdicts(monkeypatch):
    # records ("sweep", x, order) for each centralizer listing and
    # ("nonsolvable", x) for each nonsolvable verdict, in order
    events = []
    sweep, verdict = criterion._centralizer_tuples, _PairJudge.verdict

    def recording_sweep(elements, x, order):
        events.append(("sweep", x, order))
        return sweep(elements, x, order)

    def recording_verdict(judge, x, y):
        result = verdict(judge, x, y)
        if not result[1]:
            events.append(("nonsolvable", x))
        return result

    monkeypatch.setattr(criterion, "_centralizer_tuples", recording_sweep)
    monkeypatch.setattr(_PairJudge, "verdict", recording_verdict)
    return events


class TestCentralizerOnFirstNeed:
    # C_G(x) is listed on the first nonsolvable verdict for x, and never
    # for a central x, whose <x, y> is abelian
    @pytest.mark.parametrize("name, scan", [
        ("M11", search_witness_pairs), ("A6", check_criterion)])
    def test_each_sweep_follows_a_nonsolvable_verdict(
            self, group, sweeps_and_verdicts, name, scan):
        scan(group(name))
        events = sweeps_and_verdicts
        swept = [i for i, event in enumerate(events) if event[0] == "sweep"]
        assert swept, name
        for i in swept:
            assert ("nonsolvable", events[i][1]) in events[:i], (name, i)

    @pytest.mark.parametrize("name", ["SL(2,5)", "A5xC6"])
    @pytest.mark.parametrize("scan", [check_criterion, search_witness_pairs])
    def test_no_sweep_of_a_central_class(self, group, sweeps_and_verdicts,
                                         name, scan):
        g = group(name)
        scan(g)
        orders = [event[2] for event in sweeps_and_verdicts
                  if event[0] == "sweep"]
        assert orders, name
        assert g.order() not in orders, name

    def test_solvable_group_sweeps_nothing(self, group, sweeps_and_verdicts):
        check_criterion(group("S4"))
        assert sweeps_and_verdicts == []


class TestCoprimePowers:
    def test_matches_permutation_powers(self, group):
        cases = [p.images for p in enumerate_elements(group("A6"))]
        cases += [c.representative.images
                  for c in conjugacy_classes(group("M11"))]
        orders = set()
        for y in cases:
            p = Permutation(y)
            n = p.order()
            orders.add(n)
            expected = [(p ** k).images for k in range(1, n + 1)
                        if math.gcd(k, n) == 1]
            assert _cyclic_generators(y) == expected, p
            assert _powers(y) == [(p ** k).images
                                  for k in range(1, n + 1)], p
            if n <= 2:
                assert _cyclic_generators(y) == [y], p
        assert {1, 2, 4, 5, 8, 11} <= orders


def _count_enumerations(monkeypatch, g, scan):
    # (enumerations of g's own chain, centralizer sweeps) made by scan(g);
    # each C_G(x) is listed from its own chain, which is not counted
    iter_tuples = StabilizerChain.iter_tuples
    sweep = criterion._centralizer_tuples
    enumerations, sweeps = [], []

    def counting(chain):
        if chain is g.chain:
            enumerations.append(1)
        return iter_tuples(chain)

    def counting_sweep(elements, x, order):
        sweeps.append(x)
        return sweep(elements, x, order)

    monkeypatch.setattr(StabilizerChain, "iter_tuples", counting)
    monkeypatch.setattr(criterion, "_centralizer_tuples", counting_sweep)
    scan(g)
    return len(enumerations), len(sweeps)


_SCANS = [("M11", lambda g: verify_witness_pair(g, 2, 11), 0),
          ("A6", search_witness_pairs, 0),
          ("A6", check_criterion, 1),
          ("S4", check_criterion, 0)]
_SCAN_IDS = ["verify-M11", "search-A6", "criterion-A6", "criterion-S4"]


class TestScanEnumerations:
    # the scans read G through its class record: G is enumerated by the
    # class walk of a fresh handle and by each centralizer sweep, which
    # streams the chain; check_criterion on a nonsolvable G lists G for
    # conjugacy_classes, which wraps every element (``lists``), and on a
    # fresh handle the walk reads that same list; on a solvable G it reads
    # the record and composes the class representatives alone
    @pytest.mark.parametrize("name, scan",
                             [(name, scan) for name, scan, _ in _SCANS],
                             ids=_SCAN_IDS)
    def test_fresh_handle_walk_and_sweeps(self, monkeypatch, name, scan):
        g = catalog_group(name)
        assert g._classes is None
        enumerations, sweeps = _count_enumerations(monkeypatch, g, scan)
        assert enumerations == 1 + sweeps, name

    @pytest.mark.parametrize("name, scan, lists", _SCANS + [
        ("M12", lambda g: verify_witness_pair(g, 2, 11), 0)],
        ids=_SCAN_IDS + ["verify-M12"])
    def test_recorded_handle_only_sweeps(self, group, monkeypatch, name,
                                         scan, lists):
        g = group(name)
        _class_partition(g)
        enumerations, sweeps = _count_enumerations(monkeypatch, g, scan)
        assert enumerations == lists + sweeps, name

    def test_search_composes_each_y_list_once(self, group, monkeypatch):
        # the candidates of one search share the judge's list of each
        # order's elements, composed from their record positions
        g = group("M11")
        record = _class_partition(g)
        tuples_at = StabilizerChain.tuples_at
        composed = []

        def recording(chain, positions):
            listed = list(tuples_at(chain, positions))
            if chain is g.chain:
                composed.append((list(positions), listed))
            return iter(listed)

        monkeypatch.setattr(StabilizerChain, "tuples_at", recording)
        search_witness_pairs(g)
        monkeypatch.undo()
        for m in order_spectrum(g).orders:
            positions = _positions_of_order(record, m)
            lists = [listed for ks, listed in composed if ks == positions]
            assert lists, m
            assert all(listed == [p.images for p in elements_of_order(g, m)]
                       for listed in lists), m
            # the identity's list is also its class representative, which
            # each candidate (1, b) composes as its x
            if positions != [ks[0] for order, ks in record if order == m]:
                assert len(lists) == 1, m
