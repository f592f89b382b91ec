"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints a single ``[acceptance] criterion N: PASS|FAIL`` line
(visible with ``pytest -s``) and fails if any of its sub-checks fail.

Criterion 2 checks the PSL(2, q) order pair ((q+1)/k, (q-1)/k), with
k = gcd(q-1, 2), for q in {7, 8, 9, 11, 13}.  For q >= 8 (where a >= 5 and
b >= 4) the subgroup classification makes it a nonsolvable witness pair,
and the test asserts it verifies with outcome {|G|}.  For q = 7 the pair is
(4, 3), which is *not* a witness pair: PSL(2, 7) contains S4 subgroups, and
an order-4 and an order-3 element can generate such an S4 (order 24,
solvable).  The test asserts that (4, 3) is refuted there with a solvable
order-24 outcome, and confirms the counterexample with the brute-force
oracles; PSL(2, 7) itself is covered by its own pair (2, 7), which
verifies.
"""

import math
import time

import oracles
from solvcrit.catalog import catalog_group, make_psl2
from solvcrit.criterion import (
    check_criterion,
    search_witness_pairs,
    verify_witness_pair,
)
from solvcrit.engine import enumerate_elements
from solvcrit.numbertheory import (
    LBPD_EMPTY_PAIRS,
    bppd,
    lbpd,
    lpd,
    prime_powers_upto,
    zsigmondy_empty,
)
from solvcrit.structure import conjugacy_classes, is_solvable
from solvcrit.tables import PASS, SKIPPED, load_shipped_table, verify_expected_table

VALUE_LIMIT = 2**96

EQUIVALENCE_CORPUS = (
    [f"C{n}" for n in range(1, 13)]
    + [f"D{n}" for n in range(1, 13)]
    + ["S3", "S4", "S5", "A4", "A5", "A6", "F20", "psl2:5", "psl2:7"]
    + ["SL(2,5)", "A5xA5", "A5wrC2", "A5xC6"]
)

ENGINE_CORPUS = EQUIVALENCE_CORPUS + ["psl2:8", "psl2:11", "A7", "A8", "M11"]

SIMPLE_CORPUS = ["A5", "A6", "psl2:7", "psl2:8", "psl2:11", "M11"]


def _report(number: int, title: str, failures: list, started: float) -> None:
    verdict = "PASS" if not failures else "FAIL"
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number} ({title}): {verdict} "
          f"({elapsed:.1f}s)")
    for failure in failures:
        print(f"    failed: {failure}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_alternating_witness_pairs(group):
    started = time.time()
    failures = []

    report = verify_witness_pair(group("A5"), 3, 5)
    if not (report.verified and report.orders() == {60}):
        failures.append(f"A5 (3,5): verified={report.verified}, "
                        f"orders={sorted(report.orders())}")
    report = verify_witness_pair(group("A6"), 3, 5)
    if not (report.verified and report.orders() <= {60, 360}):
        failures.append(f"A6 (3,5): verified={report.verified}, "
                        f"orders={sorted(report.orders())}")
    for name in ("A7", "A8"):
        report = verify_witness_pair(group(name), 5, 7)
        solvable_seen = [o for (o, s) in report.outcome_orders if s]
        if not report.verified or solvable_seen:
            failures.append(f"{name} (5,7): verified={report.verified}, "
                            f"solvable orders {solvable_seen}")
    _report(1, "alternating witness pairs", failures, started)


def test_criterion_2_psl2_pairs(group):
    started = time.time()
    failures = []

    for q in (8, 9, 11, 13):
        g = group(f"psl2:{q}")
        k = math.gcd(q - 1, 2)
        a, b = (q + 1) // k, (q - 1) // k
        report = verify_witness_pair(g, a, b)
        expected = {g.order()}
        if not (report.verified and report.orders() == expected):
            failures.append(
                f"psl2:{q} ({a},{b}): verified={report.verified}, "
                f"orders={sorted(report.orders())}, expected {sorted(expected)}"
                + ("" if report.counterexample is None else
                   f"; solvable pair x={report.counterexample[0]}, "
                   f"y={report.counterexample[1]}"))

    # q = 7: the formula pair (4, 3) is refuted by an S4 subgroup
    g = group("psl2:7")
    report = verify_witness_pair(g, 4, 3)
    if report.verified or (24, True) not in report.outcome_orders:
        failures.append(f"psl2:7 (4,3): verified={report.verified}, "
                        f"outcomes={sorted(report.outcome_orders)}, expected "
                        f"refuted with a solvable order-24 outcome")
    if report.counterexample is not None:
        x, y = (p.images for p in report.counterexample)
        elements = oracles.closure([p.images for p in g.generators], g.degree)
        pair = oracles.closure([x, y], g.degree)
        series = oracles.commutator_closure_series(pair, g.degree)
        if not (x in elements and y in elements):
            failures.append("psl2:7 (4,3): counterexample not in G")
        if (oracles.tuple_order(x), oracles.tuple_order(y)) != (4, 3):
            failures.append("psl2:7 (4,3): counterexample orders are "
                            f"{oracles.tuple_order(x)}, "
                            f"{oracles.tuple_order(y)}")
        if len(pair) != 24 or series[-1] != 1:
            failures.append(f"psl2:7 (4,3): oracle closure of the "
                            f"counterexample has order {len(pair)}, "
                            f"derived series {series}")
    report = verify_witness_pair(g, 2, 7)
    if not (report.verified and report.orders() == {168}):
        failures.append(f"psl2:7 (2,7): verified={report.verified}, "
                        f"orders={sorted(report.orders())}")
    _report(2, "PSL(2,q) witness pairs", failures, started)


def test_criterion_3_equivalence_on_corpus(group):
    started = time.time()
    failures = []
    for name in EQUIVALENCE_CORPUS:
        g = group(name)
        holds = check_criterion(g).holds
        solvable = is_solvable(g).solvable
        if holds != solvable:
            failures.append(f"{name}: criterion holds={holds} but "
                            f"solvable={solvable}")
    _report(3, "criterion <=> solvability on corpus", failures, started)


def test_criterion_4_zsigmondy_cross_check():
    started = time.time()
    failures = []
    for pp in prime_powers_upto(32):
        for e in range(2, 21):
            if pp.q**e >= VALUE_LIMIT:
                continue
            closed = zsigmondy_empty(pp, e)
            computed = bppd(pp, e).is_empty()
            if closed != computed:
                failures.append(f"bppd({pp.q},{e}): closed-form {closed}, "
                                f"factorization {computed}")
    _report(4, "Zsigmondy exception cross-check", failures, started)


def test_criterion_5_lbpd_emptiness_table():
    started = time.time()
    failures = []
    observed_empty = set()
    for pp in prime_powers_upto(16):
        for e in range(3, 19):
            large_basic = lbpd(pp, e)
            if large_basic.is_empty():
                observed_empty.add((pp.q, e))
            nonempty = not large_basic.is_empty()
            both = (not bppd(pp, e).is_empty()) and (not lpd(pp, e).is_empty())
            if nonempty != both:
                failures.append(
                    f"lbpd({pp.q},{e}) nonempty={nonempty} but "
                    f"bppd-and-lpd={both}")
    if observed_empty != set(LBPD_EMPTY_PAIRS):
        failures.append(f"empty set mismatch: observed {sorted(observed_empty)}")
    _report(5, "large-basic-divisor emptiness table", failures, started)


def test_criterion_6_sporadic_rows_at_desk_scale():
    started = time.time()
    failures = []
    results = verify_expected_table(load_shipped_table())
    by_label = {r.row.group_label: r for r in results}
    for label in ("M11", "M12"):
        res = by_label[label]
        if res.status != PASS:
            failures.append(f"{label} row: {res.status} ({res.reason})")
    for res in results:
        if res.row.group_label in ("M11", "M12"):
            continue
        if res.status != SKIPPED:
            failures.append(f"{res.row.group_label} row: expected SKIPPED, "
                            f"got {res.status}")
    m11 = by_label["M11"].report
    if m11 is not None and m11.orders() != {7920, 660}:
        failures.append(f"M11 outcome orders {sorted(m11.orders())}")
    m12 = by_label["M12"].report
    if m12 is not None and m12.orders() != {95040, 7920, 660}:
        failures.append(f"M12 outcome orders {sorted(m12.orders())}")
    _report(6, "sporadic table rows at desk scale", failures, started)


def test_criterion_7_engine_oracles(group):
    started = time.time()
    failures = []
    for name in ENGINE_CORPUS:
        g = group(name)
        order = g.order()
        if order > 10**4:
            continue
        brute = oracles.closure_order([p.images for p in g.generators],
                                      g.degree)
        if order != brute:
            failures.append(f"{name}: chain order {order}, closure {brute}")
        classes = conjugacy_classes(g)
        if sum(c.size for c in classes) != order:
            failures.append(f"{name}: class sizes do not sum to order")
        if order <= 2000:
            elements = {p.images for p in enumerate_elements(g)}
            brute_series = oracles.commutator_closure_series(elements, g.degree)
            mine = is_solvable(g)
            if mine.solvable != (brute_series[-1] == 1):
                failures.append(f"{name}: solvability disagrees with brute "
                                f"series {brute_series}")
            if list(mine.series_orders) != brute_series:
                failures.append(
                    f"{name}: series {mine.series_orders} vs brute "
                    f"{brute_series}")
    _report(7, "engine vs brute-force oracles", failures, started)


def test_criterion_8_conjecture_probe(group):
    started = time.time()
    failures = []
    for name in SIMPLE_CORPUS:
        pairs = search_witness_pairs(group(name), restrict_to_primes=True)
        if not pairs:
            failures.append(f"{name}: no distinct-prime witness pair found")
        if any(a == b for a, b in pairs):
            failures.append(f"{name}: non-distinct pair in {pairs}")
    _report(8, "prime witness pairs in simple corpus", failures, started)
