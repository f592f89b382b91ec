"""Self-tests for the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import PARENT, Tracer, self_times  # noqa: E402

sc = run.load_solvcrit()


def _span(parent, start, end):
    return [0, parent, 0, start, end, 0]


def test_self_times_on_synthetic_tree():
    spans = [
        _span(-1, 0, 100),   # root
        _span(0, 10, 30),    # child
        _span(0, 40, 70),    # child with a grandchild
        _span(2, 50, 60),    # grandchild
        _span(0, 20, 35),    # child overlapping the first: covered once
        _span(-1, 100, 110),  # second root, no children
    ]
    # root: 100 - |[10, 35] u [40, 70]| = 100 - 55
    assert self_times(spans) == [45, 20, 20, 10, 15, 10]


def test_self_times_clip_children_to_parent():
    spans = [_span(-1, 0, 10), _span(0, 5, 20)]
    assert self_times(spans) == [5, 15]


def _a5_ops():
    a5 = sc.catalog_group("A5")
    verify = (lambda: sc.verify_witness_pair(a5, 3, 5))
    return [
        wl.Op("right", verify, wl._check_verified(24, {60})),
        wl.Op("wrong expected value", verify, wl._check_verified(999, {60})),
        wl.Op("raises", lambda: sc.verify_witness_pair(a5, 7, 5),
              wl._check_verified(24, {60})),
        wl.Op("check raises", verify, lambda report: [report.no_such_field]),
    ]


def test_wrong_expectation_is_counted_not_fatal():
    ops = _a5_ops()
    log = run.PassLog()
    log.run(ops)
    assert log.attempted == 4
    assert log.failed == 3
    assert {name for name, _ in log.failures} == {
        "wrong expected value", "raises", "check raises"}
    # later passes are held to the first pass's reports
    log.run(ops)
    assert (log.attempted, log.failed) == (8, 3)


def test_digest_is_deterministic():
    ops = _a5_ops()[:1]
    first = [o.digest for o in wl.run_pass(ops)]
    again = [o.digest for o in wl.run_pass(ops, check=False)]
    assert first == again


def test_relabelling_follows_the_seed():
    gens = list(sc.catalog_group("psl2:7").generators)

    def images(seed):
        g = wl.seeded_group(sc, gens, "psl2:7", seed)
        assert g.order() == 168
        return [p.images for p in g.generators]

    assert images(5) == images(5)
    assert images(5) != images(6)


def test_tracer_wraps_every_binding_and_restores():
    original = sc.criterion.conjugacy_classes
    a5 = sc.catalog_group("A5")
    tracer = Tracer()
    tracer.install()
    try:
        assert sc.criterion.conjugacy_classes is not original
        assert sc.conjugacy_classes is sc.structure.conjugacy_classes
        outcomes = wl.run_pass([wl.Op("criterion A5",
                                      lambda: sc.check_criterion(a5),
                                      lambda report: [])], tracer=tracer)
    finally:
        tracer.uninstall()
    assert sc.criterion.conjugacy_classes is original
    assert sc.structure.conjugacy_classes is original

    names = [tracer.qualname(s) for s in tracer.spans]
    classes = names.index("structure.conjugacy_classes")
    parent = tracer.spans[classes][PARENT]
    assert names[parent] == "criterion.check_criterion"
    assert "engine.StabilizerChain.iter_tuples" in names
    assert tracer.counts["pairs_covered"] > 0
    # top-level self times add up to the traced call, less benchmark code
    selfs = self_times(tracer.spans)
    assert sum(selfs) <= outcomes[0].seconds * 1e9
    roots = [s for s in tracer.spans if s[PARENT] < 0]
    assert sum(selfs) == sum(s[4] - s[3] for s in roots)
