import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from solvcrit.catalog import catalog_group
from solvcrit.engine import build_group
from solvcrit.permutation import Permutation, parse_cycles

_CACHE = {}


def _sl25():
    # SL(2, 5) on the 24 nonzero column vectors of F_5^2, generated by
    # [[1, 1], [0, 1]] and [[0, -1], [1, 0]]; -1 is central and moves
    # every vector, so the action is faithful
    vectors = [v for v in product(range(5), repeat=2) if any(v)]
    index = {v: i for i, v in enumerate(vectors)}

    def matrix(a, b, c, d):
        return Permutation(index[(a * x + b * y) % 5, (c * x + d * y) % 5]
                           for x, y in vectors)

    return [matrix(1, 1, 0, 1), matrix(0, 4, 1, 0)]


def _cycles(degree, *texts):
    return lambda: [parse_cycles(text, degree) for text in texts]


# nonsolvable groups that are not simple, from closed-form generators, with
# their orders: A5 acts on points 1..5 as <(1 2 3), (1 2 3 4 5)>
_NONSIMPLE = {
    "SL(2,5)": (_sl25, 120),
    "A5xA5": (_cycles(10, "(1 2 3)", "(1 2 3 4 5)", "(6 7 8)",
                      "(6 7 8 9 10)"), 3600),
    "A5wrC2": (_cycles(10, "(1 2 3)", "(1 2 3 4 5)",
                       "(1 6)(2 7)(3 8)(4 9)(5 10)"), 7200),
    "A5xC6": (_cycles(11, "(1 2 3)", "(1 2 3 4 5)", "(6 7 8 9 10 11)"), 360),
}


def _build(name):
    if name not in _NONSIMPLE:
        return catalog_group(name)
    generators, order = _NONSIMPLE[name]
    g = build_group(generators(), label=name)
    assert g.order() == order, name
    return g


@pytest.fixture
def group():
    """Memoized catalog lookup; heavy groups (M11, M12, A8) build once.
    Also resolves the names of the nonsimple test groups above."""

    def get(name):
        if name not in _CACHE:
            _CACHE[name] = _build(name)
        return _CACHE[name]

    return get
