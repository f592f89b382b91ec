import math

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_irreducible_p,
    gf_mul,
    gf_neg,
    gf_rem,
    gf_strip,
)

from solvcrit import catalog
from solvcrit.catalog import (
    GroupFileError,
    OrderGateError,
    UnknownGroupError,
    _field_tables,
    catalog_group,
    load_group,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_frobenius20,
    make_psl2,
    make_symmetric,
    parse_group_file,
)
from solvcrit.structure import is_solvable, order_spectrum

A5_FILE = """\
label A5
degree 5
order 60
gen (1 2 3 4 5)
gen (3 4 5)
"""


class TestConstructors:
    def test_alternating_orders(self):
        for m in range(3, 9):
            assert make_alternating(m).order() == math.factorial(m) // 2

    def test_symmetric_orders(self):
        for m in range(2, 8):
            assert make_symmetric(m).order() == math.factorial(m)

    def test_cyclic_orders(self):
        for n in range(1, 13):
            g = make_cyclic(n)
            assert g.order() == n
            assert is_solvable(g).solvable

    def test_dihedral_orders(self):
        for n in range(1, 13):
            assert make_dihedral(n).order() == 2 * n

    def test_dihedral_structure(self):
        g = make_dihedral(10)
        assert g.order() == 20
        assert order_spectrum(g).orders == (1, 2, 5, 10)

    def test_frobenius20(self):
        g = make_frobenius20()
        assert g.order() == 20
        assert order_spectrum(g).orders == (1, 2, 4, 5)
        assert is_solvable(g).solvable

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            make_alternating(2)
        with pytest.raises(ValueError):
            make_symmetric(1)
        with pytest.raises(ValueError):
            make_cyclic(0)
        with pytest.raises(ValueError):
            make_dihedral(0)

    @pytest.mark.parametrize("name, message", [
        ("C2001", "need n <= 2000"), ("D2001", "need n <= 2000"),
        ("C1000000000000", "need n <= 2000"), ("S101", "need m <= 100"),
        ("A101", "need m <= 100"), ("A1000000000", "need m <= 100")])
    def test_refuses_oversized_names_before_building(self, monkeypatch, name,
                                                     message):
        # nothing of the group's size is built: no generator is parsed and
        # no chain is started
        def unbuilt(*args, **kwargs):
            raise AssertionError(f"{name} was built")

        monkeypatch.setattr(catalog, "build_group", unbuilt)
        monkeypatch.setattr(catalog, "parse_cycles", unbuilt)
        with pytest.raises(ValueError) as refused:
            catalog_group(name)
        assert str(refused.value) == message

    @pytest.mark.parametrize("name", ["C2000", "D2000", "S100", "A100"])
    def test_largest_names_reach_the_build(self, monkeypatch, name):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(catalog, "build_group", built)
        with pytest.raises(Built):
            catalog_group(name)


class TestPsl2:
    @pytest.mark.parametrize("q,order", [
        (4, 60), (5, 60), (7, 168), (8, 504), (9, 360),
        (11, 660), (13, 1092), (16, 4080), (25, 7800), (27, 9828), (32, 32736),
    ])
    def test_orders(self, q, order):
        g = make_psl2(q)
        assert g.order() == order == q * (q * q - 1) // math.gcd(2, q - 1)
        assert g.degree == q + 1

    def test_psl24_is_simple_of_order_60(self):
        assert not is_solvable(make_psl2(4)).solvable

    def test_rejects_bad_q(self):
        for bad in (3, 6, 33, 64):
            with pytest.raises(ValueError):
                make_psl2(bad)


class TestFieldTables:
    @pytest.mark.parametrize("q", [q for q in range(4, 33)
                                   if len(sympy.factorint(q)) == 1])
    def test_tables_match_sympy(self, q):
        (p, k), = sympy.factorint(q).items()

        def poly(a):  # base-p digits, highest first
            return gf_strip([a // p ** i % p for i in reversed(range(k))])

        def value(f):
            return sum(c % p * p ** i for i, c in enumerate(reversed(f)))

        # the least monic irreducible x^k + tail, tails in encoding order
        monics = ([1] + [tail // p ** i % p for i in reversed(range(k))]
                  for tail in range(q))
        modulus = next(f for f in monics if gf_irreducible_p(f, p, ZZ))
        add, mul = _field_tables(q)
        if k > 1:  # x * x^(k-1) reduces to minus the modulus tail
            assert mul[p][p ** (k - 1)] == value(gf_neg(modulus[1:], p, ZZ))
        for a in range(q):
            for b in range(q):
                assert add[a][b] == value(gf_add(poly(a), poly(b), p, ZZ))
                product = gf_mul(poly(a), poly(b), p, ZZ)
                assert mul[a][b] == value(gf_rem(product, modulus, p, ZZ))


class TestGroupFiles:
    def test_round_trip(self):
        spec = parse_group_file(A5_FILE)
        assert spec.label == "A5"
        assert spec.degree == 5
        assert spec.expected_order == 60
        g = load_group(spec)
        assert g.order() == 60
        assert g.label == "A5"

    def test_comments_and_blank_lines(self):
        text = "# header\nlabel X\n\ndegree 3\ngen (1 2 3)  # trailing\n"
        assert load_group(parse_group_file(text)).order() == 3

    def test_point_out_of_range_reports_line(self):
        text = "label bad\ndegree 5\ngen (1 6)\n"
        with pytest.raises(GroupFileError) as err:
            parse_group_file(text)
        assert err.value.line == 3

    def test_missing_pieces(self):
        with pytest.raises(GroupFileError):
            parse_group_file("degree 5\ngen (1 2)\n")
        with pytest.raises(GroupFileError):
            parse_group_file("label x\ngen (1 2)\n")
        with pytest.raises(GroupFileError):
            parse_group_file("label x\ndegree 5\n")
        with pytest.raises(GroupFileError):
            parse_group_file("label x\ndegree 5\nnonsense 3\n")

    @pytest.mark.parametrize("line,message", [
        ("label", "line 2: label requires a value"),
        ("degree x", "line 2: bad degree 'x'"),
        ("degree 0", "line 2: degree must be positive"),
        ("order x", "line 2: bad order 'x'"),
        ("order 0", "line 2: order must be positive"),
        ("degree 4", "line 2: repeated degree line"),
        ("degree +3", "line 2: bad degree '+3'"),
        ("order 0_3", "line 2: bad order '0_3'"),
        ("order \u0666\u0660", "line 2: bad order '\u0666\u0660'"),
    ])
    def test_bad_line_is_refused_with_its_number(self, line, message):
        with pytest.raises(GroupFileError) as err:
            parse_group_file(f"degree 5\n{line}\ngen (1 2)\n")
        assert str(err.value) == message
        assert err.value.line == 2

    @pytest.mark.parametrize("text,message", [
        # a second degree would load generators checked at another degree
        ("label X\ndegree 3\ngen (1 2 3)\ndegree 4\norder 3\n",
         "line 4: repeated degree line"),
        ("label X\ndegree 3\nlabel Y\ngen (1 2 3)\n",
         "line 3: repeated label line"),
        ("label X\norder 3\ndegree 3\ngen (1 2 3)\norder 6\n",
         "line 5: repeated order line"),
    ])
    def test_repeated_header_line_is_refused(self, text, message):
        with pytest.raises(GroupFileError) as err:
            parse_group_file(text)
        assert str(err.value) == message

    def test_missing_degree_is_named(self):
        with pytest.raises(GroupFileError) as err:
            parse_group_file("label x\n")
        assert str(err.value) == "missing degree"

    def test_order_gate_rejects_wrong_order(self):
        text = A5_FILE.replace("order 60", "order 120")
        with pytest.raises(OrderGateError):
            load_group(parse_group_file(text))

    def test_gate_optional(self):
        text = "label X\ndegree 5\ngen (1 2 3 4 5)\ngen (3 4 5)\n"
        assert load_group(parse_group_file(text)).order() == 60


class TestCatalogNames:
    def test_repr_names_label_degree_and_order(self):
        assert repr(catalog_group("A5")) == "<A5: degree 5, order 60>"

    @pytest.mark.parametrize("name,order", [
        ("A5", 60), ("S6", 720), ("D10", 20), ("C12", 12),
        ("F20", 20), ("psl2:7", 168), ("M11", 7920), ("M12", 95040),
    ])
    def test_known_names(self, name, order):
        assert catalog_group(name).order() == order

    def test_unknown_name(self):
        with pytest.raises(UnknownGroupError):
            catalog_group("E8")

    @pytest.mark.parametrize("name", [
        "A5\n", "A\u0665", "psl2:\u0661\u0661", "M11\n",
    ])
    def test_names_match_whole_with_ascii_digits(self, name):
        with pytest.raises(UnknownGroupError) as err:
            catalog_group(name)
        assert str(err.value) == f"unknown catalog group {name!r}"

    def test_shipped_files_pass_their_gates(self):
        # loading forces the order gate; a bad file would raise
        assert catalog_group("M11").order() == 7920
        assert catalog_group("M12").order() == 95040
