import pytest

from solvcrit.catalog import UnknownGroupError
from solvcrit.tables import (
    FAIL,
    PASS,
    SKIPPED,
    ExpectedOutcomeRow,
    TableFormatError,
    load_shipped_table,
    parse_expected_table,
    verify_expected_table,
)

GOOD = "A5\t3\t5\tA5\t60\tdesk\n"


class TestParsing:
    def test_good_row(self):
        rows = parse_expected_table(GOOD)
        assert rows[0] == ExpectedOutcomeRow("A5", 3, 5, frozenset({60}),
                                             ("A5",), True)

    def test_column_count_enforced(self):
        with pytest.raises(TableFormatError):
            parse_expected_table("A5\t3\t5\tA5\t60\n")

    def test_bad_scale(self):
        with pytest.raises(TableFormatError):
            parse_expected_table(GOOD.replace("desk", "tiny"))

    def test_bad_integers(self):
        with pytest.raises(TableFormatError):
            parse_expected_table("A5\tx\t5\tA5\t60\tdesk\n")

    @pytest.mark.parametrize("fields", [
        ("+3", "5", "60"), ("3", "\u0665", "60"), ("3", "5", "6_0"),
        ("3", "5", "60, 120"), ("3 ", "5", "60"),
    ], ids=["sign", "arabic-indic", "underscore", "space-in-list",
            "trailing-space"])
    def test_integer_fields_are_ascii_decimal(self, fields):
        a, b, orders = fields
        with pytest.raises(TableFormatError) as err:
            parse_expected_table(f"# head\nA5\t{a}\t{b}\tA5\t{orders}\tdesk\n")
        assert str(err.value) == "line 2: bad integer field"

    def test_empty_table(self):
        with pytest.raises(TableFormatError):
            parse_expected_table("# nothing\n")

    def test_row_invariants(self):
        with pytest.raises(TableFormatError):
            ExpectedOutcomeRow("X", 2, 3, frozenset())
        with pytest.raises(TableFormatError):
            ExpectedOutcomeRow("X", 2, 3, frozenset({1}))
        with pytest.raises(TableFormatError) as raised:
            ExpectedOutcomeRow("G", 0, 2, frozenset({6}))
        assert str(raised.value) == "G: element orders must be positive"


class TestShippedTable:
    def test_loads_and_has_26_rows(self):
        rows = load_shipped_table()
        assert len(rows) == 26
        labels = [r.group_label for r in rows]
        assert labels[0] == "M11" and labels[1] == "M12"
        assert all(r.allowed_orders for r in rows)

    def test_only_mathieu_rows_are_desk_scale(self):
        rows = load_shipped_table()
        desk = [r.group_label for r in rows if r.desk_scale]
        assert desk == ["M11", "M12"]

    def test_m11_m12_allowed_orders(self):
        rows = {r.group_label: r for r in load_shipped_table()}
        assert rows["M11"].allowed_orders == {7920, 660}
        assert rows["M12"].allowed_orders == {95040, 7920, 660}
        assert (rows["M11"].a, rows["M11"].b) == (2, 11)
        assert (rows["M12"].a, rows["M12"].b) == (2, 11)


class TestVerification:
    def test_passing_row(self):
        rows = parse_expected_table("A5\t3\t5\tA5\t60\tdesk\n")
        (result,) = verify_expected_table(rows)
        assert result.status == PASS

    def test_synthetic_failing_row(self):
        # (2, 3) admits a solvable subgroup, so this row must fail
        rows = parse_expected_table("A5\t2\t3\tA5\t60\tdesk\n")
        (result,) = verify_expected_table(rows)
        assert result.status == FAIL
        assert result.report is not None
        assert result.report.counterexample is not None

    def test_wrong_allowed_orders_fail(self):
        # pair verifies but observes order 360 alongside 60
        rows = parse_expected_table("A6\t3\t5\tA6\t360\tdesk\n")
        (result,) = verify_expected_table(rows)
        assert result.status == FAIL
        assert "60" in result.reason

    def test_beyond_desk_rows_skipped(self):
        rows = parse_expected_table(
            "HS\t2\t11\tHS\t44352000\tbeyond-desk\n")
        (result,) = verify_expected_table(rows)
        assert result.status == SKIPPED
        assert "desk" in result.reason

    def test_unresolvable_desk_row_is_an_error(self):
        rows = parse_expected_table("HS\t2\t11\tHS\t44352000\tdesk\n")
        with pytest.raises(UnknownGroupError):
            verify_expected_table(rows)

    def test_cap_exceeded_rows_skipped(self, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "50")
        rows = parse_expected_table(GOOD)
        (result,) = verify_expected_table(rows)
        assert result.status == SKIPPED
        assert result.reason == "order 60 exceeds enumeration cap"
