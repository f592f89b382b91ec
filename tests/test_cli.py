import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvcrit
from solvcrit.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestQueries:
    def test_order(self, run):
        code, out, _ = run("order", "--group", "A5")
        assert code == 0
        assert "order 60" in out

    def test_order_json(self, run):
        code, out, _ = run("order", "--group", "A5", "--format", "json")
        assert json.loads(out) == {"label": "A5", "degree": 5, "order": 60}

    def test_order_tsv(self, run):
        code, out, _ = run("order", "--group", "D10", "--format", "tsv")
        assert out == "20\n"

    def test_solvable(self, run):
        code, out, _ = run("solvable", "--group", "S4")
        assert code == 0
        assert "solvable" in out
        assert "24 -> 12 -> 4 -> 1" in out

    def test_spectrum(self, run):
        code, out, _ = run("spectrum", "--group", "psl2:7", "--format", "json")
        assert json.loads(out)["element_orders"] == [1, 2, 3, 4, 7]

    def test_classes(self, run):
        code, out, _ = run("classes", "--group", "A5", "--format", "json")
        sizes = [c["size"] for c in json.loads(out)["classes"]]
        assert sizes == [1, 15, 20, 12, 12]

    def test_group_file(self, run, tmp_path):
        path = tmp_path / "a5.grp"
        path.write_text("label A5\ndegree 5\norder 60\n"
                        "gen (1 2 3 4 5)\ngen (3 4 5)\n")
        code, out, _ = run("order", "--file", str(path))
        assert code == 0 and "60" in out


class TestChecks:
    def test_criterion_pass_exit_zero(self, run):
        code, out, _ = run("criterion", "--group", "C6")
        assert code == 0 and "holds" in out

    def test_criterion_counterexample_exit_one(self, run):
        code, out, _ = run("criterion", "--group", "A5")
        assert code == 1
        assert "fails" in out and "element order 3" in out

    def test_witness_verify(self, run):
        code, out, _ = run("witness", "verify", "3", "5", "--group", "A5")
        assert code == 0 and "verified" in out

    def test_witness_verify_refuted(self, run):
        code, out, _ = run("witness", "verify", "2", "3", "--group", "A5")
        assert code == 1 and "REFUTED" in out

    def test_witness_search(self, run):
        code, out, _ = run("witness", "search", "--group", "A5", "--primes")
        assert code == 0 and "(3, 5)" in out

    def test_zsigmondy_scan(self, run):
        code, out, _ = run("zsigmondy-scan", "9", "8")
        assert code == 0 and "OK" in out

    def test_zsigmondy_scan_stops_at_the_value_limit(self, run):
        # 4^e passes 2**96 at e = 48, so every exponent past it prints
        # nothing, and the scan must not walk them
        code, out, _ = run("zsigmondy-scan", "4", "1000000", "--format", "json")
        _, ref, _ = run("zsigmondy-scan", "4", "96", "--format", "json")
        wide, narrow = json.loads(out), json.loads(ref)
        assert code == 0
        assert wide["mismatches"] == narrow["mismatches"] == []
        assert wide["empty_cells"] == narrow["empty_cells"]

    def test_witness_search_without_prime_pairs(self, run):
        code, out, _ = run("witness", "search", "--group", "S4", "--primes")
        assert code == 0 and out == "S4: no prime witness pairs\n"


class TestNumberTheoryCommands:
    def test_ppd(self, run):
        code, out, _ = run("ppd", "4", "3")
        assert code == 0 and "{7}" in out

    def test_ppd_basic(self, run):
        code, out, _ = run("ppd", "4", "3", "--basic")
        assert "{}" in out

    def test_ppd_large(self, run):
        code, out, _ = run("ppd", "17", "2", "--large", "--format", "json")
        payload = json.loads(out)
        assert payload["primes"] == [] and payload["square_entry"] == 9

    def test_alt_pair(self, run):
        code, out, _ = run("alt-pair", "20", "--format", "tsv")
        assert out == "11\t19\n"

    def test_phi(self, run):
        code, out, _ = run("phi", "30", "2")
        assert "331" in out


class TestVerifyTable:
    def test_shipped_table(self, run, monkeypatch):
        # cap below |M12| keeps this test quick: M11 runs, M12 reports the
        # explicit cap skip; the full M12 row is covered by the acceptance
        # suite
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "10000")
        code, out, _ = run("verify-table", "--format", "tsv")
        lines = out.strip().splitlines()
        assert len(lines) == 26
        statuses = {line.split("\t")[0]: line.split("\t")[3] for line in lines}
        assert statuses["M11"] == "PASS"
        assert statuses["M12"] == "SKIPPED"
        assert statuses["HS"] == "SKIPPED"
        assert code == 0

    def test_failing_table_exits_one(self, run, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A5\t2\t3\tA5\t60\tdesk\n")
        code, out, _ = run("verify-table", str(path))
        assert code == 1 and "FAIL" in out


class TestErrors:
    def test_unknown_group_exits_two(self, run):
        code, _, err = run("order", "--group", "E8")
        assert code == 2 and "error" in err

    def test_empty_group_name_exits_two(self, run):
        # an empty name is a catalog name too, not a missing --group
        code, out, err = run("order", "--group", "")
        assert (code, out) == (2, "")
        assert err == "error: unknown catalog group ''\n"

    @pytest.mark.parametrize("name, message", [
        ("A1000000000", "need m <= 100"), ("C1000000000000", "need n <= 2000")])
    def test_oversized_catalog_name_exits_two(self, run, monkeypatch, name,
                                              message):
        def unbuilt(*args, **kwargs):
            raise AssertionError(f"{name} was built")

        monkeypatch.setattr(solvcrit.catalog, "build_group", unbuilt)
        monkeypatch.setattr(solvcrit.catalog, "parse_cycles", unbuilt)
        code, out, err = run("order", "--group", name)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_exits_two(self, run):
        code, _, err = run("order", "--file", "/nonexistent.grp")
        assert code == 2

    def test_bad_ppd_range_exits_two(self, run):
        code, _, err = run("ppd", "6", "3")
        assert code == 2

    def test_ppd_exponent_out_of_range_exits_two(self, run):
        code, _, err = run("ppd", "3", "1000000")
        assert code == 2 and "3^1000000 - 1" in err

    def test_alt_pair_out_of_range_exits_two(self, run):
        code, out, err = run("alt-pair", str(2**96))
        assert (code, out) == (2, "")
        assert err == f"error: m {2**96} is not below 2**96\n"

    def test_workers_flag_is_a_usage_error(self, capsys):
        for argv in (["criterion", "--group", "A5"],
                     ["witness", "verify", "3", "5", "--group", "A5"],
                     ["witness", "search", "--group", "A5"],
                     ["verify-table"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", "2"])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err


def _child_env(**extra) -> dict:
    # the child imports solvcrit from where this process did, so it runs
    # the code under test whether that is src/ or site-packages; it keeps
    # PYTHONDONTWRITEBYTECODE, so a run that writes no bytecode spawns
    # none that does
    package_root = str(Path(solvcrit.__file__).resolve().parents[1])
    kept = {name: os.environ[name] for name in ("PYTHONDONTWRITEBYTECODE",)
            if name in os.environ}
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, **kept,
            **extra}


class TestDeterminismAcrossProcesses:
    def _python_twice(self, *argv):
        return [subprocess.run([sys.executable, *argv],
                               capture_output=True, text=True,
                               env=_child_env(PYTHONHASHSEED=seed))
                for seed in ("0", "1")]

    def _capture_twice(self, *argv):
        return self._python_twice("-m", "solvcrit", *argv)

    def test_criterion_output_identical(self):
        one, two = self._capture_twice(
            "criterion", "--group", "S4", "--format", "json")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_failing_criterion_report_identical(self):
        # M11 fails the criterion, so the repr holds every witness pair,
        # the rechecked counterexample and the counts
        one, two = self._python_twice(
            "-c", "from solvcrit import catalog_group, check_criterion\n"
                  "print(repr(check_criterion(catalog_group('M11'))))")
        assert one.returncode == two.returncode == 0
        assert "holds=False" in one.stdout
        assert one.stdout == two.stdout

    def test_witness_output_identical(self):
        one, two = self._capture_twice(
            "witness", "verify", "3", "5", "--group", "A6")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_m12_witness_output_identical(self):
        one, two = self._capture_twice(
            "witness", "verify", "2", "11", "--group", "M12")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_prime_search_output_identical(self):
        one, two = self._capture_twice(
            "witness", "search", "--group", "M11", "--primes")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout


class TestEnumCapEnv:
    def test_cap_env_respected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "solvcrit", "spectrum", "--group", "A5"],
            capture_output=True, text=True,
            env=_child_env(SOLVCRIT_ENUM_CAP="10"))
        assert proc.returncode == 2
        assert "cap" in proc.stderr

    def test_nonpositive_cap_is_a_usage_error(self, run, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "0")
        code, out, err = run("spectrum", "--group", "A5")
        assert code == 2 and out == ""
        assert err == "error: SOLVCRIT_ENUM_CAP must be positive, got 0\n"

    def test_non_integer_cap_is_named(self, run, monkeypatch):
        monkeypatch.setenv("SOLVCRIT_ENUM_CAP", "abc")
        code, out, err = run("classes", "--group", "A5")
        assert code == 2 and out == ""
        assert err == ("error: SOLVCRIT_ENUM_CAP must be an integer, "
                       "got 'abc'\n")


class TestImportCost:
    def test_import_starts_no_process_machinery(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, solvcrit; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
