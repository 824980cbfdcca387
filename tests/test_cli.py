import json
import os
import pathlib
import subprocess
import sys

import pytest

import gf2to1
from gf2to1.cli import main, parse_document
from gf2to1.field import make_field
from gf2to1.poly import SparsePoly
from gf2to1.search import SearchReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_two_to_one_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "x^2+x", "--n", "5")
        assert code == 0
        assert "two-to-one: yes" in out

    def test_not_two_to_one_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "x", "--n", "5")
        assert code == 1
        assert "two-to-one: no" in out

    def test_json_document_round_trips(self, capsys):
        code, out, _ = run(capsys, "check", "x^6+x^4+x^3+x", "--n", "5", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert doc["two_to_one"] is True
        assert doc["poly"] == SparsePoly.make(make_field(5), [(6, 1), (4, 1), (3, 1), (1, 1)])

    def test_malformed_poly_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "2x+1", "--n", "5")
        assert code == 2
        assert "error:" in err

    def test_explicit_modulus(self, capsys):
        code, out, _ = run(capsys, "check", "x^2+x", "--n", "3", "--modulus", "d")
        assert code == 0
        assert "gf2_3/0xd" in out


class TestFamily:
    def test_construct_and_verify(self, capsys):
        code, out, _ = run(capsys, "family", "tri_I", "--n", "4", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert doc["two_to_one"] is True
        assert doc["poly"].exponents() == (12, 11, 1)

    def test_inadmissible_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "quad_12", "--n", "12")
        assert code == 2
        assert "m not congruent to 1 mod 3" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "family", "quad_99", "--n", "3")
        assert code == 2
        assert "unknown family" in err

    def test_param_override(self, capsys):
        code, out, _ = run(capsys, "family", "deg5_row_22", "--n", "3", "--param", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["poly"] == "x^5+0x5*x^3"


class TestSearch:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "degree5", "--n", "3", "--format", "json", "--workers", "1")
        assert code == 0
        rep = parse_document(out)
        assert isinstance(rep, SearchReport)
        assert len(rep.hits) == 35

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "binomial", "--n", "4", "--format", "csv", "--workers", "1")
        assert code == 0
        assert out.splitlines()[0] == "poly,orbit_size"

    def test_budget_violation_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--shape", "trinomial", "--n", "7", "--workers", "1")
        assert code == 2
        assert "long-run" in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "trinomial", "--n", "4", "--workers", "1")
        assert code == 0
        assert "2 hits" in out

    def test_zero_workers_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--shape", "binomial", "--n", "3", "--workers", "0")
        assert code == 2
        assert "error: workers must be at least 1, got 0" in err
        assert out == ""


class TestTables:
    def test_table1_ok(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "I", "--workers", "1")
        assert code == 0
        assert "table I n=3: 35 hits, ok [gamma=0x2]" in out

    def test_table2_low_n(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "II", "--n-max", "4", "--workers", "1", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert doc["ok"] is True
        assert [r["n"] for r in doc["results"]] == [3, 4]

    def test_table2_full_range_empty_diff(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "II", "--n-max", "6", "--workers", "2")
        assert code == 0
        assert "MISMATCH" not in out

    def test_byte_identical_across_worker_counts(self, capsys):
        _, out1, _ = run(capsys, "tables", "--which", "II", "--n-max", "4", "--workers", "1", "--format", "json")
        _, out2, _ = run(capsys, "tables", "--which", "II", "--n-max", "4", "--workers", "2", "--format", "json")
        assert out1.encode() == out2.encode()

    def test_bad_n_max(self, capsys):
        code, _, err = run(capsys, "tables", "--which", "II", "--n-max", "2")
        assert code == 2

    def test_negative_workers_usage_error(self, capsys):
        code, out, err = run(capsys, "tables", "--which", "I", "--workers", "-1")
        assert code == 2
        assert "error: workers must be at least 1, got -1" in err
        assert out == ""


class TestResultant:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "resultant", "--theorem", "2", "--n", "3")
        assert code == 0
        assert "holds" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "resultant", "--theorem", "3", "--n", "5", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert doc["ok"] is True and doc["field"] == make_field(5)

    def test_even_n_usage_error(self, capsys):
        code, _, err = run(capsys, "resultant", "--theorem", "2", "--n", "4")
        assert code == 2


class TestCountPoints:
    def test_table_row_triple(self, capsys):
        code, out, _ = run(
            capsys, "count-points", "--a3", "0x1", "--a2", "0x2", "--a1", "0x7", "--n", "3", "--format", "json"
        )
        assert code == 0
        doc = parse_document(out)
        assert doc["count"] == 16 and doc["lower_bound"] == -2

    def test_element_out_of_range(self, capsys):
        code, _, err = run(capsys, "count-points", "--a3", "0x9", "--a2", "0x0", "--a1", "0x0", "--n", "3")
        assert code == 2


class TestLemma:
    @pytest.mark.parametrize("which", ["2.4", "2.5", "2.6"])
    def test_agreement(self, capsys, which):
        code, out, _ = run(capsys, "lemma", "--which", which, "--n", "3", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert doc["ok"] is True and doc["checked"] > 0


class TestFormatEnv:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GF2TO1_FORMAT", "json")
        code, out, _ = run(capsys, "check", "x^2+x", "--n", "3")
        assert code == 0
        assert json.loads(out)["kind"] == "check"

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("GF2TO1_FORMAT", "json")
        code, out, _ = run(capsys, "check", "x^2+x", "--n", "3", "--format", "text")
        assert code == 0
        assert "two-to-one: yes" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "check", "x^2+x")[0] == 2

    def test_module_entry_point_runs_main(self):
        src = pathlib.Path(gf2to1.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "gf2to1.cli", "tables", "--which", "IV"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_unknown_document_kind(self):
        with pytest.raises(ValueError):
            parse_document(json.dumps({"kind": "mystery"}))
