import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import gf2to1
import gf2to1.cli as cli
import gf2to1.search as search
from gf2to1.cli import main, parse_document
from gf2to1.field import make_field
from gf2to1.poly import SparsePoly
from gf2to1.search import SearchReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _dying_shard(args):
    os._exit(1)


def _child_env():
    """The environment for a child interpreter that imports this checkout's gf2to1."""
    src = pathlib.Path(gf2to1.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


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

    def test_negative_modulus_usage_error(self):
        # in a child with a timeout: a modulus loop that never ends fails the test
        proc = subprocess.run(
            [sys.executable, "-m", "gf2to1.cli", "check", "x^3", "--n", "3", "--modulus=-0xb"],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: modulus -0xb is negative" in proc.stderr


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

    @pytest.mark.parametrize(
        "family,n,param,message",
        [
            ("tri_I", "4", "0x0", "not a root of z^(2^2) + z + 1"),
            ("tri_II", "6", "0x3", "not a root of z^2 + z + 1"),
            ("quad_01", "5", "0x1", "no element parameter"),
        ],
        ids=["tri_I", "tri_II", "quad_01"],
    )
    def test_bad_param_is_usage_error(self, capsys, family, n, param, message):
        code, out, err = run(capsys, "family", family, "--n", n, "--param", param)
        assert code == 2
        assert out == ""
        assert message in err


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

    def test_degree5_n7_needs_long(self, capsys, monkeypatch):
        shards = []

        def record(fn, shard_args):  # keeps the shard arguments, scans nothing
            shards.extend(shard_args)
            return [([], 0, 0)] * len(shard_args)

        monkeypatch.setattr(search, "_run_shards", record)
        code, out, err = run(capsys, "search", "--shape", "degree5", "--n", "7", "--workers", "2")
        assert code == 2 and out == ""
        assert "long-run" in err
        assert not shards
        code, out, _ = run(capsys, "search", "--shape", "degree5", "--n", "7", "--long", "--workers", "2")
        assert code == 0
        assert [set(s[-1]) for s in shards] == [set(range(0, 128, 2)), set(range(1, 128, 2))]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "trinomial", "--n", "4", "--workers", "1")
        assert code == 0
        assert "2 hits" in out
        rep = search.search_sparse(make_field(4), "trinomial")
        assert f"{rep.candidates_scanned} candidates ({rep.sieve_rejected} rejected by the fiber sieve)" in out

    def test_zero_workers_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--shape", "binomial", "--n", "3", "--workers", "0")
        assert code == 2
        assert "error: workers must be at least 1, got 0" in err
        assert out == ""

    def test_dead_worker_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "_shard", _dying_shard)
        code, out, err = run(capsys, "search", "--shape", "binomial", "--n", "4", "--workers", "2")
        assert code == 2
        assert "error: a search worker process died" in err
        assert "Traceback" not in err
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

    def test_n_max_above_seven_rejected(self, capsys):
        code, out, err = run(capsys, "tables", "--which", "I", "--n-max", "9")
        assert code == 2
        assert out == ""
        assert "--n-max" in err

    def test_n_max_seven_needs_long(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("a search ran before the usage error")

        monkeypatch.setattr(cli, "search_sparse", no_search)
        code, out, err = run(capsys, "tables", "--which", "II", "--n-max", "7", "--workers", "1")
        assert code == 2
        assert out == ""
        assert "--long" in err

    def test_long_keeps_smaller_n_max(self, capsys):
        code, out, _ = run(
            capsys, "tables", "--which", "II", "--long", "--n-max", "4", "--workers", "1", "--format", "json"
        )
        assert code == 0
        assert [r["n"] for r in parse_document(out)["results"]] == [3, 4]

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

    @pytest.mark.parametrize("which,n", [("2.4", 13), ("2.5", 13), ("2.6", 9), ("2.6", 30)])
    def test_input_cap(self, capsys, which, n):
        # the largest n under the cap are 12 for 2.4 and 2.5, 8 for 2.6
        code, out, err = run(capsys, "lemma", "--which", which, "--n", str(n))
        assert code == 2 and out == ""
        assert "at most LEMMA_MAX_INPUTS = 16777216 inputs" in err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "x^2+x", "--n", "3"),
            ("family", "tri_I", "--n", "4"),
            ("tables", "--which", "I"),
            ("resultant", "--theorem", "1", "--n", "3"),
            ("count-points", "--a3", "0x1", "--a2", "0x0", "--a1", "0x1", "--n", "3"),
            ("lemma", "--which", "2.4", "--n", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_only_for_search(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 2 and out == ""
        assert "invalid choice: 'csv'" in err

    def test_csv_env_default_falls_back_to_text(self, capsys, monkeypatch):
        monkeypatch.setenv("GF2TO1_FORMAT", "csv")
        code, out, _ = run(capsys, "check", "x^2+x", "--n", "3")
        assert code == 0
        assert "two-to-one: yes" in out
        code, out, _ = run(capsys, "search", "--shape", "binomial", "--n", "3", "--workers", "1")
        assert code == 0
        assert out.startswith("poly,orbit_size\n")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "check", "x^2+x")[0] == 2

    def test_module_entry_point_runs_main(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gf2to1.cli", "tables", "--which", "IV"],
            env=_child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_readme_cli_block_parses(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert commands and all(argv[0] == "gf2to1" for argv in commands)
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    def test_unknown_document_kind(self):
        with pytest.raises(ValueError):
            parse_document(json.dumps({"kind": "mystery"}))
