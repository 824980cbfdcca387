import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

import gf2to1
import gf2to1.cli as cli
import gf2to1.search as search
from gf2to1.cli import main
from gf2to1.field import field_from_label, make_field
from gf2to1.poly import SparsePoly, parse_poly
from gf2to1.search import SearchReport, report_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_document(text: str):
    """Parse any JSON document the CLI emits back into semantic objects."""
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "search_report":
        return report_from_json(text)
    if kind in ("check", "family"):
        ctx = field_from_label(doc["field"])
        out = dict(doc)
        out["field"] = ctx
        out["poly"] = parse_poly(ctx, doc["poly"])
        return out
    if kind == "tables":
        out = dict(doc)
        out["results"] = [
            {
                "n": r["n"],
                "report": report_from_json(json.dumps(r["report"])),
                "diff": r["diff"],
            }
            for r in doc["results"]
        ]
        return out
    if kind in ("resultant", "count_points", "lemma"):
        out = dict(doc)
        out["field"] = field_from_label(doc["field"])
        return out
    raise ValueError(f"unknown document kind {kind!r}")


_PID = os.getpid()


def _dying_shard(args):
    """Ends a pool worker at once; the calling process runs its own shard
    as an empty one, so only the worker dies."""
    if os.getpid() != _PID:
        os._exit(1)
    return [], 0, 0


def _raising_shard(args):
    """Raises in a pool worker; the calling process runs its own shard as
    an empty one."""
    if os.getpid() != _PID:
        raise ValueError(f"shard {args[-1][0]} refused")
    return [], 0, 0


def _sleeping_shard(args):
    """Keeps a pool worker busy while the calling process's shard fails."""
    if os.getpid() != _PID:
        time.sleep(60)
        return [], 0, 0
    raise KeyboardInterrupt


def _all_reaped(pids):
    """Every pid in pids was forked and has been reaped; pids is emptied."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    pids.clear()


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
        code, _, err = run(capsys, "family", "tri_I", "--n", "5")
        assert err == "error: family tri_I is not admissible: requires even n >= 4, got n=5\n"

    def test_above_the_scan_cap_is_usage_error(self, capsys, deadline):
        # the tri_I parameter is found without a 2^32-entry table
        deadline(10)
        code, out, err = run(capsys, "family", "tri_I", "--n", "32")
        assert (code, out, err) == (2, "", "error: full-domain scan capped at n=24, got n=32\n")

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

        def record(fn, shard_args, pool=None):  # keeps the shard arguments, scans nothing
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
        for argv in (
            ("search", "--shape", "binomial", "--n", "4", "--workers", "2"),
            ("tables", "--which", "II", "--n-max", "4", "--workers", "2"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert "error: a search worker process died" in err
            assert "Traceback" not in err
            assert out == ""

    def test_worker_exception_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "_shard", _raising_shard)
        code, out, err = run(capsys, "search", "--shape", "binomial", "--n", "4", "--workers", "2")
        assert (code, out) == (2, "")
        assert err == "error: shard 4 refused\n"

    def test_no_worker_outlives_its_pool(self, capsys, monkeypatch, forks):
        argv = ("search", "--shape", "binomial", "--n", "4", "--workers", "2")
        assert run(capsys, *argv)[0] == 0
        _all_reaped(forks)
        monkeypatch.setattr(search, "_shard", _dying_shard)
        assert run(capsys, *argv)[0] == 2
        _all_reaped(forks)
        # the calling process's shard fails while a worker is busy: the pool
        # kills that worker instead of waiting for it
        monkeypatch.setattr(search, "_shard", _sleeping_shard)
        t0 = time.monotonic()
        assert run(capsys, *argv)[0] == 2
        assert time.monotonic() - t0 < 30
        _all_reaped(forks)

    def test_one_dying_worker_of_three(self):
        # shard 1 of 3 dies while shard 2 completes: the command must end
        # with the usage error, and no worker may outlive the pool
        script = (
            "import os, sys\n"
            "from gf2to1 import search\n"
            "from gf2to1.cli import main\n"
            "shard, fork, pids = search._shard, os.fork, []\n"
            "def dies_at_4(args):\n"
            "    if args[-1][0] == 4:\n"
            "        os._exit(1)\n"
            "    return shard(args)\n"
            "def recording_fork():\n"
            "    pids.append(fork())\n"
            "    return pids[-1]\n"
            "search._shard, os.fork = dies_at_4, recording_fork\n"
            "code = main(['search', '--shape', 'binomial', '--n', '4', '--workers', '3'])\n"
            "for pid in pids:\n"
            "    try:\n"
            "        os.waitpid(pid, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('reaped', file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[0].startswith("error: a search worker process died")
        assert proc.stderr.splitlines()[1:] == ["reaped", "reaped"]

    def test_without_fork_every_shard_runs_in_process(self, capsys, monkeypatch):
        # where os.fork does not exist no pool opens, at any worker count
        argv = ("tables", "--which", "II", "--n-max", "4", "--format", "json", "--workers")
        _, plain, _ = run(capsys, *argv, "1")
        monkeypatch.delattr(os, "fork")
        code, out, err = run(capsys, *argv, "3")
        assert (code, err) == (0, "")
        assert out == plain
        code, out, err = run(capsys, "search", "--shape", "binomial", "--n", "4")  # --workers defaults to the CPU count
        assert (code, err) == (0, "")
        assert "hits" in out


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

    @staticmethod
    def record_runs(monkeypatch, forks):
        """The (pool workers, shards, forks so far) after each search's run."""
        real_run, runs = search._Pool.run, []

        def recording_run(pool, fn, args):
            out = real_run(pool, fn, args)
            runs.append((len(pool.workers), len(args), len(forks)))
            return out

        monkeypatch.setattr(search._Pool, "run", recording_run)
        return runs

    def test_one_pool_per_command(self, capsys, monkeypatch, forks):
        _, plain, _ = run(capsys, "tables", "--which", "II", "--n-max", "5", "--workers", "1", "--format", "json")
        runs = self.record_runs(monkeypatch, forks)
        code, out, _ = run(capsys, "tables", "--which", "II", "--n-max", "5", "--workers", "3", "--format", "json")
        assert code == 0 and out == plain
        # one pool of 2 for the whole command, forked by the first search;
        # three shards per search: the calling process runs the first, and
        # each worker one of the other two
        assert runs == [(2, 3, 2)] * 3

    def test_pool_grows_across_searches(self, capsys, monkeypatch, forks):
        # GF(8) has three quadrinomial shard items, so the n = 3 search forks
        # 2 workers; n = 4 and 5 take 4 shards, and the pool forks a third
        # worker for n = 4 and none for n = 5
        _, plain, _ = run(capsys, "tables", "--which", "III", "--n-max", "5", "--workers", "1", "--format", "json")
        runs = self.record_runs(monkeypatch, forks)
        code, out, _ = run(capsys, "tables", "--which", "III", "--n-max", "5", "--workers", "4", "--format", "json")
        assert code == 0 and out == plain
        assert runs == [(2, 3, 2), (3, 4, 3), (3, 4, 3)]

    def test_byte_identical_across_worker_counts(self, capsys):
        _, out1, _ = run(capsys, "tables", "--which", "II", "--n-max", "4", "--workers", "1", "--format", "json")
        _, out2, _ = run(capsys, "tables", "--which", "II", "--n-max", "4", "--workers", "2", "--format", "json")
        assert out1.encode() == out2.encode()

    def test_byte_identical_stdout_across_worker_processes(self):
        # stdout is a buffered pipe, so the line printed first is still in
        # the buffer when the workers fork; a worker that flushed its copy
        # of that buffer on exit would repeat it, which capsys cannot see
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)

        def stdout(workers):
            argv = ["tables", "--which", "II", "--n-max", "4", "--workers", workers]
            script = f"print('tables'); from gf2to1.cli import main; main({argv!r})"
            return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60).stdout

        one = stdout("1")
        assert one.startswith(b"tables\ntable II n=3")
        assert stdout("3") == one

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

    def test_below_bound_at_the_cap(self, capsys):
        # 4180 agrees with perfbench/gfref.count_quadratic_in_x on the same curve
        start = time.perf_counter()
        code, out, _ = run(capsys, "count-points", "--a3", "0x1", "--a2", "0x2", "--a1", "0x7", "--n", "12")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "curve points over gf2_12/0x1009: 4180 (lower bound 8174)\n")

    def test_above_the_cap(self, capsys):
        code, out, err = run(capsys, "count-points", "--a3", "0x1", "--a2", "0x2", "--a1", "0x7", "--n", "13")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "capped at n=12" in err and err.count("\n") == 1


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


def _masked_sha256(out: str) -> str:
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    out = re.sub(r", \d+ ms$", ", 0 ms", out, flags=re.M)
    return hashlib.sha256(out.encode()).hexdigest()


# argv, exit code, SHA-256 of the masked stdout: the full stdout of every
# subcommand in text and json, and of search in csv, pinned byte for byte.
RENDERINGS = [
    ("check x^6+x^4+x^3+x --n 5", 0, "a046b1854b693bdcc3dd9a69f10c4359ba5205e902379b033a3102afbbfee07b"),
    (
        "check x^6+x^4+x^3+x --n 5 --format json",
        0,
        "750e877d7d5ad668388cb80cf9e90ac4996b67d32a209ebb095685ef29c751c7",
    ),
    ("check x^3 --n 3", 1, "52c0503587112be12bd1a791acacba73f3d20074bc3a88e4ef3f303445f3a6f0"),
    ("check x^3 --n 3 --format json", 1, "d6ecb31e846ad76ec1e73ca5b254cf7f4924de931b4d7f99146190fdd0e51add"),
    ("family tri_II --n 6", 0, "132d3791fe731bdb0351bf13c1ce48d134e4944a6d7476b5828c8887f31300fb"),
    (
        "family tri_I --n 4 --param 0x3 --format json",
        0,
        "72ca61380af679ae2731a1727c03e4d4251aa7127cfbbf57bee7044534504999",
    ),
    (
        "search --shape trinomial --n 4 --workers 1",
        0,
        "70856da3eff364369bdba9bd5330de8d11144c6d4c7e5cc3671fb7f2b3c9259a",
    ),
    (
        "search --shape degree5 --n 3 --workers 1 --format json",
        0,
        "122a786b855ec400b17f41bef1ae8c39d2ae50824c03d15e352e86470d4ab019",
    ),
    (
        "search --shape binomial --n 4 --workers 1 --format csv",
        0,
        "5e78489ae21a26d4fe77007d009880e249fd1ae6d65823a787f4bcda920df71d",
    ),
    ("tables --which I --workers 1", 0, "fc1ad0bb8bc2a7c0bb5a8921af6c3ad02a5f476a8d0c4f0b2733772a2e2ef9b7"),
    (
        "tables --which II --n-max 4 --workers 1 --format json",
        0,
        "c4fd77c8ab37c2ac003c879f400907d3adfa09a721ae0cbf3121b84b8deb01d6",
    ),
    (
        "tables --which III --n-max 4 --workers 1",
        0,
        "7107c385a590844a4a38197e9fe57c30c10768bd06c70f7ca9671bd8ff50cda5",
    ),
    ("resultant --theorem 4 --n 5", 0, "1dff67f2e6cf1da1ac5d121da06d7d7570a3e287510deb7a8edd9c2743d4db05"),
    (
        "resultant --theorem 3 --n 5 --format json",
        0,
        "2a8b68cfa83be9ba39a3b7048bda47eea54d4dbe6631242940b09468024dd434",
    ),
    (
        "count-points --a3 0x1 --a2 0x2 --a1 0x7 --n 3",
        0,
        "25ee9e8ba7f6526ea5f2f1095f8d87c4eefad0a305a9adfe878dfc18e10335ca",
    ),
    (
        "count-points --a3 0x1 --a2 0x2 --a1 0x7 --n 3 --format json",
        0,
        "3f583d8605ed9505ec1610c99ba0a0b341dbeedfe762f1548c04429f90204f90",
    ),
    ("lemma --which 2.4 --n 3", 0, "d23ebd6ec575244be2500cc2af67e477670e295b731e403227128167746d6bb1"),
    (
        "lemma --which 2.6 --n 4 --format json",
        0,
        "2c6123aeb5c282e6843909eea9bb6efffb0a387f93dbeb281ef1ee891e214286",
    ),
    (
        "search --shape quadrinomial --n 3 --workers 1",
        0,
        "f4e5dd56e8fa5fac53c7f4422df81dc1cfe40703afc34a10616fcd665711cc4f",
    ),
    ("family deg5_row_22 --n 3 --param 5", 0, "a47cc30b77ac6f65c2aa8f4d4048cdf67743c7e1e455924efdcdf75a69ceaacf"),
]


class TestRenderings:
    @pytest.mark.parametrize("argv,code,digest", RENDERINGS, ids=[r[0] for r in RENDERINGS])
    def test_stdout_digest(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *shlex.split(argv))
        assert (got, _masked_sha256(out)) == (code, digest)


class TestUsageErrorShape:
    """Past argparse, every usage error is one 'error: ' line on stderr,
    nothing on stdout, and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "tri_I", "--n", "5"),
            ("tables", "--which", "II", "--n-max", "7", "--workers", "1"),
            ("check", "x^3", "--n", "3", "--modulus", "0x9"),
            ("family", "tri_I", "--n", "4", "--param", "0x0"),
            ("search", "--shape", "binomial", "--n", "3", "--workers", "0"),
            ("lemma", "--which", "2.6", "--n", "9"),
            ("count-points", "--a3", "0x9", "--a2", "0x0", "--a1", "0x0", "--n", "3"),
            ("resultant", "--theorem", "2", "--n", "4"),
            ("search", "--shape", "quadrinomial", "--n", "2", "--workers", "1"),
        ],
        ids=["inadmissible-family", "n-max-without-long", "modulus", "param", "workers", "lemma-cap",
             "element-range", "resultant-even-n", "empty-template"],
    )
    def test_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


class TestStrictNumbers:
    """Numbers int() would read but the grammar forbids, and factors outside
    the grammar, are usage errors."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("check", "x^1_0", "--n", "3"), "bad factor 'x^1_0' in polynomial text"),
            (("check", "0x_1*x^3+x", "--n", "3"), "bad factor '0x_1' in polynomial text"),
            (("check", "x^ 3", "--n", "3"), "bad factor 'x^ 3' in polynomial text"),
            (("check", "x^+3 + x", "--n", "3"), "bad factor 'x^' in polynomial text"),
            (("check", "x*y", "--n", "3"), "bad factor 'y' in polynomial text"),
            (("check", "x^2+y", "--n", "3"), "bad factor 'y' in polynomial text"),
            (("family", "tri_I", "--n", "4", "--param", "0x_3"), "bad element '0x_3'"),
            (("check", "x^3", "--n", "3", "--modulus", "0x1_3"), "bad modulus '0x1_3'"),
        ],
        ids=["exponent-underscore", "coefficient-underscore", "exponent-space", "exponent-sign", "y-factor",
             "y-term", "param", "modulus"],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("token", ["1_0", "+3", " 3", "\u0663"], ids=["underscore", "plus", "space", "arabic-indic"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "x", "--n", "{}"),
            ("search", "--shape", "binomial", "--n", "3", "--workers", "{}"),
            ("tables", "--which", "I", "--n-max", "{}"),
            ("resultant", "--theorem", "{}", "--n", "3"),
        ],
        ids=["n", "workers", "n-max", "theorem"],
    )
    def test_integer_flag_outside_the_grammar(self, capsys, argv, token):
        # argparse rejects the token before any subcommand runs
        code, out, err = run(capsys, *(a.format(token) for a in argv))
        assert (code, out) == (2, "")
        assert f"invalid integer {token!r}" in err


class TestImportBudget:
    """No run loads the process-pool modules: search forks its workers
    with os.fork and talks to them over pipes.  pickle loads only when a
    pool sends a task, so never at one worker."""

    PROBE = (
        "import sys; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'pickle') if m in sys.modules], file=sys.stderr)"
    )

    @pytest.mark.parametrize(
        "statement,loaded",
        [
            ("import gf2to1", []),
            ("import gf2to1.cli", []),
            ("from gf2to1.cli import main; main(['lemma', '--which', '2.4', '--n', '3'])", []),
            ("from gf2to1.cli import main; main(['tables', '--which', 'I', '--workers', '1'])", []),
            ("from gf2to1.cli import main; main(['tables', '--which', 'II', '--n-max', '4', '--workers', '2'])", ["pickle"]),
        ],
        ids=["package", "cli", "lemma", "tables-1-worker", "tables-2-workers"],
    )
    def test_pool_modules_never_load(self, statement, loaded):
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}\n{self.PROBE}"],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == repr(loaded)
