import os
import subprocess
import sys
from pathlib import Path

import pytest

import satforge
from satforge.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    main,
)
from satforge.graph import Graph, read_graph6_file, to_graph6, write_graph6_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """Run a command that must print nothing to stdout and fail with exit 2
    and an `error: ` line; returns its stderr."""
    code, stdout, stderr = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr.startswith("error: ")
    return stderr


class TestConstruct:
    def test_writes_file_and_reports(self, tmp_path, capsys):
        out = tmp_path / "g.g6"
        code, stdout, _ = run(capsys, "construct", "--n", "9", "--out", str(out))
        assert code == EXIT_OK
        assert "edges=12 bound=12 OK" in stdout
        assert read_graph6_file(out)[0].edge_count == 12

    def test_stdout_when_no_out(self, capsys):
        code, stdout, _ = run(capsys, "construct", "--n", "12")
        assert code == EXIT_OK
        assert "edges=16" in stdout

    def test_small_n_is_usage_error(self, capsys):
        assert "9" in usage_error(capsys, "construct", "--n", "8")

    def test_large_n_is_usage_error(self, capsys):
        assert "64" in usage_error(capsys, "construct", "--n", "65")

    def test_out_directory_is_usage_error(self, tmp_path, capsys):
        usage_error(capsys, "construct", "--n", "12", "--out", str(tmp_path))


class TestCheck:
    def test_saturated_input(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        run(capsys, "construct", "--n", "10", "--out", str(path))
        code, stdout, _ = run(capsys, "check", str(path), "--k", "6")
        assert code == EXIT_OK
        assert "verdict=saturated" in stdout

    def test_cycle_fails_with_witness(self, tmp_path, capsys):
        path = tmp_path / "c6.g6"
        write_graph6_file(path, [Graph.cycle(6)])
        code, stdout, _ = run(capsys, "check", str(path), "--k", "6")
        assert code == EXIT_VERDICT
        assert "not-free" in stdout and "cycle=" in stdout

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert "no graphs" in usage_error(capsys, "check", str(path))

    def test_missing_file(self, capsys):
        usage_error(capsys, "check", "/nonexistent.g6")

    def test_malformed_record(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("H?\n")  # truncated record
        usage_error(capsys, "check", str(path))

    def test_short_cycle_length_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        run(capsys, "construct", "--n", "9", "--out", str(path))
        assert "at least 3" in usage_error(capsys, "check", str(path), "--k", "2")


class TestSearch:
    def test_known_value(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "search", "--n", "5", "--k", "3",
                              "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "sat=4" in stdout
        assert (tmp_path / "sat_5_3.g6").exists()

    def test_budget_exit(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "search", "--n", "9", "--k", "6",
                              "--out", str(tmp_path), "--budget-nodes", "30")
        assert code == EXIT_BUDGET
        assert "budget-exhausted" in stdout
        assert stdout.splitlines()[1].split()[-1] == "30"  # nodes tried

    def test_out_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking --out")

        monkeypatch.setattr("satforge.cli.enumerate_saturated", no_search)
        path = tmp_path / "taken"
        path.write_text("")
        usage_error(capsys, "search", "--n", "5", "--out", str(path))
        assert path.read_text() == ""

    @pytest.mark.parametrize("budget", [("--budget-nodes", "-3"),
                                        ("--budget-secs", "-0.5"),
                                        ("--budget-secs", "nan")])
    def test_negative_budget_is_usage_error(self, tmp_path, capsys, budget):
        stderr = usage_error(capsys, "search", "--n", "5",
                             "--out", str(tmp_path), *budget)
        assert "budget" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_beyond_labeler_is_usage_error(self, tmp_path, capsys):
        stderr = usage_error(capsys, "search", "--n", "17",
                             "--out", str(tmp_path))
        assert "n <= 16" in stderr

    @pytest.mark.parametrize("bad", [("--n", "17"), ("--n", "5", "--k", "2"),
                                     ("--n", "5", "--budget-nodes", "-3")])
    def test_bad_arguments_leave_no_directory(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.chdir(tmp_path)
        usage_error(capsys, "search", *bad)
        assert list(tmp_path.iterdir()) == []

    def test_default_out_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "search", "--n", "5", "--k", "3")
        assert code == EXIT_OK
        assert (tmp_path / "search-results" / "sat_5_3.g6").exists()


class TestAudit:
    def test_family_passes(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        run(capsys, "construct", "--n", "9", "--out", str(path))
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "branch=full" in stdout and "e>=10: pass" in stdout

    def test_dump_stages(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        run(capsys, "construct", "--n", "9", "--out", str(path))
        code, stdout, _ = run(capsys, "audit", str(path),
                              "--dump-stages", "g,g5,f7")
        assert code == EXIT_OK
        assert "-5/6" in stdout  # exact fraction rendering

    def test_unknown_stage_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        run(capsys, "construct", "--n", "9", "--out", str(path))
        stderr = usage_error(capsys, "audit", str(path), "--dump-stages", "f9")
        assert "f9" in stderr

    def test_missing_file(self, capsys):
        usage_error(capsys, "audit", "/nonexistent.g6")

    def test_t2_reduction_noted(self, tmp_path, capsys):
        path = tmp_path / "g11.g6"
        run(capsys, "construct", "--n", "11", "--out", str(path))
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "reduced 2" in stdout

    def test_delta3_shortcut(self, tmp_path, capsys):
        path = tmp_path / "k5.g6"
        write_graph6_file(path, [Graph.complete(5)])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "branch=delta>=3" in stdout

    def test_non_saturated_fails(self, tmp_path, capsys):
        path = tmp_path / "p7.g6"
        write_graph6_file(path, [Graph.path(7)])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_VERDICT
        assert "audit error" in stdout


class TestTable:
    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        # table reads ./search-results/, so a local one cannot change the rows
        monkeypatch.chdir(tmp_path)

    def test_bounds_rows(self, capsys):
        code, stdout, _ = run(capsys, "table", "--n-range", "9..12")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert len(lines) == 5
        assert lines[1].split() == ["9", "10", "12", "12", "-"]
        assert lines[4].split() == ["12", "14", "16", "16", "-"]

    def test_exact_column_from_corpus(self, tmp_path, capsys):
        from satforge.construction import build_construction

        (tmp_path / "search-results").mkdir()
        write_graph6_file(tmp_path / "search-results" / "sat_9_6.g6",
                          [build_construction(9)[0]])
        code, stdout, _ = run(capsys, "table", "--n-range", "9..9")
        assert code == EXIT_OK
        assert stdout.strip().splitlines()[1].split()[-1] == "12"

    def test_exact_column_from_default_search(self, capsys):
        assert run(capsys, "search", "--n", "7", "--k", "6")[0] == EXIT_OK
        code, stdout, _ = run(capsys, "table", "--n-range", "7..9")
        assert code == EXIT_OK
        rows = [line.split() for line in stdout.strip().splitlines()[1:]]
        assert rows[0] == ["7", "8", "-", "-", "10"]
        assert [r[-1] for r in rows[1:]] == ["-", "-"]

    def test_closed_stdout_is_not_a_usage_error(self):
        # `satforge table ... | head -1`: the reader leaves after one line
        env = dict(os.environ, PYTHONPATH=str(Path(satforge.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "satforge.cli", "table", "--n-range", "9..20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().split()[0] == b"n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_VERDICT
        assert stderr == b""

    def test_malformed_corpus_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "search-results").mkdir()
        (tmp_path / "search-results" / "sat_9_6.g6").write_text("H?\n")
        code, stdout, stderr = run(capsys, "table", "--n-range", "9..9")
        assert code == EXIT_USAGE
        assert stdout.split() == ["n", "lower", "upper", "edges", "sat"]
        assert stderr.startswith("error: ")

    def test_beyond_max_vertices_has_no_edges(self, capsys):
        code, stdout, _ = run(capsys, "table", "--n-range", "60..70")
        assert code == EXIT_OK
        rows = [line.split() for line in stdout.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == [str(n) for n in range(60, 71)]
        assert rows[4] == ["64", "84", "85", "85", "-"]
        assert rows[5] == ["65", "85", "87", "-", "-"]
        assert all(r[3] == "-" for r in rows[5:])

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "--n-range", "12..9")
        assert code == EXIT_USAGE


class TestDeterminism:
    def test_construct_bytes_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        run(capsys, "construct", "--n", "15", "--out", str(a))
        run(capsys, "construct", "--n", "15", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
