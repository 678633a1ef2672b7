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
from satforge.construction import build_construction
from satforge.discharging import DischargeAudit
from satforge.graph import read_graph6_file, to_graph6, write_graph6_file
from satforge.search import EmptyLevelError
from tests.conftest import complete_graph, cycle_graph, path_graph


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


def write_non_ascii(path):
    """A valid record, then a line of bytes that are not ASCII."""
    path.write_bytes(to_graph6(cycle_graph(6)).encode() + b"\n\x7fELF\xff\xfe\n")


def assert_non_ascii_error(stderr, path):
    assert stderr == f"error: {path}: line 2 is not ASCII\n"


def write_malformed(path):
    """A valid record, then a 9-vertex record one body byte short."""
    path.write_text(to_graph6(cycle_graph(6)) + "\nH?????\n")


def assert_malformed_error(stderr, path):
    assert stderr == f"error: {path}: line 2: expected 6 body chars, got 5\n"


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
        write_graph6_file(path, [cycle_graph(6)])
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

    def test_non_ascii_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bin.g6"
        write_non_ascii(path)
        assert_non_ascii_error(usage_error(capsys, "check", str(path)), path)

    def test_malformed_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        write_malformed(path)
        assert_malformed_error(usage_error(capsys, "check", str(path)), path)

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

        monkeypatch.setattr("satforge.search.enumerate_saturated", no_search)
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

    def test_empty_level_is_not_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # an internal error leaves main as a traceback (exit 1), not exit 2
        monkeypatch.setattr("satforge.search._next_level", lambda level, k, budget: ({}, []))
        with pytest.raises(EmptyLevelError, match="m = 1"):
            main(["search", "--n", "9", "--out", str(tmp_path), "--budget-secs", "5"])
        assert capsys.readouterr() == ("", "")

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

    def test_non_ascii_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bin.g6"
        write_non_ascii(path)
        assert_non_ascii_error(usage_error(capsys, "audit", str(path)), path)

    def test_malformed_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        write_malformed(path)
        assert_malformed_error(usage_error(capsys, "audit", str(path)), path)

    def test_t2_reduction_noted(self, tmp_path, capsys):
        path = tmp_path / "g11.g6"
        run(capsys, "construct", "--n", "11", "--out", str(path))
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "reduced 2" in stdout

    def test_delta3_shortcut(self, tmp_path, capsys):
        path = tmp_path / "k5.g6"
        write_graph6_file(path, [complete_graph(5)])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "branch=delta>=3" in stdout

    def test_non_saturated_fails(self, tmp_path, capsys):
        path = tmp_path / "p7.g6"
        write_graph6_file(path, [path_graph(7)])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_VERDICT
        assert "audit error" in stdout

    # no known input fires a rule diagnostic, and the one check known to
    # fail is still under triage, so these audit results are stubbed
    def stub_audit(self, tmp_path, capsys, monkeypatch, **fields):
        path = tmp_path / "g.g6"
        run(capsys, "construct", "--n", "9", "--out", str(path))
        monkeypatch.setattr("satforge.discharging.audit",
                            lambda g: DischargeAudit("full", 9, 12, True, **fields))
        return path

    def test_strict_levels_fails_on_a_diagnostic(self, tmp_path, capsys, monkeypatch):
        path = self.stub_audit(tmp_path, capsys, monkeypatch,
                               diagnostics=["ambiguous 2/3-1/3 split at 4; least id wins"])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_OK
        assert "e>=10: pass\n  note: ambiguous 2/3-1/3 split at 4; least id wins\n" in stdout
        code, _, _ = run(capsys, "audit", str(path), "--strict-levels")
        assert code == EXIT_VERDICT

    def test_failure_is_printed(self, tmp_path, capsys, monkeypatch):
        path = self.stub_audit(tmp_path, capsys, monkeypatch,
                               failures=["weak conditional bound violated at 2"])
        code, stdout, _ = run(capsys, "audit", str(path))
        assert code == EXIT_VERDICT
        assert "e>=10: FAIL\n  failure: weak conditional bound violated at 2\n" in stdout


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

    def test_non_ascii_corpus_file_is_usage_error(self, tmp_path, capsys):
        path = Path("search-results") / "sat_9_6.g6"
        path.parent.mkdir()
        write_non_ascii(path)
        code, stdout, stderr = run(capsys, "table", "--n-range", "9..9")
        assert code == EXIT_USAGE
        assert stdout.split() == ["n", "lower", "upper", "edges", "sat"]
        assert_non_ascii_error(stderr, path)

    def test_malformed_corpus_line_is_named(self, capsys):
        path = Path("search-results") / "sat_9_6.g6"
        path.parent.mkdir()
        write_malformed(path)
        code, stdout, stderr = run(capsys, "table", "--n-range", "9..9")
        assert code == EXIT_USAGE
        assert stdout.split() == ["n", "lower", "upper", "edges", "sat"]
        assert_malformed_error(stderr, path)

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

    @pytest.mark.parametrize("span", ["0..2", "-3..1"])
    def test_range_below_one_is_usage_error(self, capsys, span):
        # no rows for n <= 0, where the lower bound 4n/3 - 2 is negative
        code, out, err = run(capsys, "table", f"--n-range={span}")
        assert code == EXIT_USAGE and out == ""
        assert "n >= 1" in err


class TestDeterminism:
    def test_construct_bytes_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        run(capsys, "construct", "--n", "15", "--out", str(a))
        run(capsys, "construct", "--n", "15", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


# a fresh interpreter runs one command, then prints its exit code and which
# of the two lazily imported modules it loaded, on stderr
LOADED = ("import sys; from satforge.cli import main; code = main(sys.argv[1:]); "
          "sys.stdout.flush(); print(code, sorted({'satforge.discharging', "
          "'satforge.search'} & set(sys.modules)), file=sys.stderr)")


@pytest.mark.parametrize("argv, loaded", [
    (["construct", "--n", "9"], []),
    (["check", "{g9}"], []),
    (["audit", "{g9}"], ["satforge.discharging"]),
    (["search", "--n", "5", "--k", "3", "--out", "{tmp}"], ["satforge.search"]),
    (["table", "--n-range", "9..10"], []),
])
def test_command_loads_only_what_it_uses(tmp_path, argv, loaded):
    g9 = tmp_path / "g9.g6"
    write_graph6_file(g9, [build_construction(9)[0]])
    argv = [a.format(g9=g9, tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(satforge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stderr.splitlines()[-1] == f"{EXIT_OK} {loaded}"
