"""Tests for the command-line entry points."""

import pytest

from repro.cli import cassandra_main, dacapo_main, report_main
from repro.jvm.gclog import parse_gc_log


class TestDaCapoCLI:
    def test_basic_run(self, capsys):
        rc = dacapo_main(["lusearch", "-n", "2", "--heap", "1g", "--young", "256m"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lusearch" in out and "iteration" in out

    def test_gc_selection(self, capsys):
        rc = dacapo_main(["lusearch", "-n", "2", "--gc", "G1",
                          "--heap", "1g", "--young", "256m"])
        assert rc == 0
        assert "G1GC" in capsys.readouterr().out

    def test_crashing_benchmark_nonzero_exit(self, capsys):
        rc = dacapo_main(["eclipse", "-n", "1", "--heap", "1g"])
        assert rc == 1

    def test_no_tlab_flag(self, capsys):
        rc = dacapo_main(["lusearch", "-n", "1", "--no-tlab",
                          "--heap", "1g", "--young", "256m"])
        assert rc == 0

    def test_gc_log_round_trip(self, tmp_path, capsys):
        logfile = tmp_path / "gc.log"
        rc = dacapo_main(["lusearch", "-n", "3", "--heap", "1g",
                          "--young", "128m", "--gc-log", str(logfile)])
        assert rc == 0
        assert logfile.exists()
        rc2 = report_main([str(logfile)])
        assert rc2 == 0
        out = capsys.readouterr().out
        assert "pauses" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            dacapo_main(["not-a-benchmark"])

    @pytest.mark.parametrize("argv", [["--young", "128g"], ["--gc", "Foo"],
                                      ["--heap", "1x"], ["-n", "0"],
                                      ["-n", "-2"], ["-t", "0"]])
    def test_refused_config_exits_2(self, argv, capsys):
        assert dacapo_main(["lusearch", "-n", "1", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("repro-dacapo: ")
        assert len(err.splitlines()) == 1


class TestCassandraCLI:
    def test_short_run(self, capsys):
        rc = cassandra_main(["--duration", "200", "--ops", "1500",
                             "--phase", "run", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cassandra" in out
        assert "READ latency" in out and "UPDATE latency" in out

    def test_load_phase_no_read_table(self, capsys):
        rc = cassandra_main(["--duration", "120", "--ops", "1500",
                             "--phase", "load"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "READ latency" not in out

    def test_gc_log_round_trip(self, tmp_path, capsys):
        logfile = tmp_path / "gc.log"
        rc = cassandra_main(["--duration", "120", "--ops", "1500",
                             "--phase", "run", "--heap", "8g", "--young", "1.5g",
                             "--seed", "3", "--gc-log", str(logfile)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"GC log written to {logfile}" in out
        log = parse_gc_log(logfile.read_text())
        assert log.count > 0
        # The pause table: header, rule, then "#pauses(full)" as "N(F)".
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("#pauses(full)"))
        assert lines[header + 2].split()[0] == f"{log.count}({log.full_count})"


    # No infinite duration here: a tree that accepted one would serve
    # forever. The driver's and the client's own tests check it.
    @pytest.mark.parametrize("argv", [
        ["--duration", "nan"], ["--duration", "-1"], ["--ops", "nan"],
        ["--ops", "inf"], ["--ops", "0"], ["--young", "128g"]])
    def test_refused_config_exits_2(self, argv, capsys):
        """Refused before any JVM is built: one line on stderr, exit 2."""
        rc = cassandra_main(["--phase", "run", "--duration", "60", "--heap", "2g",
                             "--young", "512m", *argv])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.startswith("repro-cassandra: ")
        assert len(err.splitlines()) == 1


class TestReportCLI:
    def test_empty_log(self, tmp_path, capsys):
        f = tmp_path / "empty.log"
        f.write_text("")
        assert report_main([str(f)]) == 0
        assert "no pauses" in capsys.readouterr().out


class TestSpecjbbCLI:
    def test_ramp(self, capsys):
        rc = __import__("repro.cli", fromlist=["specjbb_main"]).specjbb_main(
            ["-w", "4", "8", "-m", "5", "--heap", "2g", "--young", "512m"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "warehouses" in out and "score:" in out

    def test_htm_collector_accepted(self, capsys):
        from repro.cli import specjbb_main

        rc = specjbb_main(["-w", "4", "-m", "5", "--gc", "HTM",
                           "--heap", "2g", "--young", "512m"])
        assert rc == 0
        assert "HTMGC" in capsys.readouterr().out


class TestClusterCLI:
    def test_failure_study_runs_as_subcommand(self, capsys):
        from repro.cli import cluster_main

        rc = cluster_main(["failures", "-n", "2", "--duration", "600",
                           "--gc", "ParallelOld"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DOWN convictions" in out and "availability" in out

    def test_merge_subcommand(self, capsys, tmp_path):
        from repro.campaign import CellSpec, ResultStore, run_cell
        from repro.cli import cluster_main

        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        shard = ResultStore(str(tmp_path / "shard0"))
        shard.record_ok(cell, run_cell(cell))
        rc = cluster_main(["merge", str(tmp_path / "shard0"),
                           "--into", str(tmp_path / "merged")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merged 1 stores: 1 records (1 ok, 0 failed)" in out
        assert len(ResultStore(str(tmp_path / "merged"))) == 1

    def test_submit_requires_connection_flags(self, capsys):
        from repro.cli import cluster_main

        rc = cluster_main(["submit", "--benchmarks", "lusearch"])
        assert rc == 2
        assert "need --socket" in capsys.readouterr().err
