"""Tests for the ``repro-campaign`` command-line interface."""

import pytest

from repro.cli import campaign_main, dacapo_main

BASE = ["--benchmarks", "lusearch", "--gcs", "Serial", "ParallelOld",
        "--heaps", "1g", "--youngs", "256m", "--seeds", "0",
        "--iterations", "2"]


def run_args(store, *extra):
    return (["run", "--name", "smoke", "--store", str(store)]
            + BASE + ["--executor", "serial"] + list(extra))


class TestRunCommand:
    def test_run_then_cached_rerun(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert campaign_main(run_args(store)) == 0
        out = capsys.readouterr().out
        assert "simulated 2, cached 0/2" in out

        assert campaign_main(run_args(store)) == 0
        out = capsys.readouterr().out
        assert "simulated 0, cached 2/2" in out

    def test_process_executor_and_csv(self, tmp_path, capsys):
        store = tmp_path / "store"
        csv_path = tmp_path / "out.csv"
        args = (["run", "--name", "smoke", "--store", str(store)] + BASE
                + ["--executor", "process", "--workers", "2",
                   "--csv", str(csv_path)])
        assert campaign_main(args) == 0
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("benchmark,")

    def test_uncached_run_without_store(self, capsys):
        args = ["run", "--name", "x"] + BASE + ["--executor", "serial"]
        assert campaign_main(args) == 0
        assert "cached 0/2" in capsys.readouterr().out

    def test_quarantine_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        from repro.campaign import runner

        def raise_always(cell, trace_dir=None):
            raise RuntimeError("worker lost")

        monkeypatch.setattr(runner, "run_cell", raise_always)
        args = (["run", "--name", "bad", "--store", str(tmp_path / "s"),
                 "--benchmarks", "lusearch",
                 "--gcs", "Serial", "--heaps", "1g", "--seeds", "0",
                 "--iterations", "1", "--executor", "serial",
                 "--retries", "0"])
        assert campaign_main(args) == 1
        assert "quarantined" in capsys.readouterr().out

    def test_progress_flag(self, tmp_path, capsys):
        assert campaign_main(run_args(tmp_path / "s", "--progress")) == 0
        err = capsys.readouterr().err
        assert "cells 2/2" in err

    @pytest.mark.parametrize("executor", ["process", "serial"])
    @pytest.mark.parametrize("timeout", ["0", "-5", "nan", "inf"])
    def test_bad_timeout_refused(self, tmp_path, capsys, executor, timeout):
        store = tmp_path / "s"
        args = (["run", "--name", "x", "--store", str(store)] + BASE
                + ["--executor", executor, f"--timeout={timeout}"])
        assert campaign_main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: timeout must be a positive")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not (store / "records.jsonl").exists()
        assert not (store / "manifest.json").exists()

    def test_empty_axis_rejected(self, tmp_path, capsys):
        args = (["run", "--name", "x", "--benchmarks", "lusearch",
                 "--gcs", "Serial", "--heaps", "1g",
                 "--seeds", "--executor", "serial"])
        # argparse requires at least one value for nargs="+"
        with pytest.raises(SystemExit):
            campaign_main(args)


class TestStatusResumeClean:
    @pytest.fixture()
    def populated_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        campaign_main(run_args(store))
        capsys.readouterr()
        return store

    def test_status(self, populated_store, capsys):
        assert campaign_main(["status", "--store", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "2 records" in out and "smoke" in out

    def test_resume_uses_manifest_spec(self, populated_store, capsys):
        assert campaign_main(["resume", "--store", str(populated_store),
                              "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "resuming campaign 'smoke'" in out
        assert "cached 2/2" in out

    @pytest.mark.parametrize("timeout", ["0", "nan", "inf"])
    def test_resume_bad_timeout_refused(self, populated_store, capsys, timeout):
        records = (populated_store / "records.jsonl").read_bytes()
        assert campaign_main(["resume", "--store", str(populated_store),
                              f"--timeout={timeout}"]) == 2
        assert capsys.readouterr().err.startswith("error: timeout must be")
        assert (populated_store / "records.jsonl").read_bytes() == records

    def test_resume_empty_store_fails(self, tmp_path, capsys):
        assert campaign_main(["resume", "--store", str(tmp_path / "empty"),
                              "--executor", "serial"]) == 2

    def test_resume_unknown_name_fails(self, populated_store, capsys):
        assert campaign_main(["resume", "--store", str(populated_store),
                              "--name", "nope", "--executor", "serial"]) == 2

    def test_clean_failures_only(self, populated_store, capsys):
        assert campaign_main(["clean", "--store", str(populated_store),
                              "--failures-only"]) == 0
        assert "dropped 0 failure record(s)" in capsys.readouterr().out
        # ok records survive: rerun is still fully cached
        campaign_main(run_args(populated_store))
        assert "cached 2/2" in capsys.readouterr().out

    def test_clean_all(self, populated_store, capsys):
        assert campaign_main(["clean", "--store", str(populated_store)]) == 0
        assert "dropped all 2 record(s)" in capsys.readouterr().out
        campaign_main(run_args(populated_store))
        assert "cached 0/2" in capsys.readouterr().out


def _store_files(store):
    """Bytes and inode of each store file present."""
    return {name: ((store / name).read_bytes(), (store / name).stat().st_ino)
            for name in ("records.jsonl", "manifest.json")
            if (store / name).exists()}


class TestRefusals:
    """Cells the JVM would refuse, and stores that are not there, exit 2
    with one `error:` line and change nothing."""

    @pytest.mark.parametrize("axes", [
        ["--benchmarks", "definitely-not-a-benchmark"],
        ["--benchmarks", "lusearch", "--heaps", "0g"],
        ["--benchmarks", "lusearch", "--heaps", "1g", "--youngs", "2g"],
    ], ids=["unknown-benchmark", "zero-heap", "young-above-heap"])
    def test_refused_cell_writes_nothing(self, tmp_path, capsys, axes):
        store = tmp_path / "store"
        assert campaign_main(run_args(store)) == 0
        before = _store_files(store)
        capsys.readouterr()
        args = (["run", "--name", "smoke", "--store", str(store)] + axes
                + ["--iterations", "1", "--executor", "serial"])
        assert campaign_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert _store_files(store) == before and len(before) == 2

    @pytest.mark.parametrize("command", [
        ["status"], ["status", "--json"], ["clean"],
        ["clean", "--failures-only"], ["resume", "--executor", "serial"]])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_store_must_exist(self, tmp_path, capsys, command, kind):
        path = tmp_path / "no-such-store"
        if kind == "file":
            path.write_text("not a store\n")
        assert campaign_main(command[:1] + ["--store", str(path)]
                             + command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: store ")
        assert len(captured.err.splitlines()) == 1
        if kind == "file":
            assert path.read_text() == "not a store\n"
        else:
            assert not path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["no-such-store"] if kind == "file" else [])


class TestDaCapoProgress:
    def test_progress_reports_iterations(self, capsys):
        rc = dacapo_main(["lusearch", "-n", "2", "--heap", "1g",
                          "--young", "256m", "--progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "iterations 1/2" in err and "iterations 2/2" in err


class TestStatusJson:
    """`status --json` shares one schema with the serve status endpoint."""

    def test_schema(self, tmp_path, capsys):
        import json

        store = tmp_path / "store"
        campaign_main(run_args(store))
        capsys.readouterr()
        assert campaign_main(["status", "--store", str(store), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert set(status) == {"version", "root", "records", "ok", "failed",
                               "quarantined_lines", "campaigns"}
        assert status["records"] == status["ok"] == 2
        assert status["failed"] == status["quarantined_lines"] == 0
        (campaign,) = status["campaigns"]
        assert set(campaign) == {"name", "digest", "cells", "ok", "failed",
                                 "missing"}
        assert campaign["name"] == "smoke"
        assert campaign["cells"] == campaign["ok"] == 2
        assert campaign["missing"] == 0

    def test_matches_serve_status_endpoint_payload(self, tmp_path, capsys):
        import json

        from repro.campaign import ResultStore
        from repro.campaign.store import store_status

        store = tmp_path / "store"
        campaign_main(run_args(store))
        capsys.readouterr()
        campaign_main(["status", "--store", str(store), "--json"])
        via_cli = json.loads(capsys.readouterr().out)
        # The service's stats()["store"] section is the same function.
        via_api = store_status(ResultStore(store))
        assert via_cli == via_api
