"""Top-level ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main


class TestQueryCommand:
    def test_sql_query(self, capsys):
        code = main([
            "query", "--scale", "0.002",
            "SELECT count(*) AS n FROM region",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "5" in output
        assert "1 row(s)" in output

    def test_named_query(self, capsys):
        code = main(["query", "--scale", "0.002", "--name", "Q6"])
        assert code == 0
        assert "row(s)" in capsys.readouterr().out

    def test_unknown_named_query(self, capsys):
        code = main(["query", "--scale", "0.002", "--name", "Q99"])
        assert code == 2

    def test_missing_input(self, capsys):
        code = main(["query", "--scale", "0.002"])
        assert code == 2

    def test_suspend_resume_flow(self, capsys):
        code = main(["query", "--scale", "0.002", "--name", "Q3", "--suspend-at", "0.5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "suspended at" in output
        assert "resumed and finished" in output

    @pytest.mark.parametrize("extra", [[], ["--incremental"]])
    def test_suspend_creates_missing_snapshot_dir(self, capsys, tmp_path, extra):
        directory = tmp_path / "not" / "yet" / "there"
        code = main([
            "query", "--scale", "0.002", "--name", "Q9", "--suspend-at", "0.5",
            "--snapshot-dir", str(directory), *extra,
        ])
        assert code == 0
        assert "resumed and finished" in capsys.readouterr().out
        assert any(directory.glob("Q9.pipeline.*"))

    def test_process_strategy_flow(self, capsys):
        code = main([
            "query", "--scale", "0.002", "--name", "Q3",
            "--suspend-at", "0.5", "--strategy", "process",
        ])
        assert code == 0
        assert "process-level" in capsys.readouterr().out

    def test_experiments_alias(self, capsys):
        code = main([
            "experiments", "table2", "--scale-ratio", "0.00005",
            "--queries", "Q1",
        ])
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    def test_analyze(self, capsys):
        code = main(["query", "--scale", "0.002", "--name", "Q6", "--analyze"])
        assert code == 0
        output = capsys.readouterr().out
        assert "actual:" in output
        assert "vsec" in output
        assert "result rows" in output

    def test_analyze_with_trace_out(self, capsys, tmp_path):
        from repro.obs.export import validate_chrome_trace_file

        path = tmp_path / "trace.json"
        code = main([
            "query", "--scale", "0.002", "--name", "Q3",
            "--suspend-at", "0.5", "--analyze", "--trace-out", str(path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Suspension timeline:" in output
        summary = validate_chrome_trace_file(path)
        for category in ("query", "pipeline", "persist", "resume"):
            assert summary["categories"].get(category, 0) >= 1


class TestTraceCommand:
    def test_trace_exports_and_summarizes(self, capsys, tmp_path):
        from repro.obs.export import validate_chrome_trace_file

        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        code = main([
            "trace", "--scale", "0.002", "--name", "Q6",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "trace event(s)" in output
        assert "perfetto" in output
        assert validate_chrome_trace_file(out)["events"] > 0
        assert jsonl.read_text().count("\n") > 0

    def test_trace_with_suspension(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code = main([
            "trace", "--scale", "0.002", "--name", "Q3",
            "--suspend-at", "0.5", "--strategy", "process", "--out", str(out),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "persist" in output
        assert out.exists()


class TestMasterSeed:
    def test_seed_changes_generated_data(self, capsys):
        main(["query", "--scale", "0.002", "SELECT count(*) AS n FROM lineitem"])
        legacy = capsys.readouterr().out
        main([
            "query", "--scale", "0.002", "--seed", "1",
            "SELECT count(*) AS n FROM lineitem",
        ])
        seeded = capsys.readouterr().out
        # Same schema and cardinality envelope, different row content is
        # not observable through count(*); assert the runs both succeed
        # and the seeded run is reproducible instead.
        main([
            "query", "--scale", "0.002", "--seed", "1",
            "SELECT count(*) AS n FROM lineitem",
        ])
        assert capsys.readouterr().out == seeded
        assert "row(s)" in legacy

    def test_why_accepts_master_seed(self, capsys):
        code = main([
            "why", "Q6", "--scale", "0.002", "--seed", "3", "--json",
        ])
        assert code == 0
        assert '"query": "Q6"' in capsys.readouterr().out


class TestFleetCommand:
    def test_fleet_text_report(self, capsys):
        code = main([
            "fleet", "--tenants", "3", "--workers", "2",
            "--duration", "300", "--seed", "11",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "SLO attainment" in output
        assert "policy=suspend-aware" in output

    def test_fleet_json_deterministic(self, capsys):
        argv = [
            "fleet", "--tenants", "3", "--workers", "2",
            "--duration", "300", "--seed", "11", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        report = json.loads(first)
        assert report["format"] == "riveter-fleet/1"
        assert report["policy"] == "suspend-aware"

    def test_fleet_exports_journal_and_trace(self, capsys, tmp_path):
        from repro.obs.export import validate_chrome_trace_file

        journal = tmp_path / "fleet.jsonl"
        trace = tmp_path / "fleet.trace.json"
        code = main([
            "fleet", "--tenants", "3", "--workers", "2", "--duration", "300",
            "--seed", "11", "--policy", "fifo",
            "--journal-out", str(journal), "--trace-out", str(trace),
        ])
        assert code == 0
        lines = [l for l in journal.read_text().splitlines() if l]
        assert any('"kind":"admission"' in l or '"kind": "admission"' in l for l in lines)
        assert validate_chrome_trace_file(trace)["events"] > 0

    def test_fleet_result_mismatch_fails(self, capsys, monkeypatch):
        from repro.fleet import FleetCluster

        measure = FleetCluster.measure

        def measure_with_one_wrong_digest(cluster, query):
            cached = measure(cluster, query)
            if len(cluster._digests) == 1 and query in cluster._digests:
                cluster._digests[query] = "0" * 64
            return cached

        monkeypatch.setattr(FleetCluster, "measure", measure_with_one_wrong_digest)
        code = main([
            "fleet", "--tenants", "3", "--workers", "2",
            "--duration", "300", "--seed", "11", "--json",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert '"format":"riveter-fleet/1"' in captured.out
        assert "completion(s) differ from the uninterrupted result" in captured.err
