"""Tests for the report renderers and the CLI experiment runner."""

import pytest

from repro.common.units import GB
from repro.experiments import report
from repro.experiments.scenarios.recovery import RecoveryResult


def make_result(sut, size_gb, sched=2.0, fetch=10.0, load=1.3, oom=False):
    result = RecoveryResult(sut, size_gb * GB)
    if oom:
        result.out_of_memory = True
        return result
    result.scheduling_seconds = sched
    result.fetching_seconds = fetch
    result.loading_seconds = load
    result.total_seconds = sched + fetch + load + 1.0
    return result


class TestPaperNumbers:
    def test_paper_total_sums_breakdown(self):
        assert report.paper_total(250, "flink") == pytest.approx(71.7)
        assert report.paper_total(1000, "rhino") == pytest.approx(4.7)

    def test_paper_total_megaphone_scalar(self):
        assert report.paper_total(250, "megaphone") == 46.3
        assert report.paper_total(1000, "megaphone") == "OOM"

    def test_paper_total_unknown(self):
        assert report.paper_total(123, "flink") is None

    def test_all_table1_cells_present(self):
        for size in (250, 500, 750, 1000):
            for sut in ("flink", "rhino", "rhinodfs", "megaphone"):
                assert report.PAPER_TABLE1[size][sut] is not None


class TestReportRendering:
    def test_figure1_report_contains_measured_and_paper(self):
        results = [make_result("rhino", 250), make_result("flink", 250)]
        text = report.figure1_report(results)
        assert "rhino" in text and "flink" in text
        assert "71.7" in text  # paper number alongside

    def test_figure1_report_marks_oom(self):
        text = report.figure1_report([make_result("megaphone", 750, oom=True)])
        assert "OOM" in text

    def test_table1_report_has_breakdown_columns(self):
        text = report.table1_report([make_result("rhino", 500)])
        assert "scheduling" in text and "fetching" in text and "loading" in text

    def test_timeline_report_with_claims(self):
        class FakeStats:
            def row(self):
                return [0.1, 0.2, 5.0, 30.0]

        class FakeResult:
            sut = "rhino"
            query = "nbq8"
            stats = FakeStats()

            def row(self):
                return [self.sut, self.query] + self.stats.row()

        text = report.timeline_report(
            [FakeResult()], "Panel", claims={"rhino": "flat"}
        )
        assert "Panel" in text
        assert "Paper claims" in text
        assert "flat" in text


class TestCli:
    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_figure1_single_size(self, capsys):
        from repro.experiments.__main__ import main

        exit_code = main(["figure1", "--sizes", "100"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 1" in captured.out
        assert "rhino" in captured.out

    def test_all_returns_the_first_failing_code(self, monkeypatch, capsys):
        """``all --file`` must not swallow a failing scenario's exit code,
        and one failure must not skip the commands after it."""
        from repro.experiments import __main__ as cli

        ran = []

        def stub(name, code):
            def command(args):
                ran.append(name)
                return code

            return command

        commands = {name: stub(name, None) for name in cli.COMMANDS}
        commands["figure5"] = stub("figure5", 2)
        commands["scenario"] = stub("scenario", 1)
        monkeypatch.setattr(cli, "COMMANDS", commands)
        assert cli.main(["all", "--file", "scenario.json"]) == 2
        assert ran == list(commands)
        commands["figure5"] = stub("figure5", None)
        assert cli.main(["all", "--file", "scenario.json"]) == 1
        assert cli.main(["all"]) == 0  # no --file: the scenario is skipped
        capsys.readouterr()

    def test_ablations_command(self, capsys):
        from repro.experiments.__main__ import main

        exit_code = main(["ablations"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "virtual_nodes" in captured.out
        assert "delta_size" in captured.out


class TestBenchHelpers:
    def test_timeline_csv_carries_the_sample_weights(self, tmp_path, monkeypatch):
        """A latency sample is ``(time, latency, weight)``; the CSV emitter
        unpacked pairs and crashed every timeline bench before its first
        assertion."""
        from benchmarks import conftest
        from repro.common.units import GB
        from repro.experiments.scenarios.fault_tolerance import run_fault_tolerance

        result = run_fault_tolerance(
            "rhino",
            checkpoint_interval=10.0,
            checkpoints_before=1,
            checkpoints_after=1,
            rate_scale=0.01,
            preload_bytes=1 * GB,
        )
        monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
        conftest.emit_timeline_csv("figure4_fault_tolerance", [result])
        csv = tmp_path / "figure4_fault_tolerance_rhino_nbq8.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == f"# event_time={result.event_time}"
        assert lines[1] == "time_s,latency_s,weight"
        assert len(lines) == 2 + len(result.series)
        t, latency, weight = result.series[0]
        assert lines[2] == f"{t:.3f},{latency:.6f},{weight}"

