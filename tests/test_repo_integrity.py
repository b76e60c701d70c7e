"""Repository-integrity checks: docs, benches, and examples stay in sync."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentation:
    def test_design_doc_lists_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            if bench.name == "bench_ablations.py":
                continue  # covered by the ablation index row
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_experiments_doc_names_every_figure_and_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in (
            "Figure 1",
            "Table 1",
            "Figure 4 a",
            "Figure 4 d",
            "Figure 4 g",
            "Figure 5",
            "Figure 6",
            "Ablations",
        ):
            assert heading in text, f"{heading} missing from EXPERIMENTS.md"

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} missing from README"

    def test_bench_files_are_collectible(self):
        """Every bench module imports cleanly (no stale APIs)."""
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            source = bench.read_text()
            compile(source, str(bench), "exec")

    def test_all_paper_experiments_have_benches(self):
        names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert names >= {
            "bench_figure1_reconfiguration_time.py",
            "bench_table1_recovery_breakdown.py",
            "bench_figure4_fault_tolerance.py",
            "bench_figure4_vertical_scaling.py",
            "bench_figure4_load_balancing.py",
            "bench_figure5_resource_utilization.py",
            "bench_figure6_varying_rates.py",
        }


class TestPublicApi:
    def test_every_public_rhino_name_has_a_caller(self):
        """Every public name on ``Rhino`` (the list ``test_api_surface``
        pins) is read as an attribute by code outside the tests, so API that
        only tests use cannot creep back in."""
        from repro.core.api import Rhino

        public = {name for name in vars(Rhino) if not name.startswith("_")}
        used = set()
        for top in ("src", "examples", "benchmarks"):
            for path in sorted((ROOT / top).rglob("*.py")):
                tree = ast.parse(path.read_text(), str(path))
                used.update(
                    node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                )
        assert sorted(public - used) == []


class TestExamplesSmoke:
    @staticmethod
    def run_example(name):
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / f"{name}.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_quickstart_runs_end_to_end(self):
        stdout = self.run_example("quickstart")
        assert "handover report" in stdout
        assert "counted exactly once" in stdout

    @pytest.mark.parametrize(
        "name, verdict",
        [
            ("load_balancing_skew", "exactly-once counting verified"),
            ("autonomous_operations", "counted exactly once"),
            ("elastic_scaling", "after second scale-out (DOP 8)"),
            ("fault_tolerant_auctions", "reconfiguration completed in"),
        ],
        ids=[
            "load_balancing_skew",
            "autonomous_operations",
            "elastic_scaling",
            "fault_tolerant_auctions",
        ],
    )
    def test_reconfiguring_example_runs_end_to_end(self, name, verdict):
        """The other examples that call ``Rhino.reconfigure`` or the
        harness's ``SutHandle.reconfigure`` (directly or through the
        controllers): a stale call site fails here."""
        assert verdict in self.run_example(name)
