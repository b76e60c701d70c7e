"""Command-line experiment runner.

Regenerate any table or figure of the paper without pytest::

    python -m repro.experiments figure1
    python -m repro.experiments table1 --sizes 250 500
    python -m repro.experiments figure4-ft --quick
    python -m repro.experiments figure5
    python -m repro.experiments figure6
    python -m repro.experiments ablations
    python -m repro.experiments all

or run a declarative scenario file (single scenario or sweep) through the
batch runner::

    python -m repro.experiments scenario --file examples/scenarios/million_user.json
"""

import argparse
import functools
import json
import sys

from repro.experiments import report
from repro.experiments.scenarios import ablations as ablations_mod
from repro.experiments.scenarios.fault_tolerance import run_fault_tolerance
from repro.experiments.scenarios.load_balancing import run_load_balancing
from repro.experiments.scenarios.recovery import run_figure1
from repro.experiments.scenarios.resources import run_resource_utilization
from repro.experiments.scenarios.scaling import run_vertical_scaling
from repro.experiments.scenarios.varying_rate import run_varying_rate

TIMELINE_SUTS = ("rhino", "rhinodfs", "flink")
TIMELINE_QUERIES = ("nbq8", "nbq5", "nbqx")


def timeline_settings(quick):
    """The Figure 4 timeline settings of the CLI and the benches."""
    if quick:
        return dict(
            checkpoint_interval=30.0,
            checkpoints_before=2,
            checkpoints_after=1,
            rate_scale=0.02,
        )
    return dict(
        checkpoint_interval=45.0,
        checkpoints_before=3,
        checkpoints_after=2,
        rate_scale=0.02,
    )


def cmd_recovery(render, args):
    """Regenerate Figure 1 / Table 1: the same runs, rendered two ways."""
    print(render(run_figure1(args.sizes or (250, 500, 750, 1000))))


#: command -> (script, SUTs, report title, claims key).
FIGURE4 = {
    "figure4-ft": (
        run_fault_tolerance,
        TIMELINE_SUTS,
        "Figure 4 a-c: latency around a VM failure",
        "fault_tolerance",
    ),
    "figure4-scaling": (
        run_vertical_scaling,  # DOP 14 -> 16, its defaults
        TIMELINE_SUTS,
        "Figure 4 d-f: latency around vertical scaling",
        "scaling",
    ),
    "figure4-lb": (
        run_load_balancing,
        ("rhino", "megaphone", "flink"),
        "Figure 4 g-i: latency around load balancing",
        "load_balancing",
    ),
}


def cmd_figure4(script, suts, title, claims, args):
    """Regenerate one row of Figure 4 (a-c, d-f or g-i)."""
    settings = timeline_settings(args.quick)
    results = [
        script(sut, query, **settings)
        for query in (TIMELINE_QUERIES[:1] if args.quick else TIMELINE_QUERIES)
        for sut in suts
    ]
    print(
        report.timeline_report(results, title, claims=report.PAPER_FIGURE4[claims])
    )


def cmd_figure5(args):
    """Regenerate Figure 5."""
    results = [
        run_resource_utilization(sut, rate_scale=0.25)
        for sut in ("rhino", "flink", "megaphone")
    ]
    print(report.figure5_report(results))


def cmd_figure6(args):
    """Regenerate Figure 6."""
    results = [run_varying_rate(sut) for sut in TIMELINE_SUTS]
    print(
        report.timeline_report(
            results, "Figure 6: NBQ8 latency under a varying data rate"
        )
    )


def cmd_ablations(args):
    """Run the design-choice ablations."""
    print(report.ablation_report(ablations_mod.run_all_ablations()))


def cmd_scenario(args):
    """Run a scenario file through the batch runner."""
    from repro.experiments.runner import run_sweep
    from repro.experiments.scenario import load_scenarios

    if not args.file:
        raise SystemExit("scenario requires --file <scenario.json>")
    scenarios = load_scenarios(args.file)
    results = run_sweep(
        scenarios, progress=lambda r: print(f"  done: {r!r}", file=sys.stderr)
    )
    print(report.scenario_report(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in results], handle, indent=2)
            handle.write("\n")
    return 0 if all(r.ok for r in results) else 1


COMMANDS = {
    "figure1": functools.partial(cmd_recovery, report.figure1_report),
    "table1": functools.partial(cmd_recovery, report.table1_report),
    **{name: functools.partial(cmd_figure4, *row) for name, row in FIGURE4.items()},
    "figure5": cmd_figure5,
    "figure6": cmd_figure6,
    "ablations": cmd_ablations,
    "scenario": cmd_scenario,
}


def main(argv=None):
    """CLI entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", choices=sorted(COMMANDS) + ["all"], help="what to run"
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", help="state sizes in GB (figure1/table1)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="shorter timelines, NBQ8 only"
    )
    parser.add_argument(
        "--file", help="scenario or sweep JSON file (scenario command)"
    )
    parser.add_argument(
        "--out", help="also dump per-scenario JSON results here (scenario command)"
    )
    args = parser.parse_args(argv)
    if args.experiment == "all":
        exit_code = 0
        for name, command in COMMANDS.items():
            if name == "scenario" and not args.file:
                continue  # file-driven; nothing to run without --file
            print(f"\n=== {name} ===")
            # Every command still runs; the first failure's code is returned.
            code = command(args) or 0
            exit_code = exit_code or code
        return exit_code
    return COMMANDS[args.experiment](args) or 0


if __name__ == "__main__":
    sys.exit(main())
