"""One workload in one fresh, single-threaded interpreter.

``run.py`` spawns this module (``python -m benchmarks.ledger.worker``,
``PYTHONHASHSEED=0``) once per measurement.  It sets up, runs a 1/10-scale
warm-up pass, repeats the workload's fixed-size pass until the time
budget is used, checks every pass against the oracle, and prints one JSON
object on its last line.

Untraced (the end-to-end numbers): nothing is installed in the program;
each step of a pass is timed with ``perf_counter``.

Traced (the per-layer numbers): one untraced pass first, then
``trace.HostTracer`` wraps the layers and the remaining passes run under
it; ``trace.overhead_pct`` compares the two inside the same process.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time

from benchmarks.ledger import trace, workloads


def timed_pass(workload, inputs):
    """One pass, every step timed on its own.

    Returns ``([(label, seconds)], outputs)``.
    """
    timings, outputs = [], []
    for index, label in enumerate(workload.steps(inputs)):
        gc.collect()
        start = time.perf_counter()
        output = workload.run_step(inputs, index)
        elapsed = time.perf_counter() - start
        outputs.append(output)
        timings.append((label, elapsed))
    return timings, outputs


def seconds(timings):
    return sum(elapsed for _label, elapsed in timings)


def fits(elapsed, last, budget):
    """Start another pass only if at least half of it fits the budget."""
    return elapsed + 0.5 * last < budget


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--budget", type=float, required=True, help="host seconds to measure")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-file", help="where to write the Chrome trace")
    parser.add_argument("--span-limit", type=int, default=trace.SPAN_LIMIT, help="spans kept for the Chrome trace")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    # Warm-up: fills caches and runs every lazy import before the clock.
    warm = workload.setup(args.seed, args.scale * 0.1)
    timed_pass(workload, warm)
    del warm
    inputs = workload.setup(args.seed, args.scale)
    # The oracle's dicts are the harness's, not the program's: keep them
    # out of the collector's way so they do not tax the program's GC.
    gc.collect()
    gc.freeze()
    setup_s = time.time() - args.spawned_at

    # -- the timed region
    passes, verdicts, derived = [], [], []
    untraced, outputs = timed_pass(workload, inputs)
    verdicts.append(workload.check(inputs, outputs))
    # Verdicts are kept for their counts; a pass's stores must not outlive
    # it, or peak RSS would grow with the number of passes.
    verdicts[0].stores = []
    elapsed = last = seconds(untraced)
    tracer = obs_tracer = None
    if args.traced:
        if args.workload == "recovery_table1":
            # The program's own tracer, measured before ours is installed.
            obs_tracer = trace.obs_tracer_overhead(
                args.seed, 1000 * workloads.GB, pairs=3 if args.scale >= 1.0 else 1
            )
        tracer = trace.HostTracer(args.span_limit)
        tracer.install()
    else:
        passes.append(untraced)
    while fits(elapsed, last, args.budget) or (args.traced and not derived):
        del outputs
        if tracer is not None:
            tracer.begin_pass()
        timings, outputs = timed_pass(workload, inputs)
        # Close the pass before the oracle check: its reads are not the
        # workload's.
        aggregates = tracer.end_pass() if tracer is not None else None
        last = seconds(timings)
        elapsed += last
        passes.append(timings)
        verdict = workload.check(inputs, outputs)
        verdicts.append(verdict)
        if tracer is not None:
            derived.append(
                trace.derive(aggregates, verdict.sim, last, seconds(untraced), verdict.stores)
            )
        verdict.stores = []

    layer = None
    if tracer is not None:
        tracer.uninstall()
        # Counts repeat exactly pass to pass; host times take the median.
        layer = {}
        for name, first in derived[0].items():
            values = [d[name] for d in derived]
            if isinstance(first, float) and None not in values:
                layer[name] = statistics.median(values)
            else:
                layer[name] = first
        if obs_tracer is not None:
            layer["obs.tracer.spans"], layer["obs.tracer.overhead_pct"] = obs_tracer
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file, args.workload)

    samples = {}  # step label -> host seconds, one per pass
    for timings in passes:
        for label, elapsed in timings:
            samples.setdefault(label, []).append(elapsed)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "scale": args.scale,
                "traced": args.traced,
                "setup_s": setup_s,
                "samples": samples,
                "untraced_wall_s": seconds(untraced),
                "traced_wall_s": seconds(passes[-1]) if args.traced else None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "checks": sum(v.checks for v in verdicts),
                "failed": sum(v.failed for v in verdicts),
                "failures": [m for v in verdicts for m in v.failures][:5],
                "sim": verdicts[-1].sim,
                "layer": layer,
                "missing_targets": sorted(tracer.missing) if tracer is not None else [],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
