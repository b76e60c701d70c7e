"""The batch scenario runner.

Runs declarative scenarios (:mod:`repro.experiments.scenario`) through
the calibrated :class:`~repro.experiments.harness.Testbed` and reduces
each run to a :class:`ScenarioResult`: throughput, **weight-correct**
latency percentiles, handover times, and a pass/fail verdict for the
exactly-once invariants.  A sweep is just a list of scenarios run in
sequence; :func:`repro.experiments.report.scenario_report` renders the
per-scenario report table.

Invariants checked after every run (each reported, none silently
skipped):

* **exactly-once (weighted)** -- for every stateful operator fed directly
  by sources, the summed ``weighted_records_processed`` across its
  instances equals the generator's modeled event count for those topics;
  a lost or duplicated record under a mid-run handover shifts the sum.
  Skipped (reported as ``n/a``) when the scenario injects a ``failure``
  action, whose replay legitimately reprocesses records.
* **no-misroutes** -- no record was dropped at an ownership check.
* **single-owner** -- no key group is owned by two live instances.
* **replication-restored** -- every replica chain is complete on alive
  machines (Rhino with replication only).
* **no-leaked-processes** / **drained** -- the protocol quiesced and no
  elements are parked in the exchange fabric.
"""

from repro.core.handover import HandoverReport
from repro.core.replication import ReplicaChains
from repro.faults.invariants import (
    InvariantViolation,
    check_drained,
    check_no_leaked_processes,
    check_replication_restored,
    check_single_owner,
)
from repro.experiments.harness import Testbed
from repro.experiments.scenario import Scenario, build_keys, build_rate
from repro.nexmark import StreamSpec


#: Points at which ``peak_rate`` samples a rate profile.
PEAK_RATE_SAMPLES = 256


def peak_rate(rate, horizon):
    """The maximum bytes/s a rate profile reaches within ``horizon``."""
    if not callable(rate):
        return float(rate)
    step = horizon / PEAK_RATE_SAMPLES if horizon > 0 else 1.0
    # Sample mid-interval so period-aligned profiles hit their plateaus.
    return max(rate(step * (i + 0.5)) for i in range(PEAK_RATE_SAMPLES))


class ScenarioResult:
    """Everything the per-scenario report row needs."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.name = scenario.name
        self.sut = scenario.sut
        self.query = scenario.query
        #: Simulated records emitted by the generator.
        self.records_emitted = 0
        #: Modeled real-world events (sum of record weights).
        self.modeled_records = 0
        #: Modeled traffic bytes.
        self.bytes_emitted = 0
        #: Mean modeled bytes/s over the traffic window.
        self.throughput = 0.0
        #: Weight-correct end-to-end latency summaries (seconds).
        self.latency_mean = 0.0
        self.latency_p50 = 0.0
        self.latency_p99 = 0.0
        #: Completed handover reports, oldest first.
        self.handovers = []
        #: Invariant name -> "ok" | "n/a: ..." | "FAIL: ...".
        self.invariants = {}
        #: Virtual time when the run finished draining.
        self.duration = 0.0

    @property
    def violations(self):
        """The failed invariants (name -> message)."""
        return {
            name: verdict
            for name, verdict in self.invariants.items()
            if verdict.startswith("FAIL")
        }

    @property
    def ok(self):
        """True when every checked invariant held."""
        return not self.violations

    @property
    def handover_seconds(self):
        """The slowest completed handover's trigger-to-done time."""
        times = [
            r.total_seconds for r in self.handovers if r.total_seconds is not None
        ]
        return max(times, default=0.0)

    def handover_phases(self):
        """Aggregated per-phase handover accounting (see HandoverReport).

        Byte/chunk/round counters sum across the scenario's handovers;
        per-phase durations report the slowest handover (matching
        ``handover_seconds``).  All-zero when no handover ran; the
        Flink/Megaphone baselines' reports carry no phase accounting and
        are skipped.
        """
        phases = HandoverReport(None, None).phase_breakdown()
        for report in self.handovers:
            if not hasattr(report, "phase_breakdown"):
                continue
            for key, value in report.phase_breakdown().items():
                if key.endswith("_seconds"):
                    phases[key] = max(phases[key], value)
                else:
                    phases[key] += value
        return phases

    def row(self):
        """The report-table row for this result."""
        return [
            self.name,
            self.sut,
            self.query,
            f"{self.modeled_records / 1e6:.2f}M",
            round(self.throughput / 1e6, 2),
            round(self.latency_p50 * 1000, 1),
            round(self.latency_p99 * 1000, 1),
            round(self.handover_seconds, 2),
            "ok" if self.ok else "FAIL",
        ]

    def to_dict(self):
        """JSON-ready summary (for sweep artifacts)."""
        return {
            "name": self.name,
            "sut": self.sut,
            "query": self.query,
            "records_emitted": self.records_emitted,
            "modeled_records": self.modeled_records,
            "bytes_emitted": self.bytes_emitted,
            "throughput_bytes_per_s": self.throughput,
            "latency_mean_s": self.latency_mean,
            "latency_p50_s": self.latency_p50,
            "latency_p99_s": self.latency_p99,
            "handover_seconds": self.handover_seconds,
            "handovers": len(self.handovers),
            "handover_phases": self.handover_phases(),
            "invariants": dict(self.invariants),
            "duration_s": self.duration,
        }

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        return (
            f"<ScenarioResult {self.name} {self.modeled_records} modeled "
            f"p99={self.latency_p99 * 1000:.0f}ms {status}>"
        )


def _build_streams(testbed, scenario):
    """StreamSpecs for the scenario: query defaults + per-topic overrides."""
    qspec = testbed.query(scenario.query)
    specs = []
    for topic, (record_bytes, base_rate) in qspec.topics.items():
        override = scenario.streams.get(topic)
        rate = (
            build_rate(override.rate)
            if override is not None and override.rate is not None
            else base_rate * scenario.rate_scale
        )
        distribution = (
            build_keys(override.keys)
            if override is not None and override.keys is not None
            else None
        )
        specs.append(
            StreamSpec(
                topic,
                (override.record_bytes if override else None) or record_bytes,
                rate,
                key_space=distribution.key_space if distribution else 1_000_000,
                keys_per_tick=(override.keys_per_tick if override else None)
                or testbed.cal.keys_per_tick,
                key_distribution=distribution,
            )
        )
    return specs


def _config_rate_scale(testbed, scenario, specs):
    """The rate_scale that sizes source limits for the scenario's peak."""
    qspec = testbed.query(scenario.query)
    registry_total = sum(rate for _bytes, rate in qspec.topics.values())
    horizon = scenario.warmup + scenario.duration
    peak_total = sum(peak_rate(spec.rate, horizon) for spec in specs)
    return peak_total / registry_total if registry_total else 1.0


def _source_fed_expectations(handle, generator):
    """op name -> expected summed weight, for source-fed stateful ops."""
    graph = handle.job.graph
    expectations = {}
    for op_name in handle.spec.stateful_ops:
        edges = graph.inbound_edges(op_name)
        if not all(edge.upstream in graph.sources for edge in edges):
            continue  # fed by other operators: input weight is not ours to know
        expectations[op_name] = sum(
            generator.weight_by_topic.get(graph.sources[edge.upstream].topic, 0)
            for edge in edges
        )
    return expectations


def _uses_chains(rhino):
    """True when the SUT's checkpoint storage is Rhino's replica chains
    (RhinoDFS keeps its checkpoints in DFS files: the chain invariant is
    n/a)."""
    return rhino is not None and isinstance(rhino.job.checkpoint_storage, ReplicaChains)


def _replay_reason(scenario, handle):
    """Why weighted exactly-once cannot be asserted, or None if it can.

    Source replay legitimately reprocesses records, so the weight ledger
    only balances for live migrations: any ``failure`` action replays, and
    the Flink baseline's only reconfiguration mechanism is the
    stop/restore/replay restart.
    """
    if any(action.kind == "failure" for action in scenario.actions):
        return "failure replay reprocesses records"
    if handle.name == "flink" and scenario.actions:
        return "flink reconfigures via restart + replay"
    return None


def _check_invariants(result, testbed, handle, generator, replay_reason):
    """Populate ``result.invariants``; never raises."""
    sim, cluster, job = testbed.sim, testbed.cluster, handle.job

    def run_check(name, check):
        try:
            check()
            result.invariants[name] = "ok"
        except InvariantViolation as violation:
            result.invariants[name] = f"FAIL: {violation}"

    if replay_reason is not None:
        result.invariants["exactly-once-weighted"] = f"n/a: {replay_reason}"
    else:

        def check_weights():
            for op_name, expected in _source_fed_expectations(
                handle, generator
            ).items():
                actual = sum(
                    i.weighted_records_processed
                    for i in job.operator_instances(op_name)
                )
                if actual != expected:
                    raise InvariantViolation(
                        f"{op_name}: processed weight {actual} != "
                        f"emitted weight {expected} "
                        f"({'lost' if actual < expected else 'duplicated'} "
                        f"{abs(actual - expected)} modeled records)"
                    )

        run_check("exactly-once-weighted", check_weights)

    def check_misroutes():
        misrouted = sum(
            getattr(i, "records_misrouted", 0) for i in job.instances.values()
        )
        if misrouted:
            raise InvariantViolation(f"{misrouted} records dropped at ownership checks")

    run_check("no-misroutes", check_misroutes)
    run_check("single-owner", lambda: check_single_owner(job))

    rhino = getattr(handle, "rhino", None)
    if _uses_chains(rhino):
        run_check("replication-restored", lambda: check_replication_restored(rhino))
    else:
        result.invariants["replication-restored"] = "n/a: no replica chains"

    run_check("no-leaked-processes", lambda: check_no_leaked_processes(sim))
    run_check(
        "drained", lambda: check_drained(sim, cluster, fabric=job.fabric)
    )


def run_scenario(scenario):
    """Run one scenario end to end; returns a :class:`ScenarioResult`."""
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    result = ScenarioResult(scenario)

    # Size source rate limits to the scenario's peak (profiles may burst
    # far above the registry's constant default).
    probe = Testbed(seed=scenario.seed)
    specs = _build_streams(probe, scenario)
    testbed = Testbed(
        seed=scenario.seed,
        rate_scale=_config_rate_scale(probe, scenario, specs),
    )
    handle = testbed.deploy(
        scenario.sut,
        scenario.query,
        checkpoint_interval=scenario.checkpoint_interval,
        replication_factor=scenario.replication_factor,
    )
    generator = testbed.start_workload(
        scenario.query, streams=_build_streams(testbed, scenario)
    )
    sim = testbed.sim

    # Timed reconfigure actions run as background processes: issued from
    # inside the simulation, unlike the single-event driver's.
    action_processes = []

    def act(action):
        # ``action.at`` counts from the end of warmup (the traffic window).
        yield sim.timeout(max(0.0, action.at))
        yield handle.reconfigure(action.kind, **action.params)

    sim.run(until=scenario.warmup)
    if scenario.preload_bytes:
        handle.preload(scenario.preload_bytes)
    for action in scenario.actions:
        process = sim.process(act(action), name=f"scenario-action:{action.kind}")
        action_processes.append(process)

    traffic_end = scenario.warmup + scenario.duration
    sim.run(until=traffic_end)
    generator.stop()

    # Let in-flight actions finish, then drain within the cooldown budget.
    for process in action_processes:
        if process.is_alive:
            sim.run(until=process)
    expectations = _source_fed_expectations(handle, generator)
    rhino = getattr(handle, "rhino", None)

    def replication_settled():
        if not _uses_chains(rhino):
            return True
        try:
            check_replication_restored(rhino)
        except InvariantViolation:
            return False
        return True

    deadline = sim.now + scenario.cooldown
    while sim.now < deadline:
        processed = {
            op: sum(
                i.weighted_records_processed
                for i in handle.job.operator_instances(op)
            )
            for op in expectations
        }
        pending_flows = any(
            tag != "data-exchange"
            for tag, _remaining, _rate in testbed.cluster.scheduler.active_flows()
        )
        if (
            not pending_flows
            and handle.job.fabric.pending_elements == 0
            and all(processed[op] >= expected for op, expected in expectations.items())
            and replication_settled()
        ):
            break
        sim.run(until=sim.now + 1.0)

    result.duration = sim.now
    result.records_emitted = generator.records_emitted
    result.modeled_records = generator.weight_emitted
    result.bytes_emitted = generator.bytes_emitted
    # The generator runs from t=0 through the traffic window.
    result.throughput = generator.bytes_emitted / traffic_end
    latency = handle.metrics.latency
    result.latency_mean = latency.mean()
    result.latency_p50 = latency.percentile(0.5)
    result.latency_p99 = latency.percentile(0.99)
    result.handovers = list(handle.reports)
    _check_invariants(
        result, testbed, handle, generator, _replay_reason(scenario, handle)
    )
    return result


def run_sweep(scenarios, progress=None):
    """Run every scenario; returns the results in order.

    ``progress`` is an optional ``callable(result)`` invoked after each
    run (the CLI uses it to stream rows as a sweep advances).
    """
    results = []
    for scenario in scenarios:
        result = run_scenario(scenario)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
