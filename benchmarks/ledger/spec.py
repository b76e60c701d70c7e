"""What the ledger measures: workloads, metrics, bounds -- the single source.

``BENCHMARK.json`` at the repo root (the contract file other tooling
reads) and the tables in ``README.md`` are both generated from this
module, so a name, unit or bound is written down exactly once.

**Unit rule.**  A metric whose name starts with ``sim_`` or contains
``.sim_`` is *simulated* seconds on the virtual clock: it is the model's
answer and repeats exactly for a fixed seed.  Every other ``_s`` / ``_us``
/ ``_mb`` metric is *host* time or memory: what our Python costs.  Counts
(``count``, ``bytes``) are exact and repeat for a fixed seed.  No metric
mixes the two clocks.
"""

import re

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: Host seconds one driver run measures (split evenly over REPS fresh
#: subprocesses with tracing off; spent in one subprocess with tracing on).
RUN_SECONDS = 12
#: Fresh subprocesses per untraced measurement.
REPS = 3
#: Numbers quoted in ROADMAP/README come from this seed; a claim must also
#: hold on one other seed (choosing-metrics guide, section 6).
REPORTING_SEED = 42

WORKLOADS = [
    {
        "name": "million_user_drain",
        "why": "Event-bound regime: ~50 kernel events per record, so sim.kernel and "
        "engine.channels dominate host time; a direct-call executor must show here.",
        "runs": "`run_scenario` on `inputs/million_user_drain.json` (the million-user "
        "example with `duration: 40`, `cooldown: 60`): Zipf + hot-set keys, 3x "
        "flash crowd, drain of one worker at t=35 s, RF=1",
        "loop": "open loop on the virtual clock; run-to-completion on the host",
    },
    {
        "name": "nbq5_window_steady",
        "why": "Record-bound regime: storage.kvs and engine.windows dominate, sim.kernel "
        "is small; a kernel optimisation should not move it, an LSM or window one should.",
        "runs": "`run_scenario` on `inputs/nbq5_window_steady.json`: NBQ5 sliding-window "
        "aggregation, `rate_scale: 0.1`, uniform keys over 1 M, `keys_per_tick: 40`, "
        "8 s of traffic, no actions",
        "loop": "open loop on the virtual clock; run-to-completion on the host",
    },
    {
        "name": "recovery_table1",
        "why": "The paper's headline (Table 1): almost no records; sim.flows, storage.dfs, "
        "engine.partitioning, the handover manager and the baselines do the work.",
        "runs": "`run_recovery(sut, size)` for flink, rhino, rhinodfs, megaphone x "
        "500/1000 GB of preloaded state, VM failure (8 cells)",
        "loop": "batch: eight simulations run to completion",
    },
    {
        "name": "chaos_quorum",
        "why": "Only workload where faults, core.journal, core.quorum, retries and chain "
        "repair do most of the work; invariant violations count as failed operations.",
        "runs": "`run_chaos(s, control_replicas=3, records=600, rebalance_at=8.0, "
        "max_sim_time=40.0)` for 12 fault-plan seeds `s` picked by `--seed` from the "
        "verified range 0..399",
        "loop": "batch: twelve seeded fault plans run to quiescence",
    },
    {
        "name": "lsm_write_heavy",
        "why": "storage.kvs as a writer: a read-side gain that taxes flush or compaction "
        "(bigger blooms, extra indexes) shows here as a loss.",
        "runs": "`LSMStore(memtable_limit=1 MiB, compaction_trigger=8)` alone, 1,024 key "
        "groups: 110 k pre-generated ops -- 60 % put, 25 % append, 10 % rows via "
        "`put_batch(64)`, 5 % delete -- Zipf(1.1) over 200 k keys; flush/compact on "
        "demand (>=20 flushes, >=3 compactions), 8 checkpoints",
        "loop": "closed loop, one client, no simulator",
    },
    {
        "name": "lsm_read_migrate",
        "why": "storage.kvs as a reader and as the handover's extract/ingest/restore path "
        "beside a trickle of writes; a write-side gain that fragments tables shows here.",
        "runs": "set-up builds a 16 k-key store in >=6 tables plus a checkpoint; timed: "
        "`restore`, 16 k `get` (half Zipf hits, half misses) interleaved with 1.6 k "
        "`put`, 64 `extract_groups` of 16-group ranges, `extract_groups(since_seq=)`, "
        "128 `dirty_bytes_in_groups`, `ingest_tables(ranges=)` + `ingest_pairs` "
        "into a second store, `restore` into a third",
        "loop": "closed loop, one client, no simulator",
    },
]

END_TO_END = [
    {
        "name": "wall_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "host seconds for one pass over the workload's fixed input: per "
        "separately timed step, the fastest sample over all passes of all "
        "subprocesses; summed over the steps",
    },
    {
        "name": "peak_rss_mb",
        "unit": "MB",
        "better": "lower",
        "bound": 0.10,
        "what": "`ru_maxrss` of the workload subprocess (median over subprocesses)",
    },
    {
        "name": "setup_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "host seconds from spawning the interpreter to the timed region: "
        "imports, input generation, a 1/10-scale warm-up pass, store "
        "pre-population (the fastest of the subprocesses, for the reason given "
        "under wall_s)",
    },
]

#: The four *simulated* end-to-end results.  The contract behind
#: BENCHMARK.json wants every end-to-end metric on every workload, never
#: zero and never repeating exactly -- which a simulated second, defined
#: on two workloads and bit-identical by design, cannot be.  They are
#: therefore listed under ``per_layer`` there (no bound, reported from the
#: traced pass) and guarded by ``run.py --check`` instead, which fails
#: unless they repeat exactly.
SIM_END_TO_END = [
    {
        "name": "sim_reconfig_s",
        "unit": "s",
        "better": "lower",
        "moves": "model changes only (handover protocol, timing model)",
        "on": "million_user_drain (drain), recovery_table1 (rhino at 1 TB)",
        "what": "simulated trigger-to-done seconds of the slowest Rhino reconfiguration",
    },
    {
        "name": "sim_latency_p99_s",
        "unit": "s",
        "better": "lower",
        "moves": "model changes only",
        "on": "million_user_drain, nbq5_window_steady",
        "what": "simulated weight-correct p99 creation-to-sink latency over the whole run",
    },
    {
        "name": "sim_mttr_s",
        "unit": "s",
        "better": "lower",
        "moves": "model changes only (detector, election, repair)",
        "on": "chaos_quorum",
        "what": "mean simulated suspect-to-unsuspect seconds over all seeds' samples",
    },
    {
        "name": "sim_paper_err_pct",
        "unit": "pct",
        "better": "lower",
        "moves": "model changes only (calibration)",
        "on": "recovery_table1",
        "what": "mean absolute relative error of simulated total recovery time vs "
        "Table 1 (`reference.json`) over the non-OOM cells",
    },
]

_HOST = "wall_s"

#: (name, unit, better, should move, on which workloads)
_PER_LAYER_ROWS = [
    # sim.kernel
    ("sim.kernel.events", "count", "lower", _HOST, "million_user_drain (<= its self_s share); no change predicted on nbq5_window_steady, lsm_*"),
    ("sim.kernel.events_per_record", "ratio", "lower", _HOST, "million_user_drain"),
    ("sim.kernel.self_s", "s", "lower", _HOST, "million_user_drain"),
    ("sim.kernel.clock_ratio", "ratio", "higher", _HOST, "scenario workloads (simulated seconds advanced per host second inside `Simulator.run`: the one ratio across the two clocks, so it is named for neither)"),
    # sim.flows (+ cluster)
    ("sim.flows.transfers", "count", "lower", _HOST, "recovery_table1, chaos_quorum"),
    ("sim.flows.bytes", "bytes", "lower", _HOST, "recovery_table1, chaos_quorum"),
    ("sim.flows.reallocate_calls", "count", "lower", _HOST, "chaos_quorum"),
    ("sim.flows.busy_s", "s", "lower", _HOST, "recovery_table1, chaos_quorum"),
    # engine.channels
    ("engine.channels.sends", "count", "lower", _HOST, "million_user_drain"),
    ("engine.channels.emit_batches", "count", "lower", _HOST, "million_user_drain"),
    ("engine.channels.records_per_batch", "ratio", "higher", _HOST, "million_user_drain"),
    ("engine.channels.busy_s", "s", "lower", _HOST, "million_user_drain"),
    # engine.instance / operators / windows
    ("engine.instance.records_processed", "count", "higher", _HOST, "scenario workloads"),
    ("engine.instance.misrouted", "count", "lower", "ops_failed", "million_user_drain"),
    ("engine.operators.process_batch_calls", "count", "lower", _HOST, "million_user_drain, nbq5_window_steady"),
    ("engine.operators.busy_s", "s", "lower", _HOST, "million_user_drain (join)"),
    ("engine.windows.watermark_calls", "count", "lower", _HOST, "nbq5_window_steady"),
    ("engine.windows.busy_s", "s", "lower", _HOST, "nbq5_window_steady"),
    # engine.partitioning
    ("engine.partitioning.reassign_calls", "count", "lower", _HOST, "recovery_table1"),
    ("engine.partitioning.busy_s", "s", "lower", _HOST, "recovery_table1"),
    # engine.metrics
    ("engine.metrics.samples", "count", "lower", "wall_s, peak_rss_mb", "million_user_drain"),
    ("engine.metrics.busy_s", "s", "lower", _HOST, "million_user_drain"),
    ("engine.metrics.sim_latency_p50_s", "s", "lower", "model changes only", "scenario workloads"),
    # storage.kvs: counts
    ("storage.kvs.puts", "count", "higher", _HOST, "lsm_write_heavy, nbq5_window_steady"),
    ("storage.kvs.gets", "count", "higher", _HOST, "lsm_read_migrate, nbq5_window_steady"),
    ("storage.kvs.appends", "count", "higher", _HOST, "lsm_write_heavy, million_user_drain"),
    ("storage.kvs.deletes", "count", "higher", _HOST, "lsm_write_heavy, nbq5_window_steady"),
    ("storage.kvs.flushes", "count", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.compactions", "count", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.bloom_probes_per_get", "ratio", "lower", _HOST, "lsm_read_migrate, nbq5_window_steady"),
    ("storage.kvs.tables_at_end", "count", "lower", _HOST, "lsm_write_heavy, lsm_read_migrate"),
    # storage.kvs: host time
    ("storage.kvs.put_busy_s", "s", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.get_busy_s", "s", "lower", _HOST, "lsm_read_migrate, nbq5_window_steady"),
    ("storage.kvs.flush_busy_s", "s", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.compact_busy_s", "s", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.checkpoint_busy_s", "s", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.extract_busy_s", "s", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.ingest_busy_s", "s", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.restore_busy_s", "s", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.dirty_estimate_busy_s", "s", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.put_p50_us", "us", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.put_p99_us", "us", "lower", _HOST, "lsm_write_heavy"),
    ("storage.kvs.stall_max_us", "us", "lower", _HOST, "lsm_write_heavy (longest single flush/compact a writer waits for)"),
    ("storage.kvs.get_hit_p50_us", "us", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.get_hit_p99_us", "us", "lower", _HOST, "lsm_read_migrate"),
    ("storage.kvs.get_miss_p99_us", "us", "lower", _HOST, "lsm_read_migrate"),
    # storage.kvs: the three amplifications trade against each other
    ("storage.kvs.write_amp", "ratio", "lower", _HOST, "lsm_write_heavy (flushed + compacted bytes / user bytes)"),
    ("storage.kvs.space_amp", "ratio", "lower", "peak_rss_mb", "lsm_write_heavy, lsm_read_migrate (table bytes / live bytes)"),
    # storage.log / storage.dfs
    ("storage.log.appended_records", "count", "higher", _HOST, "million_user_drain"),
    ("storage.log.polls", "count", "lower", _HOST, "million_user_drain"),
    ("storage.log.busy_s", "s", "lower", _HOST, "million_user_drain"),
    ("storage.dfs.write_bytes", "bytes", "lower", "wall_s, sim_paper_err_pct", "recovery_table1"),
    ("storage.dfs.read_bytes", "bytes", "lower", "wall_s, sim_paper_err_pct", "recovery_table1"),
    ("storage.dfs.busy_s", "s", "lower", _HOST, "recovery_table1"),
    # nexmark.generator
    ("nexmark.generator.records", "count", "higher", "setup_s, wall_s", "scenario workloads"),
    ("nexmark.generator.modeled_records", "count", "higher", "setup_s, wall_s", "scenario workloads"),
    ("nexmark.generator.key_samples", "count", "lower", _HOST, "scenario workloads"),
    ("nexmark.generator.sample_busy_s", "s", "lower", _HOST, "million_user_drain (Zipf + hot set)"),
    # core.replication
    ("core.replication.replicate_calls", "count", "lower", "wall_s, sim_mttr_s", "million_user_drain, chaos_quorum"),
    ("core.replication.bulk_copies", "count", "lower", "wall_s, sim_mttr_s", "chaos_quorum"),
    ("core.replication.bytes_replicated", "bytes", "lower", "wall_s, sim_mttr_s", "million_user_drain, chaos_quorum"),
    ("core.replication.busy_s", "s", "lower", _HOST, "million_user_drain, chaos_quorum"),
    # core.handover_manager (+ core.fluid)
    ("core.handover.executes", "count", "lower", "sim_reconfig_s", "million_user_drain, recovery_table1"),
    ("core.handover.markers", "count", "lower", _HOST, "million_user_drain, recovery_table1"),
    ("core.handover.busy_s", "s", "lower", _HOST, "recovery_table1; no change predicted on nbq5_window_steady"),
    ("core.handover.sim_scheduling_s", "s", "lower", "sim_reconfig_s", "million_user_drain, recovery_table1"),
    ("core.handover.sim_fetching_s", "s", "lower", "sim_reconfig_s", "million_user_drain, recovery_table1"),
    ("core.handover.sim_loading_s", "s", "lower", "sim_reconfig_s", "million_user_drain, recovery_table1"),
    ("core.handover.migrated_bytes", "bytes", "lower", "sim_reconfig_s, sim_latency_p99_s", "million_user_drain, recovery_table1"),
    ("core.handover.precopy_bytes", "bytes", "higher", "sim_latency_p99_s", "million_user_drain (0 until pipelining is the default)"),
    ("core.handover.delta_rounds", "count", "lower", "sim_reconfig_s", "million_user_drain"),
    ("core.handover.cutover_bytes", "bytes", "lower", "sim_latency_p99_s", "million_user_drain, recovery_table1"),
    # core.journal / core.quorum
    ("core.journal.appends", "count", "lower", "wall_s, sim_mttr_s", "chaos_quorum only"),
    ("core.journal.replays", "count", "lower", "wall_s, sim_mttr_s", "chaos_quorum only"),
    ("core.journal.busy_s", "s", "lower", _HOST, "chaos_quorum only"),
    ("core.quorum.commits", "count", "higher", "sim_mttr_s", "chaos_quorum only"),
    ("core.quorum.elections", "count", "lower", "sim_mttr_s", "chaos_quorum only"),
    ("core.quorum.fencing_rejections", "count", "lower", "sim_mttr_s", "chaos_quorum only"),
    ("core.quorum.busy_s", "s", "lower", _HOST, "chaos_quorum only"),
    # faults
    ("faults.injected", "count", "higher", "ops_failed", "chaos_quorum"),
    ("faults.invariants_checked", "count", "higher", "ops_failed", "chaos_quorum, scenario workloads"),
    ("faults.violations", "count", "lower", "ops_failed", "chaos_quorum"),
    # baselines
    ("baselines.flink.sim_reconfig_s", "s", "lower", "sim_paper_err_pct", "recovery_table1 (1 TB)"),
    ("baselines.rhinodfs.sim_reconfig_s", "s", "lower", "sim_paper_err_pct", "recovery_table1 (1 TB)"),
    ("baselines.megaphone.sim_reconfig_s", "s", "lower", "sim_paper_err_pct", "recovery_table1 (500 GB, the largest non-OOM size)"),
    ("baselines.busy_s", "s", "lower", _HOST, "recovery_table1"),
    # experiments.runner / obs.tracer / the ledger's own tracing
    ("experiments.runner.self_s", "s", "lower", _HOST, "scenario workloads (entry point minus everything it calls: testbed build, invariant checks)"),
    ("obs.tracer.spans", "count", "lower", "-- (watch)", "recovery_table1"),
    ("obs.tracer.overhead_pct", "pct", "lower", "-- (watch)", "recovery_table1 (`run_recovery(\"rhino\", 1 TB)` with `trace=True` vs `False`)"),
    ("trace.overhead_pct", "pct", "lower", "-- (watch)", "all (traced wall_s over untraced, same subprocess)"),
    ("trace.missing_targets", "count", "lower", "-- (watch)", "all (wrapper targets that no longer exist)"),
]

PER_LAYER = [
    {"name": n, "unit": u, "better": b, "moves": m, "on": o}
    for n, u, b, m, o in _PER_LAYER_ROWS
]


def workload_names():
    return [w["name"] for w in WORKLOADS]


def benchmark_json():
    """The contract document written to ``BENCHMARK.json`` (exact keys)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")}
            for m in SIM_END_TO_END + PER_LAYER
        ],
    }


def is_simulated(name):
    """The unit rule: does this metric live on the virtual clock?"""
    return name.startswith("sim_") or ".sim_" in name


def is_exact(metric):
    """True when the metric must repeat bit-for-bit for a fixed seed."""
    return is_simulated(metric["name"]) or metric["unit"] in ("count", "bytes")


# -- the contract's limits -------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def validate(doc):
    """Problems with a BENCHMARK.json document (empty list = valid)."""
    problems = []

    def need(cond, message):
        if not cond:
            problems.append(message)

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    need(set(doc) == keys, f"top-level keys must be exactly {sorted(keys)}")
    if set(doc) != keys:
        return problems
    command = doc["command"]
    need(
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(isinstance(c, str) and len(c) <= 200 for c in command),
        "command: 1-32 strings of at most 200 characters",
    )
    need(
        not any(c.startswith("/") or ".." in c.split("/") for c in command),
        "command: no absolute path and no '..'",
    )
    paths = doc["paths"]
    need(
        isinstance(paths, list)
        and 1 <= len(paths) <= 16
        and all(isinstance(p, str) and _PATH.match(p) for p in paths),
        "paths: 1-16 relative directory names",
    )
    need(
        isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60,
        "run_seconds: whole number from 1 to 60",
    )
    names = []
    need(2 <= len(doc["workloads"]) <= 8, "workloads: 2 to 8")
    for w in doc["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys: {w}")
        names.append(w.get("name", ""))
        why = w.get("why", "")
        need(len(why) <= 200 and "\n" not in why, f"why of {w.get('name')}: one line <= 200")
    need(1 <= len(doc["end_to_end"]) <= 16, "end_to_end: 1 to 16")
    for m in doc["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys: {m}")
        need(0 < m.get("bound", 1) <= 0.25, f"bound of {m.get('name')} in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    need(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "end_to_end needs setup_s (s, lower)",
    )
    if setup:
        need(
            setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
            "setup_s takes the largest bound",
        )
    need(1 <= len(doc["per_layer"]) <= 128, "per_layer: 1 to 128")
    for m in doc["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys: {m}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m.get("name", ""))
        need(bool(_UNIT.match(m.get("unit", ""))), f"unit of {m.get('name')}")
        need(m.get("better") in ("lower", "higher"), f"better of {m.get('name')}")
    for name in names:
        need(bool(_NAME.match(name)), f"name {name!r}")
    need(len(names) == len(set(names)), "every name is used once")
    return problems


# -- README tables ---------------------------------------------------------


def _table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def readme_sections():
    """Generated README blocks, keyed by their marker name."""
    workloads = _table(
        ["name", "what runs", "load", "why it exists"],
        [(f"`{w['name']}`", w["runs"], w["loop"], w["why"]) for w in WORKLOADS],
    )
    end_to_end = _table(
        ["name", "unit", "better", "regression bound", "what", "defined on"],
        [
            (f"`{m['name']}`", f"host {m['unit']}", m["better"], f"{m['bound']:.0%}", m["what"], "all")
            for m in END_TO_END
        ]
        + [
            (f"`{m['name']}`", f"simulated {m['unit']}", m["better"], "exact (`--check`)", m["what"], m["on"])
            for m in SIM_END_TO_END
        ],
    )
    per_layer = _table(
        ["name", "unit", "better", "should move", "on"],
        [
            (
                f"`{m['name']}`",
                ("simulated " if is_simulated(m["name"]) else "") + m["unit"],
                m["better"],
                m["moves"],
                m["on"],
            )
            for m in PER_LAYER
        ],
    )
    return {"workloads": workloads, "end_to_end": end_to_end, "per_layer": per_layer}
