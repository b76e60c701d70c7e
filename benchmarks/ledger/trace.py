"""Host-time tracing of the program's layers, installed from the outside.

The traced pass wraps each layer's public functions *at class level, from
this file only* -- nothing under ``src/`` knows it is being measured.
Each call becomes a span (name, layer, start, end, parent); counts are
taken at the same boundary.  Per layer:

* ``busy_s`` -- host seconds with at least one of the layer's spans open
  (nested spans of one layer are not counted twice);
* ``self_s`` -- span time minus the time of child spans, whatever layer
  the children belong to.

With one thread nothing overlaps, so a layer's ``self_s`` is the most a
faster version of it can save.

Generator functions (simulation processes: ``HandoverManager._execute``,
``LogCursor.poll``, ...) are only *counted*: their bodies run later,
inside ``Simulator.step``, whose span's self time therefore includes the
process bodies of every layer that are not themselves inside a wrapped
call.  Record-yielding generators (``OperatorLogic.process``) are timed
per ``next()``.

Every call is aggregated; only the first ``SPAN_LIMIT`` spans are kept
for the Chrome trace (a million-user pass makes ~3 M spans).  A target
that no longer exists is skipped and listed in ``missing`` -- the metrics
fed by it read ``None`` -- never an exception: the collapse PRs are
expected to delete some of these names.
"""

import importlib
import inspect
import json
import sys
import time
from array import array

SPAN_LIMIT = 200_000

#: ``Target.mode`` for a function too hot to time: count its calls only.
COUNT = "count"


class Target:
    """One function to wrap: where it lives and what to keep about it."""

    def __init__(self, layer, module, path, key=None, pre=None, post=None, samples=None, mode=None):
        self.layer = layer
        self.module = module
        self.path = path  # "Class.attr" or "function"
        #: Aggregation key; several targets may share one (put + put_batch).
        self.key = key or f"{layer}:{path}"
        #: ``pre(*args, **kwargs)`` / ``post(result)`` -> number summed
        #: under ``key``; how bytes and batch sizes are counted.
        self.pre = pre
        self.post = post
        #: None, "all" (keep every duration) or "hit-miss" (split on a
        #: ``None`` result).
        self.samples = samples
        self.mode = mode  # None = decide from the function's kind

    @property
    def label(self):
        return f"{self.module}:{self.path}"


class Capture:
    """A class whose instances the harness wants to read after a pass."""

    def __init__(self, module, cls):
        self.module = module
        self.cls = cls

    @property
    def label(self):
        return f"{self.module}:{self.cls}.__init__"


def _nbytes_of_put(self, group, key, value, nbytes=None):
    if nbytes is not None:
        return nbytes
    from repro.storage.kvs.memtable import estimate_size

    return estimate_size(value)


def _nbytes_of_batch(self, items):
    from repro.storage.kvs.memtable import estimate_size

    return sum(n if n is not None else estimate_size(v) for _g, _k, v, n in items)


def _targets():
    T = Target
    kvs = "repro.storage.kvs.lsm"
    targets = [
        # -- sim.kernel
        T("sim.kernel", "repro.sim.kernel", "Simulator.step"),
        T("sim.kernel", "repro.sim.kernel", "Simulator.run"),
        # -- sim.flows (+ cluster); _end_of_instant/_on_wakeup are where the
        # kernel calls back into the solver
        T("sim.flows", "repro.sim.flows", "FlowScheduler.transfer", pre=lambda self, nbytes, *a, **k: nbytes),
        T("sim.flows", "repro.sim.flows", "FlowScheduler.reallocate"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler.active_flows"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler.port_rate"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler.fail_ports"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler.fail_flows_matching"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler._end_of_instant"),
        T("sim.flows", "repro.sim.flows", "FlowScheduler._on_wakeup"),
        T("sim.flows", "repro.cluster.cluster", "Cluster.transfer"),
        T("sim.flows", "repro.cluster.cluster", "Cluster.chunked_transfer"),
        # -- engine.channels
        T("engine.channels", "repro.engine.channels", "ExchangeFabric.send"),
        T("engine.channels", "repro.engine.channels", "Router.emit_batch", pre=lambda self, batch: len(batch)),
        T("engine.channels", "repro.engine.channels", "Router.broadcast"),
        T("engine.channels", "repro.engine.channels", "Router.reassign"),
        # -- engine.partitioning
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.__init__"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.from_ranges"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.copy"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.reassign"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.ranges_of"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.route_key"),
        T("engine.partitioning", "repro.engine.partitioning", "KeyGroupAssignment.group_counts"),
        # -- engine.metrics
        T("engine.metrics", "repro.engine.metrics", "JobMetrics.sample_latency"),
        T("engine.metrics", "repro.engine.metrics", "LatencySeries.percentile"),
        T("engine.metrics", "repro.engine.metrics", "LatencySeries.mean"),
        # -- storage.kvs
        T("storage.kvs", kvs, "LSMStore.put", key="kvs.put", pre=_nbytes_of_put, samples="all"),
        T("storage.kvs", kvs, "LSMStore.put_batch", key="kvs.put_batch", pre=_nbytes_of_batch),
        T("storage.kvs", kvs, "LSMStore.append", key="kvs.append", pre=_nbytes_of_put),
        T("storage.kvs", kvs, "LSMStore.delete", key="kvs.delete"),
        T("storage.kvs", kvs, "LSMStore.get", key="kvs.get", samples="hit-miss"),
        T("storage.kvs", kvs, "LSMStore.flush", key="kvs.flush", post=lambda t: t.size_bytes if t is not None else 0, samples="all"),
        T("storage.kvs", kvs, "LSMStore.compact", key="kvs.compact", post=lambda r: r.write_bytes if r is not None else 0, samples="all"),
        T("storage.kvs", kvs, "LSMStore.checkpoint", key="kvs.checkpoint"),
        T("storage.kvs", kvs, "LSMStore.extract_groups", key="kvs.extract"),
        T("storage.kvs", kvs, "LSMStore.ingest_tables", key="kvs.ingest"),
        T("storage.kvs", kvs, "LSMStore.ingest_pairs", key="kvs.ingest"),
        T("storage.kvs", kvs, "LSMStore.restore", key="kvs.restore"),
        T("storage.kvs", kvs, "LSMStore.dirty_bytes_in_groups", key="kvs.dirty"),
        T("storage.kvs", kvs, "LSMStore.bytes_in_groups"),
        T("storage.kvs", kvs, "LSMStore.drop_groups"),
        T("storage.kvs", "repro.storage.kvs.bloom", "BloomFilter.__contains__", key="kvs.bloom_probe", mode=COUNT),
        # -- storage.log
        T("storage.log", "repro.storage.log.broker", "DurableLog.append", key="log.append"),
        T("storage.log", "repro.storage.log.broker", "DurableLog.append_batch", key="log.append_batch", pre=lambda self, topic, index, records: len(records)),
        T("storage.log", "repro.storage.log.broker", "LogCursor.poll", key="log.poll"),
        T("storage.log", "repro.storage.log.broker", "LogCursor.try_poll", key="log.poll"),
        T("storage.log", "repro.storage.log.broker", "LogCursor.seek"),
        T("storage.log", "repro.storage.log.broker", "Partition.fetch"),
        # -- storage.dfs
        T("storage.dfs", "repro.storage.dfs.filesystem", "DistributedFileSystem.write", key="dfs.write", pre=lambda self, path, nbytes, *a, **k: nbytes),
        T("storage.dfs", "repro.storage.dfs.filesystem", "DistributedFileSystem.read", key="dfs.read", pre=lambda self, path, *a, **k: self.file_size(path)),
        T("storage.dfs", "repro.storage.dfs.filesystem", "DistributedFileSystem.register"),
        T("storage.dfs", "repro.storage.dfs.filesystem", "DistributedFileSystem.delete"),
        T("storage.dfs", "repro.storage.dfs.namenode", "NameNode.place_block"),
        T("storage.dfs", "repro.storage.dfs.namenode", "NameNode.create_file"),
        # -- nexmark.generator
        T("nexmark.generator", "repro.nexmark.generator", "NexmarkGenerator._draw_key", key="generator.draw_key"),
        # -- core.replication
        T("core.replication", "repro.core.replication", "ChainReplicator.replicate", key="replication.replicate"),
        T("core.replication", "repro.core.replication", "ChainReplicator.bulk_copy", key="replication.bulk_copy"),
        T("core.replication", "repro.core.replication", "ChainReplicator.bulk_copy_from_primary", key="replication.bulk_copy"),
        T("core.replication", "repro.core.replication", "ReplicaStore.ingest"),
        T("core.replication", "repro.core.replication", "ReplicaStore.ingest_full"),
        T("core.replication", "repro.core.replication_manager", "ReplicationManager.build_groups"),
        T("core.replication", "repro.core.replication_manager", "ReplicationManager.repair_after_failure"),
        # -- core.handover_manager (+ core.fluid, the Rhino facade)
        T("core.handover", "repro.core.handover_manager", "HandoverManager.execute", key="handover.execute"),
        T("core.handover", "repro.core.handover_manager", "HandoverManager.on_marker", key="handover.marker"),
        T("core.handover", "repro.core.handover_manager", "HandoverManager.on_machine_failure"),
        T("core.handover", "repro.core.handover_manager", "HandoverManager.on_machine_suspected"),
        T("core.handover", "repro.core.fluid", "plan_chunks"),
        T("core.handover", "repro.core.api", "Rhino.reconfigure", key="handover.reconfigure"),
        # -- core.journal / core.quorum
        T("core.journal", "repro.core.journal", "ControlJournal.append", key="journal.append"),
        T("core.journal", "repro.core.journal", "ControlJournal.replay", key="journal.replay"),
        T("core.journal", "repro.core.journal", "ControlJournal.read_records"),
        T("core.journal", "repro.core.journal", "ControlJournal.truncate_to"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.mark_synced"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.check_fence"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.stable"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.crash_member"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.restart_member"),
        T("core.quorum", "repro.core.quorum", "ControlGroup.change_membership"),
        # -- faults
        T("faults", "repro.faults.plan", "FaultPlan.generate"),
        # -- baselines
        T("baselines", "repro.baselines.flink", "FlinkRuntime.recover_from_failure"),
        T("baselines", "repro.baselines.flink", "FlinkRuntime.rescale"),
        T("baselines", "repro.baselines.flink", "FlinkRuntime.start"),
        T("baselines", "repro.baselines.megaphone", "Megaphone.migrate"),
        T("baselines", "repro.baselines.megaphone", "Megaphone.account_memory"),
        T("baselines", "repro.baselines.rhinodfs", "make_rhinodfs"),
        # -- the entry points the workloads drive
        T("experiments.runner", "repro.experiments.runner", "run_scenario", key="entry"),
        T("experiments.runner", "repro.experiments.scenarios.recovery", "run_recovery", key="entry"),
        T("experiments.runner", "repro.experiments.scenarios.chaos", "run_chaos", key="entry"),
    ]
    for name in (
        "check_exactly_once",
        "check_replication_restored",
        "check_no_leaked_processes",
        "check_drained",
        "check_control_plane_recovered",
        "check_journal_linearizable",
        "check_bounded_mttr",
        "check_control_quorum",
    ):
        targets.append(T("faults", "repro.faults.invariants", name, key="faults.check"))
    return targets


#: Operator logics are wrapped per class: every OperatorLogic subclass's
#: own process_batch / process / on_watermark, in its defining module's layer.
_LOGIC_LAYERS = {
    "repro.engine.operators": "engine.operators",
    "repro.engine.windows": "engine.windows",
}
_LOGIC_KEYS = {
    "process_batch": "logic.process_batch",
    "process": "logic.process",
    "on_watermark": "logic.on_watermark",
}

CAPTURES = [
    Capture("repro.sim.kernel", "Simulator"),
    Capture("repro.engine.instance", "OperatorInstance"),
    Capture("repro.storage.kvs.lsm", "LSMStore"),
    Capture("repro.nexmark.generator", "NexmarkGenerator"),
    Capture("repro.core.replication", "ChainReplicator"),
    Capture("repro.core.handover", "HandoverReport"),
    Capture("repro.core.quorum", "ControlGroup"),
    Capture("repro.faults.controller", "ChaosController"),
]


class PassTrace:
    """Everything one traced pass produced."""

    def __init__(self, tracer):
        self.keys = dict(tracer._key_index)
        self.layers = dict(tracer._layer_index)
        self.calls = list(tracer._calls)
        self.returned = list(tracer._returned)
        self.busy = list(tracer._busy)
        self.sums = list(tracer._sums)
        self.layer_busy = list(tracer._layer_busy)
        self.layer_self = list(tracer._layer_self)
        self.samples = {k: array("d", v) for k, v in tracer._samples.items()}
        self.captured = {k: list(v) for k, v in tracer._captured.items()}
        self.missing = sorted(tracer.missing)

    def _of(self, values, key):
        index = self.keys.get(key)
        return values[index] if index is not None else None

    def calls_of(self, key):
        return self._of(self.calls, key)

    def returned_of(self, key):
        """Calls that returned something other than ``None``."""
        return self._of(self.returned, key)

    def busy_of(self, key):
        return self._of(self.busy, key)

    def sum_of(self, key):
        return self._of(self.sums, key)

    def layer_busy_of(self, layer):
        index = self.layers.get(layer)
        return self.layer_busy[index] if index is not None else None

    def layer_self_of(self, layer):
        index = self.layers.get(layer)
        return self.layer_self[index] if index is not None else None

    def instances(self, cls):
        """Captured instances of a class name, or None if it is gone."""
        return self.captured.get(cls)

    def percentile(self, sample_key, q):
        values = self.samples.get(sample_key)
        if not values:
            return None
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def maximum(self, *sample_keys):
        values = [max(self.samples[k]) for k in sample_keys if self.samples.get(k)]
        return max(values) if values else None


class HostTracer:
    """Installs the wrappers, aggregates per pass, keeps spans for export."""

    def __init__(self, span_limit=SPAN_LIMIT):
        self.span_limit = span_limit
        self.missing = set()
        self._undo = []
        self._key_index = {}
        self._key_layer = []
        self._layer_index = {}
        self._stack = []  # child-time accumulators of the open spans
        self._ids = []  # span ids of the open spans (-1: not kept)
        self.spans = []  # (key index, start, end, parent id)
        self._epoch = time.perf_counter()
        self._samples = {}
        self._captured = {}
        # Aggregates, indexed by key / layer.  The wrappers close over
        # these lists, so they only ever grow or are zeroed in place.
        self._calls, self._returned, self._busy, self._sums = [], [], [], []
        self._layer_busy, self._layer_self, self._layer_depth = [], [], []

    # -- bookkeeping ---------------------------------------------------

    def _key(self, key, layer):
        index = self._key_index.get(key)
        if index is None:
            index = self._key_index[key] = len(self._key_layer)
            if layer not in self._layer_index:
                self._layer_index[layer] = len(self._layer_index)
                for values in (self._layer_busy, self._layer_self, self._layer_depth):
                    values.append(0)
            self._key_layer.append(self._layer_index[layer])
            for values in (self._calls, self._returned, self._busy, self._sums):
                values.append(0)
        return index

    def begin_pass(self):
        for values in (
            self._calls,
            self._returned,
            self._busy,
            self._sums,
            self._layer_busy,
            self._layer_self,
        ):
            values[:] = [0] * len(values)
        for values in self._samples.values():
            del values[:]
        for values in self._captured.values():
            del values[:]

    def end_pass(self):
        return PassTrace(self)

    # -- wrappers ------------------------------------------------------

    def _wrap_span(self, fn, target, index, count_calls=True):
        perf = time.perf_counter
        stack, ids, spans, limit = self._stack, self._ids, self.spans, self.span_limit
        calls, returned, busy, sums = self._calls, self._returned, self._busy, self._sums
        called = 1 if count_calls else 0
        layer = self._key_layer[index]
        layer_busy, layer_self, depth = self._layer_busy, self._layer_self, self._layer_depth
        pre, post, label = target.pre, target.post, target.label
        broken = self.missing
        all_samples = hits = misses = None
        if target.samples == "all":
            all_samples = self._samples.setdefault(target.key, array("d"))
        elif target.samples == "hit-miss":
            hits = self._samples.setdefault(target.key + ".hit", array("d"))
            misses = self._samples.setdefault(target.key + ".miss", array("d"))

        def wrapper(*args, **kwargs):
            if pre is not None:
                try:
                    sums[index] += pre(*args, **kwargs)
                except Exception:  # noqa: BLE001 - the signature moved on
                    broken.add(label + " (measure)")
            if len(spans) < limit:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            parent = ids[-1] if ids else -1
            ids.append(span_id)
            stack.append(0.0)
            depth[layer] += 1
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                elapsed = end - start
                children = stack.pop()
                ids.pop()
                calls[index] += called
                busy[index] += elapsed
                layer_self[layer] += elapsed - children
                depth[layer] -= 1
                if not depth[layer]:
                    layer_busy[layer] += elapsed
                if stack:
                    stack[-1] += elapsed
                if span_id >= 0:
                    spans[span_id] = (index, start, end, parent)
                if all_samples is not None:
                    all_samples.append(elapsed)
                elif hits is not None:
                    (misses if result is None else hits).append(elapsed)
                if result is not None:
                    returned[index] += 1
                    if post is not None:
                        try:
                            sums[index] += post(result)
                        except Exception:  # noqa: BLE001
                            broken.add(label + " (measure)")

        return wrapper

    def _wrap_count(self, fn, index):
        calls = self._calls

        def wrapper(*args, **kwargs):
            calls[index] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_iter(self, fn, target, index):
        """A record-yielding generator function: one call, every ``next()``
        timed as a span of the same key."""
        calls = self._calls
        step = self._wrap_span(next, target, index, count_calls=False)

        def timed(generator):
            while True:
                try:
                    item = step(generator)
                except StopIteration:
                    return
                yield item

        def wrapper(*args, **kwargs):
            calls[index] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, fn, target, record_yielding=False):
        index = self._key(target.key, target.layer)
        if target.mode == COUNT:
            return self._wrap_count(fn, index)
        if inspect.isgeneratorfunction(fn):
            if record_yielding:
                return self._wrap_iter(fn, target, index)
            return self._wrap_count(fn, index)
        return self._wrap_span(fn, target, index)

    # -- installation --------------------------------------------------

    def _patch_attr(self, owner, attr, make):
        """Replace ``owner.attr`` (class or module attribute) in place."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        return raw, new

    def _install_target(self, target, record_yielding=False):
        try:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if isinstance(owner, type) and attr not in owner.__dict__:
                raise AttributeError(attr)
            raw, new = self._patch_attr(
                owner, attr, lambda fn: self._wrap(fn, target, record_yielding)
            )
        except (ImportError, AttributeError):
            self.missing.add(target.label)
            return
        if not owner_name:
            # ``from module import function`` copies: rebind those too.
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is module or not name.startswith("repro."):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, alias, new)
                        self._undo.append((other, alias, raw))

    def _install_capture(self, capture):
        try:
            cls = getattr(importlib.import_module(capture.module), capture.cls)
        except (ImportError, AttributeError):
            self.missing.add(capture.label)
            return
        seen = self._captured.setdefault(capture.cls, [])
        original = cls.__init__

        def init(self, *args, **kwargs):
            seen.append(self)
            return original(self, *args, **kwargs)

        cls.__init__ = init
        self._undo.append((cls, "__init__", original))

    def _install_logics(self):
        try:
            from repro.engine.operators import OperatorLogic
        except ImportError:
            self.missing.add("repro.engine.operators:OperatorLogic")
            return
        classes, todo = [], [OperatorLogic]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            layer = _LOGIC_LAYERS.get(cls.__module__, "engine.operators")
            for attr, key in _LOGIC_KEYS.items():
                if attr in cls.__dict__:
                    target = Target(layer, cls.__module__, f"{cls.__name__}.{attr}", key=f"{layer}:{key}")
                    self._install_target(target, record_yielding=True)

    def install(self):
        """Wrap every target that exists; returns the missing ones."""
        for capture in CAPTURES:
            self._install_capture(capture)
        for target in _targets():
            self._install_target(target)
        self._install_logics()
        return sorted(self.missing)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # -- export --------------------------------------------------------

    def write_chrome_trace(self, path, workload):
        """The kept spans as Chrome ``trace_event`` JSON (chrome://tracing,
        Perfetto): one complete event per span, host microseconds."""
        names = {index: key for key, index in self._key_index.items()}
        layers = {index: layer for layer, index in self._layer_index.items()}
        events = []
        for span_id, span in enumerate(self.spans):
            if span is None:
                continue  # still open when the trace was written
            index, start, end, parent = span
            events.append(
                {
                    "name": names[index],
                    "cat": layers[self._key_layer[index]],
                    "ph": "X",
                    "ts": round((start - self._epoch) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": workload,
                    "tid": "host",
                    "args": {"id": span_id, "parent": parent},
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "clock": "host perf_counter",
                "kept_spans": len(events),
                "span_limit": self.span_limit,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(events)


def obs_tracer_overhead(seed, state_bytes, pairs=3):
    """What the program's own ``obs.Tracer`` costs on one Table 1 cell.

    Returns ``(spans, overhead_pct)``: spans one traced
    ``run_recovery("rhino", state_bytes)`` records, and its host time
    over the untraced run's (the fastest of alternating pairs: the host's
    other tenants only add time).  Call with the host tracer uninstalled.
    """
    from repro.experiments.scenarios.recovery import run_recovery
    from repro.obs import tracer as obs

    made = []
    original = obs.Tracer.__init__

    def init(self, *args, **kwargs):
        made.append(self)
        original(self, *args, **kwargs)

    walls = {False: [], True: []}
    obs.Tracer.__init__ = init
    try:
        for _ in range(pairs):
            for traced in (False, True):
                start = time.perf_counter()
                run_recovery("rhino", state_bytes, seed=seed, trace=traced)
                walls[traced].append(time.perf_counter() - start)
    finally:
        obs.Tracer.__init__ = original
    plain, traced = min(walls[False]), min(walls[True])
    spans = max((len(t.spans) for t in made), default=0)
    return spans, 100.0 * (traced / plain - 1.0)


# -- from aggregates to the ledger's per-layer metric names ---------------------


def _store_bytes(store):
    """(table + memtable bytes, live bytes) of one LSMStore, read-only.

    Live bytes are what a full compaction would keep: per owned key the
    newest PUT plus the merge operands above it; nothing below a DELETE.
    """
    held = store.memtable.size_bytes + sum(t.size_bytes for t in store.tables)
    live = 0
    settled = set()
    sources = [store.memtable.entries.items()]
    sources += [table.items() for table in reversed(store.tables)]
    for items in sources:
        for composite, entry in items:
            if composite in settled or not store.owns(composite[0]):
                continue
            if entry.kind == 2:  # MERGE: keep looking for the base
                live += entry.nbytes
                continue
            settled.add(composite)
            if entry.kind == 0:  # PUT
                live += entry.nbytes
    return held, live


def derive(trace, facts, traced_wall, untraced_wall, stores=()):
    """The per-layer metrics of one traced pass, by ledger name.

    ``facts`` are the simulated results the workload's check read off the
    outputs; ``stores`` are LSM stores built before the pass (captures
    only see constructions during it).  A metric whose wrapper target or
    attribute no longer exists is ``None``.
    """
    calls, busy, total = trace.calls_of, trace.busy_of, trace.sum_of

    def add(*values):
        return None if any(v is None for v in values) else sum(values)

    def ratio(top, bottom):
        return None if top is None or not bottom else top / bottom

    def over(cls, read):
        instances = trace.instances(cls)
        if instances is None:
            return None
        try:
            return sum(read(i) for i in instances)
        except AttributeError:
            return None

    def micros(seconds):
        return None if seconds is None else seconds * 1e6

    m = {}
    events = over("Simulator", lambda s: s.events_processed)
    m["sim.kernel.events"] = events
    m["sim.kernel.events_per_record"] = ratio(events, facts.get("records")) or 0.0
    m["sim.kernel.self_s"] = trace.layer_self_of("sim.kernel")
    m["sim.kernel.clock_ratio"] = (
        ratio(over("Simulator", lambda s: s.now), busy("sim.kernel:Simulator.run")) or 0.0
    )

    m["sim.flows.transfers"] = calls("sim.flows:FlowScheduler.transfer")
    m["sim.flows.bytes"] = total("sim.flows:FlowScheduler.transfer")
    m["sim.flows.reallocate_calls"] = calls("sim.flows:FlowScheduler.reallocate")
    m["sim.flows.busy_s"] = trace.layer_busy_of("sim.flows")

    m["engine.channels.sends"] = calls("engine.channels:ExchangeFabric.send")
    m["engine.channels.emit_batches"] = calls("engine.channels:Router.emit_batch")
    m["engine.channels.records_per_batch"] = (
        ratio(total("engine.channels:Router.emit_batch"), m["engine.channels.emit_batches"]) or 0.0
    )
    m["engine.channels.busy_s"] = trace.layer_busy_of("engine.channels")

    m["engine.instance.records_processed"] = over("OperatorInstance", lambda i: i.records_processed)
    m["engine.instance.misrouted"] = over(
        "OperatorInstance", lambda i: getattr(i, "records_misrouted", 0)
    )
    batch_calls = [
        trace.calls_of(key) for key in trace.keys if key.endswith(":logic.process_batch")
    ]
    m["engine.operators.process_batch_calls"] = sum(batch_calls) if batch_calls else None
    m["engine.operators.busy_s"] = trace.layer_busy_of("engine.operators")
    m["engine.windows.watermark_calls"] = calls("engine.windows:logic.on_watermark")
    m["engine.windows.busy_s"] = trace.layer_busy_of("engine.windows")

    m["engine.partitioning.reassign_calls"] = calls("engine.partitioning:KeyGroupAssignment.reassign")
    m["engine.partitioning.busy_s"] = trace.layer_busy_of("engine.partitioning")

    m["engine.metrics.samples"] = calls("engine.metrics:JobMetrics.sample_latency")
    m["engine.metrics.busy_s"] = trace.layer_busy_of("engine.metrics")
    m["engine.metrics.sim_latency_p50_s"] = facts.get("sim_latency_p50_s", 0.0)

    gets = calls("kvs.get")
    m["storage.kvs.puts"] = add(calls("kvs.put"), calls("kvs.put_batch"))
    m["storage.kvs.gets"] = gets
    m["storage.kvs.appends"] = calls("kvs.append")
    m["storage.kvs.deletes"] = calls("kvs.delete")
    m["storage.kvs.flushes"] = trace.returned_of("kvs.flush")
    m["storage.kvs.compactions"] = trace.returned_of("kvs.compact")
    m["storage.kvs.bloom_probes_per_get"] = ratio(calls("kvs.bloom_probe"), gets) or 0.0
    seen = {id(s): s for s in list(stores) + (trace.instances("LSMStore") or [])}
    try:
        m["storage.kvs.tables_at_end"] = sum(len(s.tables) for s in seen.values())
        sizes = [_store_bytes(s) for s in seen.values()]
        m["storage.kvs.space_amp"] = ratio(sum(h for h, _l in sizes), sum(l for _h, l in sizes)) or 0.0
    except AttributeError:
        m["storage.kvs.tables_at_end"] = m["storage.kvs.space_amp"] = None
    m["storage.kvs.put_busy_s"] = add(busy("kvs.put"), busy("kvs.put_batch"))
    m["storage.kvs.get_busy_s"] = busy("kvs.get")
    m["storage.kvs.flush_busy_s"] = busy("kvs.flush")
    m["storage.kvs.compact_busy_s"] = busy("kvs.compact")
    m["storage.kvs.checkpoint_busy_s"] = busy("kvs.checkpoint")
    m["storage.kvs.extract_busy_s"] = busy("kvs.extract")
    m["storage.kvs.ingest_busy_s"] = busy("kvs.ingest")
    m["storage.kvs.restore_busy_s"] = busy("kvs.restore")
    m["storage.kvs.dirty_estimate_busy_s"] = busy("kvs.dirty")
    m["storage.kvs.put_p50_us"] = micros(trace.percentile("kvs.put", 0.50))
    m["storage.kvs.put_p99_us"] = micros(trace.percentile("kvs.put", 0.99))
    m["storage.kvs.stall_max_us"] = micros(trace.maximum("kvs.flush", "kvs.compact"))
    m["storage.kvs.get_hit_p50_us"] = micros(trace.percentile("kvs.get.hit", 0.50))
    m["storage.kvs.get_hit_p99_us"] = micros(trace.percentile("kvs.get.hit", 0.99))
    m["storage.kvs.get_miss_p99_us"] = micros(trace.percentile("kvs.get.miss", 0.99))
    user_bytes = add(
        total("kvs.put"), total("kvs.put_batch"), total("kvs.append"), 8 * (calls("kvs.delete") or 0)
    )
    m["storage.kvs.write_amp"] = ratio(add(total("kvs.flush"), total("kvs.compact")), user_bytes) or 0.0

    m["storage.log.appended_records"] = add(calls("log.append"), total("log.append_batch"))
    m["storage.log.polls"] = calls("log.poll")
    m["storage.log.busy_s"] = trace.layer_busy_of("storage.log")
    m["storage.dfs.write_bytes"] = total("dfs.write")
    m["storage.dfs.read_bytes"] = total("dfs.read")
    m["storage.dfs.busy_s"] = trace.layer_busy_of("storage.dfs")

    m["nexmark.generator.records"] = over("NexmarkGenerator", lambda g: g.records_emitted)
    m["nexmark.generator.modeled_records"] = over("NexmarkGenerator", lambda g: g.weight_emitted)
    m["nexmark.generator.key_samples"] = calls("generator.draw_key")
    m["nexmark.generator.sample_busy_s"] = busy("generator.draw_key")

    m["core.replication.replicate_calls"] = calls("replication.replicate")
    m["core.replication.bulk_copies"] = calls("replication.bulk_copy")
    m["core.replication.bytes_replicated"] = over("ChainReplicator", lambda r: r.stats.bytes_replicated)
    m["core.replication.busy_s"] = trace.layer_busy_of("core.replication")

    reports = trace.instances("HandoverReport")

    def report(read, fold):
        if reports is None:
            return None
        try:
            return fold([read(r) for r in reports], default=0)
        except AttributeError:
            return None

    def total_of(values, default=0):
        return sum(values) if values else default

    m["core.handover.executes"] = calls("handover.execute")
    m["core.handover.markers"] = calls("handover.marker")
    m["core.handover.busy_s"] = trace.layer_busy_of("core.handover")
    m["core.handover.sim_scheduling_s"] = report(lambda r: r.scheduling_seconds, max)
    m["core.handover.sim_fetching_s"] = report(lambda r: r.fetching_seconds, max)
    m["core.handover.sim_loading_s"] = report(lambda r: r.loading_seconds, max)
    m["core.handover.migrated_bytes"] = report(lambda r: r.migrated_bytes, total_of)
    m["core.handover.precopy_bytes"] = report(lambda r: r.precopy_bytes, total_of)
    m["core.handover.delta_rounds"] = report(lambda r: r.delta_rounds, total_of)
    m["core.handover.cutover_bytes"] = report(lambda r: r.cutover_bytes, total_of)

    m["core.journal.appends"] = calls("journal.append")
    m["core.journal.replays"] = calls("journal.replay")
    m["core.journal.busy_s"] = trace.layer_busy_of("core.journal")
    m["core.quorum.commits"] = over("ControlGroup", lambda g: len(g.commit_log))
    m["core.quorum.elections"] = over("ControlGroup", lambda g: g.elections)
    m["core.quorum.fencing_rejections"] = over("ControlGroup", lambda g: g.fencing_rejections)
    m["core.quorum.busy_s"] = trace.layer_busy_of("core.quorum")

    m["faults.injected"] = over(
        "ChaosController", lambda c: sum(1 for entry in c.log if entry[3] == "inject")
    )
    m["faults.invariants_checked"] = calls("faults.check")
    m["faults.violations"] = facts.get("violations", 0)

    for sut in ("flink", "rhinodfs", "megaphone"):
        name = f"baselines.{sut}.sim_reconfig_s"
        m[name] = facts.get(name, 0.0)
    m["baselines.busy_s"] = trace.layer_busy_of("baselines")

    m["experiments.runner.self_s"] = trace.layer_self_of("experiments.runner")
    # Measured apart from the passes (obs_tracer_overhead), on Table 1 only.
    m["obs.tracer.spans"] = 0
    m["obs.tracer.overhead_pct"] = 0.0
    m["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    m["trace.missing_targets"] = len(trace.missing)

    for name in ("sim_reconfig_s", "sim_latency_p99_s", "sim_mttr_s", "sim_paper_err_pct"):
        m[name] = facts.get(name, 0.0)
    return m
