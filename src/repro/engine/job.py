"""Job assembly: physical deployment, wiring, and runtime control.

A :class:`Job` turns a logical :class:`StreamGraph` into physical
instances placed on cluster machines, wires the channel mesh, and runs the
coordinator.  It also exposes the reconfiguration primitives that Rhino
and the baselines build on: spawning instances at runtime, replacing a
failed instance, and rewiring routing tables.
"""

from repro.common.errors import EngineError
from repro.engine.channels import Edge, ExchangeFabric, Router
from repro.engine.checkpointing import LocalCheckpointStorage
from repro.engine.coordinator import Coordinator
from repro.engine.graph import SourceSpec
from repro.engine.instance import OperatorInstance, SourceInstance
from repro.engine.metrics import JobMetrics
from repro.engine.partitioning import (
    DEFAULT_VIRTUAL_NODES,
    KeyGroupAssignment,
    split_key_groups,
)


class JobConfig:
    """Tunables of one job deployment."""

    def __init__(
        self,
        num_key_groups=2**15,
        virtual_node_count=DEFAULT_VIRTUAL_NODES,
        checkpoint_interval=None,
        exchange_interval=0.25,
        watermark_interval=1.0,
        source_idle_timeout=0.2,
        source_rate_limit=None,
    ):
        if num_key_groups < 1:
            raise EngineError(f"num_key_groups must be >= 1, got {num_key_groups}")
        if virtual_node_count < 1:
            raise EngineError(
                f"virtual_node_count must be >= 1, got {virtual_node_count}"
            )
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            # None disables periodic checkpoints; there is no other off value.
            raise EngineError(
                f"checkpoint_interval must be > 0, got {checkpoint_interval}"
            )
        if source_rate_limit is not None and source_rate_limit <= 0:
            raise EngineError(f"source_rate_limit must be > 0, got {source_rate_limit}")
        if exchange_interval <= 0:
            raise EngineError(f"exchange_interval must be > 0, got {exchange_interval}")
        if watermark_interval < 0:
            raise EngineError(f"watermark_interval must be >= 0, got {watermark_interval}")
        if source_idle_timeout <= 0:
            # An idle source re-polling after 0 s never lets time advance.
            raise EngineError(f"source_idle_timeout must be > 0, got {source_idle_timeout}")
        self.num_key_groups = num_key_groups
        self.virtual_node_count = virtual_node_count
        self.checkpoint_interval = checkpoint_interval
        self.exchange_interval = exchange_interval
        #: A source broadcasts at most one watermark per
        #: ``watermark_interval`` simulated seconds (0: after every batch);
        #: ``source_idle_timeout`` is only its idle poll period.
        self.watermark_interval = watermark_interval
        self.source_idle_timeout = source_idle_timeout
        #: Per-source-instance sustainable throughput cap (bytes/second).
        self.source_rate_limit = source_rate_limit


class _EdgeRuntime:
    """One logical edge and its per-producer routers."""

    def __init__(self, spec, edge):
        self.spec = spec
        self.edge = edge
        self.routers = {}  # src_index -> Router


class Job:
    """A deployed streaming query."""

    def __init__(
        self,
        sim,
        cluster,
        graph,
        log,
        machines,
        config=None,
        checkpoint_storage=None,
        metrics=None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.graph = graph.validate()
        self.log = log
        self.machines = list(machines)
        self.config = config or JobConfig()
        # A restarting runtime (the Flink baseline) passes the previous
        # job's metrics so latency series span the restart.
        self.metrics = metrics or JobMetrics()
        self.fabric = ExchangeFabric(
            sim, cluster, interval=self.config.exchange_interval
        )
        self.checkpoint_storage = checkpoint_storage or LocalCheckpointStorage()
        self.coordinator = Coordinator(sim, self, self.config.checkpoint_interval)
        self.marker_handlers = {}
        #: Optional hook(instance, record) for records arriving at an
        #: instance that no longer owns their key group.  Rhino's aligned
        #: handovers make this impossible; Megaphone's fluid migration
        #: reroutes such in-flight records (its migrator operators).
        self.misroute_handler = None
        self.instances = {}  # (op_name, index) -> instance
        self.assignments = {}  # consumer op name -> KeyGroupAssignment
        self._edge_runtimes = []  # _EdgeRuntime, in graph edge order
        self.failure_listeners = []  # callbacks(machine)
        self._deployed = False
        self._watched_machines = set()

    # -- deployment ----------------------------------------------------------

    def deploy(self):
        """Create instances, assignment tables, and the channel mesh."""
        if self._deployed:
            raise EngineError("job already deployed")
        self._deployed = True
        for name, source in self.graph.sources.items():
            for index in range(source.parallelism):
                machine = self._place(source, index)
                self._create_source_instance(source, index, machine)
        for name, op in self.graph.operators.items():
            if self._needs_assignment(name):
                self.assignments[name] = KeyGroupAssignment(
                    self.config.num_key_groups, op.parallelism
                )
            for index in range(op.parallelism):
                machine = self._place(op, index)
                self._create_operator_instance(op, index, machine)
        for spec in self.graph.edges:
            self._wire_edge(spec)
        for machine in self.machines:
            self._watch_machine(machine)
        return self

    def _watch_machine(self, machine):
        if machine.name in self._watched_machines:
            return
        self._watched_machines.add(machine.name)
        machine.on_failure(self._machine_failed)

    def _machine_failed(self, machine):
        self.coordinator.abort_all_pending()
        # Dead producers' channels must stop gating downstream alignment
        # (the connection is gone); the instances stay registered so a
        # recovery can replace them.
        for (op_name, index), instance in list(self.instances.items()):
            if instance.machine is machine:
                self._detach_outputs_of(op_name, index, instance)
        for listener in list(self.failure_listeners):
            listener(machine)

    def _detach_outputs_of(self, op_name, index, instance):
        for runtime in self.edge_runtimes(upstream=op_name):
            router = runtime.routers.pop(index, None)
            if router is not None:
                for channel in list(router.channels.values()):
                    channel.dst_instance.detach_input(channel)
        instance.output_routers = []

    def _needs_assignment(self, op_name):
        return any(
            e.partitioning == "hash" for e in self.graph.inbound_edges(op_name)
        )

    def _place(self, vertex, index):
        return self.machines[index % len(self.machines)]

    def _create_source_instance(self, source, index, machine):
        cursor = self.log.cursor(source.topic, index, consumer_machine=machine)
        instance = SourceInstance(
            self.sim,
            self,
            source,
            index,
            machine,
            cursor,
            watermark_interval=self.config.watermark_interval,
            idle_timeout=self.config.source_idle_timeout,
            rate_limit=self.config.source_rate_limit,
        )
        self.instances[(source.name, index)] = instance
        return instance

    def _create_operator_instance(self, op, index, machine, owned_ranges=None):
        if owned_ranges is None and op.stateful and op.name in self.assignments:
            ranges = split_key_groups(self.config.num_key_groups, op.parallelism)
            if index < len(ranges):
                owned_ranges = [ranges[index]]
            else:
                owned_ranges = []  # late-spawned instance starts empty
        instance = OperatorInstance(
            self.sim, self, op, index, machine, owned_ranges=owned_ranges
        )
        self.instances[(op.name, index)] = instance
        return instance

    def _wire_edge(self, spec):
        downstream_op = self.graph.vertex(spec.downstream)
        assignment = self.assignments.get(spec.downstream)
        edge = Edge(
            name=f"{spec.upstream}->{spec.downstream}",
            dst_op=spec.downstream,
            partitioning=spec.partitioning,
            input_index=spec.input_index,
            assignment=assignment,
        )
        runtime = _EdgeRuntime(spec, edge)
        self._edge_runtimes.append(runtime)
        upstream = self.graph.vertex(spec.upstream)
        for src_index in range(upstream.parallelism):
            src_instance = self.instances[(spec.upstream, src_index)]
            router = Router(self.sim, self.fabric, edge, src_instance)
            src_instance.add_output_router(router)
            runtime.routers[src_index] = router
            for dst_index in range(downstream_op.parallelism):
                dst_instance = self.instances[(spec.downstream, dst_index)]
                router.connect(dst_instance)

    # -- runtime control ---------------------------------------------------------

    def start(self):
        """Start the background process; returns it."""
        if not self._deployed:
            self.deploy()
        for instance in self.instances.values():
            if instance.machine.alive:
                instance.start()
        self.coordinator.start()
        return self

    def stop(self):
        """Stop the background process (no-op if not running)."""
        self.coordinator.stop()
        for instance in self.instances.values():
            instance.stop()

    # -- lookups ---------------------------------------------------------------

    def instance(self, op_name, index):
        """Look up one physical instance."""
        return self.instances[(op_name, index)]

    def all_instances(self):
        """Every physical instance of the job."""
        return list(self.instances.values())

    def source_instances(self):
        """All source instances."""
        return [i for i in self.instances.values() if isinstance(i, SourceInstance)]

    def operator_instances(self, op_name=None):
        """Non-source instances, optionally of one operator."""
        out = []
        for (name, _index), instance in sorted(
            self.instances.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            if isinstance(instance, SourceInstance):
                continue
            if op_name is None or name == op_name:
                out.append(instance)
        return out

    def stateful_instances(self, op_name=None):
        """Instances holding keyed state."""
        return [
            i for i in self.operator_instances(op_name) if i.state is not None
        ]

    def sink_results(self, sink_name):
        """Concatenated results of every instance of a sink."""
        results = []
        for instance in self.operator_instances(sink_name):
            results.extend(instance.logic.results)
        return results

    def edge_runtimes(self, downstream=None, upstream=None):
        """Edge runtimes filtered by endpoint names."""
        return [
            r
            for r in self._edge_runtimes
            if (downstream is None or r.spec.downstream == downstream)
            and (upstream is None or r.spec.upstream == upstream)
        ]

    # -- reconfiguration primitives ------------------------------------------------

    def spawn_operator_instance(self, op_name, index, machine):
        """Create, wire, and start a new instance of ``op_name`` at runtime.

        The new instance owns no key group until a handover assigns it
        virtual nodes.
        """
        if (op_name, index) in self.instances:
            raise EngineError(f"instance {op_name}[{index}] already exists")
        op = self.graph.operators[op_name]
        instance = self._create_operator_instance(op, index, machine, owned_ranges=[])
        self._watch_machine(machine)
        # Inbound: every upstream router connects a channel to it.
        for runtime in self.edge_runtimes(downstream=op_name):
            for router in runtime.routers.values():
                router.connect(instance)
        # Outbound: it gets a router per outbound edge.
        for runtime in self.edge_runtimes(upstream=op_name):
            router = Router(self.sim, self.fabric, runtime.edge, instance)
            instance.add_output_router(router)
            runtime.routers[index] = router
            # Every deployed downstream instance, in index order -- not
            # ``range(parallelism)``: one spawned earlier by the same
            # handover is not counted in it until the handover commits.
            for dst in self.operator_instances(runtime.spec.downstream):
                router.connect(dst)
        instance.start()
        return instance

    def remove_instance(self, op_name, index):
        """Stop an instance and unwire its channels."""
        instance = self.instances.pop((op_name, index), None)
        if instance is None:
            return
        instance.stop()
        for runtime in self.edge_runtimes(downstream=op_name):
            for router in runtime.routers.values():
                channel = router.channels.get(index)
                if channel is not None and channel.dst_instance is instance:
                    router.disconnect(index)
        for runtime in self.edge_runtimes(upstream=op_name):
            router = runtime.routers.pop(index, None)
            if router is not None:
                for channel in router.channels.values():
                    channel.dst_instance.detach_input(channel)

    def replace_instance(self, op_name, index, machine):
        """Replace a (typically failed) instance with a fresh one.

        The replacement starts with *no* state; the caller restores state
        (from DFS or a Rhino replica) before or after starting it.
        """
        vertex = self.graph.vertex(op_name)
        old = self.instances.pop((op_name, index), None)
        if old is not None:
            old.stop()
            for runtime in self.edge_runtimes(upstream=op_name):
                old_router = runtime.routers.pop(index, None)
                if old_router is not None:
                    for channel in old_router.channels.values():
                        channel.dst_instance.detach_input(channel)
        if isinstance(vertex, SourceSpec):
            instance = self._create_source_instance(vertex, index, machine)
        else:
            old_ranges = None
            if old is not None and old.state is not None:
                old_ranges = old.state.owned_ranges()
            instance = self._create_operator_instance(
                vertex, index, machine, owned_ranges=old_ranges
            )
        self._watch_machine(machine)
        # Rewire inbound channels (for operators) and outbound routers.
        if not isinstance(vertex, SourceSpec):
            for runtime in self.edge_runtimes(downstream=op_name):
                for router in runtime.routers.values():
                    old_channel = router.channels.get(index)
                    if old_channel is not None:
                        router.disconnect(index)
                    router.connect(instance)
        for runtime in self.edge_runtimes(upstream=op_name):
            router = Router(self.sim, self.fabric, runtime.edge, instance)
            instance.add_output_router(router)
            runtime.routers[index] = router
            downstream_op = self.graph.vertex(runtime.spec.downstream)
            for dst_index in range(downstream_op.parallelism):
                dst = self.instances.get((runtime.spec.downstream, dst_index))
                if dst is not None:
                    router.connect(dst)
        return instance
