"""The logical query graph builder (a minimal dataflow DSL).

A query is a weakly-connected graph of sources, operators, and sinks
(§2.1).  Example -- a keyed tumbling-window join::

    graph = StreamGraph("nbq8")
    graph.source("persons", topic="persons", parallelism=32)
    graph.source("auctions", topic="auctions", parallelism=32)
    graph.operator(
        "join",
        lambda: TumblingWindowJoin(size=12 * 3600),
        parallelism=64,
        inputs=[("persons", "hash"), ("auctions", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("join", "forward")])
"""

from repro.common.errors import EngineError
from repro.engine.operators import CollectSinkLogic, LogicalOperator


class SourceSpec:
    """A logical source reading one topic (one instance per partition)."""

    #: Modeled CPU seconds to read and emit one record.
    cpu_per_record = 2e-7

    def __init__(self, name, topic, parallelism):
        self.name = name
        self.topic = topic
        self.parallelism = parallelism
        self.stateful = False
        self.measure_latency = False

    def __repr__(self):
        return f"<Source {self.name} topic={self.topic} p={self.parallelism}>"


class EdgeSpec:
    """A logical edge: upstream name, partitioning, and input index."""

    def __init__(self, upstream, partitioning, input_index):
        if partitioning not in ("hash", "forward"):
            raise EngineError(f"unknown partitioning {partitioning!r}")
        self.upstream = upstream
        self.partitioning = partitioning
        self.input_index = input_index


class StreamGraph:
    """Builder for the logical QEP."""

    def __init__(self, name):
        self.name = name
        self.sources = {}
        self.operators = {}
        self.edges = []  # EdgeSpec list, with .downstream set
        self.sinks = set()

    def source(self, name, topic, parallelism):
        """Add a source vertex reading one topic."""
        self._check_fresh(name)
        self.sources[name] = SourceSpec(name, topic, parallelism)
        return self

    def operator(
        self,
        name,
        logic_factory,
        parallelism,
        inputs,
        stateful=False,
        cpu_per_record=2e-6,
        measure_latency=False,
    ):
        """Add an operator vertex with its inputs."""
        self._check_fresh(name)
        self.operators[name] = LogicalOperator(
            name,
            logic_factory,
            parallelism,
            stateful=stateful,
            cpu_per_record=cpu_per_record,
            measure_latency=measure_latency,
        )
        for input_index, (upstream, partitioning) in enumerate(inputs):
            if upstream not in self.sources and upstream not in self.operators:
                raise EngineError(f"unknown upstream {upstream!r} for {name!r}")
            edge = EdgeSpec(upstream, partitioning, input_index)
            edge.downstream = name
            self.edges.append(edge)
        return self

    def sink(self, name, inputs, parallelism=1):
        """Add a collecting sink vertex."""
        self.operator(
            name,
            CollectSinkLogic,
            parallelism,
            inputs,
            stateful=False,
            cpu_per_record=1e-7,
        )
        self.sinks.add(name)
        return self

    def _check_fresh(self, name):
        if name in self.sources or name in self.operators:
            raise EngineError(f"duplicate vertex name {name!r}")

    def vertex(self, name):
        """Look up a vertex by name."""
        if name in self.sources:
            return self.sources[name]
        if name in self.operators:
            return self.operators[name]
        raise EngineError(f"no such vertex {name!r}")

    def inbound_edges(self, name):
        """Edges entering a vertex."""
        return [e for e in self.edges if e.downstream == name]

    def validate(self):
        """Check structural invariants; returns self."""
        if not self.sources:
            raise EngineError("graph has no sources")
        for name in self.operators:
            if not self.inbound_edges(name):
                raise EngineError(f"operator {name!r} has no inputs")
        return self
