"""The paper's three NEXMark workloads as logical query graphs (§5.1.2).

Each builder takes the source and stateful degrees of parallelism (the
paper runs 32 source instances, one per Kafka partition, and 64 stateful
instances, §5.1.5; the calibrated testbed scales both down).
"""

from repro.engine.graph import StreamGraph
from repro.engine.windows import (
    SessionWindowJoin,
    SlidingWindowAggregate,
    TumblingWindowJoin,
)

#: NBQ5's sliding window: 60 s long, sliding every 10 s.
NBQ5_WINDOW = 60.0
NBQ5_SLIDE = 10.0
#: NBQ8's tumbling window (12 h).
NBQ8_WINDOW = 12 * 3600.0
#: NBQX's session gaps (30/60/90/120 min) and tumbling window (4 h).
NBQX_SESSION_GAPS = (1800.0, 3600.0, 5400.0, 7200.0)
NBQX_TUMBLING_WINDOW = 4 * 3600.0


def nbq5(source_dop, stateful_dop):
    """NBQ5: hot items -- bids per auction over a sliding window.

    Small state, read-modify-write updates (per-pane partial aggregates).
    """
    graph = StreamGraph("nbq5")
    graph.source("bids", topic="bids", parallelism=source_dop)
    graph.operator(
        "agg",
        lambda: SlidingWindowAggregate(size=NBQ5_WINDOW, slide=NBQ5_SLIDE),
        stateful_dop,
        inputs=[("bids", "hash")],
        stateful=True,
        cpu_per_record=1.2e-7,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("agg", "forward")])
    return graph


def nbq8(source_dop, stateful_dop):
    """NBQ8: new users who opened auctions -- a 12 h tumbling-window join.

    Append-only state: with the 12-hour window, state accumulates for the
    whole experiment and reaches the paper's terabyte sizes.
    """
    graph = StreamGraph("nbq8")
    graph.source("persons", topic="persons", parallelism=source_dop)
    graph.source("auctions", topic="auctions", parallelism=source_dop)
    graph.operator(
        "join",
        lambda: TumblingWindowJoin(size=NBQ8_WINDOW),
        stateful_dop,
        inputs=[("persons", "hash"), ("auctions", "hash")],
        stateful=True,
        cpu_per_record=2e-6,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("join", "forward")])
    return graph


def nbqx(source_dop, stateful_dop):
    """NBQX: five concurrent sub-queries over auctions and bids.

    Four session-window joins (30/60/90/120 min gaps) plus a 4 h tumbling
    join; individually mid-sized states that are large in aggregate, with
    append and delete update patterns.
    """
    graph = StreamGraph("nbqx")
    graph.source("auctions", topic="auctions", parallelism=source_dop)
    graph.source("bids", topic="bids", parallelism=source_dop)
    for index, gap in enumerate(NBQX_SESSION_GAPS):
        name = f"session_join_{int(gap // 60)}m"
        graph.operator(
            name,
            (lambda g: lambda: SessionWindowJoin(gap=g))(gap),
            stateful_dop,
            inputs=[("auctions", "hash"), ("bids", "hash")],
            stateful=True,
            cpu_per_record=4e-7,
            measure_latency=index == 0,
        )
        graph.sink(f"out_{name}", inputs=[(name, "forward")])
    graph.operator(
        "tumbling_join",
        lambda: TumblingWindowJoin(size=NBQX_TUMBLING_WINDOW),
        stateful_dop,
        inputs=[("auctions", "hash"), ("bids", "hash")],
        stateful=True,
        cpu_per_record=4e-7,
        measure_latency=True,
    )
    graph.sink("out_tumbling", inputs=[("tumbling_join", "forward")])
    return graph
