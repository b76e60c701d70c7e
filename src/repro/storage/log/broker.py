"""Topics, partitions, and consumer cursors."""

from repro.common.errors import StorageError


class Partition:
    """An ordered, replayable sequence of records.

    Offsets are dense integers starting at 0.  Consumers blocked on an
    empty tail are woken on append.
    """

    def __init__(self, sim, topic, index):
        self.sim = sim
        self.topic = topic
        self.index = index
        self.records = []
        self._waiters = []

    def append(self, record):
        """Append one record; returns its offset."""
        offset = len(self.records)
        self.records.append(record)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
        return offset

    def append_batch(self, records):
        """Append many records; one waiter wakeup, returns the first offset."""
        offset = len(self.records)
        self.records.extend(records)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
        return offset

    @property
    def end_offset(self):
        """Offset one past the last record."""
        return len(self.records)

    def fetch(self, offset, max_records):
        """Records in [offset, offset+max_records); may be empty."""
        if offset < 0:
            raise StorageError("negative offset")
        return self.records[offset : offset + max_records]

    def wait_for_data(self, offset):
        """Event that fires once records exist at ``offset``."""
        event = self.sim.event()
        if offset < self.end_offset:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def __repr__(self):
        return f"<Partition {self.topic}/{self.index} end={self.end_offset}>"


class LogCursor:
    """A consumer's position in one partition (Kafka consumer stand-in).

    ``poll`` blocks until data is available; ``seek`` rewinds for replay.
    The cursor charges fetched bytes to ``consumer_machine``'s NIC ingress
    when one is attached (brokers themselves are never the bottleneck).
    """

    def __init__(self, log, topic, partition_index, consumer_machine=None):
        self.log = log
        self.partition = log.partition(topic, partition_index)
        self.offset = 0
        self.consumer_machine = consumer_machine

    def seek(self, offset):
        """Reposition the consumer/cursor."""
        if offset < 0 or offset > self.partition.end_offset:
            raise StorageError(f"seek to invalid offset {offset}")
        self.offset = offset

    @property
    def lag(self):
        """Records between the cursor and the partition end."""
        return self.partition.end_offset - self.offset

    def poll(self, max_records=512):
        """Process generator: blocks until >=1 record, then returns a batch."""
        yield self.partition.wait_for_data(self.offset)
        batch = self.partition.fetch(self.offset, max_records)
        self.offset += len(batch)
        if self.consumer_machine is not None and batch:
            nbytes = sum(getattr(r, "nbytes", 0) for r in batch)
            if nbytes > 0:
                yield self.log.scheduler.transfer(
                    nbytes, [self.consumer_machine.nic_in], tag="log-fetch"
                )
        return batch

    def try_poll(self, max_records=512):
        """Non-blocking fetch (no simulated cost); may return []."""
        batch = self.partition.fetch(self.offset, max_records)
        self.offset += len(batch)
        return batch


class DurableLog:
    """A set of topics, each with a fixed number of partitions."""

    def __init__(self, sim, scheduler=None):
        self.sim = sim
        self.scheduler = scheduler
        self.topics = {}

    def create_topic(self, name, partitions):
        """Create a topic with the given partition count."""
        if name in self.topics:
            raise StorageError(f"topic {name} already exists")
        self.topics[name] = [Partition(self.sim, name, i) for i in range(partitions)]
        return self.topics[name]

    def partition(self, topic, index):
        """Look up one partition of a topic."""
        partitions = self.topics.get(topic)
        if partitions is None:
            raise StorageError(f"no such topic: {topic}")
        if not 0 <= index < len(partitions):
            raise StorageError(f"topic {topic} has no partition {index}")
        return partitions[index]

    def partition_count(self, topic):
        """Number of partitions of a topic."""
        return len(self.topics[topic])

    def append(self, topic, partition_index, record):
        """Append one record to a partition; returns its offset."""
        return self.partition(topic, partition_index).append(record)

    def append_batch(self, topic, partition_index, records):
        """Append a batch of records to a partition; returns the first offset."""
        return self.partition(topic, partition_index).append_batch(records)

    def cursor(self, topic, partition_index, consumer_machine=None):
        """A new consumer cursor for a partition."""
        return LogCursor(self, topic, partition_index, consumer_machine)
