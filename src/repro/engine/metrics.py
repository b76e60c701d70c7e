"""Job metrics: end-to-end latency samples and throughput counters.

Latency follows Karimov et al.'s definition used by the paper (§5.1.5):
the interval between a record's *creation* timestamp (assigned by the
generator in event time) and its arrival at the last (instrumented)
operator in the pipeline.

Samples are **weighted**: a record with ``weight = w`` stands for ``w``
real-world records (see the generator docstring), so every summary --
mean, percentiles -- treats one sample as ``w`` observations.  Under
skewed or weight-inflated workloads the unweighted statistics would be
wrong: a single weight-10000 sample near the tail *is* the tail.
"""

import bisect


class LatencySeries:
    """(time, latency, weight) samples with weight-correct summaries."""

    def __init__(self, max_samples=200_000):
        self.max_samples = max_samples
        self.samples = []
        self._stride = 1
        self._counter = 0

    def record(self, time, latency, weight=1):
        """Add one sample (with automatic downsampling).

        Downsampling is statistical: when the series degrades resolution
        it keeps every ``stride``-th sample, so retained weights remain an
        unbiased sample of the full weighted population.
        """
        self._counter += 1
        if self._counter % self._stride:
            return
        self.samples.append((time, latency, weight))
        if len(self.samples) >= self.max_samples:
            # Degrade resolution rather than memory.
            self.samples = self.samples[::2]
            self._stride *= 2

    def window(self, start=None, end=None):
        """Samples within [start, end]."""
        lo = 0 if start is None else bisect.bisect_left(self.samples, (start, -1.0))
        hi = (
            len(self.samples)
            if end is None
            else bisect.bisect_right(self.samples, (end, float("inf")))
        )
        return self.samples[lo:hi]

    def values(self, start=None, end=None):
        """Latency values within [start, end] (one entry per sample)."""
        return [latency for _t, latency, _w in self.window(start, end)]

    def weighted_values(self, start=None, end=None):
        """(latency, weight) pairs within [start, end]."""
        return [(latency, weight) for _t, latency, weight in self.window(start, end)]

    def mean(self, start=None, end=None):
        """Weighted mean latency over [start, end]."""
        pairs = self.weighted_values(start, end)
        total = sum(weight for _l, weight in pairs)
        if not total:
            return 0.0
        return sum(latency * weight for latency, weight in pairs) / total

    def maximum(self, start=None, end=None):
        """Maximum latency within [start, end]."""
        values = self.values(start, end)
        return max(values) if values else 0.0

    def percentile(self, q, start=None, end=None):
        """The q-quantile of latencies within [start, end].

        Weighted nearest-rank: the smallest latency whose cumulative
        weight reaches ``q`` times the total weight.  With unit weights
        this is the standard nearest-rank percentile (the ``ceil(q*n)``-th
        smallest value, 1-based) -- not the former ``int(q*n)`` indexing,
        which systematically over-read every quantile whose rank landed on
        an integer.
        """
        pairs = sorted(self.weighted_values(start, end))
        if not pairs:
            return 0.0
        total = sum(weight for _l, weight in pairs)
        threshold = q * total
        cumulative = 0
        for latency, weight in pairs:
            cumulative += weight
            if cumulative >= threshold:
                return latency
        return pairs[-1][0]

    def __len__(self):
        return len(self.samples)


class JobMetrics:
    """Per-job metric registry."""

    def __init__(self):
        self.latency = LatencySeries()
        self.latency_by_operator = {}

    def sample_latency(self, time, latency, operator_name, weight=1):
        """Record one end-to-end latency sample for an operator."""
        self.latency.record(time, latency, weight)
        series = self.latency_by_operator.get(operator_name)
        if series is None:
            series = self.latency_by_operator[operator_name] = LatencySeries()
        series.record(time, latency, weight)
