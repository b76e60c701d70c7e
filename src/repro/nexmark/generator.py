"""The NEXMark stream generator.

Mirrors the paper's custom generator (§5.1.4): per logical stream it
produces a fixed number of physical partitions at a configurable aggregate
rate, with configurable primary-key distributions and event-time
timestamps equal to creation time.

Simulation scaling: instead of one record per real-world event, each tick
emits a small number of *weighted* records per partition -- a record with
``weight = w`` stands for ``w`` identical real records, so modeled state
and traffic bytes match the paper's scale while simulated record counts
stay tractable.  Tick length and keys-per-tick are configurable.

Varying-rate experiments (Figure 6) plug in a rate *profile*: any callable
``t -> bytes_per_second``.  :class:`TriangularRate` reproduces the paper's
1 -> 8 -> 1 MB/s ramp; :class:`DiurnalRate` models a day-night traffic
curve and :class:`FlashCrowdRate` multiplies any base profile during burst
windows, so profiles compose (e.g. a flash crowd on top of a diurnal
curve).

Key *distributions* shape which keys the traffic hits: uniform
(:class:`UniformKeys`), heavy-tailed bid skew (:class:`ZipfKeys`), and a
churning hot set of auctions (:class:`HotKeys`) that concentrates a
fraction of traffic on a few keys and rotates them over time -- the
workload shapes that dominate migration cost (Megaphone, §6).
"""

import math

from repro.common.errors import EngineError
from repro.common.rng import make_rng
from repro.engine.records import Record


# -- rate profiles -----------------------------------------------------------


class TriangularRate:
    """The varying data rate of §5.5.

    Starts at ``floor`` bytes/s, rises by ``step`` every ``period`` seconds
    until ``ceiling``, then descends back to ``floor``, repeating forever.
    """

    def __init__(self, floor=1e6, ceiling=8e6, step=0.5e6, period=10.0):
        if ceiling <= floor or step <= 0 or period <= 0:
            raise EngineError("invalid triangular rate profile")
        self.floor = floor
        self.ceiling = ceiling
        self.step = step
        self.period = period

    def __call__(self, t):
        steps_per_leg = (self.ceiling - self.floor) / self.step
        # The ascending leg holds every level from floor to *ceiling
        # inclusive* (steps_per_leg + 1 periods); the descending leg walks
        # the interior levels back down.  Stopping the ascent one step
        # short (the former off-by-one) never emitted the ceiling on the
        # way up and held the peak only via the descending leg.
        up_duration = (steps_per_leg + 1) * self.period
        cycle = 2 * steps_per_leg * self.period
        phase = t % cycle
        if phase < up_duration:
            steps = int(phase // self.period)
            return min(self.ceiling, self.floor + steps * self.step)
        steps = int((phase - up_duration) // self.period)
        return max(self.floor, self.ceiling - (steps + 1) * self.step)


class DiurnalRate:
    """A day-night traffic curve: sinusoid between ``base`` and ``peak``.

    ``t = 0`` is the trough (night); the peak is half a ``period`` later.
    ``phase`` shifts the curve by a fraction of the period.
    """

    def __init__(self, base, peak, period=86_400.0, phase=0.0):
        if base <= 0 or peak < base or period <= 0:
            raise EngineError("invalid diurnal rate profile")
        self.base = base
        self.peak = peak
        self.period = period
        self.phase = phase

    def __call__(self, t):
        u = 0.5 - 0.5 * math.cos(2 * math.pi * (t / self.period + self.phase))
        return self.base + (self.peak - self.base) * u


class FlashCrowdRate:
    """Multiplicative bursts on top of any base profile.

    ``base`` is a constant bytes/s or any ``t -> bytes_per_second``
    callable (so flash crowds compose with :class:`TriangularRate` or
    :class:`DiurnalRate`); ``bursts`` is a list of ``(start, duration,
    factor)`` windows during which the base rate is multiplied.
    """

    def __init__(self, base, bursts):
        if callable(base):
            self.base = base
        else:
            if base <= 0:
                raise EngineError("flash-crowd base rate must be positive")
            self.base = float(base)
        self.bursts = []
        for start, duration, factor in bursts:
            if start < 0 or duration <= 0 or factor <= 0:
                raise EngineError(
                    f"invalid flash-crowd burst ({start}, {duration}, {factor})"
                )
            self.bursts.append((float(start), float(duration), float(factor)))

    def __call__(self, t):
        rate = self.base(t) if callable(self.base) else self.base
        for start, duration, factor in self.bursts:
            if start <= t < start + duration:
                rate *= factor
        return rate


# -- key distributions -------------------------------------------------------


class KeyDistribution:
    """Samples primary keys from ``[0, key_space)``.

    ``sample(rng, t)`` takes the partition's deterministic RNG and the
    current virtual time, so distributions may evolve (hot-set churn)
    while staying reproducible per seed.
    """

    key_space = 1

    def sample(self, rng, t):
        """Draw one key."""
        raise NotImplementedError


class UniformKeys(KeyDistribution):
    """Every key equally likely -- the seed generator's behaviour."""

    def __init__(self, key_space):
        if key_space < 1:
            raise EngineError("key_space must be >= 1")
        self.key_space = key_space

    def sample(self, rng, t):
        """Draw one key."""
        return rng.randrange(self.key_space)


class ZipfKeys(KeyDistribution):
    """Bounded heavy-tailed (Zipf) keys via inverse-CDF sampling.

    Rank ``r`` (1-based) gets probability proportional to ``r**-exponent``;
    the inverse CDF uses the continuous harmonic approximation, so sampling
    is O(1) with no precomputed tables even for multi-million key spaces.
    Ranks are scattered across the key space by a fixed coprime multiplier
    (``spread=True``) so the hottest keys land in different key groups
    rather than all at the bottom of the hash range.
    """

    def __init__(self, key_space, exponent=1.1, spread=True):
        if key_space < 1:
            raise EngineError("key_space must be >= 1")
        if exponent <= 0:
            raise EngineError("zipf exponent must be positive")
        self.key_space = key_space
        self.exponent = exponent
        self.spread = spread
        self._multiplier = self._coprime_multiplier(key_space) if spread else 1

    @staticmethod
    def _coprime_multiplier(n):
        # Knuth's golden-ratio constant, nudged up until coprime with n so
        # the rank -> key map is a bijection.
        a = 2654435761 % n
        while a < 2 or math.gcd(a, n) != 1:
            a += 1
            if a >= n:
                return 1
        return a

    def rank(self, u):
        """The 1-based Zipf rank at quantile ``u`` of the CDF."""
        n = self.key_space
        s = self.exponent
        if n == 1:
            return 1
        if s == 1.0:
            return min(n, max(1, int(n**u)))
        top = n ** (1.0 - s) - 1.0
        return min(n, max(1, int(((top * u) + 1.0) ** (1.0 / (1.0 - s)))))

    def key_of_rank(self, rank):
        """The key the 1-based ``rank`` maps to."""
        return ((rank - 1) * self._multiplier) % self.key_space

    def sample(self, rng, t):
        """Draw one key."""
        return self.key_of_rank(self.rank(rng.random()))


class HotKeys(KeyDistribution):
    """A rotating hot set takes a fixed fraction of the traffic.

    With probability ``hot_fraction`` a draw hits one of ``hot_count``
    hot keys (uniformly); otherwise it falls through to ``base``.  When
    ``churn_interval`` is set the hot set is re-drawn every interval --
    deterministically from ``seed`` and the epoch number, so every
    partition (and every rerun) sees the same hot auctions at the same
    virtual times.
    """

    def __init__(
        self, base, hot_count=16, hot_fraction=0.5, churn_interval=None, seed=17
    ):
        if not isinstance(base, KeyDistribution):
            raise EngineError("HotKeys base must be a KeyDistribution")
        if hot_count < 1 or hot_count > base.key_space:
            raise EngineError("hot_count must be in [1, key_space]")
        if not 0.0 < hot_fraction <= 1.0:
            raise EngineError("hot_fraction must be in (0, 1]")
        if churn_interval is not None and churn_interval <= 0:
            raise EngineError("churn_interval must be positive")
        self.base = base
        self.key_space = base.key_space
        self.hot_count = hot_count
        self.hot_fraction = hot_fraction
        self.churn_interval = churn_interval
        self.seed = seed
        self._epoch = None
        self._hot = None

    def hot_set(self, t):
        """The hot keys active at virtual time ``t``."""
        epoch = 0 if self.churn_interval is None else int(t // self.churn_interval)
        if epoch != self._epoch:
            rng = make_rng(self.seed, "hot-set", epoch)
            space = self.key_space
            hot = set()
            while len(hot) < min(self.hot_count, space):
                hot.add(rng.randrange(space))
            self._epoch = epoch
            self._hot = sorted(hot)
        return self._hot

    def sample(self, rng, t):
        """Draw one key."""
        if rng.random() < self.hot_fraction:
            hot = self.hot_set(t)
            return hot[rng.randrange(len(hot))]
        return self.base.sample(rng, t)


# -- stream specs and the generator -----------------------------------------


class StreamSpec:
    """One logical stream the generator produces."""

    def __init__(
        self,
        topic,
        record_bytes,
        rate,
        key_space=1_000_000,
        keys_per_tick=2,
        key_factory=None,
        key_distribution=None,
    ):
        if record_bytes < 1:
            raise EngineError(f"{topic}: record_bytes must be >= 1, got {record_bytes}")
        if keys_per_tick < 1:
            raise EngineError(
                f"{topic}: keys_per_tick must be >= 1, got {keys_per_tick}"
            )
        if key_space < 1:
            raise EngineError(f"{topic}: key_space must be >= 1, got {key_space}")
        if not callable(rate) and rate < 0:
            raise EngineError(f"{topic}: rate must be non-negative, got {rate}")
        self.topic = topic
        self.record_bytes = record_bytes
        #: Aggregate bytes/second across all partitions; a float or a
        #: callable ``t -> bytes_per_second``.
        self.rate = rate
        self.key_space = key_distribution.key_space if key_distribution else key_space
        #: Distinct keys emitted per partition per tick (weighted records).
        self.keys_per_tick = keys_per_tick
        #: Optional ``(partition, rng) -> key`` override.  The default
        #: draws uniform keys shared across partitions; tests that need a
        #: total per-key order use this to give each partition a disjoint
        #: key range.
        self.key_factory = key_factory
        #: Optional :class:`KeyDistribution` shaping which keys traffic
        #: hits (``key_factory``, when set, wins).
        self.key_distribution = key_distribution

    def rate_at(self, t):
        """The stream's byte rate at time t."""
        return self.rate(t) if callable(self.rate) else self.rate


class NexmarkGenerator:
    """Drives all streams of one workload into the durable log."""

    def __init__(self, sim, log, seed=42, tick=0.5):
        self.sim = sim
        self.log = log
        self.seed = seed
        self.tick = tick
        self.specs = []
        self._processes = []
        self.records_emitted = 0
        self.bytes_emitted = 0
        #: Summed record weights = modeled real-world event count.
        self.weight_emitted = 0
        #: Per-topic modeled event counts (sum of weights).
        self.weight_by_topic = {}
        #: Per-topic modeled traffic bytes.
        self.bytes_by_topic = {}
        self.running = False

    def add_stream(self, spec):
        """Register one stream spec with the generator."""
        self.specs.append(spec)
        self.weight_by_topic.setdefault(spec.topic, 0)
        self.bytes_by_topic.setdefault(spec.topic, 0)
        return self

    def start(self):
        """Start the background process; returns it."""
        self.running = True
        for spec in self.specs:
            partitions = self.log.partition_count(spec.topic)
            for partition in range(partitions):
                rng = make_rng(self.seed, spec.topic, partition)
                process = self.sim.process(
                    self._produce(spec, partition, partitions, rng),
                    name=f"generator:{spec.topic}/{partition}",
                )
                self._processes.append(process)
        return self

    def stop(self):
        """Stop the background process (no-op if not running)."""
        self.running = False
        for process in self._processes:
            if process.is_alive:
                process.defused = True
                process.interrupt("generator-stop")
        self._processes = []

    def _draw_key(self, spec, partition, rng, now):
        if spec.key_factory is not None:
            return spec.key_factory(partition, rng)
        if spec.key_distribution is not None:
            return spec.key_distribution.sample(rng, now)
        return rng.randrange(spec.key_space)

    def _produce(self, spec, partition, partitions, rng):
        while self.running:
            yield self.sim.timeout(self.tick)
            rate = spec.rate_at(self.sim.now)
            tick_bytes = rate * self.tick / partitions
            if tick_bytes <= 0:
                continue
            total_weight = max(1, int(tick_bytes / spec.record_bytes))
            keys = spec.keys_per_tick
            base_weight = total_weight // keys
            now = self.sim.now
            tick_records = []
            for i in range(keys):
                weight = base_weight + (1 if i < total_weight % keys else 0)
                if weight <= 0:
                    continue
                key = self._draw_key(spec, partition, rng, now)
                record = Record(
                    key,
                    # Spread timestamps inside the tick so they are
                    # strictly increasing per partition.
                    now - self.tick + (i + 1) * self.tick / keys,
                    nbytes=spec.record_bytes,
                    weight=weight,
                )
                tick_records.append(record)
                self.records_emitted += 1
                self.bytes_emitted += record.total_bytes
                self.weight_emitted += weight
                self.weight_by_topic[spec.topic] += weight
                self.bytes_by_topic[spec.topic] += record.total_bytes
            if tick_records:
                # One broker call (and one consumer wakeup) per tick, so a
                # source's poll sees the whole tick as one batch.
                self.log.append_batch(spec.topic, partition, tick_records)
