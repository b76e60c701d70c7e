"""Retry with capped, jittered exponential backoff.

One policy object is shared by every path that ships state blocks: they
all go through :class:`repro.cluster.cluster.ChunkedTransfer`, the only
caller of :func:`with_retry`, with one budget per block.  The default
:data:`NO_RETRY` performs exactly one attempt and adds *zero* overhead or
RNG draws, so runs with hardening disabled stay bit-identical to
pre-chaos behavior.
"""

from repro.common.errors import SimulationError
from repro.sim.flows import TransferFailed


class RetryPolicy:
    """How often and how patiently to retry a failed operation.

    ``attempts`` counts total tries (1 = no retry).  Backoff doubles from
    ``base_delay`` up to ``max_delay``; ``jitter`` adds a multiplicative
    random spread of up to ``jitter`` fraction, drawn from ``rng`` (a
    seeded :class:`random.Random`, e.g. from
    :func:`repro.common.rng.make_rng`).  Without an rng the backoff is
    purely deterministic.
    """

    __slots__ = ("attempts", "base_delay", "max_delay", "jitter", "rng")

    def __init__(self, attempts=1, base_delay=0.05, max_delay=2.0, jitter=0.1, rng=None):
        if attempts < 1:
            raise SimulationError(f"retry attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0 or jitter < 0:
            raise SimulationError("retry delays and jitter must be >= 0")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.rng = rng

    @property
    def enabled(self):
        """True when more than one attempt is allowed."""
        return self.attempts > 1

    def delay(self, retry_index):
        """Backoff before retry number ``retry_index`` (1-based)."""
        delay = min(self.base_delay * (2 ** (retry_index - 1)), self.max_delay)
        if self.jitter > 0 and self.rng is not None:
            delay *= 1.0 + self.jitter * self.rng.random()
        return delay

    def __repr__(self):
        return (
            f"RetryPolicy(attempts={self.attempts}, base_delay={self.base_delay}, "
            f"max_delay={self.max_delay}, jitter={self.jitter})"
        )


#: The default everywhere: a single attempt, no backoff, no RNG draws.
NO_RETRY = RetryPolicy(attempts=1)


def with_retry(sim, attempt, policy, retry_on=(TransferFailed,), describe=None):
    """Run ``attempt()`` under ``policy``; a ``yield from``-able generator.

    ``attempt`` is a zero-argument callable returning a fresh event to
    wait on (a transfer, a disk write).  Failures matching ``retry_on``
    are retried after the policy's backoff; the last failure propagates
    when attempts are exhausted.  Usage inside a process::

        moved = yield from with_retry(
            sim, lambda: cluster.transfer(src, dst, nbytes), policy
        )
    """
    for tries in range(1, policy.attempts + 1):
        try:
            result = yield attempt()
            return result
        except retry_on as exc:
            if tries >= policy.attempts:
                raise
            delay = policy.delay(tries)
            if sim.tracer.enabled:
                sim.tracer.event(
                    "chaos.retry",
                    track="chaos",
                    what=describe or "transfer",
                    attempt=tries,
                    delay=round(delay, 4),
                    error=type(exc).__name__,
                )
            if delay > 0:
                yield sim.timeout(delay)
    raise SimulationError("unreachable: retry loop exited")  # pragma: no cover
