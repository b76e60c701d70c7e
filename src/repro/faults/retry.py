"""Retry with capped exponential backoff.

Every path that ships state blocks goes through
:class:`repro.cluster.cluster.ChunkedTransfer`, the only caller of
:func:`with_retry`, with one :data:`BLOCK_RETRY` budget per block.  The
policy is the same in every deployment and draws no random numbers, so a
run's timing depends only on its faults.
"""

from repro.common.errors import SimulationError
from repro.sim.flows import TransferFailed


class RetryPolicy:
    """How often and how patiently to retry a failed operation.

    ``attempts`` counts total tries (1 = no retry).  Backoff doubles from
    ``base_delay`` up to ``max_delay``.
    """

    __slots__ = ("attempts", "base_delay", "max_delay")

    def __init__(self, attempts, base_delay, max_delay):
        if attempts < 1:
            raise SimulationError(f"retry attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0:
            raise SimulationError("retry delays must be >= 0")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay

    def delay(self, retry_index):
        """Backoff before retry number ``retry_index`` (1-based)."""
        return min(self.base_delay * (2 ** (retry_index - 1)), self.max_delay)

    def __repr__(self):
        return (
            f"RetryPolicy(attempts={self.attempts}, base_delay={self.base_delay}, "
            f"max_delay={self.max_delay})"
        )


#: The one block-retry policy: six tries, so a block outlasts a fault of
#: up to 1.55 s of backoff (0.05 + 0.1 + 0.2 + 0.4 + 0.8 s) before its
#: stream fails.
BLOCK_RETRY = RetryPolicy(attempts=6, base_delay=0.05, max_delay=2.0)


def with_retry(sim, attempt, policy, describe=None):
    """Run ``attempt()`` under ``policy``; a ``yield from``-able generator.

    ``attempt`` is a zero-argument callable returning a fresh event to
    wait on (a transfer, a disk write).  A :class:`TransferFailed` is
    retried after the policy's backoff; the last failure propagates
    when attempts are exhausted.  Usage inside a process::

        moved = yield from with_retry(
            sim, lambda: cluster.transfer(src, dst, nbytes), BLOCK_RETRY
        )
    """
    for tries in range(1, policy.attempts + 1):
        try:
            result = yield attempt()
            return result
        except TransferFailed as exc:
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
