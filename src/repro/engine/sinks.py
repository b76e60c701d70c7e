"""Exactly-once sinks: the two-phase-commit pattern.

A plain collecting sink exposes at-least-once output under restart-based
recovery: replayed records re-emit results.  The transactional sink
follows Flink's TwoPhaseCommitSink: results buffer in a *pending*
transaction, the checkpoint barrier *pre-commits* the transaction, and
the checkpoint's global completion *commits* it to the external world.
A restart discards whatever was never committed; the replay then
regenerates exactly those results.
"""

from repro.engine.operators import OperatorLogic


class TransactionalSinkLogic(OperatorLogic):
    """A sink whose visible output is exactly-once.

    * ``committed`` -- results whose checkpoint completed (the "external
      system" view).
    * pending/pre-committed transactions are internal and vanish with the
      instance on a restart.
    """

    cpu_per_record = 1e-7
    #: Committed results kept; ``committed_count`` counts them all.
    keep = 100_000

    def __init__(self):
        self.committed = []
        self.committed_count = 0
        self._pending = []  # current transaction
        self._prepared = {}  # checkpoint_id -> pre-committed results
        self._listening = False

    def open(self, ctx):
        """Bind to the instance and subscribe to checkpoint completion."""
        super().open(ctx)
        if not self._listening:
            self._listening = True
            ctx.instance.job.coordinator.checkpoint_listeners.append(
                self._on_checkpoint_complete
            )

    def process_batch(self, batch, side=0):
        """Buffer the whole batch into the current transaction at once."""
        self._pending.extend(
            (r.key, r.timestamp, r.value, r.weight) for r in batch.records
        )
        return ()

    def on_barrier(self, checkpoint_id):
        """Pre-commit: the pending transaction rides with the checkpoint."""
        if self._pending:
            self._prepared.setdefault(checkpoint_id, []).extend(self._pending)
            self._pending = []

    def _on_checkpoint_complete(self, record):
        """Commit every transaction pre-committed at this checkpoint."""
        results = self._prepared.pop(record.checkpoint_id, None)
        if not results:
            return
        self.committed_count += len(results)
        room = self.keep - len(self.committed)
        if room > 0:
            self.committed.extend(results[:room])

    @property
    def results(self):
        """The externally visible output (committed only)."""
        return self.committed
