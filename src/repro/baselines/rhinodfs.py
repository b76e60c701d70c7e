"""RhinoDFS: the handover protocol with DFS-based state migration.

The paper's ablation variant (§5): reconfigurations use Rhino's markers,
alignment, and channel rewiring, but checkpointed state is persisted to
(and fetched from) the distributed file system with block-centric
replication instead of the state-centric replica chains.  Recovery is
fine-grained (only the failed instance's state is fetched), yet fetching
crosses the network for remote blocks -- which is why RhinoDFS sits
between Rhino and Flink in Table 1 (~11x slower than Rhino at 1 TB).
"""

from repro.core.api import Rhino, RhinoConfig
from repro.engine.checkpointing import DFSCheckpointStorage


def make_rhinodfs(job, cluster, dfs, **config_overrides):
    """Attach a RhinoDFS runtime to ``job``.

    The job's checkpoint storage becomes a :class:`DFSCheckpointStorage`
    (built under ``/rhinodfs`` unless the job was created with one), so
    checkpoints land on the DFS and ``Rhino.attach`` keeps it instead of
    installing replica chains: this is where RhinoDFS is chosen.
    """
    if not isinstance(job.checkpoint_storage, DFSCheckpointStorage):
        job.checkpoint_storage = DFSCheckpointStorage(job.sim, dfs, prefix="/rhinodfs")
    return Rhino(job, cluster, RhinoConfig(**config_overrides)).attach()
