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

    The job must have been created with a
    :class:`DFSCheckpointStorage` so periodic checkpoints land on the DFS;
    this helper builds one (under ``/rhinodfs``) when the job still uses
    local storage.  That storage is what selects the DFS path.
    """
    storage = job.checkpoint_storage
    if not isinstance(storage, DFSCheckpointStorage):
        storage = DFSCheckpointStorage(job.sim, dfs, prefix="/rhinodfs")
        job.checkpoint_storage = storage
        job.coordinator.storage = storage
    return Rhino(job, cluster, RhinoConfig(**config_overrides)).attach()
