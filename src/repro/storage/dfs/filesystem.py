"""DFS data path: writes with replica pipelines, locality-aware reads."""

from repro.common.errors import StorageError
from repro.common.units import split_bytes
from repro.sim.flows import TransferFailed
from repro.storage.dfs.namenode import NameNode


class DistributedFileSystem:
    """Block-centric replicated storage over the cluster's datanodes.

    Writes pipeline each block through its replicas (local disk write for
    the first replica, network + disk for the rest).  Reads prefer a local
    replica -- only blocks without one cross the network, which is what
    makes Flink's bulk state fetching scale with state size (Table 1).
    """

    def __init__(
        self,
        sim,
        cluster,
        datanodes,
        block_size=64 * 1024 * 1024,
        replication=2,
        seed=0,
    ):
        self.sim = sim
        self.cluster = cluster
        self.block_size = block_size
        self.namenode = NameNode(datanodes, replication=replication, seed=seed)

    # -- write -------------------------------------------------------------

    def write(self, path, nbytes, client, parallelism=4):
        """Write a file of ``nbytes`` from ``client``; returns a Process.

        Blocks are written through ``parallelism`` concurrent pipelines
        (HDFS clients keep several blocks in flight).
        """
        return self.sim.process(
            self._write(path, nbytes, client, parallelism),
            name=f"dfs-write:{path}",
        )

    def _write(self, path, nbytes, client, parallelism):
        sizes = self._split(nbytes)
        blocks = [self.namenode.place_block(size, client) for size in sizes]
        for batch_start in range(0, len(blocks), parallelism):
            batch = blocks[batch_start : batch_start + parallelism]
            yield self.sim.all_of(
                [self.sim.process(self._write_block(block, client)) for block in batch]
            )
        self.namenode.create_file(path, blocks)
        return self.namenode.files[path]

    def _write_block(self, block, client):
        previous = client
        for replica in block.replicas:
            if replica is not previous:
                yield self.cluster.transfer(
                    previous, replica, block.size, tag="dfs-write"
                )
            yield replica.disk_write(block.size, tag="dfs-write")
            previous = replica

    # -- read -----------------------------------------------------------------

    def read(self, path, client, parallelism=4):
        """Read a file to ``client``; returns a Process yielding bytes read."""
        return self.sim.process(
            self._read(path, client, parallelism), name=f"dfs-read:{path}"
        )

    def _read(self, path, client, parallelism):
        meta = self.namenode.lookup(path)
        blocks = list(meta.blocks)
        for batch_start in range(0, len(blocks), parallelism):
            batch = blocks[batch_start : batch_start + parallelism]
            yield self.sim.all_of(
                [self.sim.process(self._read_block(block, client)) for block in batch]
            )
        return meta.size

    def _read_block(self, block, client):
        alive = block.alive_replicas()
        if not alive:
            raise StorageError(f"all replicas of {block!r} are lost")
        if client in alive:
            yield client.disk_read(block.size, tag="dfs-read")
            return
        # Fail over across replicas: a datanode behind a partition does
        # not doom the read.
        for source in alive:
            try:
                # The datanode streams the block: its disk read overlaps
                # the network transfer, so the block takes
                # max(read, transfer).
                yield self.sim.all_of(
                    [
                        source.disk_read(block.size, tag="dfs-read"),
                        self.cluster.transfer(
                            source, client, block.size, tag="dfs-read"
                        ),
                    ]
                )
                return
            except TransferFailed as exc:
                last_error = exc
        raise last_error

    # -- metadata ------------------------------------------------------------------

    def register(self, path, nbytes, client):
        """Install a file's metadata and disk usage without simulated I/O.

        Used by experiment preloading: the file "was written in the past"
        (before the measured window), so only placement and disk occupancy
        matter, not transfer time.
        """
        blocks = [self.namenode.place_block(size, client) for size in self._split(nbytes)]
        for block in blocks:
            for replica in block.replicas:
                disk = replica.pick_disk()
                disk.used += block.size
        return self.namenode.create_file(path, blocks)

    def delete(self, path):
        """Remove a file, releasing replica disk space (no simulated cost)."""
        meta = self.namenode.delete(path)
        if meta is None:
            return 0
        for block in meta.blocks:
            for replica in block.replicas:
                replica.disk_free(block.size)
        return meta.size

    def exists(self, path):
        """True when the path exists."""
        return self.namenode.exists(path)

    def file_size(self, path):
        """Size in bytes of a stored file."""
        return self.namenode.lookup(path).size

    def _split(self, nbytes):
        # A zero-byte file still has one (empty) block.
        return split_bytes(nbytes, self.block_size) or [0]
