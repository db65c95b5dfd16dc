"""Pipeline checkpoints: digest-validated job outputs on the DFS.

Hadoop pipelines recover from driver death by re-reading the intermediate
outputs earlier jobs already materialised; :class:`PipelineCheckpoint`
models that contract on :class:`~repro.mapreduce.hdfs.InMemoryDFS`.  Each
completed job's output is stored under ``<root>/<job>``, and the DFS
records a sha256 content digest at write time.  On resume, a checkpoint is
trusted only if it exists *and* its digest still matches
(:meth:`PipelineCheckpoint.valid`) — a corrupted or half-written
checkpoint is treated as absent, so the job re-runs instead of feeding
garbage downstream.  :meth:`load` is the strict form: it raises a typed
:class:`~repro.errors.CheckpointError` on a digest mismatch rather than
returning silently wrong pairs.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.errors import CheckpointError, DFSError
from repro.mapreduce.hdfs import InMemoryDFS

Pair = Tuple[Any, Any]

DEFAULT_ROOT = "checkpoints"


class PipelineCheckpoint:
    """Store, validate and reload one pipeline's per-job outputs."""

    def __init__(self, dfs: InMemoryDFS, root: str = DEFAULT_ROOT) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")

    def path(self, job: str) -> str:
        return f"{self.root}/{job}"

    def store(self, job: str, pairs: Sequence[Pair]) -> int:
        """Materialise ``job``'s output (digest recorded by the DFS)."""
        return self.dfs.write(self.path(job), pairs, overwrite=True)

    def valid(self, job: str) -> bool:
        """Does a digest-valid checkpoint for ``job`` exist?

        ``False`` for a missing checkpoint *and* for one whose content no
        longer matches its recorded digest — both mean "re-run the job".
        A DFS read fault while validating also answers ``False``: an
        unreadable checkpoint must never be skipped over.
        """
        path = self.path(job)
        if not self.dfs.exists(path):
            return False
        try:
            return self.dfs.verify(path)
        except DFSError:
            return False

    def load(self, job: str) -> List[Pair]:
        """The checkpointed output of ``job``; digest-checked.

        Raises :class:`CheckpointError` if the checkpoint is missing or
        fails its digest — callers that got ``valid() == True`` can still
        hit this if the content was corrupted in between (time-of-check /
        time-of-use), so resume logic should treat it as "re-run".
        """
        path = self.path(job)
        if not self.dfs.exists(path):
            raise CheckpointError(f"no checkpoint for job {job!r} at {path!r}")
        if not self.dfs.verify(path):
            raise CheckpointError(
                f"checkpoint for job {job!r} at {path!r} failed its sha256 "
                "digest check — the materialised output was corrupted; "
                "re-run the job"
            )
        return self.dfs.read(path)
